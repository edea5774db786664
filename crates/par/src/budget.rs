//! Thread-budget admission control for concurrent jobs.
//!
//! A scenario engine multiplexes many independent solver jobs over one
//! machine. Each job occupies its executor's thread (a distributed job,
//! one per worker); run enough of them at once and the host
//! oversubscribes, wrecking every job's latency. [`ThreadBudget`] is the admission primitive: a
//! counting semaphore over a fixed total thread budget. A job acquires
//! a lease for the threads it will occupy before it starts and releases
//! it (by dropping the [`BudgetLease`]) when it finishes, so the sum of
//! running jobs' thread demands never exceeds the budget.
//!
//! Admission order is **strict priority classes with
//! earliest-deadline-first inside each class** ([`AdmitRequest`]): a
//! queued [`Priority::High`] request is always served before queued
//! normal or low ones, and within a class requests with earlier
//! deadlines go first; requests without deadlines rank as
//! infinitely-late deadlines and fall back to arrival (FIFO) order
//! among themselves. Only the best-ranked waiter may take threads — a
//! wide job at the head of its class blocks later narrow peers until it
//! fits, so heavy jobs cannot be starved by a stream of light ones.
//! The legacy [`ThreadBudget::acquire`] is the degenerate case: every
//! caller is `Priority::Normal` with no deadline, which is exactly the
//! old fair-FIFO semaphore.
//!
//! Overload safety comes from two bounds: an optional waiter-queue
//! limit ([`ThreadBudget::with_queue_limit`]) that fails
//! [`ThreadBudget::acquire_admit`] immediately with
//! [`AdmitError::QueueFull`] instead of queueing without bound, and a
//! per-request deadline after which a still-queued request gives up
//! with [`AdmitError::DeadlineExpired`]. Both outcomes are counted
//! ([`ThreadBudget::rejected`], [`ThreadBudget::timed_out`]) and the
//! live queue depth is observable ([`ThreadBudget::queue_depth`]).

use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Strict admission priority class; lower classes are always served
/// first when both are queued.
///
/// # Example
///
/// ```
/// use matex_par::Priority;
///
/// assert!(Priority::High.class() < Priority::Normal.class());
/// assert_eq!(Priority::parse("low"), Some(Priority::Low));
/// assert_eq!(Priority::default(), Priority::Normal);
/// assert_eq!(Priority::High.as_str(), "high");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Served before everything else that is queued.
    High,
    /// The default class; the legacy FIFO behavior lives here.
    #[default]
    Normal,
    /// Background work: served only when no higher class is queued.
    Low,
}

impl Priority {
    /// The numeric class (0 is most urgent).
    pub fn class(self) -> u8 {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// The canonical lowercase name (`"high"`/`"normal"`/`"low"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Parses a canonical name; `None` for anything else.
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }
}

/// A priority/deadline-qualified admission request for
/// [`ThreadBudget::acquire_admit`] / [`ThreadBudget::try_acquire_admit`].
///
/// # Example
///
/// ```
/// use matex_par::{AdmitRequest, Priority, ThreadBudget};
/// use std::time::{Duration, Instant};
///
/// let budget = ThreadBudget::new(4);
/// let req = AdmitRequest::new(2)
///     .priority(Priority::High)
///     .deadline(Instant::now() + Duration::from_secs(1));
/// let lease = budget.acquire_admit(req).expect("uncontended grant");
/// assert_eq!(lease.threads(), 2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AdmitRequest {
    want: usize,
    priority: Priority,
    deadline: Option<Instant>,
}

impl AdmitRequest {
    /// A `Priority::Normal` request for `want` threads with no deadline.
    pub fn new(want: usize) -> AdmitRequest {
        AdmitRequest {
            want,
            priority: Priority::Normal,
            deadline: None,
        }
    }

    /// Sets the priority class.
    pub fn priority(mut self, p: Priority) -> AdmitRequest {
        self.priority = p;
        self
    }

    /// Sets the absolute deadline: the request is ranked EDF within its
    /// class while queued and gives up with
    /// [`AdmitError::DeadlineExpired`] if still unserved at `t`.
    pub fn deadline(mut self, t: Instant) -> AdmitRequest {
        self.deadline = Some(t);
        self
    }
}

/// Why an admission request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AdmitError {
    /// The waiter queue was at its configured bound; the request was
    /// rejected without queueing. Carries the depth observed.
    QueueFull(usize),
    /// The request's deadline passed before threads could be granted.
    DeadlineExpired,
    /// A `try` acquire could not be served immediately (threads busy or
    /// better-ranked waiters queued).
    WouldBlock,
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::QueueFull(depth) => {
                write!(f, "admission queue full ({depth} waiters)")
            }
            AdmitError::DeadlineExpired => write!(f, "deadline expired while queued"),
            AdmitError::WouldBlock => write!(f, "would block"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// Rank of a queued waiter: strict class, then EDF (no deadline ranks
/// as infinitely late), then arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WaitKey {
    class: u8,
    deadline: Option<Instant>,
    seq: u64,
}

impl Ord for WaitKey {
    fn cmp(&self, other: &WaitKey) -> CmpOrdering {
        self.class
            .cmp(&other.class)
            .then_with(|| match (self.deadline, other.deadline) {
                (Some(a), Some(b)) => a.cmp(&b),
                (Some(_), None) => CmpOrdering::Less,
                (None, Some(_)) => CmpOrdering::Greater,
                (None, None) => CmpOrdering::Equal,
            })
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for WaitKey {
    fn partial_cmp(&self, other: &WaitKey) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug)]
struct BudgetState {
    in_use: usize,
    /// Arrival counter for FIFO tie-breaks.
    next_seq: u64,
    /// Keys of every queued (blocked) waiter; the minimum is the head.
    waiters: Vec<WaitKey>,
}

impl BudgetState {
    fn head(&self) -> Option<WaitKey> {
        self.waiters.iter().min().copied()
    }

    fn remove(&mut self, key: WaitKey) {
        if let Some(pos) = self.waiters.iter().position(|w| *w == key) {
            self.waiters.swap_remove(pos);
        }
    }
}

/// A priority-aware counting semaphore over a total thread budget.
///
/// # Example
///
/// ```
/// use matex_par::ThreadBudget;
///
/// let budget = ThreadBudget::new(8);
/// let a = budget.acquire(5);
/// assert_eq!(budget.in_use(), 5);
/// assert!(budget.try_acquire(4).is_none()); // would oversubscribe
/// drop(a);
/// let b = budget.try_acquire(4).expect("fits after release");
/// assert_eq!(b.threads(), 4);
/// ```
#[derive(Debug)]
pub struct ThreadBudget {
    total: usize,
    /// `usize::MAX` means unbounded (the default).
    queue_limit: usize,
    state: Mutex<BudgetState>,
    cv: Condvar,
    rejected: AtomicU64,
    timed_out: AtomicU64,
}

impl ThreadBudget {
    /// A budget of `total` threads (at least 1) with an unbounded
    /// waiter queue.
    pub fn new(total: usize) -> ThreadBudget {
        ThreadBudget::with_queue_limit(total, usize::MAX)
    }

    /// A budget of `total` threads whose waiter queue holds at most
    /// `limit` queued [`acquire_admit`](ThreadBudget::acquire_admit)
    /// requests; further ones fail fast with [`AdmitError::QueueFull`].
    /// The infallible legacy [`acquire`](ThreadBudget::acquire) is
    /// exempt from the bound (it has no error path).
    pub fn with_queue_limit(total: usize, limit: usize) -> ThreadBudget {
        ThreadBudget {
            total: total.max(1),
            queue_limit: limit,
            state: Mutex::new(BudgetState {
                in_use: 0,
                next_seq: 0,
                waiters: Vec::new(),
            }),
            cv: Condvar::new(),
            rejected: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
        }
    }

    /// The total thread budget.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Threads currently leased out.
    pub fn in_use(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).in_use
    }

    /// Requests currently queued (blocked) for admission.
    pub fn queue_depth(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .waiters
            .len()
    }

    /// Requests refused because the waiter queue was at its bound.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Requests that gave up because their deadline expired while queued.
    pub fn timed_out(&self) -> u64 {
        self.timed_out.load(Ordering::Relaxed)
    }

    /// Clamps a demand into the grantable range `1..=total`. A job
    /// asking for more than the whole machine is admitted alone rather
    /// than deadlocked forever.
    fn clamp(&self, want: usize) -> usize {
        want.clamp(1, self.total)
    }

    /// Blocks until `want` threads (clamped to the budget) can be leased,
    /// in strict FIFO order with every other `Priority::Normal` acquirer.
    pub fn acquire(&self, want: usize) -> BudgetLease<'_> {
        match self.admit(self.clamp(want), Priority::Normal, None, true) {
            Ok(lease) => lease,
            // Unreachable: no deadline and the bound is bypassed.
            Err(_) => unreachable!("unbounded no-deadline admit cannot fail"),
        }
    }

    /// Blocks until the request can be leased, honoring strict priority
    /// classes and EDF order within a class. Fails fast with
    /// [`AdmitError::QueueFull`] when the queue bound is hit, and with
    /// [`AdmitError::DeadlineExpired`] if the request's deadline passes
    /// while it is still queued.
    pub fn acquire_admit(&self, req: AdmitRequest) -> Result<BudgetLease<'_>, AdmitError> {
        self.admit(self.clamp(req.want), req.priority, req.deadline, false)
    }

    fn admit(
        &self,
        want: usize,
        priority: Priority,
        deadline: Option<Instant>,
        bypass_limit: bool,
    ) -> Result<BudgetLease<'_>, AdmitError> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let key = WaitKey {
            class: priority.class(),
            deadline,
            seq: st.next_seq,
        };
        st.next_seq += 1;
        // Fast path: nobody ranked at-or-before us is queued and the
        // threads fit right now.
        let blocked =
            |st: &BudgetState| st.head().is_some_and(|h| h < key) || st.in_use + want > self.total;
        if !blocked(&st) {
            st.in_use += want;
            drop(st);
            self.cv.notify_all();
            return Ok(BudgetLease {
                budget: self,
                threads: want,
            });
        }
        if !bypass_limit && st.waiters.len() >= self.queue_limit {
            let depth = st.waiters.len();
            drop(st);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(AdmitError::QueueFull(depth));
        }
        st.waiters.push(key);
        loop {
            // Only the best-ranked waiter may take threads; everyone
            // else re-queues behind it even if they would fit.
            if st.head() == Some(key) && st.in_use + want <= self.total {
                st.remove(key);
                st.in_use += want;
                drop(st);
                // The next-best waiter may now be eligible.
                self.cv.notify_all();
                return Ok(BudgetLease {
                    budget: self,
                    threads: want,
                });
            }
            match deadline {
                None => st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner()),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        st.remove(key);
                        drop(st);
                        self.timed_out.fetch_add(1, Ordering::Relaxed);
                        // Our departure may unblock a worse-ranked waiter.
                        self.cv.notify_all();
                        return Err(AdmitError::DeadlineExpired);
                    }
                    let (guard, _) = self
                        .cv
                        .wait_timeout(st, d - now)
                        .unwrap_or_else(|e| e.into_inner());
                    st = guard;
                }
            }
        }
    }

    /// Non-blocking acquire: `None` when the lease does not fit *right
    /// now* or queued acquirers rank at-or-before it (admission order is
    /// preserved — `try_acquire` never jumps the line).
    pub fn try_acquire(&self, want: usize) -> Option<BudgetLease<'_>> {
        self.try_acquire_admit(AdmitRequest::new(want)).ok()
    }

    /// Non-blocking priority acquire: grants immediately iff the
    /// threads fit and no queued waiter outranks the request (a
    /// `Priority::High` try may overtake queued normal traffic, exactly
    /// as a blocking high acquire would).
    pub fn try_acquire_admit(&self, req: AdmitRequest) -> Result<BudgetLease<'_>, AdmitError> {
        let want = self.clamp(req.want);
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let key = WaitKey {
            class: req.priority.class(),
            deadline: req.deadline,
            seq: st.next_seq,
        };
        if st.head().is_some_and(|h| h < key) || st.in_use + want > self.total {
            return Err(AdmitError::WouldBlock);
        }
        st.next_seq += 1;
        st.in_use += want;
        drop(st);
        self.cv.notify_all();
        Ok(BudgetLease {
            budget: self,
            threads: want,
        })
    }
}

/// An outstanding lease of budget threads; returns them on drop.
#[derive(Debug)]
pub struct BudgetLease<'a> {
    budget: &'a ThreadBudget,
    threads: usize,
}

impl BudgetLease<'_> {
    /// Threads this lease holds.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Drop for BudgetLease<'_> {
    fn drop(&mut self) {
        let mut st = self.budget.state.lock().unwrap_or_else(|e| e.into_inner());
        st.in_use -= self.threads;
        drop(st);
        self.budget.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn leases_never_oversubscribe() {
        let budget = Arc::new(ThreadBudget::new(3));
        let peak = Arc::new(AtomicUsize::new(0));
        let current = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let (budget, peak, current) = (budget.clone(), peak.clone(), current.clone());
                std::thread::spawn(move || {
                    let lease = budget.acquire(1 + i % 3);
                    let now =
                        current.fetch_add(lease.threads(), Ordering::SeqCst) + lease.threads();
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    current.fetch_sub(lease.threads(), Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 3, "budget exceeded");
        assert_eq!(budget.in_use(), 0);
    }

    #[test]
    fn oversized_demands_are_clamped_not_deadlocked() {
        let budget = ThreadBudget::new(2);
        let lease = budget.acquire(100);
        assert_eq!(lease.threads(), 2);
        drop(lease);
        let zero = budget.acquire(0);
        assert_eq!(zero.threads(), 1);
    }

    #[test]
    fn fifo_wide_job_is_not_starved() {
        // A 4-thread job queued behind a running 1-thread job must be
        // served before 1-thread jobs that arrived after it.
        let budget = Arc::new(ThreadBudget::new(4));
        let first = budget.acquire(1);
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let wide = {
            let (budget, order) = (budget.clone(), order.clone());
            std::thread::spawn(move || {
                let _lease = budget.acquire(4);
                order.lock().unwrap().push("wide");
            })
        };
        // Give the wide job time to queue.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let narrow = {
            let (budget, order) = (budget.clone(), order.clone());
            std::thread::spawn(move || {
                let _lease = budget.acquire(1);
                order.lock().unwrap().push("narrow");
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Nothing can proceed while `first` holds a thread and the wide
        // job heads the queue.
        assert!(order.lock().unwrap().is_empty());
        drop(first);
        wide.join().unwrap();
        narrow.join().unwrap();
        assert_eq!(*order.lock().unwrap(), vec!["wide", "narrow"]);
    }

    #[test]
    fn try_acquire_respects_queue_and_capacity() {
        let budget = ThreadBudget::new(2);
        let a = budget.try_acquire(2).expect("empty budget grants");
        assert!(budget.try_acquire(1).is_none());
        drop(a);
        assert!(budget.try_acquire(1).is_some());
    }

    /// Spawns a blocked acquirer and waits until it is queued.
    fn queued_acquirer(
        budget: &Arc<ThreadBudget>,
        req: AdmitRequest,
        order: &Arc<std::sync::Mutex<Vec<&'static str>>>,
        tag: &'static str,
    ) -> std::thread::JoinHandle<()> {
        let depth = budget.queue_depth();
        let h = {
            let (budget, order) = (budget.clone(), order.clone());
            std::thread::spawn(move || {
                let _lease = budget.acquire_admit(req).expect("eventually served");
                order.lock().unwrap().push(tag);
            })
        };
        while budget.queue_depth() <= depth {
            std::thread::yield_now();
        }
        h
    }

    #[test]
    fn strict_priority_overtakes_queued_normal_traffic() {
        let budget = Arc::new(ThreadBudget::new(1));
        let hold = budget.acquire(1);
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let normal = queued_acquirer(&budget, AdmitRequest::new(1), &order, "normal");
        let high = queued_acquirer(
            &budget,
            AdmitRequest::new(1).priority(Priority::High),
            &order,
            "high",
        );
        drop(hold);
        high.join().unwrap();
        normal.join().unwrap();
        assert_eq!(*order.lock().unwrap(), vec!["high", "normal"]);
    }

    #[test]
    fn edf_orders_within_a_class_and_fifo_breaks_ties() {
        let budget = Arc::new(ThreadBudget::new(1));
        let hold = budget.acquire(1);
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let far = Instant::now() + Duration::from_secs(60);
        let near = Instant::now() + Duration::from_secs(30);
        // Arrival order: no-deadline, far, near — EDF must serve
        // near, far, then the deadline-less request last.
        let none = queued_acquirer(&budget, AdmitRequest::new(1), &order, "none");
        let late = queued_acquirer(&budget, AdmitRequest::new(1).deadline(far), &order, "far");
        let soon = queued_acquirer(&budget, AdmitRequest::new(1).deadline(near), &order, "near");
        drop(hold);
        soon.join().unwrap();
        late.join().unwrap();
        none.join().unwrap();
        assert_eq!(*order.lock().unwrap(), vec!["near", "far", "none"]);
    }

    #[test]
    fn queue_limit_rejects_instead_of_queueing() {
        let budget = ThreadBudget::with_queue_limit(1, 1);
        let hold = budget.acquire(1);
        std::thread::scope(|s| {
            // First waiter occupies the single queue slot.
            let waiter = s.spawn(|| budget.acquire_admit(AdmitRequest::new(1)));
            while budget.queue_depth() == 0 {
                std::thread::yield_now();
            }
            // Second admit finds the queue full and is rejected now.
            let err = budget.acquire_admit(AdmitRequest::new(1)).unwrap_err();
            assert_eq!(err, AdmitError::QueueFull(1));
            assert_eq!(budget.rejected(), 1);
            drop(hold);
            assert!(waiter.join().unwrap().is_ok());
        });
        assert_eq!(budget.queue_depth(), 0);
    }

    #[test]
    fn deadline_expiry_releases_the_queue_slot() {
        let budget = ThreadBudget::new(1);
        let hold = budget.acquire(1);
        let deadline = Instant::now() + Duration::from_millis(10);
        let err = budget
            .acquire_admit(AdmitRequest::new(1).deadline(deadline))
            .unwrap_err();
        assert_eq!(err, AdmitError::DeadlineExpired);
        assert_eq!(budget.timed_out(), 1);
        assert_eq!(budget.queue_depth(), 0);
        drop(hold);
        assert!(budget.try_acquire(1).is_some());
    }

    #[test]
    fn try_admit_lets_high_jump_but_not_normal() {
        let budget = Arc::new(ThreadBudget::new(2));
        let hold = budget.acquire(1);
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        // A wide normal waiter (wants 2) heads the queue and cannot fit.
        let wide = queued_acquirer(&budget, AdmitRequest::new(2), &order, "wide");
        // A normal try must not jump it, even though 1 thread is free.
        assert_eq!(
            budget.try_acquire_admit(AdmitRequest::new(1)).unwrap_err(),
            AdmitError::WouldBlock
        );
        // A high-priority try outranks the queued normal waiter.
        let jumped = budget
            .try_acquire_admit(AdmitRequest::new(1).priority(Priority::High))
            .expect("high try overtakes normal queue");
        drop(jumped);
        drop(hold);
        wide.join().unwrap();
    }
}
