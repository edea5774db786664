//! The persistent worker pool.
//!
//! Design constraints, in order:
//!
//! 1. **Low dispatch latency.** The kernels this pool serves are small
//!    (a CSR mat-vec over a few thousand rows, one Gram–Schmidt pass),
//!    so a dispatch must cost far less than a thread spawn.
//!    Workers therefore persist across calls and spin briefly on an
//!    epoch counter before parking on a condvar.
//! 2. **No allocation per dispatch.** [`ParPool::run`] publishes a
//!    borrowed closure through a pre-allocated job slot; the substitution
//!    hot path stays allocation-free with the pool engaged (see
//!    `matex-core/tests/alloc_free.rs`).
//! 3. **Determinism is the caller's, scheduling is ours.** The pool
//!    hands out item indices through a shared cursor, so *which* thread
//!    runs an item is arbitrary — callers must write to disjoint
//!    locations per item. Every kernel in this crate does, which is what
//!    makes results bitwise-invariant in the worker count.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Spin iterations on the epoch counter before a worker parks. Small on
/// purpose: on an oversubscribed host, spinning steals cycles from the
/// thread that actually has work.
const SPIN_ROUNDS: usize = 256;
/// Spin iterations the submitter performs waiting for stragglers before
/// it starts yielding its timeslice.
const DRAIN_SPINS: usize = 4096;

/// A lifetime-erased borrow of the submitted closure. Only valid while
/// the `run` call that published it is blocked in its drain loop.
struct Job {
    func: *const (dyn Fn(usize) + Sync),
    len: usize,
}

struct Shared {
    /// Bumped once per published job (and once at shutdown).
    epoch: AtomicU64,
    /// Written by the submitter strictly before the epoch bump, cleared
    /// strictly after every worker finished — the epoch/active protocol
    /// is what makes the `UnsafeCell` race-free.
    job: UnsafeCell<Option<Job>>,
    /// Next unclaimed item of the current job.
    cursor: AtomicUsize,
    /// Workers that have not yet drained the current job.
    active: AtomicUsize,
    /// Workers currently parked (or about to park) on the condvar.
    sleepers: AtomicUsize,
    /// Set when any thread panicked inside the current job's closure;
    /// the submitter re-raises after the dispatch fully drains.
    panicked: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
    shutdown: AtomicBool,
}

// SAFETY: the `job` cell is only written by the thread inside `run`
// (serialized by `submit`), with a release epoch bump between the write
// and any worker read, and cleared only after `active` drained to zero.
unsafe impl Send for Shared {}
unsafe impl Sync for Shared {}

/// A persistent, reusable worker pool (`threads - 1` workers plus the
/// calling thread).
///
/// One pool dispatch executes a closure once per item index, with the
/// items distributed over the workers through a shared cursor. Dispatches
/// are serialized: concurrent `run` calls queue on an internal mutex, so
/// sharing a pool across threads is safe but not concurrent — the
/// distributed scheduler instead gives every worker its own pool slice
/// (see `matex_dist`).
///
/// # Example
///
/// ```
/// use matex_par::ParPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = ParPool::new(2);
/// let hits = AtomicUsize::new(0);
/// pool.run(100, &|_i| {
///     hits.fetch_add(1, Ordering::Relaxed);
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 100);
/// ```
pub struct ParPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    submit: Mutex<()>,
}

impl std::fmt::Debug for ParPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParPool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl ParPool {
    /// Creates a pool that executes with `threads` total threads
    /// (`threads - 1` spawned workers; the submitting thread is always
    /// the last participant).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> ParPool {
        assert!(threads >= 1, "a pool needs at least one thread");
        let shared = Arc::new(Shared {
            epoch: AtomicU64::new(0),
            job: UnsafeCell::new(None),
            cursor: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..threads)
            .map(|k| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("matex-par-{k}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ParPool {
            shared,
            workers,
            submit: Mutex::new(()),
        }
    }

    /// The process-wide one-thread pool: no workers, every dispatch runs
    /// inline on the caller. Every solver, distributed node and engine
    /// job runs its kernels here (so does a `None` pool argument); a
    /// wider pool runs the *same tiled algorithms*, so results are
    /// bitwise-invariant in the width.
    pub fn inline() -> &'static ParPool {
        static INLINE: OnceLock<ParPool> = OnceLock::new();
        INLINE.get_or_init(|| ParPool::new(1))
    }

    /// Total threads a dispatch executes on (workers + caller).
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Executes `f(i)` for every `i in 0..len`, distributing items over
    /// the pool. Blocks until all items completed. `f` must tolerate
    /// being called from several threads at once on *different* items;
    /// for deterministic results it must write only to locations owned
    /// by its item.
    ///
    /// # Panics
    ///
    /// A panic inside `f` — on any thread — is re-raised here on the
    /// submitting thread, but only after every worker finished with the
    /// job (the borrowed closure must never be touched after `run`
    /// unwinds).
    pub fn run(&self, len: usize, f: &(dyn Fn(usize) + Sync)) {
        if len == 0 {
            return;
        }
        if self.workers.is_empty() || len == 1 {
            for i in 0..len {
                f(i);
            }
            return;
        }
        // Poisoning carries no meaning for either pool mutex (the drain
        // guard restores every invariant on unwind), so a panic inside a
        // previous dispatch must not brick the pool.
        let _guard = self.submit.lock().unwrap_or_else(|e| e.into_inner());
        let shared = &*self.shared;
        // Publish the job. The borrow is erased to 'static only for the
        // duration of this call: the drain guard below does not release
        // it until every worker has finished with it — including when
        // `f` panics on this thread mid-participation.
        let func: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        unsafe {
            *shared.job.get() = Some(Job { func, len });
        }
        shared.cursor.store(0, Ordering::Relaxed);
        shared.active.store(self.workers.len(), Ordering::Relaxed);
        shared.panicked.store(false, Ordering::Relaxed);
        shared.epoch.fetch_add(1, Ordering::SeqCst);
        if shared.sleepers.load(Ordering::SeqCst) > 0 {
            // Taking the lock orders this notify against any worker that
            // is between its sleeper registration and its wait.
            let _g = shared.lock.lock().unwrap_or_else(|e| e.into_inner());
            shared.cv.notify_all();
        }
        {
            // Runs the drain-wait on every exit path, unwinding included.
            let _drain = DrainGuard { shared };
            // Participate.
            loop {
                let i = shared.cursor.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    break;
                }
                f(i);
            }
        }
        if shared.panicked.load(Ordering::Acquire) {
            panic!("a ParPool worker panicked inside a dispatched closure");
        }
    }
}

/// Waits for every worker to finish the current job and clears the slot
/// when dropped — the unwind-safety anchor of [`ParPool::run`]: whether
/// the submitter's participation loop completes or panics, the borrowed
/// closure is not released until no worker can still be executing it.
struct DrainGuard<'a> {
    shared: &'a Shared,
}

impl Drop for DrainGuard<'_> {
    fn drop(&mut self) {
        let mut spins = 0usize;
        while self.shared.active.load(Ordering::Acquire) != 0 {
            spins += 1;
            if spins < DRAIN_SPINS {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        unsafe {
            *self.shared.job.get() = None;
        }
    }
}

impl Drop for ParPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.epoch.fetch_add(1, Ordering::SeqCst);
        {
            let _g = self.shared.lock.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.cv.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen = 0u64;
    loop {
        // Wait for a new epoch: spin briefly, then park.
        let mut spins = 0usize;
        loop {
            let e = shared.epoch.load(Ordering::Acquire);
            if e != seen {
                seen = e;
                break;
            }
            spins += 1;
            if spins < SPIN_ROUNDS {
                std::hint::spin_loop();
            } else {
                shared.sleepers.fetch_add(1, Ordering::SeqCst);
                let mut g = shared.lock.lock().unwrap_or_else(|e| e.into_inner());
                while shared.epoch.load(Ordering::Acquire) == seen
                    && !shared.shutdown.load(Ordering::Acquire)
                {
                    g = shared.cv.wait(g).unwrap_or_else(|e| e.into_inner());
                }
                drop(g);
                shared.sleepers.fetch_sub(1, Ordering::SeqCst);
                spins = 0;
            }
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // SAFETY: the epoch Acquire above pairs with the submitter's
        // SeqCst bump, which happens after the job write; the slot is
        // not cleared until this worker decrements `active`.
        let (func, len) = unsafe {
            let job = (*shared.job.get()).as_ref().expect("job published");
            (job.func, job.len)
        };
        let f = unsafe { &*func };
        // A panicking closure must not kill the worker: the submitter
        // waits for `active` to drain before releasing the job borrow,
        // so the worker catches the unwind, flags it, and keeps serving.
        // The payload is dropped; the submitter re-raises a fresh panic.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
            let i = shared.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                break;
            }
            f(i);
        }));
        if outcome.is_err() {
            // Park the cursor at the end so co-workers stop claiming
            // items of a job that is already failed (concurrent
            // fetch_adds only push it further past `len` — never enough
            // to wrap).
            shared.cursor.store(len, Ordering::Relaxed);
            shared.panicked.store(true, Ordering::Release);
        }
        shared.active.fetch_sub(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn every_item_runs_exactly_once() {
        let pool = ParPool::new(4);
        for len in [0usize, 1, 2, 7, 64, 1000] {
            let counts: Vec<AtomicU32> = (0..len).map(|_| AtomicU32::new(0)).collect();
            pool.run(len, &|i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn pool_is_reusable_across_many_dispatches() {
        let pool = ParPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..200 {
            pool.run(17, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 200 * 17);
    }

    #[test]
    fn inline_pool_runs_inline_in_order() {
        let pool = ParPool::inline();
        assert_eq!(pool.threads(), 1);
        let seen = Mutex::new(Vec::new());
        pool.run(5, &|i| seen.lock().unwrap().push(i));
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn workers_survive_parking() {
        // Force the park path by sleeping between dispatches.
        let pool = ParPool::new(2);
        let total = AtomicUsize::new(0);
        for _ in 0..3 {
            std::thread::sleep(std::time::Duration::from_millis(20));
            pool.run(100, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 300);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = ParPool::new(0);
    }

    #[test]
    fn panicking_closure_propagates_and_pool_survives() {
        // A panic on any thread must re-raise on the submitter (not
        // hang the drain loop), and the pool must stay usable after.
        let pool = ParPool::new(3);
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(64, &|i| {
                assert!(i != 13, "injected failure");
            });
        }));
        assert!(attempt.is_err(), "panic must propagate out of run");
        let total = AtomicUsize::new(0);
        pool.run(100, &|_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 100);
    }
}
