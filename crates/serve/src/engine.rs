//! The scenario engine: cached, admission-controlled job execution.
//!
//! One [`Inner`] state is shared by the public [`ScenarioEngine`] handle
//! and its executor threads. This module holds that state, the job
//! table and the handle's lifecycle verbs; the behaviour lives along
//! three seams:
//!
//! * `admission` — the one admission queue: `submit`'s triage, the
//!   calibrated cost model, and the thread count the job table leases,
//! * `resolve` — where a job's artifacts come from (one key set per
//!   job, one call per artifact class into the `cache` tier),
//! * `execute` — the executor loop, compute retry + quarantine, and the
//!   solve itself.

use crate::cache::ArtifactCache;
use crate::job::{JobId, JobOutcome, JobSpec, JobStatus, Priority};
use crate::stats::{Counter, Counters, EngineStats};
use crate::ServeError;
use matex_core::{CancelToken, FaultHook};
use matex_store::ArtifactStore;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`ScenarioEngine`].
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Threads the job table leases to running jobs: a job starts only
    /// once its demand (one thread, or one per distributed worker) fits
    /// beside the running ones, so the host is never oversubscribed.
    /// `None` uses [`std::thread::available_parallelism`].
    pub threads: Option<usize>,
    /// Executor threads that start submitted jobs (at most this many
    /// submitted jobs run at once).
    pub executors: usize,
    /// Default worker count for distributed jobs that leave `workers`
    /// unset.
    pub dist_workers: usize,
    /// Maximum distinct circuit structures kept in the artifact cache
    /// (whole-circuit LRU eviction beyond this).
    pub max_circuits: usize,
    /// Resolved job outcomes retained for polling/streaming. Beyond
    /// this, the oldest resolved job's outcome (its full waveform) is
    /// dropped and its status becomes [`JobStatus::Expired`], so a
    /// long-running service's memory is bounded by recent traffic.
    pub max_retained: usize,
    /// How many γ decades away a symbolic anchor may be reused
    /// (`0` = exact decade only).
    pub anchor_span: i32,
    /// Maximum touched-row rank a value edit may have to be served by
    /// the what-if fast path (Sherman–Morrison–Woodbury correction of a
    /// cached base factorization). `0` disables the fast path.
    pub whatif_max_rank: usize,
    /// Fully-prepared systems retained per pattern as what-if base
    /// candidates. `0` disables the fast path.
    pub whatif_bases: usize,
    /// Maximum jobs waiting in the engine queue. Beyond this,
    /// [`ScenarioEngine::submit`] rejects immediately with
    /// [`ServeError::Rejected`] and a `retry_after` hint instead of
    /// queueing without bound — the overload-safety valve: admitted
    /// jobs' latency stays bounded by `max_queue` service times, and
    /// excess offered load is shed at the door.
    pub max_queue: usize,
    /// Disk-backed artifact store shared by the fleet. When set, every
    /// in-memory cache miss consults the store before computing, and
    /// every computed artifact is written back — so a restarted (or
    /// newly joined) engine pointed at the same directory hydrates its
    /// cache from disk and skips the cold path, bitwise. `None`
    /// (default) keeps the engine purely in-memory.
    pub store: Option<Arc<ArtifactStore>>,
    /// Compute-failure retry budget: a job whose execution fails or
    /// panics is retried (after quarantining the cached artifacts it
    /// ran against and sleeping `retry_backoff`) up to this many times
    /// before the failure surfaces. Cancellations and missed deadlines
    /// are never retried. Default 1.
    pub max_compute_retries: usize,
    /// Base backoff slept before each compute retry (doubled per
    /// attempt).
    pub retry_backoff: Duration,
    /// Per-node retry budget forwarded to distributed runs (see
    /// [`matex_dist::DistributedOptions::max_node_retries`]).
    pub max_node_retries: usize,
    /// Ceiling on every `retry_after` hint the engine emits (rejections
    /// and drain estimates). A miscalibrated cost model can otherwise
    /// tell clients to back off for minutes. Default 60 s.
    pub retry_after_cap: Duration,
    /// Fault-injection hook threaded into every job's solver options,
    /// distributed runs, and (via [`matex_store::StoreOptions`]) the
    /// artifact store the caller opens. Disarmed by default.
    pub faults: FaultHook,
    /// Observability handle threaded into every job's solver options
    /// and distributed runs, plus the engine's own queue-wait / run
    /// spans (hit-path labeled), admission counters, and latency
    /// histograms. Disabled by default: one branch per event, and job
    /// waveforms are bitwise-unchanged either way.
    pub obs: matex_obs::Obs,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            threads: None,
            executors: 2,
            dist_workers: 2,
            max_circuits: 32,
            max_retained: 1024,
            anchor_span: 1,
            whatif_max_rank: 16,
            whatif_bases: 4,
            max_queue: 256,
            store: None,
            max_compute_retries: 1,
            retry_backoff: Duration::from_millis(10),
            max_node_retries: 1,
            retry_after_cap: Duration::from_secs(60),
            faults: FaultHook::default(),
            obs: matex_obs::Obs::disabled(),
        }
    }
}

/// What the table keeps of a job once it holds an id: its status and
/// its cancel token. The spec lives in the queue, so a resolved job
/// retains no circuit.
pub(crate) struct JobRecord {
    pub status: JobStatus,
    /// Cooperative cancel token observed by the running solver.
    pub cancel: CancelToken,
}

/// A job in the admission queue: what ranks, prices and starts it.
pub(crate) struct Queued {
    pub id: JobId,
    pub spec: JobSpec,
    pub submitted_at: Instant,
    /// Absolute deadline (submission time + the spec's relative one).
    pub deadline_at: Option<Instant>,
    /// Predicted service cost in LTS units (the `GroupPlan` makespan
    /// proxy), fixed at submission.
    pub units: f64,
    /// Threads the job holds while running, in `1..=Inner::threads`.
    pub threads: usize,
    /// `true` for a [`ScenarioEngine::run`] job, which starts on its
    /// caller's thread; a submitted job starts on an executor.
    pub on_caller: bool,
    pub cancel: CancelToken,
}

impl Queued {
    /// Queue rank: strict priority class, then EDF (deadline-less jobs
    /// rank infinitely late and fall back to FIFO among themselves).
    pub fn rank(&self) -> (Priority, bool, Instant, JobId) {
        let at = self.deadline_at.unwrap_or(self.submitted_at);
        (self.spec.priority, self.deadline_at.is_none(), at, self.id)
    }
}

#[derive(Default)]
pub(crate) struct JobTable {
    /// The one id sequence: queued jobs and synchronous
    /// [`ScenarioEngine::run`] jobs both draw from it, so an id names
    /// one job on the trace timeline.
    next_id: JobId,
    /// Records by id: a submitted job's from submission on, a `run`
    /// job's while it waits and runs.
    pub records: HashMap<JobId, JobRecord>,
    /// The one admission queue: every job waiting for its turn and its
    /// threads, submitted or synchronous. Only the best-ranked job may
    /// start, so a wide job at the head is never overtaken by narrow
    /// ones behind it.
    pub queue: Vec<Queued>,
    /// Resolved job ids in completion order, for outcome retention.
    pub resolved: VecDeque<JobId>,
    /// Threads leased to running jobs; never above `Inner::threads`.
    pub busy: usize,
    /// Set once, when the engine is dropped. Under the table's lock, so
    /// an executor cannot check it and then sleep through the wake-up.
    pub shutdown: bool,
}

impl JobTable {
    /// The id the next [`JobTable::draw_id`] will return.
    pub fn peek_id(&self) -> JobId {
        self.next_id
    }

    pub fn draw_id(&mut self) -> JobId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }
}

pub(crate) struct Inner {
    pub opts: EngineOptions,
    pub cache: ArtifactCache,
    /// Threads the job table leases ([`EngineOptions::threads`],
    /// resolved).
    pub threads: usize,
    pub table: Mutex<JobTable>,
    /// Signalled whenever the queue's head may have become startable:
    /// a job queued, started, finished or was cancelled.
    pub queue_cv: Condvar,
    pub done_cv: Condvar,
    pub counters: Arc<Counters>,
    /// Calibration: completed-job predicted units (scaled ×1024) and
    /// measured execution nanoseconds, so admission converts LTS-count
    /// cost estimates into seconds using observed service times.
    pub calib_units: AtomicU64,
    pub calib_nanos: AtomicU64,
}

/// The scenario engine: accepts [`JobSpec`]s, amortizes per-circuit
/// analysis through a structure-fingerprint cache, and multiplexes
/// concurrent jobs over the fixed thread count its job table leases.
///
/// # Example
///
/// ```
/// use matex_circuit::PdnBuilder;
/// use matex_core::TransientSpec;
/// use matex_serve::{EngineOptions, JobSpec, ScenarioEngine};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let engine = ScenarioEngine::new(EngineOptions::default());
/// let grid = Arc::new(PdnBuilder::new(6, 6).num_loads(8).window(1e-9).build()?);
/// let spec = TransientSpec::new(0.0, 1e-9, 2e-11)?;
/// let cold = engine.run(&JobSpec::new(grid.clone(), spec.clone()))?;
/// let warm = engine.run(&JobSpec::new(grid, spec))?;
/// assert!(!cold.cache.is_warm() && warm.cache.is_warm());
/// // Cache hits replay the identical factors: waveforms are bitwise equal.
/// assert_eq!(cold.result.series(), warm.result.series());
/// # Ok(())
/// # }
/// ```
pub struct ScenarioEngine {
    pub(crate) inner: Arc<Inner>,
    executors: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ScenarioEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioEngine")
            .field("opts", &self.inner.opts)
            .field("executors", &self.executors.len())
            .finish()
    }
}

impl ScenarioEngine {
    /// Starts an engine with `opts.executors` queue-draining threads.
    pub fn new(opts: EngineOptions) -> ScenarioEngine {
        let threads = opts.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        let counters = Arc::new(Counters::new(opts.obs.clone()));
        let inner = Arc::new(Inner {
            cache: ArtifactCache::new(&opts, counters.clone()),
            threads: threads.max(1),
            table: Mutex::new(JobTable::default()),
            queue_cv: Condvar::new(),
            done_cv: Condvar::new(),
            counters,
            calib_units: AtomicU64::new(0),
            calib_nanos: AtomicU64::new(0),
            opts,
        });
        let executors = (0..inner.opts.executors.max(1))
            .map(|k| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("matex-serve-exec-{k}"))
                    .spawn(move || inner.executor_loop())
                    .expect("spawn engine executor")
            })
            .collect();
        ScenarioEngine { inner, executors }
    }

    /// The configured options.
    pub fn options(&self) -> &EngineOptions {
        &self.inner.opts
    }

    /// Cancels a job — a submitted one, or a synchronous
    /// [`run`](ScenarioEngine::run) in progress. A queued job is removed
    /// from the queue and resolves to [`JobStatus::Cancelled`]
    /// immediately; a running job has its cooperative token tripped and
    /// resolves to `Cancelled` at the solver's next transient-step (or
    /// distributed node) boundary, returning its threads with it. Jobs
    /// already resolved are left untouched.
    ///
    /// Returns the job's status as observed *after* the cancellation
    /// attempt, or `None` for an unknown id. Cancelling never perturbs
    /// other jobs' results or the artifact cache.
    pub fn cancel(&self, id: JobId) -> Option<JobStatus> {
        let mut table = self.inner.lock_table();
        let rec = table.records.get_mut(&id)?;
        match rec.status.clone() {
            JobStatus::Queued => {
                rec.status = JobStatus::Cancelled;
                table.queue.retain(|q| q.id != id);
                drop(table);
                self.inner
                    .counters
                    .count_labeled(Counter::Cancelled, &[("at", "queued")], 1);
                // A new head may start now; a `run` caller learns here
                // that its job is gone.
                self.inner.queue_cv.notify_all();
                self.inner.done_cv.notify_all();
                Some(JobStatus::Cancelled)
            }
            JobStatus::Running => {
                rec.cancel.cancel();
                Some(JobStatus::Running)
            }
            other => Some(other),
        }
    }

    /// The job's current status, or `None` for an unknown id.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let table = self.inner.lock_table();
        table.records.get(&id).map(|r| r.status.clone())
    }

    /// Blocks until the job finishes; returns its outcome.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] for an unsubmitted id, or the job's
    /// own failure as [`ServeError::InvalidJob`] text.
    pub fn wait(&self, id: JobId) -> Result<Arc<JobOutcome>, ServeError> {
        let mut table = self.inner.lock_table();
        loop {
            match table.records.get(&id) {
                None => return Err(ServeError::UnknownJob(id)),
                Some(r) => match &r.status {
                    JobStatus::Done(out) => return Ok(out.clone()),
                    JobStatus::Failed(msg) => return Err(ServeError::InvalidJob(msg.clone())),
                    JobStatus::Cancelled => return Err(ServeError::Cancelled(id)),
                    JobStatus::Expired => {
                        return Err(ServeError::InvalidJob(format!(
                            "job {id} resolved but its outcome expired (retention limit)"
                        )))
                    }
                    _ => {
                        table = self
                            .inner
                            .done_cv
                            .wait(table)
                            .unwrap_or_else(|e| e.into_inner());
                    }
                },
            }
        }
    }

    /// Runs a job synchronously on the calling thread, against the
    /// shared cache. It waits in the same admission queue as submitted
    /// jobs — ranked by its priority and deadline, started when it heads
    /// the queue and its threads fit — but skips `submit`'s triage.
    /// Until this returns it holds an id and a record like a submitted
    /// job's (so `stats().queue_depth` counts it while it waits).
    ///
    /// # Errors
    ///
    /// Propagates circuit/solver/distributed failures;
    /// [`ServeError::Cancelled`] when the job was cancelled;
    /// [`ServeError::DeadlineMissed`] when its deadline passed while it
    /// queued; [`ServeError::InvalidJob`] when the deadline lies beyond
    /// the clock's range.
    pub fn run(&self, spec: &JobSpec) -> Result<JobOutcome, ServeError> {
        let inner = &self.inner;
        let id = inner.enqueue(spec.clone(), true)?;
        let out = match inner.admit(Some(id)) {
            Some(job) => inner.start(job),
            None => Err(ServeError::Cancelled(id)),
        };
        inner.lock_table().records.remove(&id);
        inner.done_cv.notify_all();
        out
    }

    /// A consistent snapshot of the engine's counters and cache sizes.
    ///
    /// Every field is an independent atomic, so a single read pass can
    /// observe a torn state mid-flight (e.g. a job counted in
    /// `completed` but not yet in `warm_jobs`). This method re-reads
    /// until two consecutive passes agree (bounded retries), so the
    /// returned struct is a state the engine actually passed through —
    /// the one snapshot path shared by the TCP `stats`/`metrics` verbs
    /// and the tests.
    pub fn stats(&self) -> EngineStats {
        self.inner.stats_snapshot()
    }

    /// The engine's observability handle ([`EngineOptions::obs`]) — the
    /// TCP service exports its Prometheus page and Chrome trace, and
    /// embedders can read quantiles directly. Disabled by default.
    pub fn obs(&self) -> &matex_obs::Obs {
        &self.inner.opts.obs
    }
}

impl Drop for ScenarioEngine {
    fn drop(&mut self) {
        self.inner.lock_table().shutdown = true;
        self.inner.queue_cv.notify_all();
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
    }
}

impl Inner {
    pub fn lock_table(&self) -> std::sync::MutexGuard<'_, JobTable> {
        self.table.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// One full read pass over every counter (torn when racing).
    fn read_stats(&self) -> EngineStats {
        let mut s = EngineStats {
            queue_depth: self.lock_table().queue.len() as u64,
            evictions: self.cache.evictions(),
            store_errors: self.cache.store_errors(),
            cache: self.cache.sizes(),
            ..EngineStats::default()
        };
        self.counters.read_into(&mut s);
        s
    }

    /// Double-read-until-stable snapshot: two identical consecutive
    /// passes prove no counter moved mid-read, so the snapshot is
    /// internally consistent. Under sustained churn the retry budget
    /// runs out and the last pass is returned (best effort — identical
    /// to the historical single-pass behaviour).
    fn stats_snapshot(&self) -> EngineStats {
        let mut prev = self.read_stats();
        for _ in 0..8 {
            let cur = self.read_stats();
            if cur == prev {
                return cur;
            }
            prev = cur;
        }
        prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{ExecutionMode, Hit};
    use matex_circuit::{MnaSystem, PdnBuilder};
    use matex_core::{MatexSolver, TransientEngine, TransientSpec};
    use matex_dist::{run_distributed, DistributedOptions};
    use matex_waveform::GroupingStrategy;

    fn grid(seed: u64) -> Arc<MnaSystem> {
        Arc::new(
            PdnBuilder::new(6, 6)
                .num_loads(8)
                .num_features(3)
                .window(1e-9)
                .seed(seed)
                .build()
                .unwrap(),
        )
    }

    fn spec() -> TransientSpec {
        TransientSpec::new(0.0, 1e-9, 2e-11).unwrap()
    }

    #[test]
    fn stats_snapshots_are_internally_consistent_under_concurrent_load() {
        // Satellite-1 regression: `stats()` used to take one racing
        // pass over the independent atomics, so a poller could observe
        // skewed states (a job in `completed` but not yet `warm_jobs`,
        // or hit counters ahead of `submitted`). The double-read
        // snapshot must only return states whose accounting invariants
        // hold, no matter how hard it races the executors.
        let engine = Arc::new(ScenarioEngine::new(EngineOptions {
            executors: 3,
            threads: Some(3),
            ..EngineOptions::default()
        }));
        let sys = grid(11);
        // Populate the cache synchronously first — otherwise two
        // executors can race the same cold miss and the final warm
        // count would depend on scheduling.
        engine.run(&JobSpec::new(sys.clone(), spec())).unwrap();
        let mut ids = Vec::new();
        for k in 0..12 {
            let job = JobSpec::new(sys.clone(), spec()).source_scale(1.0 + 0.05 * (k % 4) as f64);
            ids.push(engine.submit(job).unwrap());
        }
        // Poll snapshots while the fleet drains.
        let poller = {
            let engine = engine.clone();
            std::thread::spawn(move || {
                for _ in 0..200 {
                    let s = engine.stats();
                    assert!(
                        s.completed + s.failed + s.cancelled <= s.submitted,
                        "resolved more than submitted: {s:?}"
                    );
                    assert!(s.warm_jobs <= s.completed, "warm ahead of completed: {s:?}");
                    assert!(
                        s.setup_hits <= s.submitted,
                        "hits ahead of submissions: {s:?}"
                    );
                    std::thread::yield_now();
                }
            })
        };
        for id in ids {
            engine.wait(id).unwrap();
        }
        poller.join().unwrap();
        let s = engine.stats();
        assert_eq!(s.completed, 13);
        assert_eq!(s.warm_jobs, 12);
    }

    #[test]
    fn cold_then_warm_bitwise_and_counted() {
        let engine = ScenarioEngine::new(EngineOptions::default());
        let sys = grid(1);
        let job = JobSpec::new(sys.clone(), spec());
        let cold = engine.run(&job).unwrap();
        assert_eq!(cold.cache.setup, Hit::Miss);
        assert_eq!(cold.cache.symbolic, Hit::Miss);
        assert_eq!(cold.cache.dc, Hit::Miss);
        let warm = engine.run(&job).unwrap();
        assert_eq!(warm.cache.setup, Hit::Hit);
        assert_eq!(warm.cache.dc, Hit::Hit);
        assert_eq!(cold.result.series(), warm.result.series());
        // Standalone comparison: the engine never changes a bit.
        let standalone = MatexSolver::new(job.effective_options())
            .run(&sys, &job.spec)
            .unwrap();
        assert_eq!(standalone.series(), warm.result.series());
        let stats = engine.stats();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.warm_jobs, 1);
        assert_eq!(stats.setup_hits, 1);
        assert_eq!(stats.cache.circuits, 1);
    }

    #[test]
    fn scenario_overrides_share_the_structure_cache() {
        let engine = ScenarioEngine::new(EngineOptions::default());
        let sys = grid(2);
        let base = JobSpec::new(sys.clone(), spec());
        engine.run(&base).unwrap();
        // Scaled sources: same matrices, so the setup cache hits.
        let scaled = base.clone().source_scale(1.5);
        let out = engine.run(&scaled).unwrap();
        assert_eq!(out.cache.setup, Hit::Hit);
        assert_eq!(out.cache.dc, Hit::Miss, "DC depends on the sources");
        let standalone = MatexSolver::new(scaled.effective_options())
            .run(&scaled.effective_circuit().unwrap(), &scaled.spec)
            .unwrap();
        assert_eq!(standalone.series(), out.result.series());
        // Same-decade γ override: symbolic anchor replays, new setup.
        let swept = base.clone().gamma(2.5e-10);
        let out = engine.run(&swept).unwrap();
        assert_eq!(out.cache.setup, Hit::Miss);
        assert_eq!(out.cache.symbolic, Hit::Hit);
        let standalone = MatexSolver::new(swept.effective_options())
            .run(&sys, &swept.spec)
            .unwrap();
        assert_eq!(standalone.series(), out.result.series());
        // Neighbouring decade: anchor reused (pivots survive on this
        // diagonally dominant grid).
        let neighbor = base.clone().gamma(2e-9);
        let out = engine.run(&neighbor).unwrap();
        assert!(matches!(out.cache.symbolic, Hit::Neighbor | Hit::Miss));
        let standalone = MatexSolver::new(neighbor.effective_options())
            .run(&sys, &neighbor.spec)
            .unwrap();
        assert_eq!(standalone.series(), out.result.series());
    }

    #[test]
    fn distributed_jobs_cache_plan_and_setup() {
        let engine = ScenarioEngine::new(EngineOptions::default());
        let sys = grid(3);
        let job = JobSpec::new(sys.clone(), spec()).mode(ExecutionMode::Distributed {
            strategy: GroupingStrategy::ByBumpFeature,
            workers: Some(2),
        });
        let cold = engine.run(&job).unwrap();
        assert_eq!(cold.cache.plan, Hit::Miss);
        assert!(cold.groups.unwrap() >= 2);
        let warm = engine.run(&job).unwrap();
        assert_eq!(warm.cache.plan, Hit::Hit);
        assert_eq!(warm.cache.setup, Hit::Hit);
        assert_eq!(cold.result.series(), warm.result.series());
        // Standalone distributed run agrees bitwise.
        let standalone = run_distributed(&sys, &job.spec, &DistributedOptions::default()).unwrap();
        assert_eq!(standalone.result.series(), warm.result.series());
    }

    #[test]
    fn submit_poll_wait_lifecycle() {
        let engine = ScenarioEngine::new(EngineOptions {
            executors: 2,
            ..EngineOptions::default()
        });
        let sys = grid(4);
        let ids: Vec<JobId> = (0..4)
            .map(|k| {
                engine
                    .submit(JobSpec::new(sys.clone(), spec()).source_scale(1.0 + k as f64 * 0.25))
                    .unwrap()
            })
            .collect();
        let outs: Vec<_> = ids.iter().map(|&id| engine.wait(id).unwrap()).collect();
        // All jobs of one structure agree with their own standalone runs
        // and the repeats hit the cache.
        assert!(outs.iter().skip(1).any(|o| o.cache.setup == Hit::Hit));
        for (&id, out) in ids.iter().zip(&outs) {
            assert!(matches!(engine.status(id), Some(JobStatus::Done(_))));
            assert_eq!(out.result.times().len(), 51);
        }
        assert!(engine.status(99).is_none());
        assert!(matches!(engine.wait(99), Err(ServeError::UnknownJob(99))));
        let stats = engine.stats();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.completed, 4);
    }

    #[test]
    fn run_and_submit_draw_trace_ids_from_one_sequence() {
        let engine = ScenarioEngine::new(EngineOptions {
            executors: 1,
            obs: matex_obs::Obs::enabled(),
            ..EngineOptions::default()
        });
        let job = JobSpec::new(grid(14), spec());
        engine.run(&job).unwrap();
        let queued = engine.submit(job.clone()).unwrap();
        engine.wait(queued).unwrap();
        engine.run(&job).unwrap();
        assert_eq!(queued, 1, "the synchronous run before it took id 0");
        // A synchronous job holds an id but no record.
        assert!(engine.status(0).is_none() && engine.status(2).is_none());
        // One `engine.run` span per job, each under its own id.
        let trace = engine.obs().chrome_trace_events();
        let mut ids: Vec<&str> = trace
            .split("{\"name\":\"engine.run\"")
            .skip(1)
            .map(|ev| {
                let id = &ev[ev.find("\"job\":").unwrap() + 6..];
                &id[..id.find(|c: char| !c.is_ascii_digit()).unwrap()]
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, ["0", "1", "2"]);
        assert_eq!(engine.stats().submitted, 3);
    }

    #[test]
    fn outcome_retention_expires_oldest_jobs() {
        let engine = ScenarioEngine::new(EngineOptions {
            executors: 1,
            max_retained: 2,
            ..EngineOptions::default()
        });
        let sys = grid(6);
        let ids: Vec<JobId> = (0..4)
            .map(|_| engine.submit(JobSpec::new(sys.clone(), spec())).unwrap())
            .collect();
        // Resolve everything (single executor: completion order = ids).
        engine.wait(ids[3]).unwrap();
        assert!(matches!(engine.status(ids[0]), Some(JobStatus::Expired)));
        assert!(matches!(engine.status(ids[1]), Some(JobStatus::Expired)));
        assert!(matches!(engine.status(ids[3]), Some(JobStatus::Done(_))));
        assert!(matches!(
            engine.wait(ids[0]),
            Err(ServeError::InvalidJob(_))
        ));
        // Expired ids still answer polls with a stable label.
        assert_eq!(engine.status(ids[0]).unwrap().label(), "expired");
    }

    #[test]
    fn a_job_demands_one_thread_or_one_per_worker() {
        // Kernels run inline, so admission leases exactly the threads a
        // job occupies: its executor, or each distributed worker — but
        // never more than the table holds, so a job asking for more
        // than the whole machine runs alone rather than never.
        let engine = ScenarioEngine::new(EngineOptions {
            threads: Some(4),
            dist_workers: 3,
            ..EngineOptions::default()
        });
        let job = JobSpec::new(grid(16), spec());
        assert_eq!(engine.inner.demand(&job), 1);
        let dist = |workers| {
            job.clone().mode(ExecutionMode::Distributed {
                strategy: GroupingStrategy::ByBumpFeature,
                workers,
            })
        };
        assert_eq!(engine.inner.demand(&dist(None)), 3);
        assert_eq!(engine.inner.demand(&dist(Some(2))), 2);
        assert_eq!(engine.inner.demand(&dist(Some(0))), 1);
        assert_eq!(engine.inner.demand(&dist(Some(64))), 4);
    }

    #[test]
    fn panicking_job_fails_cleanly_and_executors_survive() {
        let engine = ScenarioEngine::new(EngineOptions {
            executors: 1,
            ..EngineOptions::default()
        });
        let sys = grid(7);
        // An out-of-range observed row panics inside the recorder (the
        // TCP layer validates this; the direct API can still trigger it).
        let bad_spec = spec().observing(vec![99_999]);
        let id = engine.submit(JobSpec::new(sys.clone(), bad_spec)).unwrap();
        let err = engine.wait(id).unwrap_err();
        assert!(
            err.to_string().contains("panicked"),
            "expected a panic-failure, got {err}"
        );
        // The single executor must still be alive to serve the next job.
        let ok = engine.submit(JobSpec::new(sys, spec())).unwrap();
        assert!(engine.wait(ok).is_ok());
    }

    #[test]
    fn whatif_edit_corrects_instead_of_refactoring() {
        let engine = ScenarioEngine::new(EngineOptions::default());
        let sys = grid(9);
        let base = JobSpec::new(sys.clone(), spec());
        engine.run(&base).unwrap();
        // A small cap edit: same pattern, one changed value row. The
        // engine serves it by correcting the cached base factors.
        let edit = base.clone().cap_scale(7, 3.0);
        let fast = engine.run(&edit).unwrap();
        assert_eq!(fast.cache.setup, Hit::Whatif);
        assert!(fast.cache.is_whatif() && !fast.cache.is_warm());
        // Accuracy vs the full-refactor standalone run.
        let edited_sys = edit.effective_circuit().unwrap();
        let standalone = MatexSolver::new(edit.effective_options())
            .run(&edited_sys, &edit.spec)
            .unwrap();
        let (max_dev, _) = fast.result.error_vs(&standalone).unwrap();
        assert!(max_dev <= 1e-8, "what-if deviates by {max_dev:e}");
        // The corrected setup is cached: repeats are direct hits, and
        // bitwise identical (fixed-order SMW evaluation).
        let again = engine.run(&edit).unwrap();
        assert_eq!(again.cache.setup, Hit::Hit);
        assert_eq!(fast.result.series(), again.result.series());
        let stats = engine.stats();
        assert_eq!(stats.whatif_hits, 1);
        assert!(stats.whatif_rank >= 1);
        assert_eq!(stats.whatif_fallbacks, 0);
    }

    #[test]
    fn over_rank_edit_falls_back_to_full_preparation() {
        let engine = ScenarioEngine::new(EngineOptions {
            whatif_max_rank: 1,
            ..EngineOptions::default()
        });
        let sys = grid(10);
        engine.run(&JobSpec::new(sys.clone(), spec())).unwrap();
        // Two touched rows > max_rank 1: full preparation, counted as a
        // fallback — and still the exact standalone waveform.
        let edited = Arc::new(
            sys.with_cap_scaled(3, 2.0)
                .unwrap()
                .with_cap_scaled(11, 2.0)
                .unwrap(),
        );
        let job = JobSpec::new(edited.clone(), spec());
        let out = engine.run(&job).unwrap();
        assert_eq!(out.cache.setup, Hit::Miss);
        let standalone = MatexSolver::new(job.effective_options())
            .run(&edited, &job.spec)
            .unwrap();
        assert_eq!(standalone.series(), out.result.series());
        let stats = engine.stats();
        assert_eq!(stats.whatif_hits, 0);
        assert_eq!(stats.whatif_fallbacks, 1);
    }

    #[test]
    fn whatif_disabled_always_refactors() {
        let engine = ScenarioEngine::new(EngineOptions {
            whatif_max_rank: 0,
            ..EngineOptions::default()
        });
        let sys = grid(11);
        let base = JobSpec::new(sys, spec());
        engine.run(&base).unwrap();
        let out = engine.run(&base.clone().cap_scale(7, 3.0)).unwrap();
        assert_eq!(out.cache.setup, Hit::Miss);
        assert_eq!(engine.stats().whatif_hits, 0);
    }

    #[test]
    fn warm_store_restart_skips_all_analyses_bitwise() {
        let dir = std::env::temp_dir().join(format!(
            "matex-engine-restart-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let sys = grid(12);
        let mono = JobSpec::new(sys.clone(), spec());
        let dist = JobSpec::new(sys.clone(), spec()).mode(ExecutionMode::Distributed {
            strategy: GroupingStrategy::ByBumpFeature,
            workers: Some(2),
        });
        let a = ScenarioEngine::new(EngineOptions {
            store: Some(Arc::new(ArtifactStore::open(&dir).unwrap())),
            ..EngineOptions::default()
        });
        let cold_mono = a.run(&mono).unwrap();
        let cold_dist = a.run(&dist).unwrap();
        let stats_a = a.stats();
        assert_eq!(stats_a.store_hits, 0);
        assert!(
            stats_a.store_writes >= 4,
            "symbolic+setup+dc+plan persisted, got {}",
            stats_a.store_writes
        );
        drop(a);

        // "Restart": a fresh engine — empty in-memory cache — pointed
        // at the same directory must serve the same jobs without a
        // single symbolic analysis, factorization, or DC solve.
        let b = ScenarioEngine::new(EngineOptions {
            store: Some(Arc::new(ArtifactStore::open(&dir).unwrap())),
            ..EngineOptions::default()
        });
        let warm_mono = b.run(&mono).unwrap();
        let warm_dist = b.run(&dist).unwrap();
        assert_eq!(warm_mono.cache.setup, Hit::Hit);
        assert_eq!(warm_mono.cache.dc, Hit::Hit);
        assert_eq!(warm_dist.cache.plan, Hit::Hit);
        let stats_b = b.stats();
        assert_eq!(stats_b.setup_misses, 0, "restart must not prepare a setup");
        assert_eq!(stats_b.symbolic_misses, 0, "restart must not re-analyze");
        assert!(stats_b.store_hits >= 3, "got {}", stats_b.store_hits);
        assert_eq!(stats_b.store_writes, 0);
        assert_eq!(cold_mono.result.series(), warm_mono.result.series());
        assert_eq!(cold_dist.result.series(), warm_dist.result.series());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_hydrated_setups_serve_as_whatif_bases() {
        let dir = std::env::temp_dir().join(format!(
            "matex-engine-whatif-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let sys = grid(13);
        let base = JobSpec::new(sys.clone(), spec());
        {
            let a = ScenarioEngine::new(EngineOptions {
                store: Some(Arc::new(ArtifactStore::open(&dir).unwrap())),
                ..EngineOptions::default()
            });
            a.run(&base).unwrap();
        }
        let b = ScenarioEngine::new(EngineOptions {
            store: Some(Arc::new(ArtifactStore::open(&dir).unwrap())),
            ..EngineOptions::default()
        });
        b.run(&base).unwrap();
        // A small edit against the hydrated base takes the what-if
        // fast path — the restart preserved the base candidates too.
        let fast = b.run(&base.clone().cap_scale(7, 3.0)).unwrap();
        assert_eq!(fast.cache.setup, Hit::Whatif);
        assert_eq!(b.stats().whatif_hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_jobs_report_their_error() {
        let engine = ScenarioEngine::new(EngineOptions::default());
        let sys = grid(5);
        // A NaN source scale fails in the circuit layer.
        let id = engine
            .submit(JobSpec::new(sys, spec()).source_scale(f64::NAN))
            .unwrap();
        let err = engine.wait(id).unwrap_err();
        assert!(matches!(err, ServeError::InvalidJob(_)));
        assert!(matches!(engine.status(id), Some(JobStatus::Failed(_))));
        assert_eq!(engine.stats().failed, 1);
    }

    #[test]
    fn solver_fault_is_retried_with_quarantine_and_recovers_bitwise() {
        use matex_core::{FaultKind, FaultPlan};
        let sys = grid(31);
        let job = JobSpec::new(sys.clone(), spec());
        let clean = ScenarioEngine::new(EngineOptions::default())
            .run(&job)
            .unwrap();
        // Occurrence 0 of "core.solver.run" warms the cache cleanly;
        // occurrence 1 (the warm repeat) fails, forcing the retry to
        // quarantine the warm artifacts and recompute them.
        let engine = ScenarioEngine::new(EngineOptions {
            faults: FaultHook::new(FaultPlan::new().fail_at(
                "core.solver.run",
                1,
                FaultKind::Error,
            )),
            retry_backoff: Duration::ZERO,
            ..EngineOptions::default()
        });
        engine.run(&job).unwrap();
        let recovered = engine.run(&job).unwrap();
        // Recovery never changes a bit of the waveform.
        assert_eq!(recovered.result.series(), clean.result.series());
        let stats = engine.stats();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.retries, 1);
        assert!(stats.quarantined >= 1, "warm artifacts were quarantined");
    }

    #[test]
    fn solver_panic_is_contained_counted_and_retried() {
        use matex_core::{FaultKind, FaultPlan};
        let sys = grid(32);
        let job = JobSpec::new(sys.clone(), spec());
        let engine = ScenarioEngine::new(EngineOptions {
            faults: FaultHook::new(FaultPlan::new().fail_at(
                "core.solver.run",
                0,
                FaultKind::Panic,
            )),
            retry_backoff: Duration::ZERO,
            ..EngineOptions::default()
        });
        // The first attempt panics inside the solver; the engine
        // contains it, counts it, and the retry completes the job.
        let out = engine.run(&job).unwrap();
        let standalone = MatexSolver::new(job.effective_options())
            .run(&sys, &job.spec)
            .unwrap();
        assert_eq!(out.result.series(), standalone.series());
        let stats = engine.stats();
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn exhausted_retry_budget_fails_the_job_cleanly() {
        use matex_core::{FaultKind, FaultPlan};
        let sys = grid(33);
        let job = JobSpec::new(sys, spec());
        let engine = ScenarioEngine::new(EngineOptions {
            faults: FaultHook::new(
                FaultPlan::new()
                    .fail_at("core.solver.run", 0, FaultKind::Error)
                    .fail_at("core.solver.run", 1, FaultKind::Error),
            ),
            max_compute_retries: 1,
            retry_backoff: Duration::ZERO,
            ..EngineOptions::default()
        });
        let err = engine.run(&job).unwrap_err();
        assert!(!err.is_cancelled());
        let stats = engine.stats();
        assert_eq!(stats.retries, 1, "one retry was attempted");
        assert_eq!(stats.failed, 1);
        // The engine survives: the same job (occurrence 2+) now runs.
        let job2 = JobSpec::new(grid(33), spec());
        engine.run(&job2).unwrap();
        assert_eq!(engine.stats().completed, 1);
    }

    #[test]
    fn store_faults_degrade_to_compute_through_and_are_counted() {
        use matex_core::{FaultKind, FaultPlan};
        use matex_store::StoreOptions;
        let dir = std::env::temp_dir().join(format!(
            "matex-engine-store-faults-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Every store read and write fails: the store degrades to a
        // pure compute-through layer and the jobs never notice.
        let store = ArtifactStore::open_with(
            &dir,
            StoreOptions {
                faults: FaultHook::new(
                    FaultPlan::new()
                        .seeded(7, 1000, FaultKind::Error)
                        .on_sites(&["store.read", "store.write"]),
                ),
                ..StoreOptions::default()
            },
        )
        .unwrap();
        let engine = ScenarioEngine::new(EngineOptions {
            store: Some(Arc::new(store)),
            ..EngineOptions::default()
        });
        let sys = grid(34);
        let job = JobSpec::new(sys.clone(), spec());
        let out = engine.run(&job).unwrap();
        let standalone = MatexSolver::new(job.effective_options())
            .run(&sys, &job.spec)
            .unwrap();
        assert_eq!(out.result.series(), standalone.series());
        let stats = engine.stats();
        assert_eq!(stats.failed, 0);
        assert!(stats.store_errors > 0, "store faults were tallied");
        assert_eq!(stats.store_hits, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn dist(job: JobSpec, workers: usize) -> JobSpec {
        job.mode(ExecutionMode::Distributed {
            strategy: GroupingStrategy::ByBumpFeature,
            workers: Some(workers),
        })
    }

    /// Submits a 100k-step march that outlasts any test and returns its
    /// id once it holds its thread; the caller cancels it.
    fn blocker(engine: &ScenarioEngine) -> JobId {
        let grid = Arc::new(
            PdnBuilder::new(12, 12)
                .num_loads(18)
                .num_features(3)
                .window(1e-6)
                .seed(1)
                .build()
                .unwrap(),
        );
        let spec = TransientSpec::new(0.0, 1e-6, 1e-11)
            .unwrap()
            .observing(vec![0]);
        let id = engine.submit(JobSpec::new(grid, spec)).unwrap();
        while matches!(engine.status(id), Some(JobStatus::Queued)) {
            std::thread::yield_now();
        }
        id
    }

    /// Ids in the order the engine took them out of the queue.
    fn start_order(engine: &ScenarioEngine) -> Vec<JobId> {
        engine
            .obs()
            .chrome_trace_events()
            .split("{\"name\":\"engine.queue_wait\"")
            .skip(1)
            .map(|ev| {
                let id = &ev[ev.find("\"job\":").unwrap() + 6..];
                id[..id.find(|c: char| !c.is_ascii_digit()).unwrap()]
                    .parse()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn dropping_an_engine_never_strands_an_executor() {
        // An executor that has just found the queue empty must not sleep
        // through the shutdown wake-up: that would hang the drop.
        for _ in 0..2000 {
            drop(ScenarioEngine::new(EngineOptions {
                executors: 4,
                ..EngineOptions::default()
            }));
        }
    }

    #[test]
    fn threads_are_never_oversubscribed_and_all_come_back() {
        let engine = ScenarioEngine::new(EngineOptions {
            threads: Some(3),
            executors: 3,
            ..EngineOptions::default()
        });
        let ids: Vec<JobId> = (0..9)
            .map(|k| {
                let job = JobSpec::new(grid(40 + k), spec());
                let job = match k % 3 {
                    0 => job,
                    w => dist(job, w as usize + 1),
                };
                engine.submit(job).unwrap()
            })
            .collect();
        let mut peak = 0;
        while engine.stats().completed + engine.stats().failed < 9 {
            peak = peak.max(engine.inner.lock_table().busy);
            std::thread::yield_now();
        }
        for id in ids {
            engine.wait(id).unwrap();
        }
        assert!(peak <= 3, "{peak} threads leased out of 3");
        assert_eq!(engine.inner.lock_table().busy, 0);
    }

    #[test]
    fn leases_come_back_after_panics_failures_and_cancellations() {
        let engine = ScenarioEngine::new(EngineOptions {
            threads: Some(1),
            executors: 1,
            retry_backoff: Duration::ZERO,
            ..EngineOptions::default()
        });
        let long = blocker(&engine);
        let panics = engine
            .submit(JobSpec::new(grid(50), spec().observing(vec![99_999])))
            .unwrap();
        let fails = engine
            .submit(JobSpec::new(grid(51), spec()).source_scale(f64::NAN))
            .unwrap();
        engine.cancel(long);
        assert!(engine.wait(long).unwrap_err().is_cancelled());
        assert!(engine.wait(panics).is_err());
        assert!(engine.wait(fails).is_err());
        assert_eq!(engine.inner.lock_table().busy, 0);
        // The single thread is free for the next job.
        engine.run(&JobSpec::new(grid(52), spec())).unwrap();
        assert_eq!(engine.inner.lock_table().busy, 0);
    }

    #[test]
    fn a_wide_head_is_not_overtaken_by_narrow_jobs() {
        let engine = ScenarioEngine::new(EngineOptions {
            threads: Some(2),
            executors: 2,
            obs: matex_obs::Obs::enabled(),
            ..EngineOptions::default()
        });
        let long = blocker(&engine);
        // One thread is free: enough for the narrow job, not the wide
        // one ahead of it, so neither may start.
        let wide = engine
            .submit(dist(JobSpec::new(grid(60), spec()), 2))
            .unwrap();
        let narrow = engine.submit(JobSpec::new(grid(61), spec())).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert!(matches!(engine.status(narrow), Some(JobStatus::Queued)));
        assert!(matches!(engine.status(wide), Some(JobStatus::Queued)));
        engine.cancel(long);
        engine.wait(wide).unwrap();
        engine.wait(narrow).unwrap();
        assert_eq!(start_order(&engine), vec![long, wide, narrow]);
    }

    #[test]
    fn cancelling_a_blocked_head_starts_the_next_job() {
        let engine = ScenarioEngine::new(EngineOptions {
            threads: Some(2),
            executors: 2,
            ..EngineOptions::default()
        });
        let long = blocker(&engine);
        let wide = engine
            .submit(dist(JobSpec::new(grid(62), spec()), 2))
            .unwrap();
        let narrow = engine.submit(JobSpec::new(grid(63), spec())).unwrap();
        engine.cancel(wide);
        // The narrow job now heads the queue and fits beside the
        // blocker, which is still running.
        engine.wait(narrow).unwrap();
        assert!(matches!(engine.status(long), Some(JobStatus::Running)));
        engine.cancel(long);
    }

    #[test]
    fn a_run_waits_in_the_one_queue_and_can_be_cancelled_there() {
        let engine = ScenarioEngine::new(EngineOptions {
            threads: Some(1),
            executors: 1,
            ..EngineOptions::default()
        });
        let long = blocker(&engine);
        let job = JobSpec::new(grid(70), spec());
        std::thread::scope(|s| {
            let queued = s.spawn(|| engine.run(&job));
            let id = loop {
                if let Some(q) = engine.inner.lock_table().queue.first() {
                    break q.id;
                }
                std::thread::yield_now();
            };
            assert!(matches!(engine.status(id), Some(JobStatus::Queued)));
            assert_eq!(engine.stats().queue_depth, 1);
            assert!(matches!(engine.cancel(id), Some(JobStatus::Cancelled)));
            assert!(matches!(
                queued.join().unwrap(),
                Err(ServeError::Cancelled(c)) if c == id
            ));
            assert!(engine.status(id).is_none(), "a run leaves no record");
        });
        engine.cancel(long);
        let out = engine.run(&job).unwrap();
        let standalone = MatexSolver::new(job.effective_options())
            .run(&job.circuit, &job.spec)
            .unwrap();
        assert_eq!(out.result.series(), standalone.series());
        assert_eq!(engine.stats().cancelled, 2);
    }

    #[test]
    fn resolved_jobs_release_their_circuit() {
        // What-if bases are the one place the engine keeps a circuit on
        // purpose; without them nothing outlives the job.
        let engine = ScenarioEngine::new(EngineOptions {
            whatif_max_rank: 0,
            whatif_bases: 0,
            ..EngineOptions::default()
        });
        let sys = grid(80);
        let id = engine.submit(JobSpec::new(sys.clone(), spec())).unwrap();
        engine.wait(id).unwrap();
        assert!(matches!(engine.status(id), Some(JobStatus::Done(_))));
        assert_eq!(Arc::strong_count(&sys), 1, "the record kept the circuit");
        engine.run(&JobSpec::new(sys.clone(), spec())).unwrap();
        assert_eq!(Arc::strong_count(&sys), 1);
    }

    #[test]
    fn drain_estimates_count_threads_as_well_as_executors() {
        // Four idle executors but one thread: queued jobs drain one at
        // a time, so the hint is their whole cost, not a quarter of it.
        let engine = ScenarioEngine::new(EngineOptions {
            threads: Some(1),
            executors: 4,
            ..EngineOptions::default()
        });
        let long = blocker(&engine);
        for k in 0..4 {
            engine.submit(JobSpec::new(grid(90 + k), spec())).unwrap();
        }
        let table = engine.inner.lock_table();
        assert_eq!(table.queue.len(), 4, "no job started without a thread");
        let units: f64 = table.queue.iter().map(|q| q.units).sum();
        let want = (units * engine.inner.unit_secs()).clamp(1e-3, 60.0);
        let got = engine.inner.drain_estimate(&table).as_secs_f64();
        assert!((got - want).abs() <= 1e-9 * want, "{got} s, want {want} s");
        drop(table);
        engine.cancel(long);
    }
}
