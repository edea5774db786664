//! Execution: the executor loop, compute retry + quarantine, and the
//! solve itself.

use crate::cache::{Dcs, Plans, Setups};
use crate::engine::{Inner, Queued};
use crate::job::{CacheReport, ExecutionMode, JobOutcome, JobSpec, JobStatus};
use crate::stats::Counter;
use crate::ServeError;
use matex_core::{panic_message, CancelToken, MatexSolver, TransientEngine};
use matex_dist::{plan_groups, run_distributed, DistributedOptions};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

impl Inner {
    /// Starts submitted jobs until shutdown (one call per executor
    /// thread).
    pub(crate) fn executor_loop(&self) {
        while let Some(job) = self.admit(None) {
            let id = job.id;
            let outcome = self.start(job);
            let mut table = self.lock_table();
            table
                .records
                .get_mut(&id)
                .expect("running job has a record")
                .status = match outcome {
                Ok(out) => JobStatus::Done(Arc::new(out)),
                Err(e) if e.is_cancelled() => JobStatus::Cancelled,
                Err(e) => JobStatus::Failed(e.to_string()),
            };
            // Outcome retention: a long-running service must not
            // accumulate every waveform it ever computed. Beyond the
            // limit, the oldest resolved job keeps its id but drops its
            // payload.
            table.resolved.push_back(id);
            while table.resolved.len() > self.opts.max_retained.max(1) {
                if let Some(old) = table.resolved.pop_front() {
                    if let Some(rec) = table.records.get_mut(&old) {
                        rec.status = JobStatus::Expired;
                    }
                }
            }
            drop(table);
            self.done_cv.notify_all();
        }
    }

    /// Runs an admitted job to its outcome and does its accounting, on
    /// an executor or a `run` caller alike. A job whose deadline passed
    /// while it queued, or that was cancelled as it left the queue, is
    /// dropped unstarted; any other runs under the compute retry budget.
    /// Its threads return to the table before the accounting.
    pub(crate) fn start(&self, job: Queued) -> Result<JobOutcome, ServeError> {
        let queue_wait = job.submitted_at.elapsed();
        if self.opts.obs.is_enabled() {
            self.opts.obs.record_span(
                "engine.queue_wait",
                job.id,
                job.submitted_at,
                queue_wait,
                &[],
            );
            self.opts
                .obs
                .observe("engine_queue_wait_seconds", queue_wait);
        }
        let exec_started = Instant::now();
        let outcome = if job.deadline_at.is_some_and(|d| exec_started >= d) {
            // Running it would burn capacity on an answer nobody is
            // waiting for.
            self.counters
                .count_labeled(Counter::DeadlineMisses, &[("at", "queued")], 1);
            Err(ServeError::DeadlineMissed(
                "deadline passed while queued".into(),
            ))
        } else if job.cancel.is_cancelled() {
            Err(ServeError::Cancelled(job.id))
        } else {
            // Panic isolation: a job that panics must resolve to
            // Failed — never leave its record stuck in Running
            // (wedging every waiter), leak its threads, or kill an
            // executor thread. Panics reaching this boundary escaped
            // the compute retry loop (bookkeeping).
            catch_unwind(AssertUnwindSafe(|| self.execute_with_retries(&job)))
                .unwrap_or_else(|payload| Err(self.job_panicked(payload)))
        };
        self.lock_table().busy -= job.threads;
        self.queue_cv.notify_all();
        // Accounting: cancellations are neither completions nor
        // failures; completed jobs calibrate the admission cost model
        // and count as late when they resolve past their deadline.
        match &outcome {
            Ok(out) => {
                if job.deadline_at.is_some_and(|d| Instant::now() > d) {
                    self.counters
                        .count_labeled(Counter::DeadlineMisses, &[("at", "completed")], 1);
                }
                self.calibrate(job.units, exec_started.elapsed());
                self.counters.count(Counter::Completed, 1);
                if out.cache.is_warm() {
                    self.counters.count(Counter::WarmJobs, 1);
                }
            }
            Err(e) if e.is_cancelled() => {
                self.counters
                    .count_labeled(Counter::Cancelled, &[("at", "running")], 1);
            }
            Err(_) => self.counters.count(Counter::Failed, 1),
        }
        outcome.map(|out| JobOutcome { queue_wait, ..out })
    }

    /// A contained job panic, counted, as the job's error (payload
    /// message preserved).
    fn job_panicked(&self, payload: Box<dyn Any + Send>) -> ServeError {
        self.counters.count(Counter::Panics, 1);
        ServeError::InvalidJob(format!("job panicked: {}", panic_message(&*payload)))
    }

    /// Executes the job under the compute retry budget; the job's id
    /// tags its spans on the shared trace timeline.
    fn execute_with_retries(&self, job: &Queued) -> Result<JobOutcome, ServeError> {
        let t0 = Instant::now();
        let (spec, job_id, cancel) = (&job.spec, job.id, &job.cancel);
        // Transient-failure recovery: each attempt runs under its own
        // catch_unwind so solver panics are retryable too. A failed
        // attempt quarantines the cached artifacts it executed against
        // (evict + recompute) so one corrupted cache entry cannot poison
        // every subsequent hit, then backs off and recomputes.
        // Cancellations and missed deadlines are terminal.
        let mut attempt = 0usize;
        let mut out = loop {
            let result = catch_unwind(AssertUnwindSafe(|| self.execute(spec, cancel, job_id)))
                .unwrap_or_else(|payload| Err(self.job_panicked(payload)));
            match result {
                Ok(out) => break out,
                Err(e) => {
                    let terminal = e.is_cancelled()
                        || matches!(e, ServeError::DeadlineMissed(_))
                        || cancel.is_cancelled()
                        || job.deadline_at.is_some_and(|d| Instant::now() >= d)
                        || attempt >= self.opts.max_compute_retries;
                    if terminal {
                        return Err(e);
                    }
                    self.quarantine(spec);
                    self.counters.count(Counter::Retries, 1);
                    let backoff = self.opts.retry_backoff.saturating_mul(1 << attempt.min(16));
                    if !backoff.is_zero() {
                        let b0 = Instant::now();
                        std::thread::sleep(backoff);
                        self.opts
                            .obs
                            .record_span("engine.backoff", job_id, b0, b0.elapsed(), &[]);
                    }
                    attempt += 1;
                }
            }
        };
        out.wall = t0.elapsed();
        // The job span: every attempt, labeled with the hit path the
        // (final) execution actually took.
        if self.opts.obs.is_enabled() {
            let path = out.cache.hit_path.label();
            self.opts
                .obs
                .record_span("engine.run", job_id, t0, out.wall, &[("path", path)]);
            self.opts
                .obs
                .observe_labeled("engine_job_seconds", &[("path", path)], out.wall);
            self.opts
                .obs
                .add_labeled("engine_jobs_total", &[("path", path)], 1);
        }
        Ok(out)
    }

    /// Evicts the in-memory numeric artifacts a failed execution ran
    /// against — the setup and the DC solution under the job's exact
    /// keys — so the retry (and every later job) re-resolves them
    /// instead of re-hitting a possibly corrupted entry.
    fn quarantine(&self, job: &JobSpec) {
        let Ok(sys) = job.effective_circuit() else {
            return;
        };
        let keys = self.keys_for(job, &sys, &job.effective_options());
        let evicted = u64::from(self.cache.remove::<Setups>(keys.pattern, &keys.setup))
            + u64::from(self.cache.remove::<Dcs>(keys.pattern, &keys.dc));
        self.counters.count(Counter::Quarantined, evicted);
    }

    /// Resolves the job's artifacts and runs it. The cancel token is
    /// observed by the solver between transient steps (and by
    /// distributed workers between node runs) — never inside a
    /// factorization or cache store, so cancellation cannot leave a
    /// half-written artifact behind.
    fn execute(
        &self,
        job: &JobSpec,
        cancel: &CancelToken,
        job_id: u64,
    ) -> Result<JobOutcome, ServeError> {
        let sys = job.effective_circuit()?;
        let mut opts = job.effective_options();
        // The engine's hook reaches the solver ("core.solver.run") of
        // every job it executes, and a distributed run's "dist.node"
        // dispatches; disarmed hooks are free.
        opts.faults = self.opts.faults.clone();
        // So do its spans: the solver's phase spans (and a distributed
        // run's master spans) carry this job's id on the shared
        // timeline. Disabled handles clone for free.
        opts.obs = self.opts.obs.tagged(job_id);
        let keys = self.keys_for(job, &sys, &opts);
        let (setup, symbolic_hit, hit_path) = self.setup_for(&sys, &opts, &keys)?;
        let mut report = CacheReport {
            symbolic: symbolic_hit,
            setup: hit_path.as_hit(),
            hit_path,
            ..CacheReport::default()
        };
        let (result, groups) = match &job.mode {
            ExecutionMode::Monolithic => {
                // The exact solve the solver would perform
                // (SMW-corrected for what-if setups).
                let (x0, dc_path) = self.cache.resolve::<Dcs>(keys.pattern, keys.dc, || {
                    Ok(setup.solve_g(&sys.bu_at(job.spec.t_start())))
                })?;
                report.dc = dc_path.as_hit();
                let solver = MatexSolver::new(opts)
                    .with_setup(setup)
                    .with_dc(x0)
                    .with_cancel(cancel.clone());
                (solver.run(&sys, &job.spec)?, None)
            }
            ExecutionMode::Distributed { strategy, workers } => {
                let plan_key = keys.plan.expect("distributed jobs key a plan");
                let (plan, plan_path) =
                    self.cache.resolve::<Plans>(keys.pattern, plan_key, || {
                        Ok(plan_groups(&sys, &job.spec, *strategy))
                    })?;
                report.plan = plan_path.as_hit();
                let groups = plan.num_jobs();
                let dist_opts = DistributedOptions {
                    matex: opts,
                    strategy: *strategy,
                    workers: Some(workers.unwrap_or(self.opts.dist_workers).max(1)),
                    symbolic: None,
                    setup: Some(setup),
                    plan: Some(plan),
                    cancel: Some(cancel.clone()),
                    max_node_retries: self.opts.max_node_retries,
                };
                let run = run_distributed(&sys, &job.spec, &dist_opts)?;
                (run.result, Some(groups))
            }
        };
        Ok(JobOutcome {
            result,
            cache: report,
            groups,
            wall: Duration::ZERO,
            queue_wait: Duration::ZERO,
        })
    }
}
