//! Admission: the one queue every job waits in, `submit`'s triage, the
//! thread count the job table leases, and the calibrated cost model.

use crate::cache::Plans;
use crate::engine::{Inner, JobRecord, JobTable, Queued, ScenarioEngine};
use crate::job::{ExecutionMode, JobId, JobSpec, JobStatus};
use crate::stats::Counter;
use crate::ServeError;
use matex_core::CancelToken;
use matex_dist::list_schedule_makespan;
use matex_waveform::TimingClasses;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

impl ScenarioEngine {
    /// Queues a job; returns its id immediately. Queued jobs start in
    /// strict priority order, EDF within a class (see
    /// [`JobSpec::priority`] / [`JobSpec::deadline`]), each once its
    /// threads fit beside the running jobs'; the order never changes any
    /// admitted job's waveform, only when it runs.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ShuttingDown`] after the engine began
    /// shutting down, or [`ServeError::Rejected`] — with a
    /// `retry_after` hint computed from the queued predicted cost —
    /// when the queue is at `max_queue` or the job's deadline is
    /// already unmeetable under the calibrated cost estimates;
    /// [`ServeError::InvalidJob`] when the deadline lies beyond the
    /// clock's range.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, ServeError> {
        self.inner.enqueue(spec, false)
    }
}

impl Inner {
    /// Puts a job in the admission queue under a fresh id. A submitted
    /// job (`on_caller == false`) first passes the triage: a full queue
    /// or a deadline the cost model already rules out is refused now —
    /// cheaper for everyone than queueing a job that will be dropped at
    /// its deadline later.
    pub(crate) fn enqueue(&self, spec: JobSpec, on_caller: bool) -> Result<JobId, ServeError> {
        let now = Instant::now();
        let deadline_at = deadline_at(now, spec.deadline)?;
        let units = self.predicted_units(&spec);
        let threads = self.demand(&spec);
        let mut table = self.lock_table();
        if table.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        let job = Queued {
            id: table.peek_id(),
            spec,
            submitted_at: now,
            deadline_at,
            units,
            threads,
            on_caller,
            cancel: CancelToken::new(),
        };
        if !on_caller {
            self.triage(&table, &job)?;
        }
        let id = table.draw_id();
        table.records.insert(
            id,
            JobRecord {
                status: JobStatus::Queued,
                cancel: job.cancel.clone(),
            },
        );
        table.queue.push(job);
        let depth = table.queue.len();
        drop(table);
        self.counters.count(Counter::Submitted, 1);
        self.opts.obs.gauge("engine_queue_depth", depth as i64);
        self.queue_cv.notify_all();
        Ok(id)
    }

    /// `submit`'s door check: the queue bound, then the deadline — its
    /// predicted completion is the drain of everything queued at or
    /// ahead of its rank plus its own service time.
    fn triage(&self, table: &JobTable, job: &Queued) -> Result<(), ServeError> {
        let reject = |reason_label: &str, reason: String| {
            self.counters
                .count_labeled(Counter::Rejected, &[("reason", reason_label)], 1);
            ServeError::Rejected {
                reason,
                retry_after: self.drain_estimate(table),
            }
        };
        if table.queue.len() >= self.opts.max_queue {
            let reason = format!("queue full ({} jobs)", self.opts.max_queue);
            return Err(reject("queue_full", reason));
        }
        if let Some(d) = job.spec.deadline {
            let ahead = table.queue.iter().filter(|q| q.rank() <= job.rank());
            let eta = self.drain_secs(ahead) + job.units * self.unit_secs();
            if eta > d.as_secs_f64() {
                let reason = format!(
                    "deadline unmeetable (predicted {:.1}ms > deadline {:.1}ms)",
                    eta * 1e3,
                    d.as_secs_f64() * 1e3
                );
                return Err(reject("deadline", reason));
            }
        }
        Ok(())
    }

    /// Blocks until the best-ranked queued job is one this thread starts
    /// and its threads fit beside the running jobs', then leases them,
    /// marks the job running and hands it over. Executors pass `None`
    /// and start submitted jobs; a [`ScenarioEngine::run`] caller passes
    /// its own job's id. A head whose deadline has passed is handed over
    /// holding no threads, to be dropped unstarted.
    ///
    /// Returns `None` to an executor once the engine is shutting down
    /// and the queue is empty, and to a caller whose job was cancelled.
    pub(crate) fn admit(&self, caller: Option<JobId>) -> Option<Queued> {
        let mut table = self.lock_table();
        loop {
            if caller.is_some_and(|c| table.queue.iter().all(|q| q.id != c)) {
                return None;
            }
            let head = (0..table.queue.len()).min_by_key(|&i| table.queue[i].rank());
            let ours = head.filter(|&i| {
                let q = &table.queue[i];
                caller.map_or(!q.on_caller, |c| c == q.id)
            });
            let mut timeout = None;
            if let Some(pos) = ours {
                let now = Instant::now();
                let q = &table.queue[pos];
                let expired = q.deadline_at.is_some_and(|d| now >= d);
                if expired || table.busy + q.threads <= self.threads {
                    let mut job = table.queue.swap_remove(pos);
                    if expired {
                        job.threads = 0;
                    }
                    table.busy += job.threads;
                    table
                        .records
                        .get_mut(&job.id)
                        .expect("queued job has a record")
                        .status = JobStatus::Running;
                    drop(table);
                    // The next-best job may be startable too.
                    self.queue_cv.notify_all();
                    return Some(job);
                }
                // Wake at the head's deadline to drop it, if nothing
                // frees its threads first.
                timeout = q.deadline_at.map(|d| d - now);
            } else if head.is_none() && table.shutdown {
                return None;
            }
            table = match timeout {
                None => self.queue_cv.wait(table).unwrap_or_else(|e| e.into_inner()),
                Some(t) => {
                    self.queue_cv
                        .wait_timeout(table, t)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
        }
    }

    /// Threads the job will occupy while running — its own, or one per
    /// worker of a distributed job (kernels run inline) — clamped to the
    /// table's total, so a job asking for more than the whole machine
    /// runs alone rather than never.
    pub(crate) fn demand(&self, spec: &JobSpec) -> usize {
        let want = match &spec.mode {
            ExecutionMode::Monolithic => 1,
            ExecutionMode::Distributed { workers, .. } => workers.unwrap_or(self.opts.dist_workers),
        };
        want.clamp(1, self.threads)
    }

    /// Predicted service cost of a job in LTS units — the scheduling
    /// currency the `GroupPlan` makespan model uses. Monolithic jobs
    /// cost the union of their sources' transition spots (the number of
    /// fresh Krylov subspaces the march must build); distributed jobs
    /// cost the LPT makespan over the cached plan's group LTS counts
    /// when the plan is cached, else an equal-split estimate. Pure
    /// waveform arithmetic and fingerprinting on the base circuit —
    /// never assembles or factors anything, so `submit` stays cheap.
    fn predicted_units(&self, job: &JobSpec) -> f64 {
        let t0 = job.spec.t_start();
        let t1 = job.spec.t_stop();
        let waveforms = job.circuit.sources().iter().map(|s| &s.waveform);
        let lts = TimingClasses::new(waveforms.enumerate(), t1).lts(t0, t1);
        let total = lts.len().max(1) as f64;
        let ExecutionMode::Distributed { workers, .. } = &job.mode else {
            return total;
        };
        let w = workers.unwrap_or(self.opts.dist_workers).max(1);
        let keys = self.keys_for(job, &job.circuit, &job.effective_options());
        let cached = keys
            .plan
            .and_then(|key| self.cache.peek::<Plans>(keys.pattern, &key));
        match cached {
            Some(plan) => {
                let costs: Vec<f64> = plan.jobs().iter().map(|j| j.lts.len() as f64).collect();
                list_schedule_makespan(plan.order(), &costs, w).max(1.0)
            }
            None => (total / w as f64).max(1.0),
        }
    }

    /// Calibrated seconds per LTS unit, from completed-job measurements
    /// (a conservative 1 ms/unit prior before any job completes).
    pub(crate) fn unit_secs(&self) -> f64 {
        let units = self.calib_units.load(Ordering::Relaxed);
        if units == 0 {
            return 1e-3;
        }
        let nanos = self.calib_nanos.load(Ordering::Relaxed);
        (nanos as f64 / 1e9) / (units as f64 / 1024.0)
    }

    pub(crate) fn calibrate(&self, units: f64, wall: Duration) {
        self.calib_units
            .fetch_add((units * 1024.0) as u64, Ordering::Relaxed);
        self.calib_nanos
            .fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Predicted seconds for `jobs` to run to completion: at most
    /// `executors` of them run at once, and together they never hold
    /// more than the table's threads, so the drain is bounded below by
    /// both the per-executor and the per-thread share of their cost.
    fn drain_secs<'a>(&self, jobs: impl Iterator<Item = &'a Queued>) -> f64 {
        let (units, thread_units) = jobs.fold((0.0, 0.0), |(u, tu), q| {
            (u + q.units, tu + q.units * q.threads as f64)
        });
        let per_executor = units / self.opts.executors.max(1) as f64;
        let per_thread = thread_units / self.threads as f64;
        per_executor.max(per_thread) * self.unit_secs()
    }

    /// Estimated time for the current queue to drain — the structured
    /// `retry_after` hint attached to rejections.
    pub(crate) fn drain_estimate(&self, table: &JobTable) -> Duration {
        let secs = self.drain_secs(table.queue.iter());
        // Clamp to a sane hint window: at least 1ms (a plain busy signal
        // still means "back off"), at most the configured ceiling — a
        // miscalibrated cost model must not tell clients to disappear
        // for minutes.
        let cap = self.opts.retry_after_cap.as_secs_f64().max(1e-3);
        Duration::from_secs_f64(secs.clamp(1e-3, cap))
    }
}

/// The absolute deadline `now + deadline`, or [`ServeError::InvalidJob`]
/// when it lies beyond what the clock can represent.
fn deadline_at(now: Instant, deadline: Option<Duration>) -> Result<Option<Instant>, ServeError> {
    deadline
        .map(|d| {
            now.checked_add(d).ok_or_else(|| {
                ServeError::InvalidJob(format!("deadline {d:?} is beyond the clock's range"))
            })
        })
        .transpose()
}
