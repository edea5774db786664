//! Admission: `submit`'s triage and the calibrated cost model behind it.

use crate::cache::Plans;
use crate::engine::{Inner, JobRecord, JobTable, ScenarioEngine};
use crate::job::{ExecutionMode, JobId, JobSpec, JobStatus};
use crate::stats::Counter;
use crate::ServeError;
use matex_core::CancelToken;
use matex_dist::list_schedule_makespan;
use matex_waveform::SpotSet;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

impl ScenarioEngine {
    /// Queues a job; returns its id immediately. Queued jobs run in
    /// strict priority order, EDF within a class (see
    /// [`JobSpec::priority`] / [`JobSpec::deadline`]); the order never
    /// changes any admitted job's waveform, only when it runs.
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
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let now = Instant::now();
        let rec = JobRecord {
            deadline_at: deadline_at(now, spec.deadline)?,
            units: inner.predicted_units(&spec),
            spec,
            status: JobStatus::Queued,
            submitted_at: now,
            cancel: CancelToken::new(),
        };
        let mut table = inner.lock_table();
        let reject = |table: &JobTable, reason_label: &str, reason: String| {
            let retry_after = inner.drain_estimate(table);
            inner
                .counters
                .count_labeled(Counter::Rejected, &[("reason", reason_label)], 1);
            ServeError::Rejected {
                reason,
                retry_after,
            }
        };
        if table.queue.len() >= inner.opts.max_queue {
            let reason = format!("queue full ({} jobs)", inner.opts.max_queue);
            return Err(reject(&table, "queue_full", reason));
        }
        let id = table.peek_id();
        // Deadline triage: predicted completion = everything queued at
        // or ahead of this job's rank (drained by `executors` threads in
        // parallel) plus its own service time, converted to seconds via
        // the calibrated per-unit cost. A deadline the estimate already
        // rules out is refused now — cheaper for everyone than queueing
        // a job that will be dropped at its deadline later.
        if let Some(d) = rec.spec.deadline {
            let my_rank = rec.rank(id);
            let ahead: f64 = table
                .queue
                .iter()
                .map(|q| &table.records[q])
                // Rank against the queued job's own id (any id < ours
                // preserves its ordering vs our rank).
                .filter(|r| r.rank(0) <= my_rank)
                .map(|r| r.units)
                .sum();
            let executors = inner.opts.executors.max(1) as f64;
            let eta = (ahead / executors + rec.units) * inner.unit_secs();
            if eta > d.as_secs_f64() {
                let reason = format!(
                    "deadline unmeetable (predicted {:.1}ms > deadline {:.1}ms)",
                    eta * 1e3,
                    d.as_secs_f64() * 1e3
                );
                return Err(reject(&table, "deadline", reason));
            }
        }
        table.draw_id();
        table.records.insert(id, rec);
        table.queue.push_back(id);
        let depth = table.queue.len();
        drop(table);
        inner.counters.count(Counter::Submitted, 1);
        inner.opts.obs.gauge("engine_queue_depth", depth as i64);
        inner.queue_cv.notify_one();
        Ok(id)
    }
}

/// The absolute deadline `now + deadline`, or [`ServeError::InvalidJob`]
/// when it lies beyond what the clock can represent.
pub(crate) fn deadline_at(
    now: Instant,
    deadline: Option<Duration>,
) -> Result<Option<Instant>, ServeError> {
    deadline
        .map(|d| {
            now.checked_add(d).ok_or_else(|| {
                ServeError::InvalidJob(format!("deadline {d:?} is beyond the clock's range"))
            })
        })
        .transpose()
}

impl Inner {
    /// Threads the job will occupy while running: its executor's, or
    /// one per worker of a distributed job (kernels run inline).
    pub(crate) fn demand(&self, spec: &JobSpec) -> usize {
        match &spec.mode {
            ExecutionMode::Monolithic => 1,
            ExecutionMode::Distributed { workers, .. } => {
                workers.unwrap_or(self.opts.dist_workers).max(1)
            }
        }
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
        let spots: Vec<SpotSet> = job
            .circuit
            .sources()
            .iter()
            .map(|s| SpotSet::from_times(s.waveform.transition_spots(t1)))
            .collect();
        let total = SpotSet::union(&spots).clip(t0, t1).len().max(1) as f64;
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

    /// Estimated time for the current queue to drain — the structured
    /// `retry_after` hint attached to rejections: total queued predicted
    /// cost divided across the executor threads.
    fn drain_estimate(&self, table: &JobTable) -> Duration {
        let queued: f64 = table.queue.iter().map(|q| table.records[q].units).sum();
        let secs = (queued / self.opts.executors.max(1) as f64) * self.unit_secs();
        // Clamp to a sane hint window: at least 1ms (a plain busy signal
        // still means "back off"), at most the configured ceiling — a
        // miscalibrated cost model must not tell clients to disappear
        // for minutes.
        let cap = self.opts.retry_after_cap.as_secs_f64().max(1e-3);
        Duration::from_secs_f64(secs.clamp(1e-3, cap))
    }
}
