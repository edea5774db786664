//! Engine counters: one enum-indexed atomic table, one way to bump it.

use crate::cache::CacheSizes;
use matex_obs::Obs;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters of engine activity (a snapshot; see
/// [`ScenarioEngine::stats`](crate::ScenarioEngine::stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Jobs accepted by [`ScenarioEngine::submit`](crate::ScenarioEngine::submit)
    /// or run synchronously.
    pub submitted: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Jobs that hit the full numeric-setup cache (skipped all
    /// factorization).
    pub warm_jobs: u64,
    /// Symbolic-analysis cache hits (exact or neighbouring anchor).
    pub symbolic_hits: u64,
    /// Symbolic analyses performed (cache misses + replanted anchors).
    pub symbolic_misses: u64,
    /// Numeric-setup cache hits.
    pub setup_hits: u64,
    /// Numeric setups prepared.
    pub setup_misses: u64,
    /// DC-solution cache hits.
    pub dc_hits: u64,
    /// Group-plan cache hits.
    pub plan_hits: u64,
    /// Jobs served by the what-if fast path (low-rank correction of a
    /// cached base setup instead of refactoring).
    pub whatif_hits: u64,
    /// Cumulative touched-row rank across what-if hits (average edit
    /// rank = `whatif_rank / whatif_hits`).
    pub whatif_rank: u64,
    /// What-if candidates that fell back to a full preparation (edit
    /// rank above the cap, or an ill-conditioned capture matrix).
    pub whatif_fallbacks: u64,
    /// Fresh symbolic anchors replanted after a cached anchor's pivots
    /// stopped surviving replay.
    pub anchor_plants: u64,
    /// Jobs refused at submit time (queue full or deadline provably
    /// unmeetable).
    pub rejected: u64,
    /// Jobs cancelled (queued or running).
    pub cancelled: u64,
    /// Deadlines missed: jobs dropped unstarted past their deadline
    /// (still waiting for their turn or their threads) and jobs that
    /// completed late.
    pub deadline_misses: u64,
    /// Jobs currently waiting in the admission queue for their turn or
    /// their threads, submitted or synchronous (a gauge, not a counter).
    pub queue_depth: u64,
    /// Finished jobs whose result the engine still holds for `wait`
    /// and `stream` (a gauge).
    pub retained_jobs: u64,
    /// Bytes those results hold (samples, final state and row indices),
    /// at most
    /// [`EngineOptions::max_retained_bytes`](crate::EngineOptions::max_retained_bytes)
    /// plus the newest outcome (a gauge).
    pub retained_bytes: u64,
    /// Whole-circuit LRU evictions from the artifact cache.
    pub evictions: u64,
    /// Artifacts hydrated from the disk-backed store (cache misses
    /// served without recomputation).
    pub store_hits: u64,
    /// Artifacts persisted to the disk-backed store.
    pub store_writes: u64,
    /// Store I/O failures absorbed by computing through (never
    /// surfaced to jobs).
    pub store_errors: u64,
    /// Job panics contained by the engine's supervision (executor- or
    /// compute-level), payload message preserved in the job error.
    pub panics: u64,
    /// Compute retries performed after a failed or panicked execution.
    pub retries: u64,
    /// Cached artifacts quarantined (evicted for recompute) after the
    /// execution they served failed.
    pub quarantined: u64,
    /// Artifact counts currently cached.
    pub cache: CacheSizes,
}

impl EngineStats {
    /// Fraction of resolved jobs that ran on the warm path.
    pub fn warm_rate(&self) -> f64 {
        let done = self.completed.max(1);
        self.warm_jobs as f64 / done as f64
    }
}

/// Declares the counter table from one list: the [`Counter`] index, the
/// `engine_<field>_total` obs name of each slot, and the copy of a table
/// snapshot into the matching [`EngineStats`] fields.
macro_rules! counters {
    ($($variant:ident => $field:ident),* $(,)?) => {
        /// One monotonic engine counter; indexes the [`Counters`] table.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum Counter {
            $($variant),*
        }

        const OBS_NAMES: &[&str] = &[$(concat!("engine_", stringify!($field), "_total")),*];

        impl EngineStats {
            fn fill(&mut self, table: &[u64; OBS_NAMES.len()]) {
                $(self.$field = table[Counter::$variant as usize];)*
            }
        }
    };
}

counters! {
    Submitted => submitted,
    Completed => completed,
    Failed => failed,
    WarmJobs => warm_jobs,
    SymbolicHits => symbolic_hits,
    SymbolicMisses => symbolic_misses,
    SetupHits => setup_hits,
    SetupMisses => setup_misses,
    DcHits => dc_hits,
    PlanHits => plan_hits,
    WhatifHits => whatif_hits,
    WhatifRank => whatif_rank,
    WhatifFallbacks => whatif_fallbacks,
    AnchorPlants => anchor_plants,
    Rejected => rejected,
    Cancelled => cancelled,
    DeadlineMisses => deadline_misses,
    StoreHits => store_hits,
    StoreWrites => store_writes,
    Panics => panics,
    Retries => retries,
    Quarantined => quarantined,
}

/// The engine's counter table. Every event goes through
/// [`Counters::count`], which moves the atomic and the matching obs
/// counter together, so `stats` and the Prometheus page cannot drift.
#[derive(Debug)]
pub(crate) struct Counters {
    table: [AtomicU64; OBS_NAMES.len()],
    obs: Obs,
}

impl Counters {
    pub(crate) fn new(obs: Obs) -> Counters {
        Counters {
            table: std::array::from_fn(|_| AtomicU64::new(0)),
            obs,
        }
    }

    /// Adds `n` to counter `c` and to its `engine_*_total` obs counter.
    pub(crate) fn count(&self, c: Counter, n: u64) {
        self.count_labeled(c, &[], n);
    }

    /// [`Counters::count`] with labels on the obs side (the rejection
    /// reason, where a cancellation or deadline miss was detected).
    pub(crate) fn count_labeled(&self, c: Counter, labels: &[(&'static str, &str)], n: u64) {
        self.table[c as usize].fetch_add(n, Ordering::Relaxed);
        self.obs.add_labeled(OBS_NAMES[c as usize], labels, n);
    }

    /// One read pass over the table into `stats` (torn when racing;
    /// the engine's snapshot re-reads until two passes agree).
    pub(crate) fn read_into(&self, stats: &mut EngineStats) {
        let mut snapshot = [0u64; OBS_NAMES.len()];
        for (slot, cell) in snapshot.iter_mut().zip(&self.table) {
            *slot = cell.load(Ordering::Relaxed);
        }
        stats.fill(&snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_moves_the_atomic_and_the_obs_counter_together() {
        let obs = Obs::enabled();
        let counters = Counters::new(obs.clone());
        counters.count(Counter::Retries, 2);
        counters.count_labeled(Counter::Rejected, &[("reason", "queue_full")], 1);
        counters.count(Counter::Quarantined, 0);
        let mut s = EngineStats::default();
        counters.read_into(&mut s);
        let expected = EngineStats {
            retries: 2,
            rejected: 1,
            ..EngineStats::default()
        };
        assert_eq!(s, expected);
        let page = obs.prometheus_text();
        assert!(page.contains("matex_engine_retries_total 2"), "{page}");
        assert!(
            page.contains("matex_engine_rejected_total{reason=\"queue_full\"} 1"),
            "{page}"
        );
        // The last table slot maps to the last listed field.
        counters.count(Counter::Quarantined, 3);
        counters.read_into(&mut s);
        assert_eq!(s.quarantined, 3);
    }
}
