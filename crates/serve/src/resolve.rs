//! Artifact resolution: one key set per job, one call per artifact
//! class into the [`cache`](crate::cache) tier.

use crate::cache::{gamma_decade, Setups};
use crate::engine::Inner;
use crate::job::{ExecutionMode, Hit, HitPath, JobSpec};
use crate::stats::Counter;
use crate::ServeError;
use matex_circuit::MnaSystem;
use matex_core::{KrylovKind, MatexOptions, MatexSetup, MatexSymbolic, SmwOptions};
use matex_store::{DcStoreKey, PlanStoreKey, SetupStoreKey, SymbolicStoreKey};
use matex_waveform::GroupingStrategy;
use std::sync::Arc;
use std::time::Instant;

/// How many γ decades away a cached symbolic anchor may be reused
/// (`0` would mean the exact decade only).
const ANCHOR_SPAN: i32 = 1;

/// The keys of every artifact a job can touch, in memory and on disk.
pub(crate) struct Keys {
    /// Circuit level of the cache: the MNA pattern fingerprint.
    pub pattern: u64,
    pub symbolic: SymbolicStoreKey,
    pub setup: SetupStoreKey,
    pub dc: DcStoreKey,
    /// `None` for monolithic jobs.
    pub plan: Option<PlanStoreKey>,
}

impl Inner {
    /// The artifact keys of `job` run on `sys` with `opts` (its
    /// effective circuit and options, or the base ones for a submit-time
    /// estimate). The tags below name on-disk records: never renumber.
    pub(crate) fn keys_for(&self, job: &JobSpec, sys: &MnaSystem, opts: &MatexOptions) -> Keys {
        let pattern = sys.pattern_fingerprint();
        let value_fp = sys.value_fingerprint();
        let source_fp = sys.source_fingerprint();
        let t_start_bits = job.spec.t_start().to_bits();
        let kind_tag = match opts.kind {
            KrylovKind::Standard => 0,
            KrylovKind::Inverted => 1,
            KrylovKind::Rational => 2,
        };
        let plan = match job.mode {
            ExecutionMode::Monolithic => None,
            ExecutionMode::Distributed { strategy, .. } => Some(PlanStoreKey {
                source_fp,
                // Injective over the strategies.
                strategy: match strategy {
                    GroupingStrategy::ByBumpFeature => 0,
                    GroupingStrategy::BySource => 1,
                    GroupingStrategy::Single => 2,
                    GroupingStrategy::MaxGroups(k) => 3 + ((k as u64) << 8),
                    // Future strategies fall into one shared slot; the
                    // run-time GroupPlan::check still rejects any true
                    // mismatch.
                    _ => u64::MAX,
                },
                t_start_bits,
                t_stop_bits: job.spec.t_stop().to_bits(),
            }),
        };
        Keys {
            pattern,
            symbolic: SymbolicStoreKey {
                pattern_fp: pattern,
                kind_tag,
                // Only R-MATEX analyses depend on γ; the other variants
                // share one anchor per circuit.
                gamma_decade: match opts.kind {
                    KrylovKind::Rational => gamma_decade(opts.gamma),
                    _ => 0,
                },
            },
            setup: SetupStoreKey {
                value_fp,
                kind_tag,
                gamma_bits: opts.gamma.to_bits(),
                regularize_bits: opts.regularize_eps.to_bits(),
                scheduled: false,
            },
            dc: DcStoreKey {
                value_fp,
                source_fp,
                t_start_bits,
            },
            plan,
        }
    }

    /// Resolves the numeric setup for `(sys, opts)` through the tier:
    /// memory, else disk, else the what-if fast path (a low-rank
    /// correction of a retained base's factors), else a full
    /// preparation from the γ-decade symbolic anchors. Returns the setup,
    /// how its symbolic analysis was obtained ([`Hit::Skipped`] unless a
    /// full preparation ran) and where the setup came from.
    pub(crate) fn setup_for(
        &self,
        sys: &Arc<MnaSystem>,
        opts: &MatexOptions,
        keys: &Keys,
    ) -> Result<(Arc<MatexSetup>, Hit, HitPath), ServeError> {
        let mut sym_hit = Hit::Skipped;
        let (setup, path) = self.cache.resolve::<Setups>(keys.pattern, keys.setup, || {
            if let Some(corrected) = self.try_whatif(sys, keys) {
                return Ok(corrected);
            }
            let (setup, hit) = self.prepare_cold(sys, opts, keys)?;
            sym_hit = hit;
            Ok(setup)
        })?;
        // A fully-prepared (uncorrected) system — fresh or hydrated — is
        // a base other same-pattern jobs can correct against.
        if matches!(path, HitPath::Store | HitPath::Cold) && self.opts.whatif_max_rank > 0 {
            self.cache.record_base(
                keys.pattern,
                keys.setup.value_fp,
                sys.clone(),
                self.opts.whatif_bases,
            );
        }
        Ok((setup, sym_hit, path))
    }

    /// A full preparation: resolve the symbolic anchor and replay it, or,
    /// on a miss, take the setup from the new anchor's own recording
    /// factorizations; replant the anchor when its pivots did not survive.
    fn prepare_cold(
        &self,
        sys: &MnaSystem,
        opts: &MatexOptions,
        keys: &Keys,
    ) -> Result<(MatexSetup, Hit), ServeError> {
        let mut analyzed = None;
        let (symbolic, mut sym_hit) = self.cache.symbolic(keys.symbolic, ANCHOR_SPAN, || {
            let t0 = Instant::now();
            let (symbolic, setup) = MatexSymbolic::analyze_with_setup(sys, opts)?;
            analyzed = Some((setup, t0));
            Ok(symbolic)
        })?;
        let (setup, t0) = match analyzed {
            Some(fresh) => fresh,
            None => {
                let t0 = Instant::now();
                (MatexSetup::prepare(sys, opts, Some(&symbolic), false)?, t0)
            }
        };
        // The engine factors here (the solver is handed the prepared
        // setup), so the solver's own factor span never fires on this
        // path — record the equivalent span at this site instead. On a
        // miss it covers the one pass that analyzes and factors.
        if opts.obs.is_enabled() {
            let d = setup.factor_time();
            opts.obs
                .record_span("solver.factor", opts.obs.job(), t0, d, &[]);
            opts.obs.observe("solver_factor_seconds", d);
        }
        // Survival check: a replay that fell back to full factorization
        // means the anchor's pinned pivots no longer apply at this γ (or
        // these values). The run is still bitwise-correct — the fallback
        // IS the full factorization — but future jobs deserve a fresh
        // anchor at this decade, so plant one.
        let expected = match opts.kind {
            KrylovKind::Rational => 2,
            _ => 1,
        };
        if sym_hit.is_hit() && setup.refactorizations() < expected {
            let fresh = Arc::new(MatexSymbolic::analyze(sys, opts)?);
            self.cache.plant_symbolic(keys.symbolic, fresh);
            self.counters.count(Counter::AnchorPlants, 1);
            sym_hit = Hit::Miss;
        }
        Ok((setup, sym_hit))
    }

    /// The what-if fast path: finds the retained base whose values are
    /// closest to `sys` (minimal touched-row rank, value fingerprint as
    /// the deterministic tiebreak — independent of arrival order) and
    /// wraps its cached setup with SMW corrections. `None` sends the
    /// job to a full preparation.
    fn try_whatif(&self, sys: &MnaSystem, keys: &Keys) -> Option<MatexSetup> {
        if self.opts.whatif_max_rank == 0 || self.opts.whatif_bases == 0 {
            return None;
        }
        let mut best: Option<(usize, u64, matex_circuit::ValueDiff, Arc<MatexSetup>)> = None;
        let mut rejected = false;
        for (base_fp, base_sys) in self.cache.bases(keys.pattern) {
            if base_fp == keys.setup.value_fp {
                continue;
            }
            let Some(diff) = sys.value_diff(&base_sys) else {
                continue;
            };
            let rank = diff.rank();
            if rank > self.opts.whatif_max_rank {
                rejected = true;
                continue;
            }
            let base_key = SetupStoreKey {
                value_fp: base_fp,
                ..keys.setup
            };
            // The base's factors must still be cached — and uncorrected
            // (corrections never chain).
            let Some(base_setup) = self.cache.peek::<Setups>(keys.pattern, &base_key) else {
                continue;
            };
            if base_setup.is_corrected() {
                continue;
            }
            if best
                .as_ref()
                .is_none_or(|(r, fp, _, _)| (rank, base_fp) < (*r, *fp))
            {
                best = Some((rank, base_fp, diff, base_setup));
            }
        }
        let Some((rank, _, diff, base_setup)) = best else {
            if rejected {
                self.counters.count(Counter::WhatifFallbacks, 1);
            }
            return None;
        };
        let smw = SmwOptions {
            max_rank: self.opts.whatif_max_rank,
        };
        match MatexSetup::correct(base_setup, &diff, &smw) {
            Ok(corrected) => {
                self.counters.count(Counter::WhatifHits, 1);
                self.counters.count(Counter::WhatifRank, rank as u64);
                Some(corrected)
            }
            Err(_) => {
                // Ill-conditioned capture (or over-rank per-matrix
                // update): refactor instead — bitwise the cold path.
                self.counters.count(Counter::WhatifFallbacks, 1);
                None
            }
        }
    }
}
