//! The MATEX circuit solver (paper Alg. 2).
//!
//! One engine covers all three variants (MEXP / I-MATEX / R-MATEX): after
//! a single factorization of the variant's `X1` matrix (plus `G` for the
//! input terms), the solver marches over the evaluation grid:
//!
//! * at a **local transition spot** (LTS) it generates a fresh Krylov
//!   subspace from `v = x(t) + F(t)`,
//! * at every other point (snapshots + output samples) it *reuses* the
//!   most recent subspace, paying only a small `e^{h·H_m}` evaluation —
//!   no substitutions, no refactorization,
//! * when the posterior error estimate rejects a reuse distance, it
//!   inserts pseudo-anchors (sub-steps) and rebuilds — the adaptive
//!   stepping of Alg. 2, still with the original factorization.
//!
//! [`MatexSolver::run`] prepares (fault check, LTS, factors, DC, the
//! variant's operator) and then drives a private `March`, which holds
//! everything the loop updates: the anchor, the window's input terms and
//! basis, the recorder, the counters and the scratch. Every point the
//! march reaches — a batch of snapshots, a steady-state point
//! (`x + F = 0`), a ladder rung, the best-effort value of an exhausted
//! sub-step search — is landed by one helper as `x = V·w − P(h)` and, if
//! it is not a pseudo-anchor, accepted by one method, the only place
//! that records a point and moves the window.
//!
//! In distributed mode ([`MatexSolver::with_source_mask`] +
//! [`MatexSolver::with_lts`]) the solver becomes one slave node of the
//! paper's Fig. 4: it simulates only its source group but evaluates on the
//! shared grid so results superpose.

use crate::engine::{InputEval, Recorder, TransientEngine};
use crate::fp_terms::IntervalTerms;
use crate::{
    CancelToken, CoreError, FaultHook, FaultKind, MatexSetup, SolveStats, TransientResult,
    TransientSpec,
};
use matex_circuit::MnaSystem;
use matex_dense::norm2;
use matex_krylov::{
    BasisBuilder, ExpmParams, InvertedOp, KrylovBasis, KrylovError, KrylovKind, KrylovOp,
    RationalOp, SnapshotEvaluator, StandardOp,
};
use matex_waveform::{SpotSet, TimingClasses};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Options for the MATEX solver.
#[derive(Debug, Clone)]
pub struct MatexOptions {
    /// Krylov variant (default: rational / R-MATEX).
    pub kind: KrylovKind,
    /// Shift parameter γ for the rational variant. The paper sets it
    /// "around the order of the time steps used" — 1e-10 s for the IBM
    /// grids (Sec. 4.3) — and shows low sensitivity.
    pub gamma: f64,
    /// Krylov construction parameters (tolerance, `m` budget).
    pub expm: ExpmParams,
    /// Relative ε for regularizing a singular `C` (standard variant
    /// only; see Sec. 3.3.3 — the other variants never regularize).
    /// Too small an ε creates parasitic modes fast enough to overflow
    /// the projected exponential; the default (1e-3 · max|C|) keeps the
    /// parasitic time constants physically invisible yet numerically
    /// benign.
    pub regularize_eps: f64,
    /// Maximum sub-step insertions per evaluation before accepting the
    /// best-effort value.
    pub max_substeps: usize,
    /// Fault-injection hook consulted at `"core.solver.run"` on entry to
    /// each run. Disarmed by default: production runs pay one branch.
    pub faults: FaultHook,
    /// Observability handle: spans and histograms for the run's phases
    /// (factor, DC, Arnoldi, expm, combine — the paper's `T_H`/`T_e`
    /// split). Disabled by default: every event is one branch, zero
    /// allocations, and the waveforms are bitwise-unchanged either way
    /// (instrumentation only reads clocks the solver already reads).
    pub obs: matex_obs::Obs,
}

impl MatexOptions {
    /// Defaults for the given variant. MEXP gets a larger `m_max` budget
    /// (it genuinely needs hundreds of vectors on stiff circuits —
    /// Table 1).
    pub fn new(kind: KrylovKind) -> Self {
        let m_max = match kind {
            KrylovKind::Standard => 300,
            _ => 100,
        };
        MatexOptions {
            kind,
            gamma: 1e-10,
            expm: ExpmParams { tol: 1e-6, m_max },
            regularize_eps: 1e-3,
            max_substeps: 30,
            faults: FaultHook::default(),
            obs: matex_obs::Obs::disabled(),
        }
    }

    /// Sets the Krylov tolerance (builder style).
    pub fn tol(mut self, tol: f64) -> Self {
        self.expm.tol = tol;
        self
    }

    /// Sets γ (builder style).
    pub fn gamma(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }
}

impl Default for MatexOptions {
    fn default() -> Self {
        MatexOptions::new(KrylovKind::Rational)
    }
}

/// The MATEX transient engine (Alg. 2).
///
/// # Example
///
/// ```
/// use matex_circuit::RcMeshBuilder;
/// use matex_core::{KrylovKind, MatexOptions, MatexSolver, TransientEngine, TransientSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = RcMeshBuilder::new(4, 4).build()?;
/// let spec = TransientSpec::new(0.0, 1e-9, 1e-11)?;
/// let solver = MatexSolver::new(MatexOptions::new(KrylovKind::Rational));
/// let result = solver.run(&sys, &spec)?;
/// // One factorization of (C + γG), one of G — never refactored.
/// assert!(result.stats.factorizations <= 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MatexSolver {
    opts: MatexOptions,
    mask: Option<Vec<usize>>,
    lts_override: Option<SpotSet>,
    setup: Option<Arc<MatexSetup>>,
    dc: Option<Arc<Vec<f64>>>,
    cancel: Option<CancelToken>,
}

impl MatexSolver {
    /// Creates a solver with the given options.
    pub fn new(opts: MatexOptions) -> Self {
        MatexSolver {
            opts,
            mask: None,
            lts_override: None,
            setup: None,
            dc: None,
            cancel: None,
        }
    }

    /// Restricts the active sources to the listed `B` columns
    /// (superposition subtask mode). A run whose mask names a column
    /// past the system's sources fails with [`CoreError::InvalidSpec`].
    pub fn with_source_mask(mut self, members: Vec<usize>) -> Self {
        self.mask = Some(members);
        self
    }

    /// Overrides the derived local transition spots (distributed mode:
    /// the scheduler hands each node its group's LTS).
    pub fn with_lts(mut self, lts: SpotSet) -> Self {
        self.lts_override = Some(lts);
        self
    }

    /// Injects a shared, pre-built [`MatexSetup`]: the run skips its own
    /// factorization phase entirely and marches straight from the
    /// injected factors. The setup must match the run's system and
    /// `(kind, γ)` ([`MatexSetup::check`]); with a matching setup the
    /// waveforms are bitwise what an un-injected run produces, since the
    /// factors are the same objects a fresh preparation computes.
    ///
    /// The run's `stats` report the setup's (amortized) factorization
    /// counters, so accounting invariants hold whether or not the work
    /// was shared.
    pub fn with_setup(mut self, setup: Arc<MatexSetup>) -> Self {
        self.setup = Some(setup);
        self
    }

    /// Injects a cached DC operating point, skipping the run's initial
    /// `G x₀ = B u(t_start)` solve. The caller asserts the vector is
    /// exactly that solve's solution for this run's system, sources, and
    /// start time (a scenario engine keys DC solutions by the system's
    /// value and source fingerprints).
    pub fn with_dc(mut self, x0: Arc<Vec<f64>>) -> Self {
        self.dc = Some(x0);
        self
    }

    /// Makes the run observe a cooperative [`CancelToken`]: the march
    /// polls it between transient steps and returns
    /// [`CoreError::Cancelled`] — abandoning the remaining eval grid —
    /// within one step boundary of the token tripping. Work completed
    /// before the trip (factorizations, the DC solve, accepted points)
    /// is simply dropped; no shared or cached artifact is left
    /// half-written, because the poll sites never interrupt a
    /// factorization or a cache store.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The configured options.
    pub fn options(&self) -> &MatexOptions {
        &self.opts
    }

    /// The run's input, restricted to the source mask if one is set.
    fn input<'a>(&'a self, sys: &'a MnaSystem) -> InputEval<'a> {
        match &self.mask {
            None => InputEval::new(sys),
            Some(m) => InputEval::masked(sys, m),
        }
    }
}

impl TransientEngine for MatexSolver {
    fn run(&self, sys: &MnaSystem, spec: &TransientSpec) -> Result<TransientResult, CoreError> {
        // Injected faults fire before any work so a retried run replays
        // the identical computation from scratch. `Error` fails the run
        // with a dense kernel's non-finite result, before any march;
        // `Panic` unwinds to exercise supervision layers above.
        match self.opts.faults.check("core.solver.run") {
            Some(FaultKind::Panic) => panic!("injected fault: core.solver.run"),
            Some(FaultKind::Error) => {
                return Err(CoreError::Krylov(matex_krylov::KrylovError::Dense(
                    matex_dense::DenseError::NotFinite,
                )))
            }
            None => {}
        }
        let mut stats = SolveStats::default();
        let mask = self.mask.as_deref().unwrap_or_default();
        if let Some(c) = mask.iter().find(|&&c| c >= sys.num_sources()) {
            return Err(CoreError::InvalidSpec(format!(
                "source mask names column {c}, system has {} sources",
                sys.num_sources()
            )));
        }
        let input = self.input(sys);
        let t_start = spec.t_start();
        let t_stop = spec.t_stop();

        // The active sources' timing classes: their input columns and
        // their LTS.
        let active = input.active_columns();
        let sources = sys.sources();
        let classes = TimingClasses::new(active.iter().map(|&c| (c, &sources[c].waveform)), t_stop);

        // --- Preparation: factors of G and X1. Either injected
        // ([`MatexSolver::with_setup`] — the scenario-cache fast path) or
        // prepared here, exactly as every run historically did. The
        // factors are identical either way, so the waveform is
        // independent of where the setup came from.
        let prepared_storage;
        let setup: &MatexSetup = match &self.setup {
            Some(shared) => {
                shared.check(sys, &self.opts)?;
                shared.as_ref()
            }
            None => {
                let _sp = self.opts.obs.span("solver.factor");
                prepared_storage = MatexSetup::prepare(sys, &self.opts, None, false)?;
                &prepared_storage
            }
        };
        stats.factorizations += setup.factorizations();
        stats.refactorizations += setup.refactorizations();
        stats.factor_time = setup.factor_time();
        self.opts
            .obs
            .observe("solver_factor_seconds", stats.factor_time);

        // --- DC initial condition, unless a cached one was injected.
        let t0 = Instant::now();
        let x0 = match &self.dc {
            Some(cached) => {
                if cached.len() != sys.dim() {
                    return Err(CoreError::InvalidSpec(format!(
                        "injected DC solution has dim {}, system has {}",
                        cached.len(),
                        sys.dim()
                    )));
                }
                cached.as_ref().clone()
            }
            None => {
                stats.substitution_pairs += 1;
                setup.solve_g(&input.bu_at(t_start))
            }
        };
        stats.dc_time = t0.elapsed();
        if self.opts.obs.is_enabled() {
            let job = self.opts.obs.job();
            self.opts
                .obs
                .record_span("solver.dc", job, t0, stats.dc_time, &[]);
            self.opts.obs.observe("solver_dc_seconds", stats.dc_time);
        }

        let op: Box<dyn KrylovOp + '_> = match self.opts.kind {
            KrylovKind::Standard => Box::new(StandardOp::new(
                setup.lu_x1().expect("lu(C) present"),
                sys.g(),
            )),
            KrylovKind::Inverted => Box::new(InvertedOp::new(setup.lu_g(), sys.c())),
            KrylovKind::Rational => Box::new(RationalOp::new(
                setup.lu_x1().expect("lu(C+γG) present"),
                sys.c(),
                self.opts.gamma,
            )),
        };

        let tt = Instant::now();
        let mut march = March::new(self, sys, setup, op, &classes, spec, x0)?;
        let (times, sample_at) = eval_grid(spec, &march.lts);
        let mut idx = 0;
        while idx < times.len() {
            // Cooperative cancellation: give up between steps, never
            // inside one, so leases and caches unwind cleanly.
            if self.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                return Err(CoreError::Cancelled);
            }
            idx += march.step(&times[idx..], &sample_at[idx..])?;
        }
        let March {
            rec,
            x_final,
            stats: march_stats,
            ..
        } = march;
        stats.absorb(&march_stats);
        stats.transient_time = tt.elapsed();
        // Formalize the paper's cost split on the timeline and the
        // metrics page: `T_H` (Krylov weights + ladder) vs `T_e`
        // (snapshot combination) vs the one-time factorization. The
        // synthetic spans anchor at the transient start so the trace
        // shows the split nested under the march.
        let obs = &self.opts.obs;
        if obs.is_enabled() {
            let job = obs.job();
            obs.record_span(
                "solver.transient",
                job,
                tt,
                stats.transient_time,
                &[("variant", self.opts.kind.label())],
            );
            obs.record_span("solver.expm", job, tt, stats.expm_time, &[("phase", "T_H")]);
            obs.record_span(
                "solver.combine",
                job,
                tt,
                stats.combine_time,
                &[("phase", "T_e")],
            );
            obs.observe("solver_transient_seconds", stats.transient_time);
            obs.observe("solver_expm_seconds", stats.expm_time);
            obs.observe("solver_combine_seconds", stats.combine_time);
            obs.add("solver_runs_total", 1);
            obs.add("solver_krylov_bases_total", stats.krylov_bases as u64);
        }
        rec.finish(self.name(), x_final, stats)
    }

    fn name(&self) -> String {
        match self.opts.kind {
            KrylovKind::Rational => format!("R-MATEX(γ={:.1e})", self.opts.gamma),
            k => k.label().to_string(),
        }
    }
}

/// How far over the tolerance a best-effort value's error estimate may
/// be for the march to accept it. On a starved stiff grid (`m_max` 6,
/// `tol` 1e-8), R- and I-MATEX's harmless best-effort steps carry
/// estimates of 1.2–9.7× the tolerance, and MEXP's divergent ones
/// 1.2e5× and up.
const BEST_EFFORT_BOUND: f64 = 100.0;

/// Widest snapshot batch one weight/combination round may cover: bounds
/// the `n × MAX_BATCH` output staging buffer while keeping the
/// combination wide enough to amortize each round's fixed cost.
const MAX_BATCH: usize = 32;

/// The evaluation grid of a run: every output sample, tagged with its
/// index, merged with the local transition spots (clipped to the window).
/// An LTS that [`SpotSet`]'s tolerance places on a sample is evaluated as
/// that sample rather than beside it.
fn eval_grid(spec: &TransientSpec, lts: &SpotSet) -> (Vec<f64>, Vec<Option<usize>>) {
    let samples = spec.sample_times();
    let spots = lts.difference(&SpotSet::from_times(samples.clone()));
    let mut spots = spots.iter().peekable();
    let mut times = Vec::with_capacity(samples.len() + lts.len());
    let mut sample_at = Vec::with_capacity(times.capacity());
    for (k, &ts) in samples.iter().enumerate() {
        while let Some(&t) = spots.next_if(|&&t| t < ts) {
            times.push(t);
            sample_at.push(None);
        }
        times.push(ts);
        sample_at.push(Some(k));
    }
    (times, sample_at)
}

/// The weights `w` a landing `x = V·w − P(h)` combines.
enum Weights {
    /// No weights: `v = x + F` is zero, so the state is `−P(h)` alone.
    Steady(f64),
    /// These columns of the last batch, each at its own step.
    Batch(Range<usize>),
    /// Rung `s` of the last ladder, at the step `h/2^s` given.
    Rung(usize, f64),
}

/// One run's march over its evaluation grid (Alg. 2). Everything the
/// march updates lives here: the anchor every point is evaluated from,
/// the input window's terms and Krylov basis, the output recorder, the
/// counters and the evaluation scratch. `step` lands points with
/// [`March::land`] and accepts them with [`March::accept`], the one
/// place a point is recorded.
struct March<'a> {
    op: Box<dyn KrylovOp + 'a>,
    opts: &'a MatexOptions,
    lts: SpotSet,
    t_start: f64,
    t_stop: f64,
    /// The point every evaluation starts from: the run start, the last
    /// window boundary, or a pseudo-anchor.
    anchor_t: f64,
    anchor_x: Vec<f64>,
    /// End of the input-linearity window the anchor opens.
    win_end: f64,
    /// The run's input columns, and from them `F` and `P` of
    /// `[anchor_t, win_end]`, valid until the anchor moves. They and the
    /// scratch below keep the march allocation-free after warm-up (see
    /// fp_terms.rs and tests/alloc_free.rs).
    terms: IntervalTerms<'a>,
    terms_valid: bool,
    /// The subspace built at the anchor, reused for every point of the
    /// window until the anchor moves.
    basis: Option<KrylovBasis>,
    /// The storage every basis is built in; a basis's vectors go back
    /// to it when the anchor moves, so builds after the first allocate
    /// nothing per Arnoldi step or operator application.
    builder: BasisBuilder,
    rec: Recorder,
    x_final: Vec<f64>,
    /// The march's own costs; `run` adds them to the preparation's.
    stats: SolveStats,
    /// Batched snapshot evaluation: one weight batch (`T_H`) and one
    /// tiled combination (`T_e`) cover every eval time of a window.
    evaluator: SnapshotEvaluator,
    /// The current batch's steps from the anchor.
    hs: Vec<f64>,
    /// Landed states, one `n`-column per landed step.
    xs: Vec<f64>,
    /// `v = x + F`, the start vector of a basis.
    v: Vec<f64>,
    /// `P(h)` of the step being landed.
    p: Vec<f64>,
    /// Batch width, doubling after each fully accepted chunk and
    /// resetting on any rejection or anchor change: an all-pass window
    /// quickly amortizes to wide combinations, while a window that
    /// sub-steps never wastes more than half of its evaluated prefix on
    /// to-be-discarded weight columns.
    chunk: usize,
    /// Ladder re-anchors spent on the current eval point, at most
    /// `max_substeps`.
    rounds: usize,
}

impl<'a> March<'a> {
    /// Starts `solver`'s march at the run's start state `x0`, recorded
    /// as sample 0, with the active sources' timing classes.
    fn new(
        solver: &'a MatexSolver,
        sys: &'a MnaSystem,
        setup: &'a MatexSetup,
        op: Box<dyn KrylovOp + 'a>,
        classes: &TimingClasses,
        spec: &TransientSpec,
        x0: Vec<f64>,
    ) -> Result<Self, CoreError> {
        let n = sys.dim();
        let (t_start, t_stop) = (spec.t_start(), spec.t_stop());
        // A distributed node marches on its group's LTS, which the
        // scheduler hands it.
        let lts = match &solver.lts_override {
            Some(s) => s.clip(t_start, t_stop),
            None => classes.lts(t_start, t_stop),
        };
        let mut rec = Recorder::new(spec, n)?;
        ensure_finite(t_start, &x0)?;
        rec.record(0, &x0);
        let mut stats = SolveStats::default();
        let terms = IntervalTerms::new(sys, classes, setup.lu_g(), (t_start, t_stop), &mut stats);
        Ok(March {
            terms,
            op,
            opts: &solver.opts,
            win_end: next_window_end(&lts, t_start, t_stop),
            lts,
            t_start,
            t_stop,
            anchor_t: t_start,
            x_final: x0.clone(),
            anchor_x: x0,
            terms_valid: false,
            basis: None,
            builder: BasisBuilder::new(),
            rec,
            stats,
            evaluator: SnapshotEvaluator::new(),
            hs: Vec::new(),
            xs: Vec::new(),
            v: vec![0.0; n],
            p: vec![0.0; n],
            chunk: 1,
            rounds: 0,
        })
    }

    /// Advances from the anchor towards the grid points `times` (with
    /// their sample indices): accepts a batch of them, or sub-steps to
    /// a pseudo-anchor short of the first. Returns how many of them it
    /// accepted (or skipped, when already behind the anchor).
    fn step(&mut self, times: &[f64], samples: &[Option<usize>]) -> Result<usize, CoreError> {
        let te = times[0];
        if te <= self.anchor_t + 1e-30 || te <= self.t_start {
            self.rounds = 0;
            return Ok(1);
        }
        let h = te - self.anchor_t;
        if !self.terms_valid {
            self.terms
                .recompute(self.anchor_t, self.win_end, &mut self.stats);
            self.terms_valid = true;
        }
        if self.basis.is_none() {
            // v = x(anchor) + F(anchor). The basis goes whenever the
            // anchor or the terms change, so v only changes here.
            self.terms.f_into(&mut self.v);
            for (v, x) in self.v.iter_mut().zip(&self.anchor_x) {
                *v += x;
            }
            if norm2(&self.v) == 0.0 {
                // Pure steady state: x(t+h) = −P(h).
                self.land(Weights::Steady(h));
                self.accept(te, samples[0], 0)?;
                self.rounds = 0;
                return Ok(1);
            }
            // Build for the current target and the window end, so
            // snapshot reuse across the window holds; also check
            // intermediate offsets — on stiff systems the residual at
            // the window end underflows (all modes decayed) while
            // mid-window it is still large.
            let hw = (self.win_end - self.anchor_t).max(h);
            let checks = [h, hw, hw / 8.0, hw / 64.0];
            let arnoldi_span = self.opts.obs.span("solver.arnoldi");
            let built = self
                .builder
                .build(&*self.op, &self.v, &checks, &self.opts.expm);
            drop(arnoldi_span);
            let outcome = built.map_err(diverged(self.anchor_t, h, None))?;
            self.stats.krylov_bases += 1;
            self.stats.krylov_dim_sum += outcome.basis.m();
            self.stats.krylov_dim_peak = self.stats.krylov_dim_peak.max(outcome.basis.m());
            self.stats.substitution_pairs += outcome.substitutions;
            self.basis = Some(outcome.basis);
        }
        let b = self.basis.as_ref().expect("basis present");
        let tol_abs = self.opts.expm.tol * b.beta();

        // Batch every eval time of the current window: they all
        // evaluate from the same anchor, so one weight batch + one tiled
        // combination covers them. A non-finite projected exponential
        // (overflow from a sign-flipped Ritz artifact at long reuse
        // distances) surfaces as an ∞ estimate: force sub-stepping.
        let last = self.win_end * (1.0 + 1e-12);
        let window = times.iter().take(self.chunk).take_while(|&&t| t <= last);
        self.hs.clear();
        self.hs.extend(window.map(|t| t - self.anchor_t));
        if self.hs.is_empty() {
            self.hs.push(h);
        }
        let t0 = Instant::now();
        let on_dense = diverged(self.anchor_t, h, Some(b.m()));
        self.evaluator.weights_many(b, &self.hs).map_err(on_dense)?;
        self.stats.expm_time += t0.elapsed();
        self.stats.expm_evals += self.hs.len();
        let accepted = self
            .evaluator
            .estimates()
            .iter()
            .take_while(|&&e| e <= tol_abs)
            .count();
        if accepted > 0 {
            let t0 = Instant::now();
            self.land(Weights::Batch(0..accepted));
            for j in 0..accepted {
                self.accept(times[j], samples[j], j)?;
            }
            self.stats.combine_time += t0.elapsed();
            self.rounds = 0;
            if accepted == self.hs.len() {
                self.chunk = if self.basis.is_none() {
                    1 // window advanced: the next window starts cautious
                } else {
                    (self.chunk * 2).min(MAX_BATCH)
                };
                return Ok(accepted);
            }
        }
        self.chunk = 1;

        // First rejected time: one squaring ladder, whose intermediates
        // are exactly the exponentials at the halved trial distances
        // h/2, h/4, … (the full step itself is the batch's, just
        // rejected).
        let te_f = times[accepted];
        let h_f = te_f - self.anchor_t;
        let b = self.basis.as_ref().expect("basis survives a partial batch");
        // With the per-point budget exhausted, skip straight to the
        // best-effort acceptance (rung = None) instead of laddering.
        // Depths are staged (shallow first): the common shallow sub-step
        // finds its rung for a handful of squarings, and only a
        // genuinely stiff rejection pays the full ladder.
        let s_cap = self.opts.max_substeps.max(1);
        let mut rung = None;
        if self.rounds < s_cap {
            let t0 = Instant::now();
            for depth in [4usize, 12, s_cap] {
                let depth = depth.min(s_cap);
                let on_dense = diverged(self.anchor_t, h_f, Some(b.m()));
                self.evaluator
                    .eval_ladder(b, h_f, depth, tol_abs)
                    .map_err(on_dense)?;
                self.stats.expm_evals += 1;
                rung = self.evaluator.best_rung(tol_abs);
                if rung.is_some() || depth == s_cap {
                    break;
                }
            }
            let d = t0.elapsed();
            self.stats.expm_time += d;
            let obs = &self.opts.obs;
            obs.record_span("solver.expm_ladder", obs.job(), t0, d, &[]);
        }
        let t0 = Instant::now();
        if let Some(s) = rung {
            // Re-anchor at the longest passing rung h/2^s (a
            // pseudo-anchor of Alg. 2) and rebuild there.
            let hs = h_f * 0.5_f64.powi(s as i32);
            self.land(Weights::Rung(s, hs));
            self.stats.combine_time += t0.elapsed();
            // A pseudo-anchor is a state like any accepted one: a
            // non-finite one fails the run here, not the next basis.
            ensure_finite(self.anchor_t + hs, &self.xs[..self.anchor_x.len()])?;
            self.move_anchor(self.anchor_t + hs, 0);
            self.stats.substeps += s;
            self.rounds += 1;
            return Ok(accepted);
        }
        // No rung passed (or the per-point budget ran out): accept the
        // best-effort full-step value only while its estimate stays
        // within `BEST_EFFORT_BOUND` of the tolerance; past it (or never
        // finite) the march has diverged.
        let estimate = self.evaluator.estimates()[accepted];
        if !estimate.is_finite() || estimate > BEST_EFFORT_BOUND * tol_abs {
            let m = b.m();
            let cause = if estimate.is_finite() {
                KrylovError::NoConvergence {
                    m,
                    estimate,
                    tolerance: tol_abs,
                }
            } else {
                KrylovError::Dense(matex_dense::DenseError::NotFinite)
            };
            let (at, h, m) = (self.anchor_t, h_f, Some(m));
            return Err(CoreError::Diverged { at, h, m, cause });
        }
        self.stats.best_effort_steps += 1;
        self.land(Weights::Batch(accepted..accepted + 1));
        self.accept(te_f, samples[accepted], 0)?;
        self.stats.combine_time += t0.elapsed();
        self.rounds = 0;
        Ok(accepted + 1)
    }

    /// Lands `x = V·w − P(h)` for each step of `w`, column `j` of the
    /// staging buffer holding the `j`-th.
    fn land(&mut self, w: Weights) {
        let n = self.anchor_x.len();
        let b = self.basis.as_ref();
        let k = match &w {
            Weights::Steady(_) => {
                // No basis term: from −0.0, `x −= p` is −p bit for bit,
                // signed zeros included.
                self.xs.clear();
                self.xs.resize(n, -0.0);
                1
            }
            Weights::Batch(cols) => {
                self.xs.resize(cols.len() * n, 0.0);
                let b = b.expect("a batch has a basis");
                self.evaluator
                    .combine_range(b, cols.start, cols.end, None, &mut self.xs);
                cols.len()
            }
            Weights::Rung(s, _) => {
                self.xs.resize(n, 0.0);
                let b = b.expect("a ladder has a basis");
                self.evaluator.combine_rung(b, *s, None, &mut self.xs);
                1
            }
        };
        for j in 0..k {
            let h = match &w {
                Weights::Batch(cols) => self.hs[cols.start + j],
                Weights::Steady(h) | Weights::Rung(_, h) => *h,
            };
            self.terms.p_into(h, &mut self.p);
            for (x, p) in self.xs[j * n..(j + 1) * n].iter_mut().zip(&self.p) {
                *x -= p;
            }
        }
    }

    /// Accepts the landed column `col` as the state at `te`, the grid
    /// point of output sample `sample` if it is one: counts the step,
    /// records the sample, tracks the final state, and advances the
    /// window when `te` is a local transition spot or the window end (a
    /// new Krylov subspace is required there — the input slope
    /// changes). A non-finite state fails the run with
    /// [`CoreError::NotFinite`] before anything is recorded.
    fn accept(&mut self, te: f64, sample: Option<usize>, col: usize) -> Result<(), CoreError> {
        let n = self.anchor_x.len();
        let x = &self.xs[col * n..(col + 1) * n];
        ensure_finite(te, x)?;
        self.stats.steps += 1;
        if let Some(k) = sample {
            self.rec.record(k, x);
        }
        self.x_final.copy_from_slice(x);
        if self.lts.contains(te) || te >= self.win_end * (1.0 - 1e-12) {
            self.win_end = next_window_end(&self.lts, te, self.t_stop);
            self.move_anchor(te, col);
        }
        Ok(())
    }

    /// Moves the anchor to `t` with the state of landed column `col`:
    /// the window's terms and basis belong to the old anchor.
    fn move_anchor(&mut self, t: f64, col: usize) {
        let n = self.anchor_x.len();
        self.anchor_t = t;
        self.anchor_x
            .copy_from_slice(&self.xs[col * n..(col + 1) * n]);
        self.terms_valid = false;
        if let Some(basis) = self.basis.take() {
            self.builder.recycle(basis);
        }
    }
}

/// Maps a dense failure of the projected computation on the step `h`
/// from the anchor at `at` (on a basis of dimension `m`, if one was
/// built) to [`CoreError::Diverged`]; other kernel errors pass as they
/// are.
fn diverged(at: f64, h: f64, m: Option<usize>) -> impl Fn(KrylovError) -> CoreError {
    move |cause| match cause {
        KrylovError::Dense(_) => CoreError::Diverged { at, h, m, cause },
        e => CoreError::Krylov(e),
    }
}

/// [`CoreError::NotFinite`] when the state at `t` holds a NaN or ±∞.
fn ensure_finite(t: f64, x: &[f64]) -> Result<(), CoreError> {
    if x.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(CoreError::NotFinite { at: t })
    }
}

/// End of the input-linearity window starting at `t`: the next LTS, or
/// the simulation end.
fn next_window_end(lts: &SpotSet, t: f64, t_stop: f64) -> f64 {
    match lts.next_after(t) {
        Some(next) if next < t_stop => next,
        _ => t_stop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MatexSymbolic, Trapezoidal};
    use matex_circuit::{Netlist, RcMeshBuilder};
    use matex_waveform::{Pulse, Waveform};

    fn pulsed_rc() -> MnaSystem {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let p = Pulse::new(0.0, 1e-3, 1e-10, 5e-11, 2e-10, 5e-11).unwrap();
        nl.add_isource("i", Netlist::ground(), a, Waveform::Pulse(p))
            .unwrap();
        nl.add_resistor("r", a, Netlist::ground(), 1000.0).unwrap();
        nl.add_capacitor("c", a, Netlist::ground(), 1e-13).unwrap();
        MnaSystem::assemble(&nl).unwrap()
    }

    fn check_against_reference(kind: KrylovKind, sys: &MnaSystem, tol: f64) {
        let spec = TransientSpec::new(0.0, 1e-9, 1e-11).unwrap();
        let solver = MatexSolver::new(MatexOptions::new(kind).tol(1e-9));
        let result = solver.run(sys, &spec).unwrap();
        // Second-order reference at 0.2 ps: its own error is ~1e-7.
        let reference = Trapezoidal::new(2e-13).run(sys, &spec).unwrap();
        let (max_err, _) = result.error_vs(&reference).unwrap();
        assert!(
            max_err < tol,
            "{}: max error {max_err:.3e} vs reference",
            kind.label()
        );
    }

    #[test]
    fn rational_matches_reference_on_rc() {
        check_against_reference(KrylovKind::Rational, &pulsed_rc(), 5e-6);
    }

    #[test]
    fn inverted_matches_reference_on_rc() {
        check_against_reference(KrylovKind::Inverted, &pulsed_rc(), 5e-6);
    }

    #[test]
    fn standard_matches_reference_on_rc() {
        check_against_reference(KrylovKind::Standard, &pulsed_rc(), 5e-6);
    }

    #[test]
    fn rational_on_mesh_matches_tr() {
        let sys = RcMeshBuilder::new(5, 5).build().unwrap();
        let spec = TransientSpec::new(0.0, 5e-10, 1e-11).unwrap();
        let matex = MatexSolver::new(MatexOptions::default().tol(1e-8))
            .run(&sys, &spec)
            .unwrap();
        let tr = Trapezoidal::new(5e-13).run(&sys, &spec).unwrap();
        let (max_err, _) = matex.error_vs(&tr).unwrap();
        assert!(max_err < 1e-5, "mesh error {max_err:.3e}");
    }

    #[test]
    fn no_refactorization_during_transient() {
        let sys = pulsed_rc();
        let spec = TransientSpec::new(0.0, 1e-9, 1e-11).unwrap();
        let result = MatexSolver::new(MatexOptions::default())
            .run(&sys, &spec)
            .unwrap();
        // G + (C + γG): exactly two factorizations, regardless of steps.
        assert_eq!(result.stats.factorizations, 2);
        assert!(result.stats.krylov_bases >= 1);
    }

    #[test]
    fn inverted_reuses_g_factorization() {
        let sys = pulsed_rc();
        let spec = TransientSpec::new(0.0, 1e-9, 1e-11).unwrap();
        let result = MatexSolver::new(MatexOptions::new(KrylovKind::Inverted))
            .run(&sys, &spec)
            .unwrap();
        assert_eq!(result.stats.factorizations, 1);
    }

    #[test]
    fn standard_regularizes_singular_c() {
        // Node b has no capacitor: C is singular; MEXP must still run.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        let p = Pulse::new(0.0, 1e-3, 1e-10, 5e-11, 2e-10, 5e-11).unwrap();
        nl.add_isource("i", Netlist::ground(), a, Waveform::Pulse(p))
            .unwrap();
        nl.add_resistor("r1", a, b, 500.0).unwrap();
        nl.add_resistor("r2", b, Netlist::ground(), 500.0).unwrap();
        nl.add_capacitor("c", a, Netlist::ground(), 1e-13).unwrap();
        let sys = MnaSystem::assemble(&nl).unwrap();
        assert!(!sys.zero_c_rows().is_empty());
        let spec = TransientSpec::new(0.0, 1e-9, 2e-11).unwrap();
        let mexp = MatexSolver::new(MatexOptions::new(KrylovKind::Standard))
            .run(&sys, &spec)
            .unwrap();
        // Inverted variant needs no regularization — compare them.
        let imatex = MatexSolver::new(MatexOptions::new(KrylovKind::Inverted).tol(1e-9))
            .run(&sys, &spec)
            .unwrap();
        let (max_err, _) = mexp.error_vs(&imatex).unwrap();
        assert!(max_err < 1e-3, "regularized MEXP deviates: {max_err:.3e}");
    }

    #[test]
    fn masked_subtasks_superpose() {
        // Two pulse loads: run each in its own subtask, sum, compare to
        // the monolithic run. This is the core distributed-MATEX property.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        let p1 = Pulse::new(0.0, 1e-3, 1e-10, 5e-11, 2e-10, 5e-11).unwrap();
        let p2 = Pulse::new(0.0, 2e-3, 4e-10, 5e-11, 1e-10, 5e-11).unwrap();
        nl.add_isource("i1", Netlist::ground(), a, Waveform::Pulse(p1))
            .unwrap();
        nl.add_isource("i2", Netlist::ground(), b, Waveform::Pulse(p2))
            .unwrap();
        nl.add_resistor("r1", a, b, 100.0).unwrap();
        nl.add_resistor("r2", b, Netlist::ground(), 100.0).unwrap();
        nl.add_resistor("r3", a, Netlist::ground(), 100.0).unwrap();
        nl.add_capacitor("c1", a, Netlist::ground(), 1e-13).unwrap();
        nl.add_capacitor("c2", b, Netlist::ground(), 2e-13).unwrap();
        let sys = MnaSystem::assemble(&nl).unwrap();
        let spec = TransientSpec::new(0.0, 1e-9, 1e-11).unwrap();
        let opts = || MatexOptions::default().tol(1e-10);
        let full = MatexSolver::new(opts()).run(&sys, &spec).unwrap();
        let sub1 = MatexSolver::new(opts())
            .with_source_mask(vec![0])
            .run(&sys, &spec)
            .unwrap();
        let sub2 = MatexSolver::new(opts())
            .with_source_mask(vec![1])
            .run(&sys, &spec)
            .unwrap();
        let mut sum = sub1.clone();
        sum.add_scaled(&sub2, 1.0).unwrap();
        let (max_err, _) = sum.error_vs(&full).unwrap();
        assert!(max_err < 1e-7, "superposition violated: {max_err:.3e}");
    }

    #[test]
    fn a_mask_member_past_the_sources_fails_before_any_factorization() {
        // Node a floats in G (its only element besides the source is a
        // capacitor), so any factorization of G fails: the mask check
        // must come first.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.add_isource("i", Netlist::ground(), a, Waveform::Dc(1e-3))
            .unwrap();
        nl.add_capacitor("c", a, Netlist::ground(), 1e-13).unwrap();
        let sys = MnaSystem::assemble(&nl).unwrap();
        let spec = TransientSpec::new(0.0, 1e-9, 1e-11).unwrap();
        let run = |members: Vec<usize>| {
            MatexSolver::new(MatexOptions::default())
                .with_source_mask(members)
                .run(&sys, &spec)
                .unwrap_err()
        };
        let err = run(vec![0, sys.num_sources()]);
        assert!(matches!(err, CoreError::InvalidSpec(_)), "{err}");
        assert!(err.to_string().contains("column 1"), "{err}");
        assert!(!matches!(run(vec![0]), CoreError::InvalidSpec(_)));
    }

    #[test]
    fn non_finite_states_fail_with_the_time_they_appeared() {
        assert!(ensure_finite(1e-9, &[0.0, -1.5, 1e300]).is_ok());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = ensure_finite(2e-10, &[1.0, bad]).unwrap_err();
            assert!(matches!(err, CoreError::NotFinite { at } if at == 2e-10));
            assert_eq!(err.to_string(), "non-finite state at t = 2.000e-10");
        }
    }

    #[test]
    fn symbolic_reuse_is_bitwise_identical_across_gammas() {
        // The two-phase contract at the solver level: a γ sweep over one
        // shared analysis produces exactly the waveforms the fresh-factor
        // path produces, while every factorization becomes a replay.
        let sys = pulsed_rc();
        let spec = TransientSpec::new(0.0, 1e-9, 1e-11).unwrap();
        let symbolic = MatexSymbolic::analyze(&sys, &MatexOptions::default()).unwrap();
        for gamma in [5e-11, 1e-10, 4e-10] {
            let opts = MatexOptions::default().gamma(gamma);
            let fresh = MatexSolver::new(opts.clone()).run(&sys, &spec).unwrap();
            let setup = MatexSetup::prepare(&sys, &opts, Some(&symbolic), false).unwrap();
            let reused = MatexSolver::new(opts)
                .with_setup(Arc::new(setup))
                .run(&sys, &spec)
                .unwrap();
            assert_eq!(fresh.series(), reused.series(), "γ={gamma}");
            assert_eq!(fresh.final_state(), reused.final_state());
            assert_eq!(fresh.stats.refactorizations, 0);
            // G and C + γG both replayed the shared analysis.
            assert_eq!(reused.stats.factorizations, 2);
            assert_eq!(reused.stats.refactorizations, 2, "γ={gamma}");
        }
    }

    #[test]
    fn symbolic_reuse_covers_inverted_and_standard_dc() {
        let sys = pulsed_rc();
        let spec = TransientSpec::new(0.0, 1e-9, 1e-11).unwrap();
        for kind in [KrylovKind::Inverted, KrylovKind::Standard] {
            let opts = MatexOptions::new(kind);
            let symbolic = MatexSymbolic::analyze(&sys, &opts).unwrap();
            let fresh = MatexSolver::new(opts.clone()).run(&sys, &spec).unwrap();
            let setup = MatexSetup::prepare(&sys, &opts, Some(&symbolic), false).unwrap();
            let reused = MatexSolver::new(opts)
                .with_setup(Arc::new(setup))
                .run(&sys, &spec)
                .unwrap();
            assert_eq!(fresh.series(), reused.series());
            // Only the G factorization can replay on these variants.
            assert_eq!(reused.stats.refactorizations, 1);
        }
    }

    #[test]
    fn ladder_substeps_engage_and_waveform_stays_accurate() {
        // Force the sub-step path with an RLC grid (oscillatory modes)
        // and a deliberately starved basis budget: the squaring ladder
        // must insert pseudo-anchors (Alg. 2) and the waveform must
        // still track the Trapezoidal reference.
        let sys = matex_circuit::PdnBuilder::new(10, 10)
            .num_loads(25)
            .num_features(4)
            .window(1e-8)
            .cap_spread(30.0)
            .seed(1003)
            .pad_inductance(1e-11)
            .build()
            .unwrap();
        let spec = TransientSpec::new(0.0, 1e-8, 1e-10).unwrap();
        let mut opts = MatexOptions::new(KrylovKind::Rational).tol(1e-8);
        opts.expm.m_max = 6;
        let matex = MatexSolver::new(opts).run(&sys, &spec).unwrap();
        assert!(
            matex.stats.substeps > 0,
            "starved basis should force sub-stepping"
        );
        // One staged ladder (≤ 3 calls) per rejected point instead of a
        // fresh expm per halving trial: the expm count stays bounded by
        // a small multiple of the accepted steps.
        assert!(matex.stats.expm_evals <= 4 * matex.stats.steps + 3 * matex.stats.substeps);
        let tr = Trapezoidal::new(5e-12).run(&sys, &spec).unwrap();
        let (max_err, _) = matex.error_vs(&tr).unwrap();
        assert!(max_err < 1e-2, "sub-stepped waveform error {max_err:.3e}");
        // The timing split covers the snapshot phase.
        assert!(matex.stats.expm_time + matex.stats.combine_time <= matex.stats.transient_time);
    }

    #[test]
    fn injected_setup_and_dc_are_bitwise_identical() {
        // The setup/run split contract: a shared MatexSetup (with or
        // without a cached DC solution) yields bit-for-bit the waveform
        // of a self-preparing run, for every variant.
        let sys = pulsed_rc();
        let spec = TransientSpec::new(0.0, 1e-9, 1e-11).unwrap();
        for kind in [
            KrylovKind::Rational,
            KrylovKind::Inverted,
            KrylovKind::Standard,
        ] {
            let opts = MatexOptions::new(kind);
            let fresh = MatexSolver::new(opts.clone()).run(&sys, &spec).unwrap();
            let setup = Arc::new(MatexSetup::prepare(&sys, &opts, None, false).unwrap());
            let reused = MatexSolver::new(opts.clone())
                .with_setup(setup.clone())
                .run(&sys, &spec)
                .unwrap();
            assert_eq!(fresh.series(), reused.series(), "{kind:?}");
            assert_eq!(fresh.final_state(), reused.final_state());
            // Amortized counters still satisfy the run invariants.
            assert_eq!(fresh.stats.factorizations, reused.stats.factorizations);
            // DC injection: hand the run its own x₀ back.
            let x0 = Arc::new(setup.lu_g().solve(&sys.bu_at(0.0)));
            let with_dc = MatexSolver::new(opts.clone())
                .with_setup(setup.clone())
                .with_dc(x0)
                .run(&sys, &spec)
                .unwrap();
            assert_eq!(fresh.series(), with_dc.series(), "{kind:?} with DC");
            // Mismatched setups are rejected, not silently used.
            let wrong = Arc::new(
                MatexSetup::prepare(&sys, &MatexOptions::default().gamma(3e-10), None, false)
                    .unwrap(),
            );
            if kind == KrylovKind::Rational {
                assert!(MatexSolver::new(opts)
                    .with_setup(wrong)
                    .run(&sys, &spec)
                    .is_err());
            }
        }
    }

    #[test]
    fn fewer_substitutions_than_fixed_tr() {
        // The headline claim: MATEX needs far fewer substitution pairs
        // than 100-step fixed TR on the same window.
        let sys = pulsed_rc();
        let spec = TransientSpec::new(0.0, 1e-9, 1e-11).unwrap();
        let matex = MatexSolver::new(MatexOptions::default())
            .run(&sys, &spec)
            .unwrap();
        let tr = Trapezoidal::new(1e-11).run(&sys, &spec).unwrap();
        assert!(
            matex.stats.substitution_pairs * 2 < tr.stats.substitution_pairs,
            "MATEX pairs {} not well below TR pairs {}",
            matex.stats.substitution_pairs,
            tr.stats.substitution_pairs
        );
    }
}
