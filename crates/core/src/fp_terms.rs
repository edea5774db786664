//! The input terms `F(t)` and `P(t, h)` of the matrix-exponential
//! update (paper Eq. (5)), computed regularization-free from columns
//! solved once per run.
//!
//! With `A = −C⁻¹G` and `b(t) = C⁻¹B u(t)`, the closed-form update for a
//! piecewise-linear input of slope `u̇` on `[t, t+h]` is
//!
//! ```text
//! x(t+h) = e^{hA} (x(t) + F(t)) − P(t, h)
//! F(t)   = A⁻¹ b(t)   + A⁻² s
//! P(t,h) = A⁻¹ b(t+h) + A⁻² s,      s = (b(t+h) − b(t))/h
//! ```
//!
//! The paper's Sec. 3.3.3 observation makes these computable without ever
//! forming `C⁻¹`:
//!
//! ```text
//! A⁻¹ b(t) = −G⁻¹ B u(t)              A⁻² s = G⁻¹ C G⁻¹ B u̇
//! ```
//!
//! The inputs have far fewer shapes than a run has windows (Sec. 3.1–3.2,
//! Fig. 3): pulse loads stamped from one bump share their timing
//! ([`FeatureKey`]) and differ only in amplitude. With `φ_k` the unit
//! pulse of class `k` (its timing, `v1 = 0`, `v2 = 1`),
//!
//! ```text
//! B u(t) = b₀ + Σ_k φ_k(t)·b̃_k
//! ```
//!
//! where `b₀` collects the constant sources and every pulse's `v1`, and
//! `b̃_k` the classes' amplitudes `v2 − v1`. So [`IntervalTerms::new`]
//! solves the columns once per run — `g₀ = G⁻¹b₀`, `g_k = G⁻¹b̃_k` and
//! `w_k = G⁻¹C·g_k`, `1 + 2·classes` substitution pairs — and a window's
//! terms are sums of them, with `s_k = (φ_k(t1) − φ_k(t0))/h`:
//!
//! ```text
//! q0 = g₀ + Σ φ_k(t0)·g_k      qd = Σ s_k·g_k      r = Σ s_k·w_k
//! ```
//!
//! The columns are independent right-hand sides, so they are solved in
//! two batched passes of
//! [`SparseLu::solve_many_into`](matex_sparse::SparseLu::solve_many_into)
//! — `g₀` with every `g_k`, then every `w_k` once the `g_k` are known —
//! each batch of up to [`SOLVE_BATCH`] columns one sweep over the factor.
//! Every column is bitwise its own single solve, and each still counts as
//! one substitution pair.
//!
//! The classes are the run's [`TimingClasses`], which the solver builds
//! once per run and also reads its LTS from: the `Constant` class, and a
//! bump class constant over the whole run, fold into `b₀`; every other
//! bump class is a column pair. The `PwlTimes` classes (PWL sources)
//! form a per-window residual, solved as
//! `G⁻¹Bu(t0)`, `G⁻¹Bu̇` and `G⁻¹C·G⁻¹Bu̇` — three pairs, one when the
//! slope is zero — and `b₀` rides in that solve instead of in `g₀`, so a
//! netlist without pulses pays exactly the per-window cost and no more.
//!
//! [`IntervalTerms::recompute`] runs once per input-linearity window,
//! thousands of windows per long run. The struct owns all of its buffers
//! — columns, term vectors *and* scratch — so recomputation performs
//! **zero heap allocations**: the residual's substitutions go through
//! [`SparseLu::solve_into`](matex_sparse::SparseLu::solve_into) and the
//! `B·u` and `C·qd` products through `matvec_into` on reused buffers
//! (verified by the counting-allocator tests in `tests/alloc_free.rs`).
//! Every solve goes through the run's [`FactorRef`] of `G`; a what-if
//! setup's factor carries its correction, so the columns come out for
//! the edited `G` without this module knowing.

use crate::SolveStats;
use matex_circuit::MnaSystem;
use matex_sparse::{CsrMatrix, FactorRef, SOLVE_BATCH};
use matex_waveform::{FeatureKey, Pulse, TimingClasses, Waveform};

/// One run's input columns and the terms they give for one linear
/// interval `[t0, t1]`, plus the persistent scratch that makes
/// recomputation allocation-free.
#[derive(Debug, Clone)]
pub struct IntervalTerms<'a> {
    sys: &'a MnaSystem,
    solver: GSolver<'a>,
    /// The unit pulse `φ_k` of each class.
    shapes: Vec<Pulse>,
    /// `g_k = G⁻¹b̃_k`, class `k` in entries `k·n..(k+1)·n`.
    g: Vec<f64>,
    /// `w_k = G⁻¹C·g_k`, laid out as `g`.
    w: Vec<f64>,
    /// `g₀ = G⁻¹b₀` (zero while the residual carries `b₀`).
    g0: Vec<f64>,
    /// Active columns of any other shape, solved per window.
    residual: Vec<usize>,
    /// The residual solve's input: `b₀`'s inputs, plus the residual
    /// columns' values at the time last evaluated.
    u: Vec<f64>,
    /// `q0 = G⁻¹ B u(t0)`.
    q0: Vec<f64>,
    /// `qd = G⁻¹ B u̇` (zero vector when the slope is zero).
    qd: Vec<f64>,
    /// `r = G⁻¹ C qd = A⁻² s`.
    r: Vec<f64>,
    /// Right-hand-side scratch.
    rhs: Vec<f64>,
}

impl<'a> IntervalTerms<'a> {
    /// Solves the columns of a run over `[t_start, t_stop]` whose active
    /// sources `classes` holds (built from `sys`'s waveforms with
    /// `t_end = t_stop`): folds the `Constant` class and the bump
    /// classes constant over the run into `b₀`, makes every other bump
    /// class a column pair and the rest the residual, and solves `g_k`,
    /// `w_k` and — unless a residual carries it or it is zero — `g₀`
    /// with `lu_g`. Counts the solves in `stats`.
    ///
    /// # Panics
    ///
    /// Panics if `lu_g` does not match the system's dimension, or a
    /// member of a bump class is not a pulse source of `sys`.
    pub fn new(
        sys: &'a MnaSystem,
        classes: &TimingClasses,
        lu_g: impl Into<FactorRef<'a>>,
        (t_start, t_stop): (f64, f64),
        stats: &mut SolveStats,
    ) -> Self {
        let n = sys.dim();
        let sources = sys.sources();
        let mut u = vec![0.0; sys.num_sources()];
        let mut residual = Vec::new();
        // Each column class's unit pulse and its members' amplitudes.
        let (mut shapes, mut members) = (Vec::new(), Vec::new());
        for (key, class, spots) in classes.iter() {
            let unit = match (key, &sources[class[0]].waveform) {
                (FeatureKey::PwlTimes(_), _) => {
                    residual.extend_from_slice(class);
                    continue;
                }
                (FeatureKey::Bump(_), Waveform::Pulse(p)) => Some(Pulse {
                    v1: 0.0,
                    v2: 1.0,
                    ..*p
                }),
                _ => None,
            };
            // The constant class, and a bump class flat over the run,
            // fold into `b₀` at their exact values, before `b₀` is formed.
            let inside = |&s: &f64| s > t_start && s < t_stop;
            let varies = |unit: &Pulse| {
                unit.value(t_start) != unit.value(t_stop) || spots.iter().any(inside)
            };
            let Some(unit) = unit.filter(varies) else {
                for &c in class {
                    u[c] = sources[c].waveform.value(t_start);
                }
                continue;
            };
            let amps: Vec<(usize, f64)> = class
                .iter()
                .map(|&c| match sources[c].waveform {
                    Waveform::Pulse(p) => {
                        u[c] = p.v1;
                        (c, p.v2 - p.v1)
                    }
                    _ => unreachable!("a bump class holds pulses"),
                })
                .collect();
            shapes.push(unit);
            members.push(amps);
        }
        let mut solver = GSolver {
            lu: lu_g.into(),
            c: sys.c(),
            work: vec![0.0; n],
        };
        let mut rhs = vec![0.0; n];
        sys.b().matvec_into(&u, &mut rhs);
        let with_g0 = residual.is_empty() && rhs.iter().any(|&v| v != 0.0);
        // One batch solves `g₀` and every `g_k = G⁻¹b̃_k`, a second every
        // `w_k = G⁻¹C·g_k`.
        let classes = shapes.len();
        let (mut g0, mut g, mut w) = (vec![0.0; n], vec![0.0; classes * n], vec![0.0; classes * n]);
        let mut amp = vec![0.0; sys.num_sources()];
        let skip = usize::from(with_g0);
        solver.solve_batched(
            skip + classes,
            |i, col| match i.checked_sub(skip) {
                None => col.copy_from_slice(&rhs),
                Some(k) => {
                    for &(c, a) in &members[k] {
                        amp[c] = a;
                    }
                    sys.b().matvec_into(&amp, col);
                    for &(c, _) in &members[k] {
                        amp[c] = 0.0;
                    }
                }
            },
            |i, x| match i.checked_sub(skip) {
                None => g0.copy_from_slice(x),
                Some(k) => g[k * n..(k + 1) * n].copy_from_slice(x),
            },
            stats,
        );
        solver.solve_batched(
            classes,
            |k, col| sys.c().matvec_into(&g[k * n..(k + 1) * n], col),
            |k, x| w[k * n..(k + 1) * n].copy_from_slice(x),
            stats,
        );
        IntervalTerms {
            sys,
            solver,
            shapes,
            g,
            w,
            g0,
            residual,
            u,
            q0: vec![0.0; n],
            qd: vec![0.0; n],
            r: vec![0.0; n],
            rhs,
        }
    }

    /// Computes the terms for the interval `[t0, t1]` of the run, on
    /// which the (masked) input must be linear, in place, reusing every
    /// buffer: zero heap allocations per invocation. Sums the columns,
    /// and solves the residual if there is one, counting its
    /// substitutions in `stats`.
    ///
    /// # Panics
    ///
    /// Panics if `t1 <= t0`.
    pub fn recompute(&mut self, t0: f64, t1: f64, stats: &mut SolveStats) {
        assert!(t1 > t0, "interval must have positive length");
        let h = t1 - t0;
        if self.residual.is_empty() {
            self.q0.copy_from_slice(&self.g0);
            self.qd.fill(0.0);
            self.r.fill(0.0);
        } else {
            // q0 = G⁻¹ B u(t0); keep B u(t0) in `qd` for the slope below.
            self.residual_input_at(t0);
            self.sys.b().matvec_into(&self.u, &mut self.qd);
            self.solver.solve(&self.qd, &mut self.q0);
            stats.substitution_pairs += 1;
            // rhs = (B u(t1) − B u(t0)) / (t1 − t0)
            self.residual_input_at(t1);
            self.sys.b().matvec_into(&self.u, &mut self.rhs);
            for (d, &b0) in self.rhs.iter_mut().zip(&self.qd) {
                *d = (*d - b0) / h;
            }
            if self.rhs.iter().all(|&v| v == 0.0) {
                self.qd.fill(0.0);
                self.r.fill(0.0);
            } else {
                // qd = G⁻¹ u̇-term, r = G⁻¹ C qd.
                self.solver
                    .solve_twice(&mut self.rhs, &mut self.qd, &mut self.r);
                stats.substitution_pairs += 2;
            }
        }
        let n = self.q0.len();
        for (k, shape) in self.shapes.iter().enumerate() {
            let phi = shape.value(t0);
            let s = (shape.value(t1) - phi) / h;
            let cols = k * n..(k + 1) * n;
            if phi != 0.0 {
                axpy(phi, &self.g[cols.clone()], &mut self.q0);
            }
            if s != 0.0 {
                axpy(s, &self.g[cols.clone()], &mut self.qd);
                axpy(s, &self.w[cols], &mut self.r);
            }
        }
    }

    /// Sets the residual columns of the per-window input to their values
    /// at `t`.
    fn residual_input_at(&mut self, t: f64) {
        let sources = self.sys.sources();
        for &c in &self.residual {
            self.u[c] = sources[c].waveform.value(t);
        }
    }

    /// Writes `F(t0) = −q0 + r`, added to the state before projection,
    /// into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out` has the wrong length.
    pub fn f_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.q0.len(), "f_into: length mismatch");
        for ((o, q), r) in out.iter_mut().zip(&self.q0).zip(&self.r) {
            *o = -q + r;
        }
    }

    /// Writes `P(t0, h) = −(q0 + h·qd) + r`, subtracted after
    /// projection, into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `h < 0` or `out` has the wrong length.
    pub fn p_into(&self, h: f64, out: &mut [f64]) {
        assert!(h >= 0.0, "P requires a non-negative step");
        assert_eq!(out.len(), self.q0.len(), "p_into: length mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            *o = -(self.q0[i] + h * self.qd[i]) + self.r[i];
        }
    }
}

/// Substitutions with the factored `G`, and their scratch.
#[derive(Debug, Clone)]
struct GSolver<'a> {
    lu: FactorRef<'a>,
    c: &'a CsrMatrix,
    /// Substitution scratch for [`FactorRef::solve_into`].
    work: Vec<f64>,
}

impl GSolver<'_> {
    /// `out = G⁻¹b`: one substitution pair.
    fn solve(&mut self, b: &[f64], out: &mut [f64]) {
        self.lu.solve_into(b, out, &mut self.work);
    }

    /// Solves `k` columns in batches of [`SOLVE_BATCH`] (one pass over
    /// the factor per batch, [`FactorRef::solve_many_into`]): `fill(i, b)`
    /// writes column `i`'s right-hand side, and `sink(i, x)` receives
    /// its solution — bitwise [`GSolver::solve`]'s. Counts one
    /// substitution pair per column.
    fn solve_batched(
        &mut self,
        k: usize,
        mut fill: impl FnMut(usize, &mut [f64]),
        mut sink: impl FnMut(usize, &[f64]),
        stats: &mut SolveStats,
    ) {
        let n = self.work.len();
        let width = k.min(SOLVE_BATCH);
        let (mut b, mut x, mut work) = (
            vec![0.0; width * n],
            vec![0.0; width * n],
            vec![0.0; width * n],
        );
        for start in (0..k).step_by(SOLVE_BATCH) {
            let cols = (k - start).min(SOLVE_BATCH);
            let (b, x) = (&mut b[..cols * n], &mut x[..cols * n]);
            for (c, col) in b.chunks_exact_mut(n).enumerate() {
                fill(start + c, col);
            }
            self.lu.solve_many_into(b, x, &mut work);
            for (c, col) in x.chunks_exact(n).enumerate() {
                sink(start + c, col);
            }
            stats.substitution_pairs += cols;
        }
    }

    /// `x = G⁻¹b` and `y = G⁻¹C·x`: two pairs. Overwrites `b`.
    fn solve_twice(&mut self, b: &mut [f64], x: &mut [f64], y: &mut [f64]) {
        self.solve(b, x);
        self.c.matvec_into(x, b);
        self.solve(b, y);
    }
}

/// `y += a·x`.
fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    for (y, &x) in y.iter_mut().zip(x) {
        *y += a * x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::InputEval;
    use matex_circuit::Netlist;
    use matex_sparse::{LuOptions, SparseLu};

    /// The classes of all of `sys`'s sources over `[0, t_stop]`.
    fn classes(sys: &MnaSystem, t_stop: f64) -> TimingClasses {
        TimingClasses::new(
            sys.sources().iter().map(|s| &s.waveform).enumerate(),
            t_stop,
        )
    }

    /// A 0 → 2 mA pulse rising over [0, 1 ns], high until 2 ns, back
    /// down at 3 ns.
    fn rc() -> MnaSystem {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let p = Pulse::new(0.0, 2e-3, 0.0, 1e-9, 1e-9, 1e-9).unwrap();
        nl.add_isource("i", Netlist::ground(), a, Waveform::Pulse(p))
            .unwrap();
        nl.add_resistor("r", a, Netlist::ground(), 500.0).unwrap();
        nl.add_capacitor("c", a, Netlist::ground(), 1e-12).unwrap();
        MnaSystem::assemble(&nl).unwrap()
    }

    /// The columns of a run over `run`, with the terms of `[t0, t1]`.
    fn terms<'a>(
        sys: &'a MnaSystem,
        lu_g: &'a SparseLu,
        run: (f64, f64),
        (t0, t1): (f64, f64),
        stats: &mut SolveStats,
    ) -> IntervalTerms<'a> {
        let mut terms = IntervalTerms::new(sys, &classes(sys, run.1), lu_g, run, stats);
        terms.recompute(t0, t1, stats);
        terms
    }

    fn f(terms: &IntervalTerms) -> Vec<f64> {
        let mut out = vec![0.0; terms.q0.len()];
        terms.f_into(&mut out);
        out
    }

    fn p(terms: &IntervalTerms, h: f64) -> Vec<f64> {
        let mut out = vec![0.0; terms.q0.len()];
        terms.p_into(h, &mut out);
        out
    }

    #[test]
    fn steady_state_identity() {
        // For constant input: F = -q0 and P(h) = -q0, and the DC solution
        // is exactly q0, so v = x_dc + F = 0.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.add_isource("i", Netlist::ground(), a, Waveform::Dc(1e-3))
            .unwrap();
        nl.add_resistor("r", a, Netlist::ground(), 1000.0).unwrap();
        nl.add_capacitor("c", a, Netlist::ground(), 1e-12).unwrap();
        let sys = MnaSystem::assemble(&nl).unwrap();
        let lu_g = SparseLu::factor(sys.g(), &LuOptions::default()).unwrap();
        let input = InputEval::new(&sys);
        let mut stats = SolveStats::default();
        let span = (0.0, 1e-9);
        let terms = terms(&sys, &lu_g, span, span, &mut stats);
        let x_dc = lu_g.solve(&input.bu_at(0.0));
        let f = f(&terms);
        for i in 0..sys.dim() {
            assert!((x_dc[i] + f[i]).abs() < 1e-15, "steady-state v != 0");
        }
        // Constant input: the one column g₀, solved once.
        assert_eq!(stats.substitution_pairs, 1);
    }

    #[test]
    fn ramp_terms_match_definitions() {
        // During the rising ramp, verify F/P against directly computed
        // -G^{-1}Bu and G^{-1}CG^{-1}Bu̇.
        let sys = rc();
        let lu_g = SparseLu::factor(sys.g(), &LuOptions::default()).unwrap();
        let input = InputEval::new(&sys);
        let mut stats = SolveStats::default();
        let (t0, t1) = (2e-10, 6e-10); // inside the 0..1ns ramp
        let terms = terms(&sys, &lu_g, (0.0, 4e-9), (t0, t1), &mut stats);
        // One class, two columns; b₀ is zero (v1 = 0), so no g₀.
        assert_eq!(stats.substitution_pairs, 2);
        // Manual computation.
        let bu0 = input.bu_at(t0);
        let q0 = lu_g.solve(&bu0);
        let udot: Vec<f64> = input
            .bu_at(t1)
            .iter()
            .zip(&bu0)
            .map(|(a, b)| (a - b) / (t1 - t0))
            .collect();
        let qd = lu_g.solve(&udot);
        let r = lu_g.solve(&sys.c().matvec(&qd));
        // The columns round differently from a solve of their sum: agree
        // to a relative 1e-13 of the largest entry.
        let close = |got: &[f64], want: &[f64]| {
            let scale = want.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            for (g, w) in got.iter().zip(want) {
                assert!((g - w).abs() <= 1e-13 * scale, "{g:e} vs {w:e}");
            }
        };
        let want_f: Vec<f64> = (0..sys.dim()).map(|i| -q0[i] + r[i]).collect();
        close(&f(&terms), &want_f);
        let h = 1e-10;
        let want_p: Vec<f64> = (0..sys.dim())
            .map(|i| -(q0[i] + h * qd[i]) + r[i])
            .collect();
        close(&p(&terms, h), &want_p);
    }

    #[test]
    fn a_class_flat_over_the_run_folds_into_the_constant_column() {
        // A run on the plateau: the class has no column, and q0 is the
        // one solve of B u(t0), bit for bit.
        let sys = rc();
        let lu_g = SparseLu::factor(sys.g(), &LuOptions::default()).unwrap();
        let input = InputEval::new(&sys);
        let mut stats = SolveStats::default();
        let span = (1.2e-9, 1.8e-9);
        let terms = terms(&sys, &lu_g, span, span, &mut stats);
        assert_eq!(stats.substitution_pairs, 1);
        let q0 = lu_g.solve(&input.bu_at(span.0));
        assert_eq!(f(&terms), q0.iter().map(|q| -q + 0.0).collect::<Vec<_>>());
    }

    #[test]
    fn recompute_matches_fresh_compute() {
        // One struct recomputed across intervals (incl. a zero-slope one)
        // gives exactly the same terms as freshly built ones.
        let sys = rc();
        let lu_g = SparseLu::factor(sys.g(), &LuOptions::default()).unwrap();
        let mut stats = SolveStats::default();
        let run = (0.0, 4e-9);
        let mut reused = IntervalTerms::new(&sys, &classes(&sys, run.1), &lu_g, run, &mut stats);
        for (t0, t1) in [(0.0, 4e-10), (4e-10, 1e-9), (2.5e-9, 3e-9)] {
            reused.recompute(t0, t1, &mut stats);
            let fresh = terms(&sys, &lu_g, run, (t0, t1), &mut stats);
            assert_eq!(f(&reused), f(&fresh));
            assert_eq!(p(&reused, 7e-11), p(&fresh, 7e-11));
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_step_panics() {
        let sys = rc();
        let lu_g = SparseLu::factor(sys.g(), &LuOptions::default()).unwrap();
        let mut stats = SolveStats::default();
        let span = (0.0, 1e-9);
        let terms = terms(&sys, &lu_g, span, span, &mut stats);
        let _ = p(&terms, -1.0);
    }
}
