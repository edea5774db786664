//! The PWL input terms `F(t)` and `P(t, h)` of the matrix-exponential
//! update (paper Eq. (5)), computed regularization-free.
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
//! so one interval costs three forward/backward substitution pairs with
//! the *already factored* `G` (two when the input slope is zero).
//!
//! This is the substitution **hot path** of the whole solver: one
//! [`IntervalTerms::recompute`] per input-linearity window, thousands of
//! windows per long run. The struct therefore owns all of its buffers —
//! term vectors *and* scratch — and recomputation performs **zero heap
//! allocations**: substitutions go through
//! [`SparseLu::solve_into`](matex_sparse::SparseLu::solve_into), the
//! input through [`InputEval::bu_into`], and the `C·qd` product through
//! `matvec_into` on a reused buffer (verified by the counting-allocator
//! test in `tests/alloc_free.rs`).

use crate::engine::InputEval;
use crate::SolveStats;
use matex_circuit::MnaSystem;
use matex_sparse::{SmwUpdate, SparseLu};

/// Precomputed input terms for one linear interval `[t0, t1]`, plus the
/// persistent scratch that makes recomputation allocation-free.
#[derive(Debug, Clone)]
pub struct IntervalTerms {
    /// `q0 = G⁻¹ B u(t0)`.
    q0: Vec<f64>,
    /// `qd = G⁻¹ B u̇` (zero vector when the slope is zero).
    qd: Vec<f64>,
    /// `r = G⁻¹ C qd = A⁻² s`.
    r: Vec<f64>,
    /// Right-hand-side scratch (`B u`, then the slope, then `C qd`).
    rhs: Vec<f64>,
    /// Input-vector scratch (`u(t)`, one entry per source column).
    u: Vec<f64>,
    /// Substitution scratch for [`SparseLu::solve_into`].
    work: Vec<f64>,
}

impl IntervalTerms {
    /// Creates zeroed terms with all buffers sized for a system of
    /// dimension `dim` with `num_sources` input columns. The buffers are
    /// reused by every subsequent [`IntervalTerms::recompute`].
    pub fn new(dim: usize, num_sources: usize) -> IntervalTerms {
        IntervalTerms {
            q0: vec![0.0; dim],
            qd: vec![0.0; dim],
            r: vec![0.0; dim],
            rhs: vec![0.0; dim],
            u: vec![0.0; num_sources],
            work: vec![0.0; dim],
        }
    }

    /// Computes the terms for the interval `[t0, t1]`, on which the
    /// (masked) input must be linear, in place, reusing every buffer:
    /// zero heap allocations per invocation. Updates substitution
    /// counters in `stats`.
    ///
    /// # Panics
    ///
    /// Panics if `t1 <= t0` or the system/input dimensions changed since
    /// construction.
    pub fn recompute(
        &mut self,
        sys: &MnaSystem,
        lu_g: &SparseLu,
        input: &InputEval<'_>,
        t0: f64,
        t1: f64,
        stats: &mut SolveStats,
    ) {
        self.recompute_corrected(sys, lu_g, input, t0, t1, stats, None);
    }

    /// [`IntervalTerms::recompute`] with an optional
    /// Sherman–Morrison–Woodbury correction built against `lu_g`: each
    /// of the (up to three) substitution pairs is followed by
    /// [`SmwUpdate::correct_in_place`], so the terms come out for the
    /// *edited* `G` without refactoring — the what-if fast path. The
    /// correction's fixed evaluation order keeps the result bitwise
    /// identical across repeat calls.
    ///
    /// # Panics
    ///
    /// As [`IntervalTerms::recompute`].
    #[allow(clippy::too_many_arguments)]
    pub fn recompute_corrected(
        &mut self,
        sys: &MnaSystem,
        lu_g: &SparseLu,
        input: &InputEval<'_>,
        t0: f64,
        t1: f64,
        stats: &mut SolveStats,
        smw: Option<&SmwUpdate>,
    ) {
        assert!(t1 > t0, "interval must have positive length");
        let solve = |b: &[f64], out: &mut [f64], work: &mut [f64]| {
            lu_g.solve_into(b, out, work);
            if let Some(smw) = smw {
                smw.correct_in_place(out);
            }
        };
        // q0 = G⁻¹ B u(t0); keep B u(t0) in `qd` for the slope below.
        input.bu_into(t0, &mut self.qd, &mut self.u);
        solve(&self.qd, &mut self.q0, &mut self.work);
        stats.substitution_pairs += 1;
        // rhs = (B u(t1) − B u(t0)) / (t1 − t0)
        input.bu_into(t1, &mut self.rhs, &mut self.u);
        let h = t1 - t0;
        for (d, &b0) in self.rhs.iter_mut().zip(&self.qd) {
            *d = (*d - b0) / h;
        }
        if self.rhs.iter().all(|&v| v == 0.0) {
            self.qd.fill(0.0);
            self.r.fill(0.0);
        } else {
            // qd = G⁻¹ u̇-term, r = G⁻¹ C qd.
            solve(&self.rhs, &mut self.qd, &mut self.work);
            stats.substitution_pairs += 1;
            sys.c().matvec_into(&self.qd, &mut self.rhs);
            solve(&self.rhs, &mut self.r, &mut self.work);
            stats.substitution_pairs += 1;
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

#[cfg(test)]
mod tests {
    use super::*;
    use matex_circuit::Netlist;
    use matex_sparse::LuOptions;
    use matex_waveform::{Pulse, Waveform};

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

    /// Fresh terms for `[t0, t1]`.
    fn terms(
        sys: &MnaSystem,
        lu_g: &SparseLu,
        input: &InputEval<'_>,
        (t0, t1): (f64, f64),
        stats: &mut SolveStats,
    ) -> IntervalTerms {
        let mut terms = IntervalTerms::new(sys.dim(), input.num_sources());
        terms.recompute(sys, lu_g, input, t0, t1, stats);
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
        let terms = terms(&sys, &lu_g, &input, (0.0, 1e-9), &mut stats);
        let x_dc = lu_g.solve(&input.bu_at(0.0));
        let f = f(&terms);
        for i in 0..sys.dim() {
            assert!((x_dc[i] + f[i]).abs() < 1e-15, "steady-state v != 0");
        }
        // Constant slope: only one substitution pair spent.
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
        let terms = terms(&sys, &lu_g, &input, (t0, t1), &mut stats);
        assert_eq!(stats.substitution_pairs, 3);
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
        let f = f(&terms);
        for i in 0..sys.dim() {
            assert!((f[i] - (-q0[i] + r[i])).abs() < 1e-18);
        }
        let h = 1e-10;
        let p = p(&terms, h);
        for i in 0..sys.dim() {
            assert!((p[i] - (-(q0[i] + h * qd[i]) + r[i])).abs() < 1e-18);
        }
    }

    #[test]
    fn recompute_matches_fresh_compute() {
        // One struct recomputed across intervals (incl. a zero-slope one)
        // gives exactly the same terms as freshly built ones.
        let sys = rc();
        let lu_g = SparseLu::factor(sys.g(), &LuOptions::default()).unwrap();
        let input = InputEval::new(&sys);
        let mut stats = SolveStats::default();
        let mut reused = IntervalTerms::new(sys.dim(), input.num_sources());
        for (t0, t1) in [(0.0, 4e-10), (4e-10, 1e-9), (2.5e-9, 3e-9)] {
            reused.recompute(&sys, &lu_g, &input, t0, t1, &mut stats);
            let fresh = terms(&sys, &lu_g, &input, (t0, t1), &mut stats);
            assert_eq!(f(&reused), f(&fresh));
            assert_eq!(p(&reused, 7e-11), p(&fresh, 7e-11));
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_step_panics() {
        let sys = rc();
        let lu_g = SparseLu::factor(sys.g(), &LuOptions::default()).unwrap();
        let input = InputEval::new(&sys);
        let mut stats = SolveStats::default();
        let terms = terms(&sys, &lu_g, &input, (0.0, 1e-9), &mut stats);
        let _ = p(&terms, -1.0);
    }
}
