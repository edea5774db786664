//! Batched snapshot evaluation: the engine behind MATEX's "one basis,
//! many eval times" economy.
//!
//! Every snapshot evaluation costs a small projected exponential
//! (`T_H = O(m³)`) plus a basis combination (`T_e = O(n·m)`). This
//! module makes both allocation-free and batchable:
//!
//! * [`SnapshotEvaluator::weights_many`] computes the combination
//!   weights `β·e^{hⱼ·Hm}e₁` **and** the posterior error estimate for a
//!   whole window of eval times through one reusable
//!   [`ExpmScratch`](matex_dense::ExpmScratch),
//! * [`SnapshotEvaluator::combine_into`] turns the accepted weight
//!   columns into state vectors with one pooled, tile-deterministic
//!   [`combine_columns`](matex_par::combine_columns) call,
//! * [`SnapshotEvaluator::eval_ladder`] replaces the per-trial sub-step
//!   search: the squaring intermediates of a **single** scaling-and-
//!   squaring pass are exactly the exponentials at the halved distances
//!   `h/2^s`, so the whole halving ladder costs one Padé evaluation
//!   plus one `O(m³)` square per rung.
//!
//! Determinism contract: the combination is one tiled kernel at every
//! pool width (`pool = None` is [`ParPool::inline`]), bitwise-invariant
//! in the width (see `matex_par`'s kernel contract). The weight and
//! ladder computations are small dense serial code, identical at every
//! width.

use crate::{KrylovBasis, KrylovError};
use matex_dense::{expm_col0_into, expm_col0_ladder, DMat, DenseError, ExpmScratch};
use matex_par::ParPool;

/// Reusable scratch and weight storage for batched snapshot evaluation.
///
/// One evaluator serves any number of bases (buffers re-size lazily on
/// dimension changes); after warm-up at a given `(m, k)` every call is
/// allocation-free (counting-allocator proof in
/// `matex-core/tests/alloc_free.rs`).
///
/// # Example
///
/// ```
/// use matex_krylov::{BasisBuilder, ExpmParams, SnapshotEvaluator, StandardOp};
/// use matex_sparse::{CsrMatrix, LuOptions, SparseLu};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let c = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 2.0)]);
/// let g = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 2.0)]);
/// let lu = SparseLu::factor(&c, &LuOptions::default())?;
/// let op = StandardOp::new(&lu, &g);
/// let hs = [0.05, 0.1, 0.2];
/// let out = BasisBuilder::new().build(&op, &[1.0, 0.5], &hs, &ExpmParams::with_tol(1e-12))?;
///
/// let mut ev = SnapshotEvaluator::new();
/// let mut batch = vec![0.0; 2 * hs.len()];
/// ev.eval_many_into(&out.basis, &hs, None, &mut batch)?;
/// // Bitwise identical to evaluating one snapshot at a time.
/// let mut one = vec![0.0; 2];
/// for (j, &h) in hs.iter().enumerate() {
///     ev.eval_many_into(&out.basis, &[h], None, &mut one)?;
///     assert_eq!(one, batch[j * 2..(j + 1) * 2]);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SnapshotEvaluator {
    /// `h·Hm` scratch.
    scaled: DMat,
    /// Dense expm scratch shared by every weight/ladder computation.
    scratch: ExpmScratch,
    /// Batch weights, snapshot `j` at `[j·m, (j+1)·m)`, scaled by `β`.
    weights: Vec<f64>,
    /// Posterior estimate per batch snapshot (`∞` where the projected
    /// exponential overflowed).
    estimates: Vec<f64>,
    /// Ladder weights, rung `s` at `[s·m, (s+1)·m)`, scaled by `β`.
    ladder_weights: Vec<f64>,
    /// Posterior estimate per rung (`∞` for rungs never computed).
    ladder_estimates: Vec<f64>,
    /// Lowest (longest-step) rung the last ladder ascent reached.
    ladder_lo: usize,
}

impl SnapshotEvaluator {
    /// Creates an evaluator with empty buffers (sized on first use).
    pub fn new() -> SnapshotEvaluator {
        SnapshotEvaluator {
            scaled: DMat::zeros(0, 0),
            scratch: ExpmScratch::new(),
            weights: Vec::new(),
            estimates: Vec::new(),
            ladder_weights: Vec::new(),
            ladder_estimates: Vec::new(),
            ladder_lo: 0,
        }
    }

    fn ensure_m(&mut self, m: usize) {
        if self.scaled.nrows() != m {
            self.scaled = DMat::zeros(m, m);
        }
    }

    /// Posterior estimate at a single step `h` — the check basis
    /// construction makes at each dimension. Unlike
    /// [`SnapshotEvaluator::weights_many`] this propagates a non-finite
    /// projected exponential as an error: it fails the dimension, not a
    /// snapshot.
    pub(crate) fn estimate_one(&mut self, basis: &KrylovBasis, h: f64) -> Result<f64, KrylovError> {
        let m = basis.m();
        self.ensure_m(m);
        if self.weights.len() < m {
            self.weights.resize(m, 0.0);
        }
        basis.hm().scaled_into(h, &mut self.scaled);
        let col = &mut self.weights[..m];
        expm_col0_into(&self.scaled, &mut self.scratch, col)?;
        Ok(basis.estimate_from_col(col))
    }

    /// Phase 1 (`T_H`): combination weights `β·e^{hⱼ·Hm}e₁` and the
    /// posterior error estimate for **every** snapshot time in `hs`.
    ///
    /// A snapshot whose projected exponential overflows (sign-flipped
    /// Ritz artifacts at long reuse distances) is recorded with zero
    /// weights and an `∞` estimate instead of failing the batch — the
    /// same "treat as rejected, sub-step" semantics the solver applied
    /// per call.
    ///
    /// # Errors
    ///
    /// [`KrylovError::Dense`] for structural dense failures (singular
    /// Padé denominator).
    pub fn weights_many(&mut self, basis: &KrylovBasis, hs: &[f64]) -> Result<(), KrylovError> {
        let m = basis.m();
        self.ensure_m(m);
        self.weights.resize(hs.len() * m, 0.0);
        self.estimates.resize(hs.len(), 0.0);
        for (j, &h) in hs.iter().enumerate() {
            basis.hm().scaled_into(h, &mut self.scaled);
            let col = &mut self.weights[j * m..(j + 1) * m];
            match expm_col0_into(&self.scaled, &mut self.scratch, col) {
                Ok(()) => {
                    self.estimates[j] = basis.estimate_from_col(col);
                    for c in col.iter_mut() {
                        *c *= basis.beta();
                    }
                }
                Err(DenseError::NotFinite) => {
                    col.fill(0.0);
                    self.estimates[j] = f64::INFINITY;
                }
                Err(e) => return Err(KrylovError::Dense(e)),
            }
        }
        Ok(())
    }

    /// Posterior estimates of the last [`SnapshotEvaluator::weights_many`]
    /// batch, in snapshot order.
    pub fn estimates(&self) -> &[f64] {
        &self.estimates
    }

    /// The β-scaled weight columns of the last batch (snapshot `j` at
    /// `[j·m, (j+1)·m)`).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Phase 2 (`T_e`): combines the first `k` batch columns into state
    /// vectors: `out[j·n .. (j+1)·n] = Σᵢ wⱼ[i]·vᵢ`.
    ///
    /// One tiled [`combine_columns`] on `pool` ([`ParPool::inline`] when
    /// `None`), bitwise-invariant in the pool width.
    ///
    /// [`combine_columns`]: matex_par::combine_columns
    ///
    /// # Panics
    ///
    /// Panics when fewer than `k` columns were computed or
    /// `out.len() != k·n`.
    pub fn combine_into(
        &self,
        basis: &KrylovBasis,
        k: usize,
        pool: Option<&ParPool>,
        out: &mut [f64],
    ) {
        self.combine_range(basis, 0, k, pool, out);
    }

    /// Combines the contiguous batch columns `[start, end)` — the
    /// general form behind [`SnapshotEvaluator::combine_into`], for
    /// callers whose accepted snapshots are not a prefix (a single
    /// column is the best-effort value of an exhausted sub-step search).
    ///
    /// # Panics
    ///
    /// Panics when the range exceeds the computed columns or
    /// `out.len() != (end - start)·n`.
    pub fn combine_range(
        &self,
        basis: &KrylovBasis,
        start: usize,
        end: usize,
        pool: Option<&ParPool>,
        out: &mut [f64],
    ) {
        let m = basis.m();
        assert!(start <= end, "combine_range: inverted range");
        assert!(
            end * m <= self.weights.len(),
            "combine_range: only {} weight columns available",
            self.weights.len() / m.max(1)
        );
        combine_slice(
            basis.vectors(),
            &self.weights[start * m..end * m],
            end - start,
            pool,
            out,
        );
    }

    /// Convenience: [`SnapshotEvaluator::weights_many`] +
    /// [`SnapshotEvaluator::combine_into`] over the full batch. The
    /// result is bitwise-identical to evaluating the snapshots one at a
    /// time.
    ///
    /// # Errors
    ///
    /// As [`SnapshotEvaluator::weights_many`].
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != hs.len()·n`.
    pub fn eval_many_into(
        &mut self,
        basis: &KrylovBasis,
        hs: &[f64],
        pool: Option<&ParPool>,
        out: &mut [f64],
    ) -> Result<(), KrylovError> {
        self.weights_many(basis, hs)?;
        self.combine_into(basis, hs.len(), pool, out);
        Ok(())
    }

    /// Squaring-ladder evaluation of the sub-steps `h/2, …, h/2^{s_max}`
    /// from one scaling-and-squaring pass ([`expm_col0_ladder`]).
    ///
    /// Rungs are produced bottom-up (deepest first); the ascent stops at
    /// the first rung whose posterior estimate exceeds `stop_above`
    /// (pass `f64::INFINITY` to force the full ladder), and in any case
    /// at rung 1: rung 0, the full step `h`, is what a sub-step search
    /// starts from — [`SnapshotEvaluator::weights_many`] has evaluated it
    /// already — so the ladder never pays the last squaring for it.
    /// Per-rung weights and estimates are kept on the evaluator —
    /// [`SnapshotEvaluator::best_rung`] then picks the longest passing
    /// step and [`SnapshotEvaluator::combine_rung`] materializes it.
    ///
    /// # Errors
    ///
    /// [`KrylovError::Dense`] when the base Padé evaluation fails.
    ///
    /// # Panics
    ///
    /// Panics if `s_max` is 0 (a ladder without sub-steps).
    pub fn eval_ladder(
        &mut self,
        basis: &KrylovBasis,
        h: f64,
        s_max: usize,
        stop_above: f64,
    ) -> Result<(), KrylovError> {
        assert!(s_max >= 1, "eval_ladder: a ladder needs a sub-step rung");
        let m = basis.m();
        self.ensure_m(m);
        self.ladder_weights.resize((s_max + 1) * m, 0.0);
        self.ladder_estimates.clear();
        self.ladder_estimates.resize(s_max + 1, f64::INFINITY);
        basis.hm().scaled_into(h, &mut self.scaled);
        let ests = &mut self.ladder_estimates;
        let lo = expm_col0_ladder(
            &self.scaled,
            s_max,
            &mut self.scratch,
            &mut self.ladder_weights,
            |s, col| {
                let e = basis.estimate_from_col(col);
                ests[s] = e;
                e <= stop_above && s > 1
            },
        )
        .map_err(KrylovError::Dense)?;
        self.ladder_lo = lo;
        for c in self.ladder_weights[lo * m..].iter_mut() {
            *c *= basis.beta();
        }
        Ok(())
    }

    /// The longest step of the last ladder whose estimate passes `tol`:
    /// the smallest rung index `s` the ascent reached (so at least 1)
    /// with `estimate ≤ tol`.
    pub fn best_rung(&self, tol: f64) -> Option<usize> {
        let lo = self.ladder_lo;
        let reached = self.ladder_estimates.get(lo..).unwrap_or_default();
        reached.iter().position(|&e| e <= tol).map(|s| lo + s)
    }

    /// Combines ladder rung `s` into a state vector.
    ///
    /// # Panics
    ///
    /// Panics when rung `s` was not computed by the last ladder ascent.
    pub fn combine_rung(
        &self,
        basis: &KrylovBasis,
        s: usize,
        pool: Option<&ParPool>,
        out: &mut [f64],
    ) {
        let m = basis.m();
        assert!(
            s >= self.ladder_lo && (s + 1) * m <= self.ladder_weights.len(),
            "combine_rung: rung {s} not computed (ladder reached {})",
            self.ladder_lo
        );
        combine_slice(
            basis.vectors(),
            &self.ladder_weights[s * m..(s + 1) * m],
            1,
            pool,
            out,
        );
    }
}

impl Default for SnapshotEvaluator {
    fn default() -> Self {
        SnapshotEvaluator::new()
    }
}

/// Shared combination body: one tiled kernel, on the inline pool when
/// none is given.
fn combine_slice(
    vs: &[Vec<f64>],
    weights: &[f64],
    k: usize,
    pool: Option<&ParPool>,
    out: &mut [f64],
) {
    matex_par::combine_columns(pool.unwrap_or(ParPool::inline()), vs, weights, k, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BasisBuilder, ExpmParams, RationalOp};
    use matex_sparse::{CsrMatrix, LuOptions, SparseLu};

    fn basis(n: usize, hs: &[f64]) -> (KrylovBasis, SparseLu, CsrMatrix) {
        let mut ct = Vec::new();
        let mut gt = Vec::new();
        for i in 0..n {
            ct.push((i, i, 1.0 + 0.1 * i as f64));
            gt.push((i, i, 2.0 + 0.05 * i as f64));
            if i + 1 < n {
                gt.push((i, i + 1, -1.0));
                gt.push((i + 1, i, -1.0));
            }
        }
        let c = CsrMatrix::from_triplets(n, n, &ct);
        let g = CsrMatrix::from_triplets(n, n, &gt);
        let gamma = 0.07;
        let shifted = CsrMatrix::linear_combination(1.0, &c, gamma, &g).unwrap();
        let lu = SparseLu::factor(&shifted, &LuOptions::default()).unwrap();
        let op = RationalOp::new(&lu, &c, gamma);
        let v: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 5 % 11) as f64) * 0.3).collect();
        let params = ExpmParams {
            tol: 1e-11,
            m_max: n,
        };
        let out = BasisBuilder::new().build(&op, &v, hs, &params).unwrap();
        (out.basis, lu, c)
    }

    /// One snapshot through a fresh evaluator: `(e^{hA}v, estimate)`.
    fn eval_one(b: &KrylovBasis, h: f64) -> (Vec<f64>, f64) {
        let mut ev = SnapshotEvaluator::new();
        let mut x = vec![0.0; b.vectors()[0].len()];
        ev.eval_many_into(b, &[h], None, &mut x).unwrap();
        (x, ev.estimates()[0])
    }

    #[test]
    fn eval_many_matches_one_at_a_time_bitwise() {
        let hs = [0.02, 0.05, 0.11, 0.2];
        let (b, _lu, _c) = basis(12, &hs);
        let n = 12;
        let mut ev = SnapshotEvaluator::new();
        let mut out = vec![0.0; n * hs.len()];
        ev.eval_many_into(&b, &hs, None, &mut out).unwrap();
        for (j, &h) in hs.iter().enumerate() {
            let (single, est) = eval_one(&b, h);
            for (p, q) in single.iter().zip(&out[j * n..(j + 1) * n]) {
                assert_eq!(p.to_bits(), q.to_bits(), "h = {h}");
            }
            // Estimates match the batch's and basis construction's.
            assert_eq!(est.to_bits(), ev.estimates()[j].to_bits());
            let checked = SnapshotEvaluator::new().estimate_one(&b, h).unwrap();
            assert_eq!(est.to_bits(), checked.to_bits());
        }
    }

    #[test]
    fn pooled_combination_is_pool_width_invariant() {
        let hs = [0.03, 0.09, 0.18];
        let (b, _lu, _c) = basis(16, &hs);
        let n = 16;
        let mut ev = SnapshotEvaluator::new();
        let mut reference = vec![0.0; n * hs.len()];
        ev.eval_many_into(&b, &hs, None, &mut reference).unwrap();
        for threads in [1usize, 2, 4, 7] {
            let pool = ParPool::new(threads);
            let mut out = vec![f64::NAN; n * hs.len()];
            ev.eval_many_into(&b, &hs, Some(&pool), &mut out).unwrap();
            assert!(
                reference
                    .iter()
                    .zip(&out)
                    .all(|(p, q)| p.to_bits() == q.to_bits()),
                "pool width {threads} diverged"
            );
        }
    }

    #[test]
    fn ladder_rungs_agree_with_one_snapshot_eval() {
        let (b, _lu, _c) = basis(10, &[0.4]);
        let mut ev = SnapshotEvaluator::new();
        let h = 0.4;
        let s_max = 4;
        ev.eval_ladder(&b, h, s_max, f64::INFINITY).unwrap();
        // Every rung passes with an infinite threshold, and the ascent
        // stops below the full step; rung values agree with the
        // standalone evaluation to rounding.
        assert_eq!(ev.best_rung(f64::INFINITY), Some(1));
        assert!(ev.ladder_estimates[0].is_infinite());
        let mut out = vec![0.0; 10];
        for s in 1..=s_max {
            ev.combine_rung(&b, s, None, &mut out);
            let hs = h * 0.5_f64.powi(s as i32);
            let (reference, est) = eval_one(&b, hs);
            let scale = reference.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
            for (p, q) in out.iter().zip(&reference) {
                assert!((p - q).abs() <= 1e-11 * scale, "rung {s}: {p} vs {q}");
            }
            // And the rung estimate tracks the one-snapshot estimate.
            let lest = ev.ladder_estimates[s];
            assert!(
                (est - lest).abs() <= 1e-6 * est.max(1e-300) + 1e-300,
                "rung {s}: estimate {lest:.3e} vs per-call {est:.3e}"
            );
        }
    }

    #[test]
    fn ladder_early_exit_reports_unreached_rungs_as_infinite() {
        let (b, _lu, _c) = basis(10, &[0.4]);
        let mut ev = SnapshotEvaluator::new();
        // Threshold below every estimate: the ascent stops right above
        // the deepest rung.
        ev.eval_ladder(&b, 0.4, 6, -1.0).unwrap();
        let ests = &ev.ladder_estimates;
        assert!(ests[6].is_finite());
        assert!(ests[..6].iter().all(|e| e.is_infinite()));
        assert_eq!(ev.best_rung(1e300), Some(6));
        assert_eq!(ev.best_rung(0.0), None);
    }
}
