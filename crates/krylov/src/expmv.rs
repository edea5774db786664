//! Krylov-projected matrix exponential with reusable bases.
//!
//! The paper's key computational object: from a vector `v`, build a Krylov
//! subspace whose projected exponential satisfies
//! `e^{hA} v ≈ ‖v‖ · V_m · e^{h·H_m} · e₁` — then *reuse* `(‖v‖, V_m, H_m)`
//! for every snapshot time until the next input transition, by only
//! rescaling `h` (Sec. 2.4 / Alg. 2 line 11).

use crate::{Arnoldi, ArnoldiSpace, KrylovError, KrylovKind, KrylovOp, SnapshotEvaluator};
use matex_dense::DMat;

/// Parameters for building a Krylov basis.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpmParams {
    /// Posterior error tolerance, *relative* to `‖v‖`.
    pub tol: f64,
    /// Maximum subspace dimension.
    pub m_max: usize,
}

impl Default for ExpmParams {
    fn default() -> Self {
        ExpmParams {
            tol: 1e-6,
            m_max: 100,
        }
    }
}

impl ExpmParams {
    /// Parameters with a given tolerance and the defaults otherwise.
    pub fn with_tol(tol: f64) -> Self {
        ExpmParams {
            tol,
            ..ExpmParams::default()
        }
    }
}

/// A converged (or best-effort) Krylov basis for `e^{hA} v`.
///
/// Holds `(β, V_m, H_m, ĥ_{m+1,m})`; evaluation at any step `h` costs one
/// small `expm` (`T_H = O(m³)`) plus the basis combination
/// (`T_e = O(n·m)`) — the reuse the whole MATEX framework is built on.
/// Evaluate through a [`SnapshotEvaluator`].
#[derive(Debug, Clone)]
pub struct KrylovBasis {
    kind: KrylovKind,
    gamma: f64,
    beta: f64,
    vm: Vec<Vec<f64>>,
    hm: DMat,
    h_sub: f64,
    breakdown: bool,
    /// Last row of `Ĥm⁻¹` (inverted/rational variants): the residual
    /// estimates of Eqs. (8)/(10) weight the exponential column with it.
    /// The true inverted/rational residual also carries a
    /// `‖A v_{m+1}‖`-type factor; for dissipative circuits the decaying
    /// error propagator `∫ e^{(h−s)A} r(s) ds` compensates it, so
    /// multiplying it in wildly over-estimates on stiff systems. The
    /// estimates leave it out, as the paper uses these formulas: as
    /// step-acceptance heuristics against ε.
    inv_last_row: Option<Vec<f64>>,
}

impl KrylovBasis {
    /// Subspace dimension `m`.
    pub fn m(&self) -> usize {
        self.hm.nrows()
    }

    /// `‖v‖` of the vector the basis was built from.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The projected (mapped) matrix `H_m`.
    pub fn hm(&self) -> &DMat {
        &self.hm
    }

    /// Which variant built this basis.
    pub fn kind(&self) -> KrylovKind {
        self.kind
    }

    /// The shift γ used by the rational variant (0 otherwise).
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The orthonormal basis vectors `V_m` (each of the state dimension).
    ///
    /// Empty for estimate-only probe bases built during Arnoldi
    /// convergence checks.
    pub fn vectors(&self) -> &[Vec<f64>] {
        &self.vm
    }

    /// Posterior error estimate (paper Eqs. (7)/(8)/(10),
    /// regularization-free form of Sec. 3.3.3) from a **raw** (not
    /// β-scaled) `e^{h·Hm} e₁` column:
    ///
    /// `‖r_m(h)‖ ≈ ‖v‖ · |ĥ_{m+1,m} · e_mᵀ e^{h·H_m} e₁|`
    ///
    /// `0` after a happy breakdown (the projection is exact). Public so
    /// callers can estimate from columns they already hold.
    pub fn residual_estimate(&self, col: &[f64]) -> f64 {
        self.estimate_from_col(col)
    }

    /// Residual estimate from an already computed `e^{h·Hm} e₁` column.
    pub(crate) fn estimate_from_col(&self, col: &[f64]) -> f64 {
        if self.breakdown {
            return 0.0;
        }
        let weighted = match &self.inv_last_row {
            None => col[self.m() - 1],
            Some(row) => row.iter().zip(col).map(|(r, c)| r * c).sum::<f64>(),
        };
        self.beta * (self.h_sub * weighted).abs()
    }
}

/// Outcome of [`build_basis`]: the basis plus convergence diagnostics.
#[derive(Debug, Clone)]
pub struct BuildOutcome {
    /// The (possibly best-effort) basis.
    pub basis: KrylovBasis,
    /// Whether the posterior estimate met the tolerance.
    pub converged: bool,
    /// The final posterior estimate, relative to `‖v‖`.
    pub rel_estimate: f64,
    /// Forward/backward substitution pairs consumed (= Arnoldi steps).
    pub substitutions: usize,
}

/// Builds a Krylov basis for `e^{hA} v` adequate for step size `h`.
///
/// Extends the Arnoldi factorization one vector at a time, checking the
/// posterior error estimate (relative to `‖v‖`) against `params.tol`; the
/// basis is returned *best effort* if `m_max` is reached, with
/// `converged = false` — callers decide whether to sub-step or accept
/// (Table 1's MEXP rows report exactly such large-`m` best-effort runs).
///
/// # Errors
///
/// * [`KrylovError::ZeroStartVector`] for `v = 0`.
/// * [`KrylovError::NotFinite`] if the operator output blows up.
/// * [`KrylovError::Dense`] if every Hessenberg mapping fails (singular
///   `Ĥ_m` at all checked dimensions).
pub fn build_basis(
    op: &dyn KrylovOp,
    v: &[f64],
    h: f64,
    params: &ExpmParams,
) -> Result<BuildOutcome, KrylovError> {
    BasisBuilder::new().build(op, v, &[h], params)
}

/// Minimum subspace dimension before convergence checks begin.
const M_MIN: usize = 2;

/// The storage of repeated basis builds: the Arnoldi workspace (with the
/// vectors of the bases handed back through [`BasisBuilder::recycle`])
/// and the evaluator of the convergence checks.
///
/// After a warm-up build of the same state dimension and subspace size
/// whose basis was handed back, a build allocates nothing per Arnoldi
/// step or operator application; only the `O(m²)` dense work of each
/// convergence check (the Hessenberg mapping) allocates. Every build is
/// bitwise a fresh builder's.
#[derive(Debug, Default)]
pub struct BasisBuilder {
    space: ArnoldiSpace,
    ev: SnapshotEvaluator,
}

impl BasisBuilder {
    /// An empty builder (buffers are sized on first use).
    pub fn new() -> BasisBuilder {
        BasisBuilder::default()
    }

    /// Hands a basis that is no longer needed back, so that the next
    /// builds reuse its vectors.
    pub fn recycle(&mut self, basis: KrylovBasis) {
        self.space.recycle(basis.vm);
    }

    /// Builds a basis for `e^{hA} v` as [`build_basis`] does, but
    /// requires the posterior estimate to meet the tolerance at *every*
    /// step in `hs` — used when one basis will be reused across a whole
    /// snapshot window (paper Alg. 2 line 11).
    ///
    /// # Errors
    ///
    /// As [`build_basis`].
    pub fn build(
        &mut self,
        op: &dyn KrylovOp,
        v: &[f64],
        hs: &[f64],
        params: &ExpmParams,
    ) -> Result<BuildOutcome, KrylovError> {
        let gamma = op.gamma().unwrap_or(0.0);
        let kind = op.kind();
        let mut arnoldi = Arnoldi::new(op, v, &mut self.space)?;
        let beta = arnoldi.beta();
        // The checked basis with the lowest estimate so far (without
        // vectors), and that estimate.
        let mut best: Option<(KrylovBasis, f64)> = None;
        let mut steps = 0usize;
        let mut last_dense_err: Option<KrylovError> = None;
        // The subspace cannot usefully exceed the state dimension: past it
        // the basis is numerically dependent and the recurrence degrades.
        let m_cap = params.m_max.min(op.dim());
        while arnoldi.m() < m_cap && !arnoldi.broke_down() {
            arnoldi.step()?;
            steps += 1;
            let m = arnoldi.m();
            // Convergence checks are O(m³); check every step while small,
            // then stride to amortize (large m only happens for MEXP on
            // stiff circuits, where per-step checks would dominate).
            let check = m >= M_MIN && (m <= 32 || m % 4 == 0 || m == m_cap || arnoldi.broke_down());
            if !check {
                continue;
            }
            let h_hat = arnoldi.h_hat(m);
            let (hm, inv) = match kind.map_hessenberg_with_inverse(&h_hat, gamma) {
                Ok(pair) => pair,
                Err(e) => {
                    last_dense_err = Some(e);
                    continue; // ill-conditioned at this m; extend further
                }
            };
            let mut probe = KrylovBasis {
                kind,
                gamma,
                beta,
                vm: Vec::new(), // not needed for the estimate
                hm,
                h_sub: arnoldi.subdiag(m),
                breakdown: arnoldi.broke_down(),
                inv_last_row: inv.map(|i| i.row(m - 1).to_vec()),
            };
            let mut est = 0.0_f64;
            let mut est_failed = false;
            // After a happy breakdown the projection is exact: estimate 0.
            if !probe.breakdown {
                for &h in hs {
                    match self.ev.estimate_one(&probe, h) {
                        Ok(e) => est = est.max(e),
                        Err(e) => {
                            last_dense_err = Some(e);
                            est_failed = true;
                            break;
                        }
                    }
                }
            }
            if est_failed {
                continue;
            }
            let rel = est / beta;
            if rel <= params.tol {
                probe.vm = arnoldi.into_basis(m);
                return Ok(BuildOutcome {
                    basis: probe,
                    converged: true,
                    rel_estimate: rel,
                    substitutions: steps,
                });
            }
            match &best {
                Some((_, prev)) if *prev <= rel => {}
                _ => best = Some((probe, rel)),
            }
        }
        // Breakdown: exact projection at the current dimension.
        if arnoldi.broke_down() {
            let m = arnoldi.m();
            let hm = kind.map_hessenberg(&arnoldi.h_hat(m), gamma)?;
            return Ok(BuildOutcome {
                basis: KrylovBasis {
                    kind,
                    gamma,
                    beta,
                    vm: arnoldi.into_basis(m),
                    hm,
                    h_sub: 0.0,
                    breakdown: true,
                    inv_last_row: None,
                },
                converged: true,
                rel_estimate: 0.0,
                substitutions: steps,
            });
        }
        // Best effort at m_max.
        match best {
            Some((mut basis, rel)) => {
                basis.vm = arnoldi.into_basis(basis.m());
                Ok(BuildOutcome {
                    basis,
                    converged: false,
                    rel_estimate: rel,
                    substitutions: steps,
                })
            }
            None => Err(last_dense_err.unwrap_or(KrylovError::NoConvergence {
                m: arnoldi.m(),
                estimate: f64::INFINITY,
                tolerance: params.tol,
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InvertedOp, RationalOp, StandardOp};
    use matex_dense::expm;
    use matex_sparse::{CsrMatrix, LuOptions, SparseLu};

    /// `e^{hA} v` from `basis` through a fresh evaluator.
    fn eval(basis: &KrylovBasis, h: f64) -> Vec<f64> {
        let mut x = vec![0.0; basis.vectors()[0].len()];
        SnapshotEvaluator::new()
            .eval_many_into(basis, &[h], None, &mut x)
            .unwrap();
        x
    }

    /// Small RC-like test system: C diagonal, G tridiagonal SPD.
    fn system(n: usize) -> (CsrMatrix, CsrMatrix) {
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
        (
            CsrMatrix::from_triplets(n, n, &ct),
            CsrMatrix::from_triplets(n, n, &gt),
        )
    }

    /// Dense reference e^{hA} v with A = -C^{-1} G.
    fn dense_reference(c: &CsrMatrix, g: &CsrMatrix, v: &[f64], h: f64) -> Vec<f64> {
        let cd = c.to_dense();
        let gd = g.to_dense();
        let cinv = matex_dense::DenseLu::factor(&cd)
            .unwrap()
            .inverse()
            .unwrap();
        let a = cinv.matmul(&gd).unwrap().scaled(-1.0);
        expm(&a.scaled(h)).unwrap().matvec(v)
    }

    fn check_variant(op: &dyn KrylovOp, c: &CsrMatrix, g: &CsrMatrix, tol: f64) {
        let n = c.nrows();
        let v: Vec<f64> = (0..n).map(|i| ((i * 3 % 7) as f64) - 3.0).collect();
        let h = 0.15;
        let params = ExpmParams {
            tol: 1e-10,
            m_max: n,
        };
        let out = build_basis(op, &v, h, &params).unwrap();
        let x = eval(&out.basis, h);
        let x_ref = dense_reference(c, g, &v, h);
        let err = x
            .iter()
            .zip(&x_ref)
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()));
        assert!(
            err < tol,
            "{:?}: err {err} (m = {})",
            op.kind(),
            out.basis.m()
        );
    }

    #[test]
    fn standard_matches_dense_expm() {
        let (c, g) = system(10);
        let lu = SparseLu::factor(&c, &LuOptions::default()).unwrap();
        let op = StandardOp::new(&lu, &g);
        check_variant(&op, &c, &g, 1e-8);
    }

    #[test]
    fn inverted_matches_dense_expm() {
        let (c, g) = system(10);
        let lu = SparseLu::factor(&g, &LuOptions::default()).unwrap();
        let op = InvertedOp::new(&lu, &c);
        check_variant(&op, &c, &g, 1e-8);
    }

    #[test]
    fn rational_matches_dense_expm() {
        let (c, g) = system(10);
        let gamma = 0.1;
        let shift = CsrMatrix::linear_combination(1.0, &c, gamma, &g).unwrap();
        let lu = SparseLu::factor(&shift, &LuOptions::default()).unwrap();
        let op = RationalOp::new(&lu, &c, gamma);
        check_variant(&op, &c, &g, 1e-8);
    }

    #[test]
    fn basis_reuse_across_steps() {
        // One basis, evaluated at several h values, matches dense expm at
        // each: the snapshot-reuse property.
        let (c, g) = system(8);
        let gamma = 0.05;
        let shift = CsrMatrix::linear_combination(1.0, &c, gamma, &g).unwrap();
        let lu = SparseLu::factor(&shift, &LuOptions::default()).unwrap();
        let op = RationalOp::new(&lu, &c, gamma);
        let v: Vec<f64> = (0..8).map(|i| 1.0 + (i as f64).cos()).collect();
        let params = ExpmParams {
            tol: 1e-11,
            m_max: 8,
        };
        let out = build_basis(&op, &v, 0.2, &params).unwrap();
        for &h in &[0.02, 0.05, 0.1, 0.2] {
            let x = eval(&out.basis, h);
            let x_ref = dense_reference(&c, &g, &v, h);
            let err = x
                .iter()
                .zip(&x_ref)
                .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()));
            assert!(err < 1e-8, "h = {h}: err {err}");
        }
    }

    #[test]
    fn rational_needs_smaller_m_than_standard_on_stiff() {
        // Stiff system: C entries spread over 6 decades.
        let n = 24;
        let mut ct = Vec::new();
        let mut gt = Vec::new();
        for i in 0..n {
            let cval = if i % 4 == 0 { 1e-6 } else { 1.0 };
            ct.push((i, i, cval));
            gt.push((i, i, 2.0));
            if i + 1 < n {
                gt.push((i, i + 1, -1.0));
                gt.push((i + 1, i, -1.0));
            }
        }
        let c = CsrMatrix::from_triplets(n, n, &ct);
        let g = CsrMatrix::from_triplets(n, n, &gt);
        let v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let h = 0.5;
        let params = ExpmParams {
            tol: 1e-8,
            m_max: n,
        };

        let lu_c = SparseLu::factor(&c, &LuOptions::default()).unwrap();
        let std_op = StandardOp::new(&lu_c, &g);
        let std_out = build_basis(&std_op, &v, h, &params).unwrap();

        let gamma = 0.1;
        let shift = CsrMatrix::linear_combination(1.0, &c, gamma, &g).unwrap();
        let lu_s = SparseLu::factor(&shift, &LuOptions::default()).unwrap();
        let rat_op = RationalOp::new(&lu_s, &c, gamma);
        let rat_out = build_basis(&rat_op, &v, h, &params).unwrap();

        assert!(rat_out.converged);
        // On this small system both variants converge; rational must not
        // need a larger basis (on genuinely stiff meshes the gap is
        // dramatic — see the table1_stiff_rc bench).
        assert!(
            rat_out.basis.m() <= std_out.basis.m() || !std_out.converged,
            "rational m = {} should not exceed standard m = {} (std converged: {})",
            rat_out.basis.m(),
            std_out.basis.m(),
            std_out.converged
        );
    }

    #[test]
    fn best_effort_when_m_max_too_small() {
        let (c, g) = system(20);
        let lu = SparseLu::factor(&c, &LuOptions::default()).unwrap();
        let op = StandardOp::new(&lu, &g);
        let v = vec![1.0; 20];
        let params = ExpmParams {
            tol: 1e-14,
            m_max: 3,
        };
        let out = build_basis(&op, &v, 5.0, &params).unwrap();
        assert!(!out.converged);
        assert!(out.basis.m() <= 3);
        assert!(out.rel_estimate > 1e-14);
    }

    #[test]
    fn weights_scale_with_beta() {
        let (c, g) = system(6);
        let lu = SparseLu::factor(&g, &LuOptions::default()).unwrap();
        let op = InvertedOp::new(&lu, &c);
        let v = vec![2.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let out = build_basis(&op, &v, 0.1, &ExpmParams::with_tol(1e-10)).unwrap();
        let mut ev = SnapshotEvaluator::new();
        ev.weights_many(&out.basis, &[0.0]).unwrap();
        let w = ev.weights();
        // At h = 0, e^{0} e1 = e1, so weights = (beta, 0, ..., 0).
        assert!((w[0] - 2.0).abs() < 1e-12);
        for wi in &w[1..] {
            assert!(wi.abs() < 1e-12);
        }
    }
}
