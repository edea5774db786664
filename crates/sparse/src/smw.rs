//! Sherman–Morrison–Woodbury corrected solves over a cached
//! factorization.
//!
//! The what-if serving path (interactive PDN tuning: a decap added, a
//! handful of R/C values changed) repeatedly solves with matrices that
//! differ from an already-factored one by a **low-rank edit**
//! `A' = A + U·Vᵀ` with `rank k ≪ n`. Refactoring per edit — even the
//! cheap [`SymbolicLu`](crate::SymbolicLu) numeric replay — redoes
//! `O(nnz(L+U))` work per variant. The Woodbury identity turns each
//! corrected solve into work proportional to a plain substitution pair:
//!
//! ```text
//! (A + U·Vᵀ)⁻¹ b = y − W·S⁻¹·(Vᵀ y),   y = A⁻¹ b,
//!                                       W = A⁻¹ U   (n×k, precomputed),
//!                                       S = I + Vᵀ W  (k×k, factored once).
//! ```
//!
//! [`SmwUpdate::build`] pays `k` substitution pairs plus one `k×k` dense
//! factorization once per edit set; every subsequent corrected solve
//! costs one cached substitution pair ([`SparseLu::solve_into`]) plus
//! the `O(nk)` dense work of [`SmwUpdate::correct_in_place`].
//!
//! Callers solve through a [`FactorRef`]: a factor and its optional
//! correction, whose solves run the substitution and then the
//! correction. It is the one place a correction is applied, so a solver
//! that takes a `FactorRef` serves the edited matrix without knowing it
//! was edited.
//!
//! # Determinism
//!
//! Every floating-point reduction here runs in a fixed order — `W`
//! columns ascending, `Vᵀy` dots in stored entry order, the final
//! `y −= W·z` as one dense axpy per column ascending — so repeated calls
//! are bitwise-identical. The base solve is the one serial
//! [`SparseLu::solve_into`], so corrected solves are reproducible on
//! every caller.
//!
//! # Fallback contract
//!
//! [`SmwUpdate::build`] *rejects* (rather than degrades) whenever the
//! identity is unsafe: edit rank above [`SmwOptions::max_rank`], or a
//! (near-)singular capture matrix `S`. Callers must then refactor the
//! edited matrix — [`SymbolicLu::refactor`](crate::SymbolicLu::refactor)
//! on the same pattern — which reproduces the un-edited code path
//! bit for bit.

use crate::SparseLu;
use matex_dense::{DMat, DenseLu};

/// A sparse column: `(row index, value)` pairs in ascending row order.
pub type SparseCol = Vec<(usize, f64)>;

/// Options controlling when a low-rank update is accepted.
#[derive(Debug, Clone, PartialEq)]
pub struct SmwOptions {
    /// Largest edit rank served by the SMW path; above this,
    /// [`SmwUpdate::build`] rejects and the caller refactors. The
    /// correction costs `k` substitution pairs up front and `O(nk)`
    /// extra work per solve, so past a few dozen columns a numeric
    /// refactor wins outright.
    pub max_rank: usize,
}

impl Default for SmwOptions {
    fn default() -> Self {
        SmwOptions { max_rank: 16 }
    }
}

/// Relative floor for the capture matrix's smallest pivot: an update is
/// rejected when `min_pivot < CAPTURE_TOL · max(max|S|, 1)`, meaning the
/// edit moves the matrix (numerically) toward singularity and the
/// correction would amplify rounding error.
const CAPTURE_TOL: f64 = 1e-12;

/// Why [`SmwUpdate::build`] refused an edit set. Every variant means
/// "refactor instead"; none is an error in the base factorization.
#[derive(Debug, Clone, PartialEq)]
pub enum SmwRejection {
    /// Edit rank exceeds [`SmwOptions::max_rank`].
    RankExceeded {
        /// The offered rank.
        rank: usize,
        /// The configured ceiling.
        max_rank: usize,
    },
    /// The capture matrix `S = I + VᵀW` is singular or its smallest
    /// pivot falls below the `CAPTURE_TOL` floor.
    IllConditioned {
        /// Smallest pivot magnitude of the factored capture matrix
        /// (0.0 when the dense factorization failed outright).
        min_pivot: f64,
    },
}

impl std::fmt::Display for SmwRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SmwRejection::RankExceeded { rank, max_rank } => {
                write!(f, "edit rank {rank} exceeds SMW ceiling {max_rank}")
            }
            SmwRejection::IllConditioned { min_pivot } => {
                write!(
                    f,
                    "capture matrix ill-conditioned (min pivot {min_pivot:.3e})"
                )
            }
        }
    }
}

/// A prepared Sherman–Morrison–Woodbury correction for one edit set
/// `A' = A + U·Vᵀ` over one cached [`SparseLu`] of `A`.
///
/// Immutable after [`SmwUpdate::build`], so one update can be shared
/// read-only across worker threads alongside the factorization it
/// corrects.
///
/// # Example
///
/// ```
/// use matex_sparse::{CsrMatrix, LuOptions, SmwOptions, SmwUpdate, SparseLu};
///
/// # fn main() -> Result<(), matex_sparse::SparseError> {
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 4.0), (0, 1, 1.0), (1, 1, 2.0)]);
/// let lu = SparseLu::factor(&a, &LuOptions::default())?;
/// // Edit: add 1.0 to entry (0, 0) — rank 1, U = e0, V = e0.
/// let upd = SmwUpdate::build(
///     &lu,
///     &[vec![(0, 1.0)]],
///     &[vec![(0, 1.0)]],
///     &SmwOptions::default(),
/// )
/// .expect("rank-1 edit accepted");
/// let mut x = lu.solve(&[10.0, 4.0]);
/// upd.correct_in_place(&mut x);
/// // Same answer as factoring the edited matrix from scratch.
/// let edited = CsrMatrix::from_triplets(2, 2, &[(0, 0, 5.0), (0, 1, 1.0), (1, 1, 2.0)]);
/// let full = SparseLu::factor(&edited, &LuOptions::default())?.solve(&[10.0, 4.0]);
/// assert!((x[0] - full[0]).abs() < 1e-12 && (x[1] - full[1]).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SmwUpdate {
    n: usize,
    k: usize,
    /// Sparse columns of `V` (ascending row order), for the `Vᵀy` dots.
    v_cols: Vec<SparseCol>,
    /// Dense columns of `W = A⁻¹U`, concatenated (`k` blocks of `n`).
    w: Vec<f64>,
    /// Factored capture matrix `S = I + VᵀW`.
    capture: DenseLu,
}

impl SmwUpdate {
    /// Prepares the correction for the edit `A' = A + U·Vᵀ`, where `lu`
    /// factors `A` and the edit is given as `k` matching sparse columns
    /// of `U` and `V`.
    ///
    /// Costs `k` substitution pairs against `lu` plus one `k×k` dense
    /// factorization; evaluation order is fixed, so the same inputs
    /// always produce bitwise-identical corrections.
    ///
    /// # Errors
    ///
    /// Returns [`SmwRejection`] when the edit must be served by a
    /// refactor instead (rank above [`SmwOptions::max_rank`], singular
    /// or ill-conditioned capture matrix). Rank 0 (an empty edit) is
    /// accepted and makes every correction a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `u_cols` and `v_cols` have different lengths or any
    /// entry's row index is out of bounds.
    pub fn build(
        lu: &SparseLu,
        u_cols: &[SparseCol],
        v_cols: &[SparseCol],
        opts: &SmwOptions,
    ) -> Result<SmwUpdate, SmwRejection> {
        assert_eq!(
            u_cols.len(),
            v_cols.len(),
            "U and V must have the same number of columns"
        );
        let n = lu.dim();
        let k = u_cols.len();
        for col in u_cols.iter().chain(v_cols.iter()) {
            for &(r, _) in col {
                assert!(r < n, "edit row index {r} out of bounds for dim {n}");
            }
        }
        if k > opts.max_rank {
            return Err(SmwRejection::RankExceeded {
                rank: k,
                max_rank: opts.max_rank,
            });
        }
        if k == 0 {
            return Ok(SmwUpdate {
                n,
                k,
                v_cols: Vec::new(),
                w: Vec::new(),
                capture: DenseLu::factor(&DMat::identity(0)).expect("0x0 factors"),
            });
        }
        // W = A⁻¹U, one column at a time in ascending order.
        let mut w = vec![0.0; n * k];
        let mut b = vec![0.0; n];
        let mut work = vec![0.0; n];
        for (j, col) in u_cols.iter().enumerate() {
            b.fill(0.0);
            for &(r, val) in col {
                b[r] += val;
            }
            lu.solve_into(&b, &mut w[j * n..(j + 1) * n], &mut work);
        }
        // S = I + VᵀW: entry (i, j) accumulated in V's stored order.
        let mut s = DMat::identity(k);
        let mut s_max = 0.0_f64;
        for j in 0..k {
            let wj = &w[j * n..(j + 1) * n];
            for (i, vcol) in v_cols.iter().enumerate() {
                let mut acc = 0.0;
                for &(r, val) in vcol {
                    acc += val * wj[r];
                }
                s[(i, j)] += acc;
            }
        }
        for i in 0..k {
            for j in 0..k {
                s_max = s_max.max(s[(i, j)].abs());
            }
        }
        let capture = match DenseLu::factor(&s) {
            Ok(f) => f,
            Err(_) => return Err(SmwRejection::IllConditioned { min_pivot: 0.0 }),
        };
        // `S = I + VᵀW`, so its natural scale is at least the identity's:
        // floor the relative test at 1 or a rank-1 singular edit (single
        // pivot == single entry == max|S|) could never trip it.
        let min_pivot = capture.min_pivot();
        if min_pivot < CAPTURE_TOL * s_max.max(1.0) {
            return Err(SmwRejection::IllConditioned { min_pivot });
        }
        Ok(SmwUpdate {
            n,
            k,
            v_cols: v_cols.to_vec(),
            w,
            capture,
        })
    }

    /// Dimension of the corrected system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Turns a base-matrix solution `y = A⁻¹b` into the edited-matrix
    /// solution `(A + UVᵀ)⁻¹b` in place: `y ← y − W·S⁻¹·(Vᵀy)`.
    ///
    /// Serial with a fixed reduction order; combined with the serial
    /// base solve, the corrected result is bitwise-identical across
    /// repeat calls.
    ///
    /// # Panics
    ///
    /// Panics if `y.len()` differs from [`SmwUpdate::dim`].
    pub fn correct_in_place(&self, y: &mut [f64]) {
        assert_eq!(y.len(), self.n, "correct_in_place: length mismatch");
        if self.k == 0 {
            return;
        }
        let mut t = vec![0.0; self.k];
        for (ti, vcol) in t.iter_mut().zip(&self.v_cols) {
            let mut acc = 0.0;
            for &(r, val) in vcol {
                acc += val * y[r];
            }
            *ti = acc;
        }
        self.capture.solve_in_place(&mut t);
        for (j, &tj) in t.iter().enumerate() {
            if tj == 0.0 {
                continue;
            }
            let wj = &self.w[j * self.n..(j + 1) * self.n];
            for (yi, &wi) in y.iter_mut().zip(wj) {
                *yi -= wi * tj;
            }
        }
    }
}

/// A factor as its callers solve with it: a borrowed [`SparseLu`] and,
/// for a value edit, the [`SmwUpdate`] built against it. Every solve
/// runs the substitution, then the correction, so it serves the edited
/// matrix; without a correction it is the factor's own solve, bit for
/// bit.
///
/// # Example
///
/// ```
/// use matex_sparse::{CsrMatrix, FactorRef, LuOptions, SmwOptions, SmwUpdate, SparseLu};
///
/// # fn main() -> Result<(), matex_sparse::SparseError> {
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 4.0), (0, 1, 1.0), (1, 1, 2.0)]);
/// let lu = SparseLu::factor(&a, &LuOptions::default())?;
/// let upd = SmwUpdate::build(&lu, &[vec![(0, 1.0)]], &[vec![(0, 1.0)]], &SmwOptions::default())
///     .expect("rank-1 edit accepted");
/// assert_eq!(FactorRef::from(&lu).solve(&[10.0, 4.0]), lu.solve(&[10.0, 4.0]));
/// // The edited matrix [[5, 1], [0, 2]]: x = (1.6, 2).
/// let x = FactorRef::new(&lu, Some(&upd)).solve(&[10.0, 4.0]);
/// assert!((x[0] - 1.6).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FactorRef<'a> {
    lu: &'a SparseLu,
    smw: Option<&'a SmwUpdate>,
}

impl<'a> FactorRef<'a> {
    /// `lu`, corrected by `smw` when one is given.
    ///
    /// # Panics
    ///
    /// Panics if `smw`'s dimension differs from `lu`'s.
    pub fn new(lu: &'a SparseLu, smw: Option<&'a SmwUpdate>) -> Self {
        if let Some(smw) = smw {
            assert_eq!(smw.dim(), lu.dim(), "correction dimension mismatch");
        }
        FactorRef { lu, smw }
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.dim()
    }

    /// Solves `A x = b` with a fresh result and scratch:
    /// [`FactorRef::solve_into`].
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from [`FactorRef::dim`].
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        let (mut out, mut work) = (vec![0.0; n], vec![0.0; n]);
        self.solve_into(b, &mut out, &mut work);
        out
    }

    /// [`SparseLu::solve_into`], then the correction.
    ///
    /// # Panics
    ///
    /// Panics on any length mismatch.
    pub fn solve_into(&self, b: &[f64], out: &mut [f64], work: &mut [f64]) {
        self.lu.solve_into(b, out, work);
        if let Some(smw) = self.smw {
            smw.correct_in_place(out);
        }
    }

    /// [`SparseLu::solve_many_into`], then the correction of each
    /// column in turn: column for column bitwise
    /// [`FactorRef::solve_into`].
    ///
    /// # Panics
    ///
    /// As [`SparseLu::solve_many_into`].
    pub fn solve_many_into(&self, b: &[f64], out: &mut [f64], work: &mut [f64]) {
        self.lu.solve_many_into(b, out, work);
        if let (Some(smw), n @ 1..) = (self.smw, self.dim()) {
            for col in out.chunks_exact_mut(n) {
                smw.correct_in_place(col);
            }
        }
    }
}

impl<'a> From<&'a SparseLu> for FactorRef<'a> {
    /// The factor's own solves, uncorrected.
    fn from(lu: &'a SparseLu) -> Self {
        FactorRef { lu, smw: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsrMatrix, LuOptions};

    /// A small SPD-ish shifted system `C + γG` on a 1-D chain.
    fn chain(n: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 1e-12 + 2.0 + 0.01 * i as f64));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    /// `(A + UVᵀ)⁻¹ b` as every caller computes it: the base solve,
    /// then the correction.
    fn corrected(upd: &SmwUpdate, lu: &SparseLu, b: &[f64]) -> Vec<f64> {
        let mut x = lu.solve(b);
        upd.correct_in_place(&mut x);
        x
    }

    /// Applies the edit columns densely: `A + U·Vᵀ` as triplets.
    fn edited(a: &CsrMatrix, u: &[SparseCol], v: &[SparseCol]) -> CsrMatrix {
        let n = a.nrows();
        let mut t = Vec::new();
        for r in 0..n {
            for (&c, &val) in a.row_indices(r).iter().zip(a.row_values(r)) {
                t.push((r, c, val));
            }
        }
        for (uc, vc) in u.iter().zip(v) {
            for &(r, uv) in uc {
                for &(c, vv) in vc {
                    t.push((r, c, uv * vv));
                }
            }
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    #[test]
    fn rank1_matches_full_factorization() {
        let a = chain(12);
        let lu = SparseLu::factor(&a, &LuOptions::default()).unwrap();
        // Bump the (3, 3) diagonal by 0.5 (a conductance change).
        let u = vec![vec![(3, 1.0)]];
        let v = vec![vec![(3, 0.5)]];
        let upd = SmwUpdate::build(&lu, &u, &v, &SmwOptions::default()).unwrap();
        let b: Vec<f64> = (0..12).map(|i| (i as f64) - 4.0).collect();
        let x = corrected(&upd, &lu, &b);
        let full = SparseLu::factor(&edited(&a, &u, &v), &LuOptions::default())
            .unwrap()
            .solve(&b);
        for (p, q) in x.iter().zip(&full) {
            assert!((p - q).abs() < 1e-12, "{p} vs {q}");
        }
    }

    #[test]
    fn multi_rank_stamp_edit_matches() {
        // A resistor change between nodes 2 and 5: touched rows {2, 5},
        // U = [e2, e5], V columns = the delta rows.
        let a = chain(10);
        let lu = SparseLu::factor(&a, &LuOptions::default()).unwrap();
        let dg = 0.3;
        let u = vec![vec![(2, 1.0)], vec![(5, 1.0)]];
        let v = vec![vec![(2, dg), (5, -dg)], vec![(2, -dg), (5, dg)]];
        let upd = SmwUpdate::build(&lu, &u, &v, &SmwOptions::default()).unwrap();
        let b = vec![1.0; 10];
        let x = corrected(&upd, &lu, &b);
        let full = SparseLu::factor(&edited(&a, &u, &v), &LuOptions::default())
            .unwrap()
            .solve(&b);
        for (p, q) in x.iter().zip(&full) {
            assert!((p - q).abs() < 1e-11);
        }
    }

    #[test]
    fn repeat_solves_are_bitwise_identical() {
        let a = chain(30);
        let lu = SparseLu::factor(&a, &LuOptions::default()).unwrap();
        let u = vec![vec![(7, 1.0)], vec![(20, 1.0)]];
        let v = vec![vec![(7, 0.25), (20, -0.1)], vec![(7, -0.1), (20, 0.4)]];
        let opts = SmwOptions::default();
        let upd = SmwUpdate::build(&lu, &u, &v, &opts).unwrap();
        let upd2 = SmwUpdate::build(&lu, &u, &v, &opts).unwrap();
        let b: Vec<f64> = (0..30).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let x1 = corrected(&upd, &lu, &b);
        let x2 = corrected(&upd, &lu, &b);
        let x3 = corrected(&upd2, &lu, &b);
        for ((p, q), r) in x1.iter().zip(&x2).zip(&x3) {
            assert_eq!(p.to_bits(), q.to_bits());
            assert_eq!(p.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn rank_zero_is_a_no_op() {
        let a = chain(6);
        let lu = SparseLu::factor(&a, &LuOptions::default()).unwrap();
        let upd = SmwUpdate::build(&lu, &[], &[], &SmwOptions::default()).unwrap();
        let b = vec![2.0; 6];
        let base = lu.solve(&b);
        let x = corrected(&upd, &lu, &b);
        for (p, q) in x.iter().zip(&base) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn over_rank_edit_is_rejected() {
        let a = chain(8);
        let lu = SparseLu::factor(&a, &LuOptions::default()).unwrap();
        let opts = SmwOptions { max_rank: 2 };
        let u: Vec<SparseCol> = (0..3).map(|i| vec![(i, 1.0)]).collect();
        let v: Vec<SparseCol> = (0..3).map(|i| vec![(i, 0.1)]).collect();
        assert_eq!(
            SmwUpdate::build(&lu, &u, &v, &opts).err(),
            Some(SmwRejection::RankExceeded {
                rank: 3,
                max_rank: 2
            })
        );
    }

    #[test]
    fn singular_edit_is_rejected() {
        // A 1×1 system: A = [2], edit −2 at (0,0) → A' = 0, singular.
        let a = CsrMatrix::from_triplets(1, 1, &[(0, 0, 2.0)]);
        let lu = SparseLu::factor(&a, &LuOptions::default()).unwrap();
        let u = vec![vec![(0, 1.0)]];
        let v = vec![vec![(0, -2.0)]];
        match SmwUpdate::build(&lu, &u, &v, &SmwOptions::default()) {
            Err(SmwRejection::IllConditioned { .. }) => {}
            other => panic!("expected ill-conditioned rejection, got {other:?}"),
        }
    }

    #[test]
    fn capture_floor_is_relative_to_unit_scale() {
        // A = [2], edit −2(1 − δ) → S = I + VᵀA⁻¹U = δ: below the 1e-12
        // floor the edit is refused, above it the correction is built.
        let a = CsrMatrix::from_triplets(1, 1, &[(0, 0, 2.0)]);
        let lu = SparseLu::factor(&a, &LuOptions::default()).unwrap();
        let build = |delta: f64| {
            let v = vec![vec![(0, -2.0 * (1.0 - delta))]];
            SmwUpdate::build(&lu, &[vec![(0, 1.0)]], &v, &SmwOptions::default())
        };
        assert!(matches!(
            build(1e-13),
            Err(SmwRejection::IllConditioned { .. })
        ));
        assert!(build(1e-10).is_ok());
    }
}
