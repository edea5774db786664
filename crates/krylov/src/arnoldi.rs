//! Incremental Arnoldi process (paper Alg. 1, "MATEX Arnoldi").

use crate::{KrylovError, KrylovOp};
use matex_dense::DMat;
use matex_par::ParPool;

/// The storage an [`Arnoldi`] process works in, reusable across starts:
/// the basis vectors, the packed Hessenberg columns, the Gram–Schmidt
/// correction and the operator's scratch, plus spare vectors handed back
/// from earlier bases ([`ArnoldiSpace::recycle`]).
///
/// Once a space has held a process of the same state dimension and
/// subspace size (and got its vectors back), starting, stepping and
/// taking the basis allocate nothing: every buffer is reused, and each
/// new basis vector is a spare one.
#[derive(Debug, Default)]
pub struct ArnoldiSpace {
    /// Basis vectors `v_1 .. v_{j+1}` (one more than completed columns,
    /// except after breakdown).
    vs: Vec<Vec<f64>>,
    /// Vectors free for reuse.
    spare: Vec<Vec<f64>>,
    /// Hessenberg columns, packed: column `j` holds `ĥ_{1..j+2, j+1}`
    /// at `hcol_offset(j)`.
    h: Vec<f64>,
    /// The second Gram–Schmidt pass's coefficients.
    corr: Vec<f64>,
    /// [`KrylovOp::apply`]'s scratch, `2·n`.
    op_work: Vec<f64>,
}

impl ArnoldiSpace {
    /// An empty space (buffers are sized on first use).
    pub fn new() -> ArnoldiSpace {
        ArnoldiSpace::default()
    }

    /// Takes back basis vectors (a finished basis's) for reuse by later
    /// processes.
    pub fn recycle(&mut self, mut vectors: Vec<Vec<f64>>) {
        self.spare.append(&mut vectors);
        // Keep the emptied list's capacity for the next basis, which
        // [`Arnoldi::into_basis`] moves out with its vectors.
        if self.vs.is_empty() && self.vs.capacity() < vectors.capacity() {
            self.vs = vectors;
        }
    }

    /// A vector of length `n`, spare if one is free. Its contents are
    /// the caller's to overwrite.
    fn vector(&mut self, n: usize) -> Vec<f64> {
        let mut v = self.spare.pop().unwrap_or_default();
        v.resize(n, 0.0);
        v
    }
}

/// Offset of packed Hessenberg column `j` (`j + 2` entries each).
fn hcol_offset(j: usize) -> usize {
    j * (j + 3) / 2
}

/// An incrementally extensible Arnoldi factorization
/// `Op·V_m = V_m·Ĥ_m + ĥ_{m+1,m}·v_{m+1}·e_mᵀ`, working in a borrowed
/// [`ArnoldiSpace`].
///
/// Orthogonalizes with a **fused, tiled classical Gram–Schmidt** run
/// inline ([`ParPool::inline`]): each pass computes all projection
/// coefficients in one sweep ([`matex_par::multi_dot`]) and removes them
/// in a second ([`matex_par::subtract_combination`]). It always runs two
/// passes — stiff PDN systems quickly lose orthogonality with one — so
/// this is the classical
/// "CGS2/twice-is-enough" scheme, numerically equivalent to MGS with
/// re-orthogonalization but with `O(m)` kernel calls per step instead of
/// `O(m²)`. The fixed tile boundaries set the arithmetic order. The
/// basis can be *extended* after a convergence check fails, which is how
/// the solver grows `m` without restarting (Alg. 1 lines 10–12).
pub struct Arnoldi<'a> {
    op: &'a dyn KrylovOp,
    space: &'a mut ArnoldiSpace,
    beta: f64,
    /// Completed Arnoldi columns.
    m: usize,
    /// Set when an invariant subspace was hit at dimension `m`.
    breakdown: Option<usize>,
}

impl<'a> Arnoldi<'a> {
    /// Starts the process from vector `v` (not necessarily normalized)
    /// in `space`, whose previous contents become spare.
    ///
    /// # Errors
    ///
    /// * [`KrylovError::ZeroStartVector`] when `‖v‖ = 0`.
    /// * [`KrylovError::NotFinite`] when `v` contains NaN/inf.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != op.dim()`.
    pub fn new(
        op: &'a dyn KrylovOp,
        v: &[f64],
        space: &'a mut ArnoldiSpace,
    ) -> Result<Self, KrylovError> {
        let n = op.dim();
        assert_eq!(v.len(), n, "arnoldi: vector length mismatch");
        if v.iter().any(|x| !x.is_finite()) {
            return Err(KrylovError::NotFinite { step: 0 });
        }
        // β comes from the same tiled norm as every later column.
        let beta = matex_par::norm2(ParPool::inline(), v);
        if beta == 0.0 {
            return Err(KrylovError::ZeroStartVector);
        }
        let ArnoldiSpace {
            vs,
            spare,
            h,
            op_work,
            ..
        } = &mut *space;
        spare.append(vs);
        h.clear();
        op_work.resize(2 * n, 0.0);
        let mut v1 = space.vector(n);
        for (o, x) in v1.iter_mut().zip(v) {
            *o = x / beta;
        }
        space.vs.push(v1);
        Ok(Arnoldi {
            op,
            space,
            beta,
            m: 0,
            breakdown: None,
        })
    }

    /// `‖v‖` of the starting vector.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Number of completed Arnoldi columns (current subspace dimension).
    pub fn m(&self) -> usize {
        self.m
    }

    /// `true` once an invariant subspace has been found; further
    /// [`Arnoldi::step`]s are no-ops.
    pub fn broke_down(&self) -> bool {
        self.breakdown.is_some()
    }

    /// Performs one Arnoldi step, extending the subspace dimension by one.
    ///
    /// # Errors
    ///
    /// Returns [`KrylovError::NotFinite`] if the operator output blows up.
    pub fn step(&mut self) -> Result<(), KrylovError> {
        if self.breakdown.is_some() {
            return Ok(());
        }
        let j = self.m;
        let mut w = self.space.vector(self.op.dim());
        let ArnoldiSpace {
            vs,
            spare,
            h,
            corr,
            op_work,
        } = &mut *self.space;
        self.op.apply(&vs[j], &mut w, op_work);
        if w.iter().any(|x| !x.is_finite()) {
            spare.push(w);
            return Err(KrylovError::NotFinite { step: j + 1 });
        }
        let pool = ParPool::inline();
        h.resize(hcol_offset(j + 1), 0.0);
        let hcol = &mut h[hcol_offset(j)..];
        let w_scale = matex_par::norm2(pool, &w);
        // Fused classical Gram–Schmidt: all coefficients in one tiled
        // sweep, all projections removed in a second.
        matex_par::multi_dot(pool, &w, vs, &mut hcol[..j + 1]);
        matex_par::subtract_combination(pool, &mut w, vs, &hcol[..j + 1]);
        // CGS2: the correction pass restores orthogonality to working
        // precision ("twice is enough").
        corr.clear();
        corr.resize(j + 1, 0.0);
        matex_par::multi_dot(pool, &w, vs, corr);
        matex_par::subtract_combination(pool, &mut w, vs, corr);
        for (h, c) in hcol.iter_mut().zip(corr.iter()) {
            *h += c;
        }
        let hnext = matex_par::norm2(pool, &w);
        hcol[j + 1] = hnext;
        self.m += 1;
        // Happy breakdown: the subspace is invariant; the projection is
        // exact from here on.
        if hnext <= f64::EPSILON * w_scale.max(1e-300) * 100.0 {
            self.breakdown = Some(j + 1);
            spare.push(w);
            return Ok(());
        }
        matex_par::div_in_place(pool, &mut w, hnext);
        vs.push(w);
        Ok(())
    }

    /// The `m × m` leading Hessenberg block `Ĥ_m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` exceeds the completed dimension.
    pub fn h_hat(&self, m: usize) -> DMat {
        assert!(m <= self.m, "h_hat: m exceeds current dimension");
        DMat::from_fn(m, m, |i, j| {
            if i < j + 2 {
                self.space.h[hcol_offset(j) + i]
            } else {
                0.0
            }
        })
    }

    /// The subdiagonal entry `ĥ_{m+1,m}` (0 after breakdown at `m`).
    ///
    /// # Panics
    ///
    /// Panics if `m` is 0 or exceeds the completed dimension.
    pub fn subdiag(&self, m: usize) -> f64 {
        assert!(m >= 1 && m <= self.m, "subdiag: bad m");
        self.space.h[hcol_offset(m - 1) + m]
    }

    /// The first `m` basis vectors.
    ///
    /// # Panics
    ///
    /// Panics if `m` exceeds the stored basis size.
    pub fn basis(&self, m: usize) -> &[Vec<f64>] {
        assert!(m <= self.space.vs.len(), "basis: m exceeds stored vectors");
        &self.space.vs[..m]
    }

    /// Ends the process, moving the first `m` basis vectors out (the
    /// rest stay in the space as spares).
    ///
    /// # Panics
    ///
    /// Panics if `m` exceeds the stored basis size.
    pub fn into_basis(self, m: usize) -> Vec<Vec<f64>> {
        let ArnoldiSpace { vs, spare, .. } = self.space;
        assert!(m <= vs.len(), "into_basis: m exceeds stored vectors");
        spare.extend(vs.drain(m..));
        std::mem::take(vs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KrylovKind, StandardOp};
    use matex_dense::{dot, norm2};
    use matex_sparse::{CsrMatrix, LuOptions, SparseLu};

    /// Dense operator for testing: applies an explicit matrix.
    struct DenseOp {
        a: DMat,
    }

    impl KrylovOp for DenseOp {
        fn dim(&self) -> usize {
            self.a.nrows()
        }
        fn apply(&self, v: &[f64], out: &mut [f64], _scratch: &mut [f64]) {
            out.copy_from_slice(&self.a.matvec(v));
        }
        fn kind(&self) -> KrylovKind {
            KrylovKind::Standard
        }
    }

    fn test_matrix(n: usize) -> DMat {
        DMat::from_fn(n, n, |i, j| {
            if i == j {
                -((i + 1) as f64)
            } else if i.abs_diff(j) == 1 {
                0.3
            } else {
                0.0
            }
        })
    }

    #[test]
    fn basis_is_orthonormal() {
        let op = DenseOp { a: test_matrix(12) };
        let v: Vec<f64> = (0..12).map(|i| (i as f64 + 1.0).sin()).collect();
        let mut space = ArnoldiSpace::new();
        let mut ar = Arnoldi::new(&op, &v, &mut space).unwrap();
        for _ in 0..6 {
            ar.step().unwrap();
        }
        let basis = ar.basis(7);
        for i in 0..7 {
            for j in 0..7 {
                let d = dot(&basis[i], &basis[j]);
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-12, "V^T V [{i},{j}] = {d}");
            }
        }
    }

    #[test]
    fn basis_spanning_several_tiles_is_orthonormal() {
        // Vectors longer than one reduction tile: the tiled CGS2 must
        // combine its per-tile partials into an orthonormal basis.
        struct DiagOp(Vec<f64>);
        impl KrylovOp for DiagOp {
            fn dim(&self) -> usize {
                self.0.len()
            }
            fn apply(&self, v: &[f64], out: &mut [f64], _scratch: &mut [f64]) {
                for ((o, d), x) in out.iter_mut().zip(&self.0).zip(v) {
                    *o = d * x;
                }
            }
            fn kind(&self) -> KrylovKind {
                KrylovKind::Standard
            }
        }
        let n = 3 * matex_par::TILE + 17;
        let op = DiagOp((0..n).map(|i| -1.0 - (i % 97) as f64).collect());
        let v: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
        let mut space = ArnoldiSpace::new();
        let mut ar = Arnoldi::new(&op, &v, &mut space).unwrap();
        for _ in 0..8 {
            ar.step().unwrap();
        }
        assert_eq!(ar.m(), 8);
        let basis = ar.basis(9);
        for i in 0..9 {
            for j in 0..9 {
                let d = dot(&basis[i], &basis[j]);
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-12, "V^T V [{i},{j}] = {d}");
            }
        }
    }

    #[test]
    fn hessenberg_recurrence_holds() {
        // Op·V_m = V_m·Ĥ_m + ĥ_{m+1,m} v_{m+1} e_mᵀ
        let op = DenseOp { a: test_matrix(10) };
        let v: Vec<f64> = (0..10).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let mut space = ArnoldiSpace::new();
        let mut ar = Arnoldi::new(&op, &v, &mut space).unwrap();
        let m = 5;
        for _ in 0..m {
            ar.step().unwrap();
        }
        let h = ar.h_hat(m);
        let basis = ar.basis(m + 1);
        for j in 0..m {
            let mut avj = vec![0.0; 10];
            op.apply(&basis[j], &mut avj, &mut []);
            // Σ_i V[:,i] H[i,j] (+ subdiag term when j = m-1)
            let mut rhs = [0.0; 10];
            for i in 0..m {
                for k in 0..10 {
                    rhs[k] += basis[i][k] * h[(i, j)];
                }
            }
            if j == m - 1 {
                let sub = ar.subdiag(m);
                for k in 0..10 {
                    rhs[k] += sub * basis[m][k];
                }
            }
            for k in 0..10 {
                assert!((avj[k] - rhs[k]).abs() < 1e-10, "col {j} row {k}");
            }
        }
    }

    #[test]
    fn zero_vector_rejected() {
        let op = DenseOp { a: test_matrix(3) };
        assert!(matches!(
            Arnoldi::new(&op, &[0.0; 3], &mut ArnoldiSpace::new()),
            Err(KrylovError::ZeroStartVector)
        ));
    }

    #[test]
    fn eigenvector_causes_happy_breakdown() {
        // Diagonal operator, axis start vector: invariant after 1 step.
        let op = DenseOp {
            a: DMat::from_diag(&[-1.0, -2.0, -3.0]),
        };
        let mut space = ArnoldiSpace::new();
        let mut ar = Arnoldi::new(&op, &[0.0, 1.0, 0.0], &mut space).unwrap();
        ar.step().unwrap();
        assert!(ar.broke_down());
        assert_eq!(ar.m(), 1);
        assert_eq!(ar.subdiag(1), 0.0);
        assert!((ar.h_hat(1)[(0, 0)] + 2.0).abs() < 1e-14);
        // Further steps are no-ops.
        ar.step().unwrap();
        assert_eq!(ar.m(), 1);
    }

    #[test]
    fn works_with_sparse_standard_op() {
        let c = CsrMatrix::identity(4);
        let g = CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 0, 2.0),
                (1, 1, 2.0),
                (2, 2, 2.0),
                (3, 3, 2.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
            ],
        );
        let lu = SparseLu::factor(&c, &LuOptions::default()).unwrap();
        let op = StandardOp::new(&lu, &g);
        let mut space = ArnoldiSpace::new();
        let mut ar = Arnoldi::new(&op, &[1.0, 2.0, 3.0, 4.0], &mut space).unwrap();
        for _ in 0..3 {
            ar.step().unwrap();
        }
        assert_eq!(ar.m(), 3);
        assert!((norm2(&ar.basis(1)[0]) - 1.0).abs() < 1e-14);
        assert!((ar.beta() - (30.0_f64).sqrt()).abs() < 1e-12);
    }
}
