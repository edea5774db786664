//! Krylov iteration operators for the three MATEX variants.
//!
//! Each variant of the paper's Alg. 1 is "the same Arnoldi skeleton with
//! different input matrices `X1` (factored) and `X2` (multiplied)":
//!
//! | variant  | operator applied per step            | `X1` (LU)   | `X2` |
//! |----------|--------------------------------------|-------------|------|
//! | standard | `A v   = −C⁻¹ (G v)`                 | `C`         | `G`  |
//! | inverted | `A⁻¹ v = −G⁻¹ (C v)`                 | `G`         | `C`  |
//! | rational | `(I−γA)⁻¹ v = (C+γG)⁻¹ (C v)`        | `C + γG`    | `C`  |

use crate::KrylovKind;
use matex_sparse::{CsrMatrix, FactorRef, LuOptions, SparseError, SparseLu, SymbolicLu};

/// One application of the Arnoldi iteration matrix.
///
/// Implementations wrap a pre-computed sparse LU of `X1` and a sparse
/// `X2`; `apply` costs one mat-vec plus one forward/backward substitution
/// pair (`T_bs`), and works in scratch the caller owns (an
/// [`ArnoldiSpace`](crate::ArnoldiSpace)'s), so it allocates nothing.
/// The factor is a [`FactorRef`]: a what-if setup's factor carries its
/// own correction, and the operator never sees it.
pub trait KrylovOp {
    /// Dimension of the state space.
    fn dim(&self) -> usize;

    /// Computes `out = Op(v)`. `scratch` holds at least `2·dim()`
    /// entries, whose contents are ignored and overwritten.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ from [`KrylovOp::dim`] or
    /// `scratch` is too short.
    fn apply(&self, v: &[f64], out: &mut [f64], scratch: &mut [f64]);

    /// Which variant this operator implements.
    fn kind(&self) -> KrylovKind;

    /// The shift parameter γ (rational variant only).
    fn gamma(&self) -> Option<f64> {
        None
    }
}

/// The two `n`-vectors of an operator's scratch: the mat-vec product and
/// the substitution work.
fn split_scratch(scratch: &mut [f64], n: usize) -> (&mut [f64], &mut [f64]) {
    assert!(
        scratch.len() >= 2 * n,
        "operator scratch holds {} entries, needs {}",
        scratch.len(),
        2 * n
    );
    let (product, rest) = scratch.split_at_mut(n);
    (product, &mut rest[..n])
}

/// Standard-Krylov operator `v ↦ A v = −C⁻¹(G v)` (the MEXP baseline).
///
/// Requires a *nonsingular* `C` — regularize first when the circuit has
/// cap-less nodes (see `matex_circuit::regularize_c`).
#[derive(Debug)]
pub struct StandardOp<'a> {
    lu_c: FactorRef<'a>,
    g: &'a CsrMatrix,
}

impl<'a> StandardOp<'a> {
    /// Wraps `LU(C)` and `G`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn new(lu_c: impl Into<FactorRef<'a>>, g: &'a CsrMatrix) -> Self {
        let lu_c = lu_c.into();
        assert_eq!(lu_c.dim(), g.nrows(), "dimension mismatch");
        StandardOp { lu_c, g }
    }
}

impl KrylovOp for StandardOp<'_> {
    fn dim(&self) -> usize {
        self.g.nrows()
    }

    fn apply(&self, v: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        let (gv, work) = split_scratch(scratch, self.dim());
        self.g.matvec_into(v, gv);
        self.lu_c.solve_into(gv, out, work);
        for x in out.iter_mut() {
            *x = -*x;
        }
    }

    fn kind(&self) -> KrylovKind {
        KrylovKind::Standard
    }
}

/// Inverted-Krylov operator `v ↦ A⁻¹ v = −G⁻¹(C v)` (I-MATEX).
///
/// Works with singular `C`: only `G` is factored (Sec. 3.3.3).
#[derive(Debug)]
pub struct InvertedOp<'a> {
    lu_g: FactorRef<'a>,
    c: &'a CsrMatrix,
}

impl<'a> InvertedOp<'a> {
    /// Wraps `LU(G)` and `C`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn new(lu_g: impl Into<FactorRef<'a>>, c: &'a CsrMatrix) -> Self {
        let lu_g = lu_g.into();
        assert_eq!(lu_g.dim(), c.nrows(), "dimension mismatch");
        InvertedOp { lu_g, c }
    }
}

impl KrylovOp for InvertedOp<'_> {
    fn dim(&self) -> usize {
        self.c.nrows()
    }

    fn apply(&self, v: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        let (cv, work) = split_scratch(scratch, self.dim());
        self.c.matvec_into(v, cv);
        self.lu_g.solve_into(cv, out, work);
        for x in out.iter_mut() {
            *x = -*x;
        }
    }

    fn kind(&self) -> KrylovKind {
        KrylovKind::Inverted
    }
}

/// Rational (shift-and-invert) Krylov operator
/// `v ↦ (I − γA)⁻¹ v = (C + γG)⁻¹ (C v)` (R-MATEX).
///
/// Works with singular `C`: only `C + γG` is factored.
#[derive(Debug)]
pub struct RationalOp<'a> {
    lu_shift: FactorRef<'a>,
    c: &'a CsrMatrix,
    gamma: f64,
}

impl<'a> RationalOp<'a> {
    /// Wraps `LU(C + γG)` and `C`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree or `gamma` is not a positive finite
    /// number.
    pub fn new(lu_shift: impl Into<FactorRef<'a>>, c: &'a CsrMatrix, gamma: f64) -> Self {
        let lu_shift = lu_shift.into();
        assert_eq!(lu_shift.dim(), c.nrows(), "dimension mismatch");
        assert!(
            gamma.is_finite() && gamma > 0.0,
            "gamma must be positive and finite"
        );
        RationalOp { lu_shift, c, gamma }
    }
}

/// Builds and factors the rational variant's shifted system `C + γG`
/// for a [`RationalOp`].
///
/// When a [`SymbolicLu`] analyzed on the same pattern (any other γ of
/// the same `C`/`G` pair) is supplied, the factorization is a cheap
/// numeric replay — the γ-sweep fast path. Returns the shifted matrix,
/// its factorization, and whether the symbolic replay was used (`false`
/// means a full factorization ran, either because no symbolic object
/// was given or because a pinned pivot degraded).
///
/// # Errors
///
/// Propagates [`SparseError`] from the combination or factorization.
pub fn shifted_system(
    c: &CsrMatrix,
    g: &CsrMatrix,
    gamma: f64,
    symbolic: Option<&SymbolicLu>,
    opts: &LuOptions,
) -> Result<(CsrMatrix, SparseLu, bool), SparseError> {
    let shifted = CsrMatrix::linear_combination(1.0, c, gamma, g)?;
    match symbolic {
        Some(sym) => match sym.try_refactor(&shifted)? {
            Some(lu) => Ok((shifted, lu, true)),
            None => {
                let lu = SparseLu::factor(&shifted, sym.options())?;
                Ok((shifted, lu, false))
            }
        },
        None => {
            let lu = SparseLu::factor(&shifted, opts)?;
            Ok((shifted, lu, false))
        }
    }
}

impl KrylovOp for RationalOp<'_> {
    fn dim(&self) -> usize {
        self.c.nrows()
    }

    fn apply(&self, v: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        let (cv, work) = split_scratch(scratch, self.dim());
        self.c.matvec_into(v, cv);
        self.lu_shift.solve_into(cv, out, work);
    }

    fn kind(&self) -> KrylovKind {
        KrylovKind::Rational
    }

    fn gamma(&self) -> Option<f64> {
        Some(self.gamma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matex_sparse::LuOptions;

    fn small_system() -> (CsrMatrix, CsrMatrix) {
        // C = diag(1, 2), G = [[3, -1], [-1, 2]]
        let c = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 2.0)]);
        let g = CsrMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 3.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 2.0)],
        );
        (c, g)
    }

    #[test]
    fn standard_applies_minus_cinv_g() {
        let (c, g) = small_system();
        let lu = SparseLu::factor(&c, &LuOptions::default()).unwrap();
        let op = StandardOp::new(&lu, &g);
        let mut out = vec![0.0; 2];
        op.apply(&[1.0, 0.0], &mut out, &mut [0.0; 4]);
        // A e1 = -C^{-1} G e1 = -[3, -1/2]
        assert!((out[0] + 3.0).abs() < 1e-12);
        assert!((out[1] - 0.5).abs() < 1e-12);
        assert_eq!(op.kind(), KrylovKind::Standard);
        assert_eq!(op.gamma(), None);
    }

    #[test]
    fn inverted_is_inverse_of_standard() {
        let (c, g) = small_system();
        let lu_c = SparseLu::factor(&c, &LuOptions::default()).unwrap();
        let lu_g = SparseLu::factor(&g, &LuOptions::default()).unwrap();
        let std_op = StandardOp::new(&lu_c, &g);
        let inv_op = InvertedOp::new(&lu_g, &c);
        let v = vec![0.7, -0.3];
        let mut av = vec![0.0; 2];
        std_op.apply(&v, &mut av, &mut [0.0; 4]);
        let mut back = vec![0.0; 2];
        inv_op.apply(&av, &mut back, &mut [0.0; 4]);
        for (a, b) in back.iter().zip(&v) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn rational_matches_shifted_inverse() {
        let (c, g) = small_system();
        let gamma = 0.1;
        let shift = CsrMatrix::linear_combination(1.0, &c, gamma, &g).unwrap();
        let lu_s = SparseLu::factor(&shift, &LuOptions::default()).unwrap();
        let op = RationalOp::new(&lu_s, &c, gamma);
        // (I - γA) out = v  with A = -C^{-1}G  ⇔  (C + γG) out = C v.
        let v = vec![1.0, 1.0];
        let mut out = vec![0.0; 2];
        op.apply(&v, &mut out, &mut [0.0; 4]);
        let lhs = shift.matvec(&out);
        let rhs = c.matvec(&v);
        for (a, b) in lhs.iter().zip(&rhs) {
            assert!((a - b).abs() < 1e-12);
        }
        assert_eq!(op.gamma(), Some(0.1));
    }

    #[test]
    fn shifted_system_reuses_symbolic_across_gammas() {
        let (c, g) = small_system();
        let opts = LuOptions::default();
        let analyzed = CsrMatrix::linear_combination(1.0, &c, 0.1, &g).unwrap();
        let sym = SymbolicLu::analyze(&analyzed, &opts).unwrap();
        for gamma in [0.02, 0.1, 0.7] {
            let (m, lu, reused) = shifted_system(&c, &g, gamma, Some(&sym), &opts).unwrap();
            assert!(reused, "γ={gamma} should replay the analysis");
            let (m2, lu_full, reused_full) = shifted_system(&c, &g, gamma, None, &opts).unwrap();
            assert!(!reused_full);
            assert_eq!(m, m2);
            // Bitwise-identical factors → bitwise-identical solves.
            assert_eq!(lu.solve(&[1.0, 2.0]), lu_full.solve(&[1.0, 2.0]));
        }
    }

    #[test]
    fn apply_is_one_matvec_then_one_solve_bitwise() {
        // Each operator is exactly its mat-vec, one substitution pair
        // and (standard/inverted) a negation — bit for bit.
        let n = 400;
        let mut ct = Vec::new();
        let mut gt = Vec::new();
        for i in 0..n {
            ct.push((i, i, 1e-13 * (1.0 + 0.1 * (i % 7) as f64)));
            gt.push((i, i, 2.0 + 0.01 * i as f64));
            if i + 1 < n {
                gt.push((i, i + 1, -1.0));
                gt.push((i + 1, i, -1.0));
            }
        }
        let c = CsrMatrix::from_triplets(n, n, &ct);
        let g = CsrMatrix::from_triplets(n, n, &gt);
        let gamma = 1e-10;
        let opts = LuOptions::default();
        let shifted = CsrMatrix::linear_combination(1.0, &c, gamma, &g).unwrap();
        let lu_s = SparseLu::factor(&shifted, &opts).unwrap();
        let lu_c = SparseLu::factor(&c, &opts).unwrap();
        let lu_g = SparseLu::factor(&g, &opts).unwrap();
        let v: Vec<f64> = (0..n).map(|i| ((i * 13 % 31) as f64) - 15.0).collect();
        let by_hand = |x2: &CsrMatrix, lu: &SparseLu, negate: bool| {
            let mut out = lu.solve(&x2.matvec(&v));
            if negate {
                out.iter_mut().for_each(|x| *x = -*x);
            }
            out
        };
        let applied = |op: &dyn KrylovOp| {
            // Stale scratch must not leak into the result.
            let mut out = vec![f64::NAN; n];
            op.apply(&v, &mut out, &mut vec![f64::NAN; 2 * n]);
            out
        };
        let bits = |xs: Vec<f64>| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(applied(&RationalOp::new(&lu_s, &c, gamma))),
            bits(by_hand(&c, &lu_s, false))
        );
        assert_eq!(
            bits(applied(&InvertedOp::new(&lu_g, &c))),
            bits(by_hand(&c, &lu_g, true))
        );
        assert_eq!(
            bits(applied(&StandardOp::new(&lu_c, &g))),
            bits(by_hand(&g, &lu_c, true))
        );
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn rational_rejects_bad_gamma() {
        let (c, _) = small_system();
        let lu = SparseLu::factor(&c, &LuOptions::default()).unwrap();
        let _ = RationalOp::new(&lu, &c, -1.0);
    }
}
