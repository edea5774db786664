//! Fill-reducing orderings for sparse LU.
//!
//! The paper's solver stack (UMFPACK under MATLAB) applies a fill-reducing
//! column ordering before factorization; the quality of that ordering is
//! what keeps the per-step forward/backward substitution cost `T_bs` low —
//! the dominant term of MATEX's complexity model. We provide:
//!
//! * `amd` — the Amestoy–Davis–Duff approximate minimum degree on the
//!   pattern of `A + Aᵀ`: approximate external degrees, aggressive
//!   element absorption, mass elimination, supervariables, and an
//!   assembly-tree postorder of the result (the default, mirroring
//!   UMFPACK's symmetric strategy on MNA systems),
//! * `rcm` — reverse Cuthill–McKee (bandwidth reduction),
//! * natural (identity) ordering as the baseline for ablations.

mod amd;
mod rcm;

pub use amd::amd_order;
pub use rcm::rcm_order;

use crate::{CsrMatrix, Permutation};

/// Ordering algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum OrderingKind {
    /// Approximate minimum degree on `A + Aᵀ` (default).
    #[default]
    Amd,
    /// Reverse Cuthill–McKee on `A + Aᵀ`.
    Rcm,
    /// Natural (identity) ordering.
    Natural,
}

impl OrderingKind {
    /// Computes the ordering permutation for a square matrix pattern.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn order(self, a: &CsrMatrix) -> Permutation {
        match self {
            OrderingKind::Amd => amd_order(a),
            OrderingKind::Rcm => rcm_order(a),
            OrderingKind::Natural => Permutation::identity(a.nrows()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1-D chain graph matrix: tridiagonal.
    fn chain(n: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, n, &t)
    }

    #[test]
    fn all_orderings_return_valid_permutations() {
        let a = chain(17);
        for kind in [OrderingKind::Amd, OrderingKind::Rcm, OrderingKind::Natural] {
            let p = kind.order(&a);
            assert_eq!(p.len(), 17);
            // Validity enforced by round-trip through from_vec.
            assert!(Permutation::from_vec(p.as_slice().to_vec()).is_ok());
        }
    }

    #[test]
    fn natural_is_identity() {
        let a = chain(5);
        assert_eq!(OrderingKind::Natural.order(&a).as_slice(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn default_is_amd() {
        assert_eq!(OrderingKind::default(), OrderingKind::Amd);
    }
}
