//! Factorization options.

use crate::OrderingKind;

/// Options controlling [`SparseLu::factor`](crate::SparseLu::factor).
///
/// The defaults mirror the paper's UMFPACK configuration: fill-reducing
/// ordering, equilibration, and relaxed partial pivoting that prefers the
/// diagonal (keeping the ordering's fill prediction valid).
#[derive(Debug, Clone, PartialEq)]
pub struct LuOptions {
    /// Fill-reducing column ordering (default: AMD).
    pub ordering: OrderingKind,
    /// Threshold `τ ∈ (0, 1]` for diagonal-preference pivoting: the
    /// diagonal entry is used whenever `|a_dd| ≥ τ·max_i |a_id|`. `1.0`
    /// degenerates to strict partial pivoting.
    pub pivot_threshold: f64,
    /// Scale rows and columns to unit max-magnitude before factoring.
    pub equilibrate: bool,
    /// Stability floor for numeric refactorization
    /// ([`SymbolicLu::refactor`](crate::SymbolicLu::refactor)): when the
    /// pivot pinned during analysis falls below `pivot_tol · max_i |x_i|`
    /// in its column, the refactorization abandons the pinned order and
    /// falls back to a fresh full factorization.
    pub pivot_tol: f64,
}

impl Default for LuOptions {
    fn default() -> Self {
        LuOptions {
            ordering: OrderingKind::Amd,
            pivot_threshold: 0.1,
            equilibrate: true,
            pivot_tol: 0.01,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let o = LuOptions::default();
        assert_eq!(o.ordering, OrderingKind::Amd);
        assert!(o.equilibrate);
        assert!(o.pivot_threshold > 0.0 && o.pivot_threshold < 1.0);
        // The refactor stability floor must be at most as strict as the
        // pivoting threshold, or the fast path could never be taken.
        assert!(o.pivot_tol > 0.0 && o.pivot_tol <= o.pivot_threshold);
    }
}
