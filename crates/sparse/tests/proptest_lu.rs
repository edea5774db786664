//! Property-based tests of the sparse substrate: LU correctness on random
//! structurally-nonsingular systems, COO assembly order, ordering
//! validity, and linear-combination algebra.

use matex_sparse::{CooMatrix, CsrMatrix, LuOptions, OrderingKind, Permutation, SparseLu};
use proptest::prelude::*;

/// Strategy: a random diagonally-dominant sparse matrix (guaranteed
/// nonsingular) of dimension `n` with extra off-diagonal entries.
fn dd_matrix(n: usize, entries: Vec<(usize, usize, f64)>) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    let mut row_sum = vec![0.0_f64; n];
    for &(r, c, v) in &entries {
        let (r, c) = (r % n, c % n);
        if r != c {
            coo.push(r, c, v);
            row_sum[r] += v.abs();
        }
    }
    for (i, &rs) in row_sum.iter().enumerate() {
        coo.push(i, i, rs + 1.0 + i as f64 * 0.01);
    }
    coo.to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lu_solves_random_dd_systems(
        n in 2usize..40,
        entries in prop::collection::vec(
            (0usize..1000, 0usize..1000, -5.0..5.0_f64), 0..120),
        ordering_pick in 0usize..3,
    ) {
        let a = dd_matrix(n, entries);
        let ordering = [OrderingKind::Amd, OrderingKind::Rcm, OrderingKind::Natural][ordering_pick];
        let opts = LuOptions { ordering, ..LuOptions::default() };
        let lu = SparseLu::factor(&a, &opts).expect("dd matrices factor");
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let b = a.matvec(&x_true);
        let x = lu.solve(&b);
        for (p, q) in x.iter().zip(&x_true) {
            prop_assert!((p - q).abs() < 1e-8, "{p} vs {q}");
        }
    }

    #[test]
    fn lu_backward_error_is_at_rounding_level(
        n in 2usize..25,
        entries in prop::collection::vec(
            (0usize..1000, 0usize..1000, -5.0..5.0_f64), 0..60),
    ) {
        // ‖A x − b‖∞ / ‖b‖∞ of one plain solve: equilibrated partial
        // pivoting on a diagonally dominant matrix needs no refinement.
        let a = dd_matrix(n, entries);
        let lu = SparseLu::factor(&a, &LuOptions::default()).expect("factors");
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).sin()).collect();
        let x = lu.solve(&b);
        let ax = a.matvec(&x);
        let resid = ax.iter().zip(&b).fold(0.0_f64, |m, (p, q)| m.max((p - q).abs()));
        let bnorm = b.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        prop_assert!(resid <= 1e-12 * bnorm, "backward error {:.2e}", resid / bnorm);
    }

    #[test]
    fn linear_combination_is_linear(
        n in 1usize..20,
        e1 in prop::collection::vec((0usize..1000, 0usize..1000, -3.0..3.0_f64), 0..40),
        e2 in prop::collection::vec((0usize..1000, 0usize..1000, -3.0..3.0_f64), 0..40),
        alpha in -10.0..10.0_f64,
        beta in -10.0..10.0_f64,
    ) {
        let a = dd_matrix(n, e1);
        let b = dd_matrix(n, e2);
        let combo = CsrMatrix::linear_combination(alpha, &a, beta, &b).expect("same shape");
        let x: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.11).sin()).collect();
        let direct = combo.matvec(&x);
        let via_parts: Vec<f64> = a
            .matvec(&x)
            .iter()
            .zip(b.matvec(&x))
            .map(|(p, q)| alpha * p + beta * q)
            .collect();
        for (p, q) in direct.iter().zip(&via_parts) {
            prop_assert!((p - q).abs() < 1e-9 * q.abs().max(1.0));
        }
    }

    #[test]
    fn orderings_are_permutations(
        n in 1usize..40,
        entries in prop::collection::vec(
            (0usize..1000, 0usize..1000, -5.0..5.0_f64), 0..100),
    ) {
        let a = dd_matrix(n, entries);
        for kind in [OrderingKind::Amd, OrderingKind::Rcm, OrderingKind::Natural] {
            let p = kind.order(&a);
            prop_assert_eq!(p.len(), n);
            prop_assert!(Permutation::from_vec(p.as_slice().to_vec()).is_ok());
        }
    }

    #[test]
    fn coo_duplicate_order_is_irrelevant(
        n in 1usize..15,
        entries in prop::collection::vec(
            (0usize..1000, 0usize..1000, -5.0..5.0_f64), 1..40),
    ) {
        let mut fwd = CooMatrix::new(n, n);
        let mut rev = CooMatrix::new(n, n);
        for &(r, c, v) in &entries {
            fwd.push(r % n, c % n, v);
        }
        for &(r, c, v) in entries.iter().rev() {
            rev.push(r % n, c % n, v);
        }
        let a = fwd.to_csr();
        let b = rev.to_csr();
        prop_assert_eq!(a.nnz(), b.nnz());
        let d = a.to_dense().max_abs_diff(&b.to_dense());
        prop_assert!(d < 1e-12, "order-dependent assembly: {d}");
    }
}
