//! Property-based tests of the dense kernels: LU identities, `expm`
//! group laws, and eigenvalue invariants on random matrices.

use matex_dense::eig::{eig_vals, hessenberg};
use matex_dense::{expm, norm2, DMat, DenseLu};
use proptest::prelude::*;

/// Frobenius norm.
fn fro(m: &DMat) -> f64 {
    norm2(m.as_slice())
}

/// Random well-conditioned matrix: diagonally dominant with bounded
/// off-diagonal mass.
fn dd(n: usize, vals: &[f64]) -> DMat {
    DMat::from_fn(n, n, |i, j| {
        if i == j {
            n as f64 + 1.0 + vals[(i * 31 + 7) % vals.len()].abs()
        } else {
            vals[(i * 17 + j * 5) % vals.len()] / (n as f64)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_reconstructs_solution(
        n in 1usize..12,
        vals in prop::collection::vec(-3.0..3.0_f64, 8),
    ) {
        let a = dd(n, &vals);
        let lu = DenseLu::factor(&a).expect("dd factors");
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 2.0).collect();
        let b = a.matvec(&x_true);
        let x = lu.solve(&b).expect("solves");
        for (p, q) in x.iter().zip(&x_true) {
            prop_assert!((p - q).abs() < 1e-9);
        }
        // det(A) * det(A^{-1}) == 1
        let inv = lu.inverse().expect("invertible");
        let det_inv = DenseLu::factor(&inv).expect("factors").det();
        prop_assert!((lu.det() * det_inv - 1.0).abs() < 1e-6);
    }

    #[test]
    fn expm_group_law(
        n in 1usize..7,
        vals in prop::collection::vec(-0.5..0.5_f64, 8),
        s in 0.1..2.0_f64,
    ) {
        // e^{sA} e^{sA} == e^{2sA}
        let a = DMat::from_fn(n, n, |i, j| vals[(i * 7 + j * 3) % vals.len()] * 0.3
            - if i == j { 0.5 } else { 0.0 });
        let e1 = expm(&a.scaled(s)).expect("expm ok");
        let e2 = expm(&a.scaled(2.0 * s)).expect("expm ok");
        let sq = e1.matmul(&e1).expect("square");
        prop_assert!(sq.max_abs_diff(&e2) < 1e-9 * e2.norm_inf().max(1.0));
    }

    #[test]
    fn expm_commutes_with_transpose(
        n in 1usize..7,
        vals in prop::collection::vec(-0.5..0.5_f64, 8),
    ) {
        // (e^{A})^T == e^{A^T}
        let a = DMat::from_fn(n, n, |i, j| vals[(i * 5 + j) % vals.len()]);
        let lhs = expm(&a).expect("ok").transpose();
        let rhs = expm(&a.transpose()).expect("ok");
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-10 * rhs.norm_inf().max(1.0));
    }

    #[test]
    fn general_eig_trace_and_det_invariants(
        n in 1usize..7,
        vals in prop::collection::vec(-2.0..2.0_f64, 10),
    ) {
        let a = dd(n, &vals);
        let eigs = eig_vals(&a).expect("converges");
        prop_assert_eq!(eigs.len(), n);
        // Sum of eigenvalues == trace (imaginary parts cancel).
        let re_sum: f64 = eigs.iter().map(|e| e.0).sum();
        let im_sum: f64 = eigs.iter().map(|e| e.1).sum();
        let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
        prop_assert!((re_sum - trace).abs() < 1e-6 * trace.abs().max(1.0));
        prop_assert!(im_sum.abs() < 1e-6);
        // Product == det.
        let (mut re, mut im) = (1.0_f64, 0.0_f64);
        for (er, ei) in &eigs {
            let (nr, ni) = (re * er - im * ei, re * ei + im * er);
            re = nr;
            im = ni;
        }
        let det = DenseLu::factor(&a).expect("factors").det();
        prop_assert!((re - det).abs() < 1e-5 * det.abs().max(1.0));
        prop_assert!(im.abs() < 1e-5 * det.abs().max(1.0));
    }

    #[test]
    fn symmetric_eig_vals_are_real_and_carry_the_frobenius_norm(
        n in 1usize..8,
        vals in prop::collection::vec(-2.0..2.0_f64, 10),
    ) {
        // Symmetric A: every eigenvalue is real, they sum to the trace,
        // and their squares sum to trace(A²) = ‖A‖_F².
        let a = DMat::from_fn(n, n, |i, j| {
            let (lo, hi) = (i.min(j), i.max(j));
            vals[(lo * 7 + hi * 3) % vals.len()]
        });
        let eigs = eig_vals(&a).expect("converges");
        prop_assert_eq!(eigs.len(), n);
        let scale = fro(&a).max(1.0);
        for e in &eigs {
            prop_assert!(e.1.abs() < 1e-8 * scale, "complex eigenvalue {e:?} of a symmetric matrix");
        }
        let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let sum: f64 = eigs.iter().map(|e| e.0).sum();
        let sum_sq: f64 = eigs.iter().map(|e| e.0 * e.0).sum();
        prop_assert!((sum - trace).abs() < 1e-8 * scale);
        prop_assert!((sum_sq - fro(&a).powi(2)).abs() < 1e-8 * scale * scale);
    }

    #[test]
    fn hessenberg_is_a_structured_similarity(
        n in 1usize..9,
        vals in prop::collection::vec(-3.0..3.0_f64, 12),
    ) {
        let a = DMat::from_fn(n, n, |i, j| vals[(i * 5 + j * 7) % vals.len()]);
        let h = hessenberg(&a);
        for i in 0..n {
            for j in 0..i.saturating_sub(1) {
                prop_assert_eq!(h[(i, j)], 0.0);
            }
        }
        let trace = |m: &DMat| (0..n).map(|i| m[(i, i)]).sum::<f64>();
        let scale = fro(&a).max(1.0);
        prop_assert!((trace(&a) - trace(&h)).abs() < 1e-10 * scale);
        prop_assert!((fro(&a) - fro(&h)).abs() < 1e-10 * scale);
    }

    #[test]
    fn complex_eig_vals_come_in_conjugate_pairs(
        n in 2usize..8,
        vals in prop::collection::vec(-2.0..2.0_f64, 12),
    ) {
        let a = DMat::from_fn(n, n, |i, j| vals[(i * 3 + j * 5) % vals.len()]);
        let eigs = eig_vals(&a).expect("converges");
        for e in eigs.iter().filter(|e| e.1 != 0.0) {
            prop_assert!(
                eigs.iter().any(|c| c.0 == e.0 && c.1 == -e.1),
                "{e:?} has no conjugate in {eigs:?}"
            );
        }
    }

    #[test]
    fn eig_vals_shift_with_the_identity(
        n in 1usize..7,
        vals in prop::collection::vec(-2.0..2.0_f64, 10),
        s in -5.0..5.0_f64,
    ) {
        // eig(A + sI) = eig(A) + s, checked through the real-part sum and
        // the sorted real parts of a diagonally dominant A.
        let a = dd(n, &vals);
        let shifted = DMat::from_fn(n, n, |i, j| a[(i, j)] + if i == j { s } else { 0.0 });
        let re = |m: &DMat| {
            let mut r: Vec<f64> = eig_vals(m).expect("converges").iter().map(|e| e.0).collect();
            r.sort_by(|x, y| x.partial_cmp(y).unwrap());
            r
        };
        let scale = a.norm_inf().max(1.0) + s.abs();
        for (x, y) in re(&a).iter().zip(re(&shifted)) {
            prop_assert!((x + s - y).abs() < 1e-8 * scale, "{x} + {s} vs {y}");
        }
    }
}
