//! `SparseLu::solve_many_into` is `solve_into`, column for column, bit
//! for bit: random factors whose pivots leave the diagonal, batch widths
//! 1..=16 (so both full and partial batches of `SOLVE_BATCH` run), and
//! right-hand sides full of exact zeros and `−0.0`, where the per-column
//! zero skip decides the sign of a zero.

use matex_sparse::{CooMatrix, CsrMatrix, LuOptions, OrderingKind, SparseLu, SOLVE_BATCH};
use proptest::prelude::*;

/// A diagonally dominant matrix with extra entries, its rows then
/// rotated by `shift` so that partial pivoting has to leave the
/// diagonal.
fn pivoting_matrix(n: usize, entries: &[(usize, usize, f64)], shift: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    let mut row_sum = vec![0.0_f64; n];
    for &(r, c, v) in entries {
        let (r, c) = (r % n, c % n);
        if r != c {
            coo.push((r + shift) % n, c, v);
            row_sum[r] += v.abs();
        }
    }
    for (i, &rs) in row_sum.iter().enumerate() {
        coo.push((i + shift) % n, i, rs + 1.0 + i as f64 * 0.01);
    }
    coo.to_csr()
}

/// Column `c` of the batch: a mix of ordinary values, exact zeros and
/// negative zeros, drawn from `seed`.
fn rhs_column(n: usize, c: usize, seed: u64) -> Vec<f64> {
    let mut s = seed ^ (c as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            match (s >> 60) % 4 {
                0 => 0.0,
                1 => -0.0,
                _ => ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5,
            }
        })
        .collect()
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_column_is_bitwise_the_single_solve(
        n in 1usize..40,
        entries in prop::collection::vec(
            (0usize..1000, 0usize..1000, -5.0..5.0_f64), 0..150),
        shift in 0usize..40,
        k in 1usize..17,
        seed in 0usize..1_000_000,
        ordering_pick in 0usize..3,
        // Columns this one picks are all zero, or zero but for one −0.0.
        blank in 0usize..17,
    ) {
        let a = pivoting_matrix(n, &entries, shift % n);
        let ordering = [OrderingKind::Amd, OrderingKind::Rcm, OrderingKind::Natural][ordering_pick];
        let opts = LuOptions { ordering, ..LuOptions::default() };
        let Ok(lu) = SparseLu::factor(&a, &opts) else {
            return;
        };
        let mut b = Vec::with_capacity(k * n);
        for c in 0..k {
            let mut col = rhs_column(n, c, seed as u64);
            if c == blank {
                col.fill(0.0);
            } else if c + 1 == blank {
                col.fill(0.0);
                col[seed % n] = -0.0;
            }
            b.extend(col);
        }
        // Stale scratch must not leak into the result.
        let mut out = vec![f64::NAN; k * n];
        let mut work = vec![f64::NAN; k.min(SOLVE_BATCH) * n];
        lu.solve_many_into(&b, &mut out, &mut work);
        let (mut single, mut scratch) = (vec![0.0; n], vec![0.0; n]);
        for c in 0..k {
            lu.solve_into(&b[c * n..(c + 1) * n], &mut single, &mut scratch);
            prop_assert_eq!(
                bits(&out[c * n..(c + 1) * n]),
                bits(&single),
                "column {} of {}", c, k
            );
        }
    }
}

#[test]
fn a_zero_width_batch_and_an_empty_factor_solve_nothing() {
    let a = CsrMatrix::from_triplets(2, 2, &[(0, 1, 2.0), (1, 0, 3.0)]);
    let lu = SparseLu::factor(&a, &LuOptions::default()).unwrap();
    lu.solve_many_into(&[], &mut [], &mut []);
    let empty =
        SparseLu::factor(&CsrMatrix::from_triplets(0, 0, &[]), &LuOptions::default()).unwrap();
    empty.solve_many_into(&[], &mut [], &mut []);
}

#[test]
#[should_panic(expected = "work")]
fn short_work_is_rejected() {
    let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 3.0)]);
    let lu = SparseLu::factor(&a, &LuOptions::default()).unwrap();
    let b = [1.0; 6];
    let mut out = [0.0; 6];
    lu.solve_many_into(&b, &mut out, &mut [0.0; 5]);
}
