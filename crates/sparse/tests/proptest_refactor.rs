//! Property-based contract of the two-phase factorization:
//! `SymbolicLu::analyze` + `refactor` must produce factors
//! indistinguishable — bitwise, via encoded bytes and solves — from a fresh
//! `SparseLu::factor` of the same matrix, for every same-pattern value
//! fill, on both the replay fast path and the pivot-degradation
//! fallback; and so must the factors `analyze_with_factor` returns.

use matex_sparse::{
    CooMatrix, CsrMatrix, LuOptions, OrderingKind, SparseLu, SymbolicLu, WireWriter,
};
use proptest::prelude::*;

/// Random diagonally-dominant sparse matrix (guaranteed nonsingular).
fn dd_matrix(n: usize, entries: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    let mut row_sum = vec![0.0_f64; n];
    for &(r, c, v) in entries {
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

/// Same pattern, different values: rescale every stored entry by a
/// positive per-position factor, then restore diagonal dominance so the
/// pinned pivot order stays valid (the fast-path regime).
fn refill_dominant(a: &CsrMatrix, seed: f64) -> CsrMatrix {
    let mut b = a.clone();
    let n = b.nrows();
    for r in 0..n {
        for (k, v) in b.row_values_mut(r).iter_mut().enumerate() {
            *v *= 0.5 + ((r * 31 + k * 7) as f64 * 0.13 + seed).sin().abs();
        }
    }
    // Re-dominate the diagonal against the rescaled off-diagonals.
    for r in 0..n {
        let off: f64 = b
            .row_indices(r)
            .iter()
            .zip(b.row_values(r))
            .filter(|(&c, _)| c != r)
            .map(|(_, v)| v.abs())
            .sum();
        let d = off + 1.0 + r as f64 * 0.01 + seed.abs();
        let idx = b.row_indices(r).iter().position(|&c| c == r).expect("diag");
        b.row_values_mut(r)[idx] = d;
    }
    b
}

fn encoded(lu: &SparseLu) -> Vec<u8> {
    let mut w = WireWriter::new();
    lu.wire_encode(&mut w);
    w.into_bytes()
}

fn assert_factors_identical(x: &SparseLu, y: &SparseLu, n: usize) {
    assert_eq!(x.nnz_l(), y.nnz_l(), "L nnz differs");
    assert_eq!(x.nnz_u(), y.nnz_u(), "U nnz differs");
    // Every stored index, value, pivot and scale, byte for byte.
    assert!(encoded(x) == encoded(y), "encoded factors differ");
    for probe in 0..3usize {
        let b: Vec<f64> = (0..n)
            .map(|i| ((i * 7 + probe * 13) % 9) as f64 - 4.0)
            .collect();
        // Bitwise: substitution through identical factors yields
        // identical floating-point results, not merely close ones.
        assert_eq!(x.solve(&b), y.solve(&b), "solve differs on probe {probe}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn refactor_is_bitwise_identical_to_factor(
        n in 2usize..35,
        entries in prop::collection::vec(
            (0usize..1000, 0usize..1000, -5.0..5.0_f64), 0..110),
        ordering_pick in 0usize..3,
    ) {
        let a = dd_matrix(n, &entries);
        let ordering =
            [OrderingKind::Amd, OrderingKind::Rcm, OrderingKind::Natural][ordering_pick];
        let opts = LuOptions { ordering, ..LuOptions::default() };
        let sym = SymbolicLu::analyze(&a, &opts).expect("dd matrices analyze");
        // The factors `analyze_with_factor` hands back are the ones a
        // replay of the analyzed values produces: one numeric pass on a
        // cold miss costs nothing in bits.
        let (_, first) = SymbolicLu::analyze_with_factor(&a, &opts).expect("dd matrices analyze");
        assert_factors_identical(&first, &sym.refactor(&a).expect("same pattern"), n);
        // Multiple value fills over one analysis, the analyzed values
        // included.
        let fills = [a.clone(), refill_dominant(&a, 0.4), refill_dominant(&a, 1.7)];
        for b in &fills {
            let fast = sym
                .try_refactor(b)
                .expect("same pattern")
                .expect("dominant diagonal keeps pinned pivots");
            let full = SparseLu::factor(b, &opts).expect("dd matrices factor");
            assert_factors_identical(&fast, &full, n);
        }
    }

    #[test]
    fn degraded_pivots_fall_back_and_still_match(
        n in 2usize..25,
        entries in prop::collection::vec(
            (0usize..1000, 0usize..1000, -5.0..5.0_f64), 4..80),
        boost in 20.0..200.0_f64,
    ) {
        let a = dd_matrix(n, &entries);
        let opts = LuOptions::default();
        let sym = SymbolicLu::analyze(&a, &opts).expect("dd matrices analyze");
        // Invert the dominance: collapse the diagonal and boost the
        // off-diagonals so threshold pivoting re-routes somewhere (when
        // any off-diagonal exists — otherwise the replay stays valid).
        let mut b = a.clone();
        for r in 0..n {
            let row = b.row_indices(r).to_vec();
            for (k, &c) in row.iter().enumerate() {
                b.row_values_mut(r)[k] = if c == r {
                    1e-7 * (1.0 + r as f64)
                } else {
                    boost * (1.0 + (k as f64 + 1.0) * 0.1)
                };
            }
        }
        // Whichever path `refactor` takes, it must agree with `factor`.
        match (SparseLu::factor(&b, &opts), sym.refactor(&b)) {
            (Ok(full), Ok(two_phase)) => assert_factors_identical(&two_phase, &full, n),
            (Err(_), Err(_)) => {} // singular either way: consistent
            (full, two_phase) => prop_assert!(
                false,
                "paths disagree: factor={:?} refactor={:?}",
                full.map(|_| ()),
                two_phase.map(|_| ())
            ),
        }
    }
}
