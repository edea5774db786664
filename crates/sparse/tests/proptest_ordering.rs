//! Contract of the default fill-reducing ordering: on any symmetric
//! pattern `amd_order` returns a valid permutation that is a pure
//! function of the pattern, and on the power-grid matrices the stack
//! factors its fill stays where a minimum-degree ordering should put it.
//! (The degree-bound property lives with the algorithm, in
//! `ordering/amd.rs`: it reads state no public item exposes.)

use matex_circuit::{MnaSystem, PdnBuilder};
use matex_sparse::ordering::amd_order;
use matex_sparse::{CsrMatrix, LuOptions, OrderingKind, Permutation, SymbolicLu};
use proptest::prelude::*;

/// Symmetric pattern on `n` vertices. Edges join vertices of one residue
/// class mod `parts` only (so there are at least `parts` components and,
/// with few edges, isolated vertices); `hub` adds one row of degree
/// `n − 1`.
fn pattern(n: usize, edges: &[(usize, usize)], parts: usize, hub: bool) -> CsrMatrix {
    let mut t: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i, 1.0)).collect();
    if n > 0 {
        for &(r, c) in edges {
            let (r, c) = (r % n, c % n);
            if r % parts == c % parts {
                t.push((r, c, 1.0));
                t.push((c, r, 1.0));
            }
        }
        if hub {
            t.extend((1..n).map(|i| (0, i, 1.0)));
        }
    }
    CsrMatrix::from_triplets(n, n, &t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn amd_is_a_deterministic_valid_permutation(
        n in 0usize..60,
        edges in prop::collection::vec((0usize..1000, 0usize..1000), 0..200),
        parts in 1usize..4,
        hub in 0usize..3,
    ) {
        let a = pattern(n, &edges, parts, hub == 0);
        let p = amd_order(&a);
        prop_assert_eq!(p.len(), n);
        prop_assert!(Permutation::from_vec(p.as_slice().to_vec()).is_ok());
        prop_assert_eq!(amd_order(&a), p);
    }
}

#[test]
fn amd_fill_on_a_40x40_rlc_grid_is_bounded() {
    // Exact counts on the matrix an R-MATEX run factors (`C + γG`, the
    // benchmark's grid recipe at half the side): the loose additive
    // degree bound this ordering replaced gave 9.27 × nnz(A) here.
    let netlist = PdnBuilder::new(40, 40)
        .pad_inductance(1e-11)
        .build_netlist()
        .expect("grid builds");
    let sys = MnaSystem::assemble(&netlist).expect("grid assembles");
    let a = CsrMatrix::linear_combination(1.0, sys.c(), 1e-10, sys.g()).expect("same shape");
    let fill = |ordering| {
        let opts = LuOptions {
            ordering,
            ..LuOptions::default()
        };
        SymbolicLu::analyze(&a, &opts)
            .expect("grid factors")
            .fill_nnz()
    };
    let amd = fill(OrderingKind::Amd);
    assert!(
        amd as f64 <= 7.0 * a.nnz() as f64,
        "amd fill {amd} above 7 × nnz(A) = {}",
        7 * a.nnz()
    );
    assert!(amd <= fill(OrderingKind::Rcm));
    assert!(amd <= fill(OrderingKind::Natural));
}
