//! Golden pin of the factorization bytes: the FNV-64 of the encoded
//! analysis and of both factors it can hand out (`analyze_with_factor`'s
//! and a plain `factor`'s) on one fixed matrix. Any change to the
//! elimination kernel that moves a single bit of `L`, `U`, the pivot
//! order, the scales or the recorded reach fails here.

use matex_sparse::{CsrMatrix, LuOptions, SparseLu, SymbolicLu, WireWriter};

/// FNV-1a over `bytes`.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn lu_hash(lu: &SparseLu) -> u64 {
    let mut w = WireWriter::new();
    lu.wire_encode(&mut w);
    fnv64(&w.into_bytes())
}

fn symbolic_hash(sym: &SymbolicLu) -> u64 {
    let mut w = WireWriter::new();
    sym.wire_encode(&mut w);
    fnv64(&w.into_bytes())
}

/// A fixed asymmetric 11×11 matrix. The 8×8 block's entries span
/// 1e-15 … 1e6: the row/column scales are far from 1 (equilibration
/// engages), small diagonals force off-diagonal pivots, and the lower
/// couplings fill in. The 3×3 block cancels exactly (`1 − ½·2`), so the
/// analysis keeps one structural zero in `L` that both factors drop.
fn mixed_magnitude() -> CsrMatrix {
    CsrMatrix::from_triplets(
        11,
        11,
        &[
            (0, 0, 1e-15),
            (0, 1, 3.0),
            (0, 5, -2e-3),
            (1, 0, 4e2),
            (1, 1, 2e-9),
            (1, 2, -7.5),
            (2, 1, 1.5e-2),
            (2, 2, 6e5),
            (2, 6, -3e5),
            (3, 0, -2.0),
            (3, 3, 1e-12),
            (3, 4, 8.0),
            (4, 3, 5e3),
            (4, 4, -1e-3),
            (4, 7, 2.5),
            (5, 2, 9e-6),
            (5, 5, 3.3),
            (5, 7, -1.1),
            (6, 1, -4e-4),
            (6, 6, 7e1),
            (6, 3, 2e-1),
            (7, 0, 1.25),
            (7, 5, -6e4),
            (7, 7, 1e-6),
            (8, 8, 4.0),
            (8, 9, 2.0),
            (9, 8, 2.0),
            (9, 9, 1.0),
            (9, 10, 5.0),
            (10, 9, 3.0),
            (10, 10, 1.0),
        ],
    )
}

/// `(analysis, analyze_with_factor's factor, factor's factor)` hashes.
fn hashes(opts: &LuOptions) -> (u64, u64, u64) {
    let a = mixed_magnitude();
    let (sym, first) = SymbolicLu::analyze_with_factor(&a, opts).unwrap();
    let plain = SparseLu::factor(&a, opts).unwrap();
    assert_eq!(
        sym.nnz_l(),
        first.nnz_l() + 1,
        "the structural zero engages"
    );
    (symbolic_hash(&sym), lu_hash(&first), lu_hash(&plain))
}

#[test]
fn factor_bytes_are_pinned_with_equilibration() {
    let (sym, first, plain) = hashes(&LuOptions::default());
    assert_eq!(first, plain, "both instantiations must emit one factor");
    assert_eq!(
        (sym, first),
        (0x93f6_e948_2713_a7fd, 0x40d4_8fb1_7a55_e604),
        "got ({sym:#018x}, {first:#018x})"
    );
}

#[test]
fn factor_bytes_are_pinned_without_equilibration() {
    let opts = LuOptions {
        equilibrate: false,
        ..LuOptions::default()
    };
    let (sym, first, plain) = hashes(&opts);
    assert_eq!(first, plain, "both instantiations must emit one factor");
    assert_eq!(
        (sym, first),
        (0x2a39_2b64_1cda_82a8, 0x7bb9_91a7_e2c9_d6c4),
        "got ({sym:#018x}, {first:#018x})"
    );
}
