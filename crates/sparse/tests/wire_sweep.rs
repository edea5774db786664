//! Byte-mutation sweeps over the persisted sparse records: every
//! truncation and every single-bit flip of an encoded analysis,
//! factorization and matrix must decode to a [`WireError`] or to a value
//! its consumer can use without panicking — `try_refactor` for an
//! analysis, `solve` for a factorization, `matvec` for a matrix. The
//! artifact store treats any bad record as a miss, so a panic here would
//! take down a process the whole fleet shares. No `catch_unwind`: any
//! panic fails the test.

use matex_sparse::{CsrMatrix, LuOptions, SparseLu, SymbolicLu, WireReader, WireWriter};

/// A 5×5 grid Laplacian with a slight asymmetry, so the pinned pivots
/// and both reach lists are non-trivial.
fn grid() -> CsrMatrix {
    let (nx, ny) = (5, 5);
    let idx = |x: usize, y: usize| y * nx + x;
    let mut t = Vec::new();
    for y in 0..ny {
        for x in 0..nx {
            t.push((idx(x, y), idx(x, y), 4.001 + 0.01 * x as f64));
            if x + 1 < nx {
                t.push((idx(x, y), idx(x + 1, y), -1.0));
                t.push((idx(x + 1, y), idx(x, y), -0.9));
            }
            if y + 1 < ny {
                t.push((idx(x, y), idx(x, y + 1), -1.0));
                t.push((idx(x, y + 1), idx(x, y), -1.1));
            }
        }
    }
    CsrMatrix::from_triplets(nx * ny, nx * ny, &t)
}

/// Every strict prefix of `bytes`, then every single-bit flip of it.
fn mutations(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let cuts = (0..bytes.len()).map(|cut| bytes[..cut].to_vec());
    let flips = (0..bytes.len() * 8).map(|bit| {
        let mut b = bytes.to_vec();
        b[bit / 8] ^= 1 << (bit % 8);
        b
    });
    cuts.chain(flips)
}

fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + (i % 7) as f64).collect()
}

#[test]
fn every_truncation_and_bit_flip_of_an_analysis_decodes_or_errors_and_replays() {
    let a = grid();
    let sym = SymbolicLu::analyze(&a, &LuOptions::default()).unwrap();
    let mut w = WireWriter::new();
    sym.wire_encode(&mut w);
    let bytes = w.into_bytes();
    let (mut decoded, mut replayed) = (0usize, 0usize);
    for (k, record) in mutations(&bytes).enumerate() {
        let Ok(back) = SymbolicLu::wire_decode(&mut WireReader::new(&record)) else {
            continue;
        };
        assert!(k >= bytes.len(), "a {k}-byte prefix decoded");
        decoded += 1;
        if let Ok(Some(lu)) = back.try_refactor(&a) {
            replayed += 1;
            let _ = lu.solve(&rhs(lu.dim()));
        }
    }
    // The sweep reached the replay: flips of values the decoder cannot
    // check (option bits, a pivot threshold) still decode.
    assert!(
        decoded > 0 && replayed > 0,
        "{decoded} decoded, {replayed} replayed"
    );
}

#[test]
fn every_truncation_and_bit_flip_of_a_factorization_decodes_or_errors_and_solves() {
    let lu = SparseLu::factor(&grid(), &LuOptions::default()).unwrap();
    let mut w = WireWriter::new();
    lu.wire_encode(&mut w);
    let bytes = w.into_bytes();
    let mut solved = 0usize;
    for (k, record) in mutations(&bytes).enumerate() {
        let Ok(back) = SparseLu::wire_decode(&mut WireReader::new(&record)) else {
            continue;
        };
        assert!(k >= bytes.len(), "a {k}-byte prefix decoded");
        let _ = back.solve(&rhs(back.dim()));
        solved += 1;
    }
    // Value flips keep the shapes, so most of them decode and solve.
    assert!(solved > bytes.len(), "only {solved} mutations decoded");
}

#[test]
fn every_truncation_and_bit_flip_of_a_matrix_decodes_or_errors() {
    let a = grid();
    let mut w = WireWriter::new();
    a.wire_encode(&mut w);
    let bytes = w.into_bytes();
    let mut multiplied = 0usize;
    for (k, record) in mutations(&bytes).enumerate() {
        let Ok(back) = CsrMatrix::wire_decode(&mut WireReader::new(&record)) else {
            continue;
        };
        assert!(k >= bytes.len(), "a {k}-byte prefix decoded");
        assert_eq!(back.indptr().len(), back.nrows() + 1);
        // A flipped high bit of `ncols` is a consistent (if odd) matrix;
        // multiply the ones whose operand is affordable.
        if back.ncols() <= 4 * a.ncols() {
            let _ = back.matvec(&rhs(back.ncols()));
            multiplied += 1;
        }
    }
    assert!(
        multiplied > bytes.len(),
        "only {multiplied} mutations multiplied"
    );
}
