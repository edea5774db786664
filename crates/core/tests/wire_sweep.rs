//! Byte-mutation sweeps over the persisted MATEX records, mirroring
//! `matex-sparse`'s sweep one layer up: every truncation and every
//! single-bit flip of an encoded R-MATEX setup, MEXP setup and symbolic
//! bundle must decode to a [`WireError`] or to a value whose run returns
//! `Ok` or a typed error. The artifact store's checksum normally stops
//! such a record; one that gets past it is hydrated again on every
//! retry, so a panic here would recur for the record's whole life. No
//! `catch_unwind`: any panic fails the test.

use matex_circuit::{MnaSystem, RcMeshBuilder};
use matex_core::{
    KrylovKind, MatexOptions, MatexSetup, MatexSolver, MatexSymbolic, TransientEngine,
    TransientSpec,
};
use matex_sparse::{CsrMatrix, LuOptions, SparseLu, WireError, WireReader, WireWriter};
use std::sync::Arc;

fn mesh() -> MnaSystem {
    RcMeshBuilder::new(3, 3).build().unwrap()
}

/// Two output intervals: enough to reach the DC solve, the Krylov basis
/// and the combine, cheap enough to run for every mutant.
fn spec() -> TransientSpec {
    TransientSpec::new(0.0, 2e-11, 1e-11).unwrap()
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

/// The record of the factor of `a`, as a setup stores it.
fn encoded_factor(a: &CsrMatrix) -> Vec<u8> {
    let mut w = WireWriter::new();
    let lu = SparseLu::factor(a, &LuOptions::default()).unwrap();
    lu.wire_encode(&mut w);
    w.into_bytes()
}

fn encoded_setup(sys: &MnaSystem, opts: &MatexOptions) -> Vec<u8> {
    let setup = MatexSetup::prepare(sys, opts, None, false).unwrap();
    let mut w = WireWriter::new();
    setup.wire_encode(&mut w).unwrap();
    w.into_bytes()
}

fn sweep_setup(kind: KrylovKind) {
    let sys = mesh();
    let opts = MatexOptions::new(kind);
    let bytes = encoded_setup(&sys, &opts);
    let (mut decoded, mut ran) = (0usize, 0usize);
    for (k, record) in mutations(&bytes).enumerate() {
        let Ok(back) = MatexSetup::wire_decode(&mut WireReader::new(&record)) else {
            continue;
        };
        assert!(k >= bytes.len(), "a {k}-byte prefix decoded");
        decoded += 1;
        let solver = MatexSolver::new(opts.clone()).with_setup(Arc::new(back));
        ran += usize::from(solver.run(&sys, &spec()).is_ok());
    }
    // Value flips keep the shapes, so the sweep reaches the solver.
    assert!(decoded > 0 && ran > 0, "{decoded} decoded, {ran} ran");
}

#[test]
fn every_truncation_and_bit_flip_of_an_r_matex_setup_errors_or_runs() {
    sweep_setup(KrylovKind::Rational);
}

#[test]
fn every_truncation_and_bit_flip_of_a_mexp_setup_errors_or_runs() {
    sweep_setup(KrylovKind::Standard);
}

#[test]
fn every_truncation_and_bit_flip_of_a_symbolic_bundle_errors_or_runs() {
    let sys = mesh();
    let opts = MatexOptions::new(KrylovKind::Rational);
    let mut w = WireWriter::new();
    MatexSymbolic::analyze(&sys, &opts)
        .unwrap()
        .wire_encode(&mut w);
    let bytes = w.into_bytes();
    let (mut decoded, mut ran) = (0usize, 0usize);
    for (k, record) in mutations(&bytes).enumerate() {
        let Ok(back) = MatexSymbolic::wire_decode(&mut WireReader::new(&record)) else {
            continue;
        };
        assert!(k >= bytes.len(), "a {k}-byte prefix decoded");
        decoded += 1;
        // A bad analysis either fails the preparation with a typed error
        // or replays (or falls back to) runnable factors.
        let Ok(setup) = MatexSetup::prepare(&sys, &opts, Some(&back), false) else {
            continue;
        };
        let solver = MatexSolver::new(opts.clone()).with_setup(Arc::new(setup));
        ran += usize::from(solver.run(&sys, &spec()).is_ok());
    }
    assert!(decoded > 0 && ran > 0, "{decoded} decoded, {ran} ran");
}

#[test]
fn a_setup_missing_its_x1_factor_is_a_wire_error() {
    // The R-MATEX record's X1 presence byte follows the `G` factor.
    let sys = mesh();
    let opts = MatexOptions::new(KrylovKind::Rational);
    let presence = 1 + 8 + 8 + 8 + encoded_factor(sys.g()).len();
    let mut bytes = encoded_setup(&sys, &opts);
    assert_eq!(bytes[presence], 1);
    bytes[presence] = 0;
    assert!(matches!(
        MatexSetup::wire_decode(&mut WireReader::new(&bytes)),
        Err(WireError::Invalid(_))
    ));
    // And an I-MATEX record that carries one (its `G` factor again).
    let inverted = MatexOptions::new(KrylovKind::Inverted);
    let mut bytes = encoded_setup(&sys, &inverted);
    assert_eq!(bytes.pop(), Some(0));
    bytes.push(1);
    bytes.extend(encoded_factor(sys.g()));
    assert!(matches!(
        MatexSetup::wire_decode(&mut WireReader::new(&bytes)),
        Err(WireError::Invalid(_))
    ));
}

#[test]
fn a_factor_of_another_dimension_is_a_wire_error() {
    // A 3×3-mesh R-MATEX record whose X1 factor is a 4×4 mesh's: each
    // factor is valid on its own, the setup is not.
    let sys = mesh();
    let opts = MatexOptions::new(KrylovKind::Rational);
    let bigger = RcMeshBuilder::new(4, 4).build().unwrap();
    let presence = 1 + 8 + 8 + 8 + encoded_factor(sys.g()).len();
    let mut bytes = encoded_setup(&sys, &opts);
    bytes.truncate(presence + 1);
    let shifted = CsrMatrix::linear_combination(1.0, bigger.c(), opts.gamma, bigger.g()).unwrap();
    bytes.extend(encoded_factor(&shifted));
    assert!(matches!(
        MatexSetup::wire_decode(&mut WireReader::new(&bytes)),
        Err(WireError::Invalid(_))
    ));
}

#[test]
fn trailing_bytes_are_a_wire_error() {
    let sys = mesh();
    let opts = MatexOptions::new(KrylovKind::Rational);
    let mut setup = encoded_setup(&sys, &opts);
    setup.push(0);
    assert!(matches!(
        MatexSetup::wire_decode(&mut WireReader::new(&setup)),
        Err(WireError::Invalid(_))
    ));
    let mut w = WireWriter::new();
    MatexSymbolic::analyze(&sys, &opts)
        .unwrap()
        .wire_encode(&mut w);
    let mut symbolic = w.into_bytes();
    assert!(MatexSymbolic::wire_decode(&mut WireReader::new(&symbolic)).is_ok());
    symbolic.push(0);
    assert!(matches!(
        MatexSymbolic::wire_decode(&mut WireReader::new(&symbolic)),
        Err(WireError::Invalid(_))
    ));
}
