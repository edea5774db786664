//! The run's one preparation is bitwise invisible: however `G` and the
//! variant's `X1` are factored — directly, side by side on two workers,
//! replayed from an injected analysis, or injected whole — the waveform
//! and the final state hash to the values pinned below, which the
//! preparation that analyzed first and then replayed produced.

use matex_circuit::{MnaSystem, PdnBuilder};
use matex_core::{KrylovKind, MatexOptions, MatexSetup, MatexSymbolic, TransientSpec};
use matex_dist::{run_distributed, DistributedOptions, DistributedRun};
use std::sync::Arc;

/// An RLC grid (pad inductors), so the Krylov bases are deep enough for
/// any change in a factor to show in the last bits.
fn grid() -> MnaSystem {
    PdnBuilder::new(4, 4)
        .num_loads(6)
        .num_features(3)
        .window(5e-10)
        .pad_inductance(1e-11)
        .build()
        .unwrap()
}

fn spec() -> TransientSpec {
    TransientSpec::new(0.0, 5e-10, 2.5e-11).unwrap()
}

/// FNV-1a over the bits of every sample of every row, then of the final
/// state.
fn hash(run: &DistributedRun) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let rows = run.result.series().iter().map(Vec::as_slice);
    for v in rows.chain([run.result.final_state()]).flatten() {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn pinned(kind: KrylovKind, expected: u64) {
    let sys = grid();
    let matex = MatexOptions::new(kind);
    let symbolic = Arc::new(MatexSymbolic::analyze(&sys, &matex).unwrap());
    let setup = Arc::new(MatexSetup::prepare(&sys, &matex, None, false).unwrap());
    for workers in [1, 2, 3] {
        let base = DistributedOptions {
            matex: matex.clone(),
            workers: Some(workers),
            ..DistributedOptions::default()
        };
        let variants = [
            ("fresh", base.clone()),
            (
                "analysis",
                DistributedOptions {
                    symbolic: Some(symbolic.clone()),
                    ..base.clone()
                },
            ),
            (
                "setup",
                DistributedOptions {
                    setup: Some(setup.clone()),
                    ..base
                },
            ),
        ];
        for (name, opts) in variants {
            let run = run_distributed(&sys, &spec(), &opts).unwrap();
            assert_eq!(run.num_groups(), 4);
            assert_eq!(
                hash(&run),
                expected,
                "{kind:?}, {name}, {workers} workers: {:#018x}",
                hash(&run)
            );
        }
    }
}

#[test]
fn an_r_matex_run_is_pinned_at_every_worker_count_and_source_of_its_setup() {
    pinned(KrylovKind::Rational, 0xa4f4_640b_c701_25b8);
}

#[test]
fn a_mexp_run_is_pinned_at_every_worker_count_and_source_of_its_setup() {
    pinned(KrylovKind::Standard, 0xaf7d_cab9_14ba_3f89);
}
