//! Byte-mutation sweeps over the records a distributed run consumes,
//! mirroring `matex-core`'s sweep: every truncation and every single-bit
//! flip of an encoded group plan and of a DC record must decode to a
//! [`WireError`] or to a value whose run returns `Ok` or a typed error.
//! A plan that decodes but cannot be drained would hang the master, so
//! every run is watched: it answers over a channel within
//! [`WATCHDOG`], or the test fails. A panicking run drops its sender
//! without answering, which fails the test too — no `catch_unwind`.

use matex_circuit::{MnaSystem, PdnBuilder};
use matex_core::{MatexOptions, MatexSetup, MatexSolver, TransientEngine, TransientSpec};
use matex_dist::{plan_groups, run_distributed, DistributedOptions, GroupPlan};
use matex_sparse::{WireError, WireReader, WireWriter};
use matex_waveform::GroupingStrategy;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// Far above a healthy run of the tiny grid below (milliseconds in
/// debug), far below a hang.
const WATCHDOG: Duration = Duration::from_secs(20);

/// A 3×3 grid with two bump shapes: three jobs (two feature groups and
/// the supply group).
fn grid() -> MnaSystem {
    PdnBuilder::new(3, 3)
        .num_loads(3)
        .num_features(2)
        .window(1e-10)
        .build()
        .unwrap()
}

/// Two output intervals: the run plans, prepares, dispatches every job
/// and superposes, cheaply enough to repeat for every mutant.
fn spec() -> TransientSpec {
    TransientSpec::new(0.0, 1e-10, 5e-11).unwrap()
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

/// Runs `f` on its own thread and returns its answer, failing the test
/// when it hangs past [`WATCHDOG`] (the hung thread is left behind) or
/// panics.
fn watched<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let run = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let answer = rx.recv_timeout(WATCHDOG);
    if let Err(RecvTimeoutError::Timeout) = answer {
        panic!("{what}: no answer within {WATCHDOG:?}");
    }
    let joined = run.join();
    match answer {
        Ok(answer) if joined.is_ok() => answer,
        _ => panic!("{what}: the run panicked"),
    }
}

fn encoded_plan(sys: &MnaSystem) -> Vec<u8> {
    let plan = plan_groups(sys, &spec(), GroupingStrategy::ByBumpFeature);
    let mut w = WireWriter::new();
    plan.wire_encode(&mut w).unwrap();
    w.into_bytes()
}

fn decode_plan(bytes: &[u8]) -> Result<GroupPlan, WireError> {
    GroupPlan::wire_decode(&mut WireReader::new(bytes))
}

/// A run with `plan` injected on two workers, the width that left the
/// master waiting forever on a plan whose order repeated a job.
fn run_with_plan(sys: &Arc<MnaSystem>, plan: GroupPlan, what: String) -> bool {
    let sys = Arc::clone(sys);
    watched(&what, move || {
        let opts = DistributedOptions {
            workers: Some(2),
            plan: Some(Arc::new(plan)),
            ..DistributedOptions::default()
        };
        run_distributed(&sys, &spec(), &opts).is_ok()
    })
}

#[test]
fn every_truncation_and_bit_flip_of_a_plan_errors_or_runs() {
    let sys = Arc::new(grid());
    let bytes = encoded_plan(&sys);
    assert_eq!(decode_plan(&bytes).unwrap().num_jobs(), 3);
    let (mut decoded, mut ran) = (0usize, 0usize);
    for (k, record) in mutations(&bytes).enumerate() {
        let Ok(plan) = decode_plan(&record) else {
            continue;
        };
        assert!(k >= bytes.len(), "a {k}-byte prefix decoded");
        decoded += 1;
        ran += usize::from(run_with_plan(&sys, plan, format!("mutant {k}")));
    }
    // Spot-time flips keep the structure, so the sweep reaches the run.
    assert!(decoded > 0 && ran > 0, "{decoded} decoded, {ran} ran");
}

#[test]
fn every_truncation_and_bit_flip_of_a_dc_record_errors_or_runs() {
    // The record the artifact store keeps for a DC operating point: one
    // `f64` list, nothing after it.
    let sys = Arc::new(grid());
    let opts = MatexOptions::default();
    let setup = Arc::new(MatexSetup::prepare(&sys, &opts, None, false).unwrap());
    let x0 = setup.solve_g(&sys.bu_at(spec().t_start()));
    let mut w = WireWriter::new();
    w.f64s(&x0);
    let bytes = w.into_bytes();
    let (mut decoded, mut ran) = (0usize, 0usize);
    for (k, record) in mutations(&bytes).enumerate() {
        let mut r = WireReader::new(&record);
        let Ok(dc) = r.f64s() else {
            continue;
        };
        if !r.is_empty() {
            continue;
        }
        assert!(k >= bytes.len(), "a {k}-byte prefix decoded");
        decoded += 1;
        let (sys, opts, setup) = (Arc::clone(&sys), opts.clone(), Arc::clone(&setup));
        ran += usize::from(watched(&format!("mutant {k}"), move || {
            MatexSolver::new(opts)
                .with_setup(setup)
                .with_dc(Arc::new(dc))
                .run(&sys, &spec())
                .is_ok()
        }));
    }
    assert!(decoded > 0 && ran > 0, "{decoded} decoded, {ran} ran");
}

/// Reads the little-endian `u64` at `at`.
fn word(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Overwrites the little-endian `u64` at `at`.
fn set_word(bytes: &mut [u8], at: usize, v: u64) {
    bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

#[test]
fn a_plan_whose_order_repeats_a_job_is_a_wire_error() {
    // The order list ends the record: one index per job.
    let sys = grid();
    let mut bytes = encoded_plan(&sys);
    let jobs = decode_plan(&bytes).unwrap().num_jobs();
    let first = bytes.len() - 8 * jobs;
    assert_eq!(word(&bytes, first - 8), jobs as u64);
    for j in 0..jobs {
        set_word(&mut bytes, first + 8 * j, 0);
    }
    assert!(matches!(decode_plan(&bytes), Err(WireError::Invalid(_))));
}

#[test]
fn a_plan_with_trailing_bytes_is_a_wire_error() {
    let mut bytes = encoded_plan(&grid());
    bytes.push(0);
    assert!(matches!(decode_plan(&bytes), Err(WireError::Invalid(_))));
}

#[test]
fn a_plan_that_misplaces_a_source_is_a_wire_error() {
    // Tag, k, window, source count and job count precede job 0's group
    // id and member count; its first member follows them.
    let sys = grid();
    let bytes = encoded_plan(&sys);
    let plan = decode_plan(&bytes).unwrap();
    let member = 1 + 8 * 5 + 8 + 8;
    assert_eq!(word(&bytes, member), plan.jobs()[0].members[0] as u64);
    // Out of range, and held by job 1 too (so job 0's own is left out).
    for bad in [sys.num_sources() as u64, plan.jobs()[1].members[0] as u64] {
        let mut mutant = bytes.clone();
        set_word(&mut mutant, member, bad);
        assert!(
            matches!(decode_plan(&mutant), Err(WireError::Invalid(_))),
            "member {bad}"
        );
    }
}
