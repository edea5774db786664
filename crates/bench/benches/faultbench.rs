//! **Fault injection** — recovery without losing a bit.
//!
//! The robustness capstone: every recovery layer runs under a seeded,
//! deterministic fault schedule, and the recovered waveforms must hash
//! bitwise-equal to their fault-free references. Faults may cost time;
//! they may never cost bits, jobs, or the process.
//!
//! Two phases:
//!
//! 1. *Distributed recovery*: `run_distributed` under injected node
//!    panics (`"dist.node"`) and solver `NotFinite` failures
//!    (`"core.solver.run"`). The supervisor re-dispatches failed node
//!    groups to surviving workers; the superposed waveform must equal
//!    the fault-free run bit for bit. The same schedule then hits a
//!    `ScenarioEngine` backed by a store whose reads and writes fail
//!    half the time: retry + quarantine + compute-through must again
//!    reproduce the exact bytes.
//! 2. *Fleet under fire*: a TCP client fleet drives the real service
//!    while connections are killed mid-stream (`"loadgen.conn"`),
//!    solver attempts fail or panic inside the engine, and the store
//!    keeps failing. Zero process aborts, every job eventually
//!    completes, and the cross-client determinism vote — canonical
//!    frame hashes per job index — must hold across recovered and
//!    untouched clients alike.
//!
//! Writes `BENCH_faults.json`; `recovery_determinism` is 1 when every
//! recovered waveform matched its fault-free reference bitwise (asserted
//! hard here).

use matex_bench::{secs, Scale};
use matex_circuit::PdnBuilder;
use matex_core::{FaultHook, FaultKind, FaultPlan, TransientSpec};
use matex_dist::{run_distributed, DistributedOptions};
use matex_serve::{
    run_load, serve, EngineOptions, JobSpec, LoadJob, LoadSpec, ScenarioEngine, ServiceOptions,
};
use matex_store::{ArtifactStore, StoreOptions};
use std::sync::Arc;
use std::time::Instant;

struct FaultRow {
    design: String,
    n: usize,
    faults: u64,
    node_retries: usize,
    engine_retries: u64,
    store_errors: u64,
    reconnects: usize,
    recovery_determinism: f64,
}

/// Hand-rolled JSON (the workspace builds offline, without serde).
fn write_json(scale: Scale, rows: &[FaultRow]) {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"bench\": \"faultbench\",\n  \"scale\": \"{}\",\n",
        match scale {
            Scale::Ci => "ci",
            Scale::Paper => "paper",
        },
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"design\": \"{}\", \"n\": {}, \"faults\": {}, \"node_retries\": {}, \
             \"engine_retries\": {}, \"store_errors\": {}, \"reconnects\": {}, \
             \"recovery_determinism\": {}}}{}\n",
            r.design,
            r.n,
            r.faults,
            r.node_retries,
            r.engine_retries,
            r.store_errors,
            r.reconnects,
            r.recovery_determinism,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_faults.json");
    match std::fs::write(path, &out) {
        Ok(()) => println!("\nwrote BENCH_faults.json ({} rows)", rows.len()),
        Err(e) => eprintln!("\ncould not write BENCH_faults.json: {e}"),
    }
}

fn main() {
    let scale = Scale::from_env();
    let (dim, loads, features) = match scale {
        Scale::Ci => (10usize, 12usize, 3usize),
        Scale::Paper => (16, 24, 4),
    };
    let sys = Arc::new(
        PdnBuilder::new(dim, dim)
            .num_loads(loads)
            .num_features(features)
            .window(1e-9)
            .seed(77)
            .build()
            .expect("grid builds"),
    );
    let spec = TransientSpec::new(0.0, 1e-9, 2e-11).expect("spec");
    let n = sys.dim();

    println!("\n=== Fault injection: recovery is bitwise or it is broken ===\n");
    println!("(panic messages and backtraces below are injected faults being");
    println!("contained — the run aborts only if an assertion fails)\n");

    // Phase 1a: distributed supervision. The fault-free run is the
    // reference; the faulted run injects a node panic and a node error
    // at fixed schedule coordinates plus a NotFinite solver failure,
    // and must reproduce the reference exactly.
    let t0 = Instant::now();
    let clean = run_distributed(
        &sys,
        &spec,
        &DistributedOptions {
            workers: Some(4),
            ..DistributedOptions::default()
        },
    )
    .expect("fault-free distributed run");
    // One hook serves both sites: occurrence counters are per site.
    let mut faulted_opts = DistributedOptions {
        workers: Some(4),
        max_node_retries: 4,
        ..DistributedOptions::default()
    };
    faulted_opts.matex.faults = FaultHook::new(
        FaultPlan::new()
            .fail_at("dist.node", 0, FaultKind::Panic)
            .fail_at("dist.node", 2, FaultKind::Error)
            .fail_at("core.solver.run", 1, FaultKind::Error),
    );
    let faulted = run_distributed(&sys, &spec, &faulted_opts).expect("supervised run recovers");
    let dist_bitwise = clean
        .result
        .series()
        .iter()
        .zip(faulted.result.series())
        .all(|(a, b)| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        });
    let dist_faults = faulted_opts.matex.faults.injected();
    println!(
        "distributed: {} groups  {} injected faults  {} node retries  bitwise: {}  ({}s)",
        faulted.num_groups(),
        dist_faults,
        faulted.node_retries,
        dist_bitwise,
        secs(t0.elapsed()),
    );
    assert!(dist_bitwise, "supervised recovery changed the waveform");
    assert!(
        faulted.node_retries >= 2,
        "the injected node faults never triggered a retry"
    );

    // Phase 1b: engine retry + quarantine over a half-broken store.
    // Reads and writes fail by seeded coin flip; solver attempts fail
    // at fixed occurrences. The engine's waveform must still equal the
    // plain solver-free-of-faults bytes.
    let t1 = Instant::now();
    let job = JobSpec::new(sys.clone(), spec.clone());
    let clean_engine = ScenarioEngine::new(EngineOptions::default());
    let reference = clean_engine.run(&job).expect("fault-free engine run");
    let store_dir = std::env::temp_dir().join(format!("matex-faultbench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = ArtifactStore::open_with(
        &store_dir,
        StoreOptions {
            faults: FaultHook::new(
                FaultPlan::new()
                    .seeded(0xFA17, 500, FaultKind::Error)
                    .on_sites(&["store.read", "store.write"]),
            ),
            ..StoreOptions::default()
        },
    )
    .expect("store opens");
    let engine = ScenarioEngine::new(EngineOptions {
        store: Some(Arc::new(store)),
        max_compute_retries: 3,
        retry_backoff: std::time::Duration::ZERO,
        faults: FaultHook::new(
            FaultPlan::new()
                .fail_at("core.solver.run", 0, FaultKind::Error)
                .fail_at("core.solver.run", 2, FaultKind::Panic),
        ),
        ..EngineOptions::default()
    });
    let first = engine.run(&job).expect("engine recovers the cold run");
    let second = engine.run(&job).expect("engine recovers the warm run");
    let engine_bitwise = [&first, &second].iter().all(|out| {
        out.result
            .series()
            .iter()
            .zip(reference.result.series())
            .all(|(a, b)| {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            })
    });
    let stats = engine.stats();
    println!(
        "engine: retries {}  panics {}  quarantined {}  store errors {}  bitwise: {}  ({}s)",
        stats.retries,
        stats.panics,
        stats.quarantined,
        stats.store_errors,
        engine_bitwise,
        secs(t1.elapsed()),
    );
    assert!(engine_bitwise, "engine recovery changed the waveform");
    assert!(
        stats.retries >= 2,
        "the injected solver faults never retried"
    );
    assert!(stats.panics >= 1, "the injected panic was not contained");
    assert!(
        stats.store_errors > 0,
        "the broken store was never exercised"
    );
    assert_eq!(stats.failed, 0, "recovery must absorb every injected fault");
    let _ = std::fs::remove_dir_all(&store_dir);

    // Phase 2: the fleet under fire. Solver faults and a half-broken
    // store inside the service, killed connections outside it. Every
    // job completes, nothing aborts, and the per-job canonical frame
    // vote spans recovered and untouched clients.
    let t2 = Instant::now();
    let fleet_dir =
        std::env::temp_dir().join(format!("matex-faultbench-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&fleet_dir);
    let fleet_store = ArtifactStore::open_with(
        &fleet_dir,
        StoreOptions {
            faults: FaultHook::new(
                FaultPlan::new()
                    .seeded(0xBEEF, 500, FaultKind::Error)
                    .on_sites(&["store.read", "store.write"]),
            ),
            ..StoreOptions::default()
        },
    )
    .expect("fleet store opens");
    let fleet_engine = Arc::new(ScenarioEngine::new(EngineOptions {
        executors: 3,
        threads: Some(3),
        store: Some(Arc::new(fleet_store)),
        max_compute_retries: 3,
        retry_backoff: std::time::Duration::ZERO,
        faults: FaultHook::new(
            FaultPlan::new()
                .fail_at("core.solver.run", 1, FaultKind::Error)
                .fail_at("core.solver.run", 4, FaultKind::Panic)
                .fail_at("core.solver.run", 7, FaultKind::Error),
        ),
        ..EngineOptions::default()
    }));
    let handle = serve(fleet_engine.clone(), &ServiceOptions::default()).expect("service binds");
    let jobs = vec![
        LoadJob::pdn(dim, dim, loads, features, 77),
        LoadJob::pdn(dim, dim, loads, features, 77).scaled(1.25),
        LoadJob::pdn(dim, dim, loads, features, 77).scaled(0.75),
    ];
    let clients = 3;
    let report = run_load(
        &LoadSpec::new(handle.addr().to_string(), clients, jobs.clone())
            .retries(3)
            .faults(FaultHook::new(
                FaultPlan::new()
                    .fail_at("loadgen.conn", 1, FaultKind::Error)
                    .fail_at("loadgen.conn", 5, FaultKind::Error),
            )),
    )
    .expect("fleet survives the schedule");
    handle.stop();
    let fleet_stats = fleet_engine.stats();
    println!(
        "fleet: completed {}/{}  reconnects {}  engine retries {}  panics {}  store errors {}  \
         deterministic: {}  ({}s)",
        report.completed,
        clients * jobs.len(),
        report.reconnects,
        fleet_stats.retries,
        fleet_stats.panics,
        fleet_stats.store_errors,
        report.deterministic,
        secs(t2.elapsed()),
    );
    // The capstone contract: zero aborts (we are still running), every
    // job completed, and recovery reproduced the fault-free bytes.
    assert_eq!(
        report.completed,
        clients * jobs.len(),
        "jobs were lost under faults: {report:?}"
    );
    assert_eq!(report.failed, 0, "{report:?}");
    assert!(report.reconnects >= 2, "the connection kills never fired");
    assert!(
        report.deterministic,
        "recovered clients diverged from untouched ones"
    );
    let _ = std::fs::remove_dir_all(&fleet_dir);

    let recovery = f64::from(u8::from(
        dist_bitwise && engine_bitwise && report.deterministic,
    ));
    write_json(
        scale,
        &[
            FaultRow {
                design: "dist".into(),
                n,
                faults: dist_faults,
                node_retries: faulted.node_retries,
                engine_retries: stats.retries,
                store_errors: stats.store_errors,
                reconnects: 0,
                recovery_determinism: recovery,
            },
            FaultRow {
                design: "fleet".into(),
                n,
                faults: fleet_engine.stats().panics + fleet_stats.retries,
                node_retries: 0,
                engine_retries: fleet_stats.retries,
                store_errors: fleet_stats.store_errors,
                reconnects: report.reconnects,
                recovery_determinism: recovery,
            },
        ],
    );
    println!("\nshape check: every injected fault was absorbed by a recovery layer,");
    println!("and every recovered waveform hashed bitwise-equal to its fault-free run.");
}
