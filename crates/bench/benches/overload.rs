//! **Overload robustness** — admitted-job p99 under a 4× burst.
//!
//! The acceptance criterion of the admission scheduler: under a burst
//! offering 4× the engine's executor capacity, admission (bounded
//! queue + deadline triage over the calibrated cost model) must shed
//! the excess with `retry_after` hints while the jobs it *does* admit
//! keep a p99 within 2× of the uncontended p99 — overload degrades
//! throughput for the shed traffic, never latency for the admitted.
//!
//! Three phases, all through the real TCP service:
//!
//! 1. *Warm + calibrate*: one client runs the circuit fleet once, so
//!    the artifact cache is hot and every completion calibrates the
//!    engine's per-unit cost estimate.
//! 2. *Uncontended*: one client, steady mode — the reference p50/p99.
//! 3. *Overload*: `4 × executors` clients in synchronized burst waves,
//!    every submit carrying a deadline of ~1.5× the uncontended p99.
//!    Admission rejects what the estimate says cannot meet it.
//!
//! Writes `BENCH_overload.json` with
//! `p99_guard = 2 × uncontended_p99 / admitted_p99` — the margin by
//! which the admitted tail stays inside the 2× containment bound
//! (higher is better; ≥ 1 is the acceptance floor, asserted here).

use matex_bench::{secs, Scale};
use matex_serve::{
    run_load, serve, EngineOptions, LoadJob, LoadMode, LoadReport, LoadSpec, Priority,
    ScenarioEngine, ServiceOptions,
};
use std::sync::Arc;

struct OverloadRow {
    design: String,
    n: usize,
    offered: usize,
    admitted: usize,
    rejected: usize,
    shed_frac: f64,
    uncontended_p99_ms: f64,
    admitted_p99_ms: f64,
    p99_guard: f64,
}

/// Hand-rolled JSON (the workspace builds offline, without serde).
fn write_json(scale: Scale, deterministic: bool, rows: &[OverloadRow]) {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"bench\": \"overload\",\n  \"scale\": \"{}\",\n  \"deterministic\": {},\n",
        match scale {
            Scale::Ci => "ci",
            Scale::Paper => "paper",
        },
        deterministic,
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"design\": \"{}\", \"n\": {}, \"offered\": {}, \"admitted\": {}, \
             \"rejected\": {}, \"shed_frac\": {:.3}, \"uncontended_p99_ms\": {:.3}, \
             \"admitted_p99_ms\": {:.3}, \"p99_guard\": {:.2}}}{}\n",
            r.design,
            r.n,
            r.offered,
            r.admitted,
            r.rejected,
            r.shed_frac,
            r.uncontended_p99_ms,
            r.admitted_p99_ms,
            r.p99_guard,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_overload.json");
    match std::fs::write(path, &out) {
        Ok(()) => println!("\nwrote BENCH_overload.json ({} rows)", rows.len()),
        Err(e) => eprintln!("\ncould not write BENCH_overload.json: {e}"),
    }
}

/// The warm fleet every phase runs: one circuit, exact repeats mixed
/// with scaled-source scenarios (all setup-cache hits after warmup).
/// Only a handful of rows are observed/streamed, so measured latency
/// is the solve the admission scheduler actually controls, not frame
/// I/O.
fn fleet(dim: usize, jobs: usize, window: f64, dt: f64) -> Vec<LoadJob> {
    (0..jobs)
        .map(|j| {
            let mut job = LoadJob::pdn(dim, dim, dim * dim / 8, 2, 4000).window(window, dt);
            job.submit_fields.push_str(", \"rows\": \"0,1,2,3\"");
            if j % 2 == 0 {
                job
            } else {
                job.scaled(0.8 + 0.1 * (j % 4) as f64)
            }
        })
        .collect()
}

fn main() {
    let scale = Scale::from_env();
    // Long windows (many transient steps) make a single warm job's
    // service time tens of milliseconds: large against scheduling
    // jitter, so the p99 ratio is a property of admission, not noise.
    let (dim, window, dt, waves) = match scale {
        Scale::Ci => (24usize, 12e-9, 4e-11, 12usize),
        Scale::Paper => (32, 12e-9, 4e-11, 16),
    };
    let executors = 2usize;
    let clients = 4 * executors; // the 4x-overload burst

    println!("\n=== Overload robustness: admission under a 4x burst ===\n");
    // Small queue on purpose: it is the safety valve under test. With
    // it, an admitted job waits at most max_queue service times; the
    // deadline triage below cuts that further.
    let engine = Arc::new(ScenarioEngine::new(EngineOptions {
        executors,
        threads: Some(executors),
        max_queue: 3,
        ..EngineOptions::default()
    }));
    let handle = serve(engine.clone(), &ServiceOptions::default()).expect("service binds");
    let addr = handle.addr().to_string();
    let n = dim * dim;

    // Phase 1: warm the cache and calibrate the cost model (the first
    // job is cold; its wall time would poison the reference p99).
    let warm =
        run_load(&LoadSpec::new(addr.clone(), 1, fleet(dim, 8, window, dt))).expect("warmup run");
    assert_eq!(warm.failed, 0, "warmup failed: {warm:?}");

    // Phase 2: the uncontended reference.
    let quiet = run_load(&LoadSpec::new(addr.clone(), 1, fleet(dim, 16, window, dt)))
        .expect("uncontended run");
    assert_eq!(
        quiet.failed + quiet.rejected,
        0,
        "uncontended shed: {quiet:?}"
    );
    let quiet_p99_ms = quiet.p99.as_secs_f64() * 1e3;
    println!(
        "uncontended: {} jobs  p50 {:.1}ms  p99 {:.1}ms",
        quiet.completed,
        quiet.p50.as_secs_f64() * 1e3,
        quiet_p99_ms,
    );

    // Phase 3: the burst. Every submit carries a deadline of ~1.25x the
    // uncontended p99: admission's triage refuses what its calibrated
    // estimate says cannot meet it, so what *is* admitted stays fast —
    // comfortably inside the 2x containment bound even after stream
    // drain and client-side overhead are added on top.
    let deadline_ms = (1.25 * quiet_p99_ms).max(2.0);
    let burst_jobs: Vec<LoadJob> = fleet(dim, waves, window, dt)
        .into_iter()
        .enumerate()
        .map(|(i, j)| {
            let j = j.deadline_ms(deadline_ms);
            // A mixed-class offered load: priority never changes bits,
            // only who wins the queue.
            if i % 3 == 0 {
                j.priority(Priority::High)
            } else {
                j
            }
        })
        .collect();
    let burst: LoadReport =
        run_load(&LoadSpec::new(addr, clients, burst_jobs).mode(LoadMode::Burst))
            .expect("burst run");
    handle.stop();

    let offered = clients * waves;
    let admitted_p99_ms = burst.p99.as_secs_f64() * 1e3;
    let shed_frac = (offered - burst.completed) as f64 / offered.max(1) as f64;
    let p99_guard = 2.0 * quiet_p99_ms / admitted_p99_ms.max(1e-9);
    println!(
        "burst: offered {offered} ({}x capacity)  admitted {}  rejected {} ({:.0}%)  failed {}",
        clients / executors,
        burst.completed,
        burst.rejected,
        burst.rejection_rate() * 1e2,
        burst.failed,
    );
    println!(
        "admitted p50 {:.1}ms  p99 {:.1}ms  (uncontended p99 {:.1}ms, guard {:.2})  wall {}s",
        burst.p50.as_secs_f64() * 1e3,
        admitted_p99_ms,
        quiet_p99_ms,
        p99_guard,
        secs(burst.wall),
    );
    println!("deterministic across clients: {}", burst.deterministic);

    // The overload contract, asserted hard:
    assert!(burst.completed > 0, "burst admitted nothing");
    assert!(
        burst.rejected > 0,
        "a 4x burst against a 4-deep queue must shed load"
    );
    assert_eq!(burst.failed, 0, "admitted jobs must not fail");
    assert!(
        burst.deterministic,
        "admitted jobs diverged across clients under pressure"
    );
    assert!(
        p99_guard >= 1.0,
        "admitted p99 {admitted_p99_ms:.1}ms exceeds 2x the uncontended {quiet_p99_ms:.1}ms"
    );

    let stats = engine.stats();
    println!(
        "engine counters: rejected {}  cancelled {}  deadline_misses {}  queue_depth {}",
        stats.rejected, stats.cancelled, stats.deadline_misses, stats.queue_depth,
    );

    write_json(
        scale,
        burst.deterministic,
        &[OverloadRow {
            design: "burst4x".into(),
            n,
            offered,
            admitted: burst.completed,
            rejected: burst.rejected,
            shed_frac,
            uncontended_p99_ms: quiet_p99_ms,
            admitted_p99_ms,
            p99_guard,
        }],
    );
    println!("\nshape check: the shed fraction absorbs the overload; the admitted");
    println!("tail stays inside 2x of the uncontended tail (p99_guard >= 1).");
}
