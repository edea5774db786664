//! **Service layer** — scenario-engine cache amortization and TCP
//! serving throughput.
//!
//! Part 1 (the acceptance criterion): a repeated-structure workload —
//! ≥ 20 jobs over ≥ 2 distinct circuits, mixing exact repeats with
//! scaled-source scenarios — runs through one
//! [`ScenarioEngine`]. The first job per circuit is *cold* (pays
//! symbolic analysis + factorization + DC + schedule); every later job
//! *hits* the structure cache and skips straight to the numeric march.
//! The bench asserts each job's waveform is bitwise identical to a
//! standalone `MatexSolver` run, prints the cold/hit split, and tracks
//! `hit_speedup = cold_s / hit_s` (expected ≥ 2X).
//!
//! Part 2: the same engine behind the JSON-lines TCP service, load-
//! generated by 4 concurrent clients running identical job sequences.
//! Reports jobs/s, p50/p99 latency, warm rate, and the cross-client
//! determinism verdict (all clients must receive byte-identical
//! waveform frames).
//!
//! Writes `BENCH_serve.json` at the repo root; the `hit_speedup` rows
//! are gated by `bench_gate` against `baselines/BENCH_serve.json`.

use matex_bench::{secs, Scale, Table};
use matex_core::{MatexSolver, TransientEngine, TransientSpec};
use matex_serve::{
    run_load, serve, EngineOptions, JobSpec, LoadJob, LoadSpec, ScenarioEngine, ServiceOptions,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct DesignRow {
    design: String,
    n: usize,
    jobs: usize,
    cold_s: f64,
    hit_s: f64,
    hit_speedup: f64,
    max_dev: f64,
}

struct ServiceRow {
    clients: usize,
    completed: usize,
    jobs_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    warm_rate: f64,
    deterministic: bool,
}

/// Hand-rolled JSON (the workspace builds offline, without serde). The
/// `service` object precedes `rows` so the gate's row scanner — which
/// starts at `"rows"` — sees only the per-design objects.
fn write_json(scale: Scale, service: &ServiceRow, rows: &[DesignRow]) {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"bench\": \"serve_throughput\",\n  \"scale\": \"{}\",\n",
        match scale {
            Scale::Ci => "ci",
            Scale::Paper => "paper",
        },
    ));
    out.push_str(&format!(
        "  \"service\": {{\"clients\": {}, \"completed\": {}, \"jobs_per_s\": {:.2}, \
         \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"warm_rate\": {:.3}, \"deterministic\": {}}},\n",
        service.clients,
        service.completed,
        service.jobs_per_s,
        service.p50_ms,
        service.p99_ms,
        service.warm_rate,
        service.deterministic,
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"design\": \"{}\", \"n\": {}, \"jobs\": {}, \"cold_s\": {:.6}, \
             \"hit_s\": {:.6}, \"hit_speedup\": {:.2}, \"max_dev\": {:.3e}}}{}\n",
            r.design,
            r.n,
            r.jobs,
            r.cold_s,
            r.hit_s,
            r.hit_speedup,
            r.max_dev,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    match std::fs::write(path, &out) {
        Ok(()) => println!("\nwrote BENCH_serve.json ({} designs)", rows.len()),
        Err(e) => eprintln!("\ncould not write BENCH_serve.json: {e}"),
    }
}

/// The per-circuit scenario fleet: exact repeats alternating with
/// scaled-source scenarios — every one a setup-cache hit after the cold
/// job. (γ overrides deliberately stay out of this fleet: they change
/// the factors, so they are warm at the *symbolic* level, not the setup
/// level — that path is measured by `ablation_gamma` and pinned by the
/// serve proptest instead.)
fn scenario_fleet(base: &JobSpec, jobs: usize) -> Vec<JobSpec> {
    (0..jobs)
        .map(|j| {
            if j % 2 == 0 {
                base.clone()
            } else {
                base.clone().source_scale(0.75 + 0.1 * (j as f64))
            }
        })
        .collect()
}

fn main() {
    let scale = Scale::from_env();
    let (dims, window, dt, warm_jobs) = match scale {
        // Grid sizes chosen so analysis+factorization dominates a cold
        // job while a warm job is pure transient marching.
        Scale::Ci => (vec![28usize, 36], 2e-9, 4e-11, 12usize),
        Scale::Paper => (vec![60, 90], 2e-9, 4e-11, 12),
    };

    println!("\n=== Service layer: cache amortization + TCP throughput ===\n");
    let engine = ScenarioEngine::new(EngineOptions::default());
    let spec = TransientSpec::new(0.0, window, dt).expect("spec");
    let mut table = Table::new(&[
        "Design", "n", "jobs", "cold(s)", "hit(s)", "Spdp", "bitwise",
    ]);
    let mut rows = Vec::new();
    let mut total_jobs = 0usize;
    for (i, &d) in dims.iter().enumerate() {
        let sys = Arc::new(
            matex_circuit::PdnBuilder::new(d, d)
                .num_loads(d * d / 8)
                .num_features(2)
                .window(window)
                .cap_spread(30.0)
                .seed(2000 + i as u64)
                .build()
                .expect("grid builds"),
        );
        let n = sys.dim();
        let base = JobSpec::new(sys.clone(), spec.clone());

        // Cold job: pays the full analysis stack.
        let t0 = Instant::now();
        let cold = engine.run(&base).expect("cold job");
        let cold_s = t0.elapsed().as_secs_f64();
        assert!(!cold.cache.is_warm(), "first job of a structure ran warm");

        // The fleet: every job must hit the setup cache.
        let fleet = scenario_fleet(&base, warm_jobs);
        let mut hit_total = Duration::ZERO;
        let mut max_dev = 0.0_f64;
        for job in &fleet {
            let t0 = Instant::now();
            let out = engine.run(job).expect("fleet job");
            hit_total += t0.elapsed();
            assert!(out.cache.is_warm(), "fleet job missed the setup cache");
            // Bitwise check vs a standalone solver run.
            let standalone = MatexSolver::new(job.effective_options())
                .run(&job.effective_circuit().expect("circuit"), &job.spec)
                .expect("standalone run");
            assert_eq!(
                standalone.series(),
                out.result.series(),
                "cache-hit waveform deviates from standalone"
            );
            let (dev, _) = out.result.error_vs(&standalone).expect("comparable");
            max_dev = max_dev.max(dev);
        }
        let hit_s = hit_total.as_secs_f64() / fleet.len() as f64;
        let hit_speedup = cold_s / hit_s.max(1e-12);
        total_jobs += 1 + fleet.len();
        table.row(vec![
            format!("pg{}s", i + 1),
            format!("{n}"),
            format!("{}", 1 + fleet.len()),
            format!("{cold_s:.4}"),
            format!("{hit_s:.4}"),
            format!("{hit_speedup:.1}X"),
            format!("{max_dev:.1e}"),
        ]);
        rows.push(DesignRow {
            design: format!("pg{}s", i + 1),
            n,
            jobs: 1 + fleet.len(),
            cold_s,
            hit_s,
            hit_speedup,
            max_dev,
        });
    }
    table.print();
    let stats = engine.stats();
    println!(
        "\nengine: {} jobs ({} warm, warm-rate {:.0}%), {} circuits / {} setups cached",
        stats.completed,
        stats.warm_jobs,
        stats.warm_rate() * 100.0,
        stats.cache.circuits,
        stats.cache.setups,
    );
    assert!(total_jobs >= 20, "workload must cover >= 20 jobs");
    assert!(rows.len() >= 2, "workload must cover >= 2 circuits");

    // --- Part 2: the TCP service under 4 concurrent clients.
    println!("\n--- TCP service: 4 concurrent clients, identical sequences ---\n");
    let served = Arc::new(ScenarioEngine::new(EngineOptions {
        executors: 4,
        threads: Some(4),
        ..EngineOptions::default()
    }));
    let handle = serve(served.clone(), &ServiceOptions::default()).expect("service binds");
    let jobs: Vec<LoadJob> = (0..2)
        .flat_map(|g| {
            let dim = dims[g.min(dims.len() - 1)].min(24); // lighter over the wire
            (0..3).map(move |j| {
                let job =
                    LoadJob::pdn(dim, dim, dim * dim / 8, 2, 3000 + g as u64).window(window, dt);
                if j == 0 {
                    job
                } else {
                    job.scaled(0.8 + 0.2 * j as f64)
                }
            })
        })
        .collect();
    let clients = 4;
    let report =
        run_load(&LoadSpec::new(handle.addr().to_string(), clients, jobs)).expect("load run");
    let served_stats = served.stats();
    let service_row = ServiceRow {
        clients,
        completed: report.completed,
        jobs_per_s: report.jobs_per_s,
        p50_ms: report.p50.as_secs_f64() * 1e3,
        p99_ms: report.p99.as_secs_f64() * 1e3,
        warm_rate: served_stats.warm_rate(),
        deterministic: report.deterministic,
    };
    println!(
        "clients {}  jobs {}  wall {}s  {:.1} jobs/s  p50 {:.1}ms  p99 {:.1}ms",
        clients,
        report.completed,
        secs(report.wall),
        report.jobs_per_s,
        service_row.p50_ms,
        service_row.p99_ms,
    );
    println!(
        "warm-rate {:.0}%  deterministic across clients: {}",
        service_row.warm_rate * 100.0,
        report.deterministic,
    );
    assert_eq!(report.failed, 0, "load jobs failed");
    assert!(
        report.deterministic,
        "clients received different waveform bytes"
    );
    handle.stop();

    write_json(scale, &service_row, &rows);
    println!("\nshape check: cache-hit jobs >= 2X faster than cold jobs on every");
    println!("design (a hit skips symbolic analysis, factorization, DC, and");
    println!("scheduling — only the numeric march remains).");
}
