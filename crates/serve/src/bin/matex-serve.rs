//! The `matex-serve` binary: run the TCP job service, or load-test one.
//!
//! ```text
//! matex-serve serve [--addr 127.0.0.1:7171] [--threads N] [--executors N]
//!                   [--store-dir PATH] [--obs]
//! matex-serve load  --addr HOST:PORT [--clients 4] [--jobs 5] [--grids 2]
//!                   [--mode scale|whatif|burst|heavytail|slowreader]
//!                   [--deadline-ms MS] [--frame-delay-ms MS]
//!                   [--trace-out PATH]
//! ```
//!
//! `serve` prints `listening on <addr>` once bound (port 0 picks a free
//! port) and runs until killed. `--threads` is the thread count the
//! engine's job table leases and `--executors` the threads that start
//! queued jobs: a job starts once it heads the one admission queue and
//! its threads fit — one for a monolithic job, one per worker for a
//! distributed job, since kernels always run inline. `--store-dir` opens (or creates) a
//! disk-backed artifact store there: computed symbolic analyses,
//! setups, DC solutions, and group plans persist across restarts, so a
//! relaunched service serves its first jobs warm — bitwise identical to
//! the run that populated the store. `load` drives `--clients`
//! concurrent connections through `--jobs` repetitions over `--grids`
//! distinct synthetic PDN circuits and prints throughput, latency
//! percentiles, rejection rate, stream bytes on the wire, and the
//! cross-client determinism verdict. Modes:
//!
//! * `scale` — each grid's sequence is a base job plus source-scale
//!   variants (the cache-friendly fleet workload).
//! * `whatif` — the variants are small cap edits served by low-rank
//!   correction of the cached base; the what-if hit rate is printed.
//! * `burst` — adversarial overload: every client rendezvouses before
//!   each submit so waves hit the admission queue simultaneously.
//!   Combine with `--deadline-ms` to watch admission shed the excess
//!   (rejections are reported, not failures).
//! * `heavytail` — a Pareto-ish job-size mix (mostly small grids, a
//!   few much larger ones from the `pdn_*` parameters), the workload
//!   where one elephant job can wreck everyone's p99.
//! * `slowreader` — clients drain stream frames slowly
//!   (`--frame-delay-ms` per frame), exercising the service's
//!   slow-peer write-timeout defenses.
//!
//! `serve --obs` turns on the engine's observability recorder: the
//! `metrics` verb then serves a live Prometheus page (job latency
//! histograms split by cache-hit path, solver phase timings, admission
//! counters) and the `trace` verb a Chrome-trace timeline. `load
//! --trace-out PATH` enables client-side recording too and writes the
//! merged trace (client job spans + server queue/solve phases) to
//! `PATH` — open it in `chrome://tracing` or <https://ui.perfetto.dev>
//! to read each job's T_H/T_e/factorization split next to the latency
//! the client observed; client latency quantiles are also printed.

use matex_serve::{
    run_load, serve, EngineOptions, LoadJob, LoadMode, LoadSpec, ScenarioEngine, ServiceOptions,
};
use matex_store::ArtifactStore;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("serve") => cmd_serve(args),
        Some("load") => cmd_load(args),
        _ => {
            eprintln!(
                "usage: matex-serve <serve|load> [options]   (see --help in the module docs)"
            );
            ExitCode::from(2)
        }
    }
}

fn take(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| panic!("{flag} requires a value"))
}

fn cmd_serve(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut addr = "127.0.0.1:7171".to_string();
    let mut opts = EngineOptions::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = take(&mut args, "--addr"),
            "--threads" => {
                opts.threads = Some(take(&mut args, "--threads").parse().expect("--threads N"))
            }
            "--executors" => {
                opts.executors = take(&mut args, "--executors")
                    .parse()
                    .expect("--executors N")
            }
            "--store-dir" => {
                let dir = take(&mut args, "--store-dir");
                match ArtifactStore::open(&dir) {
                    Ok(store) => opts.store = Some(Arc::new(store)),
                    Err(e) => {
                        eprintln!("matex-serve: cannot open store {dir}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--obs" => opts.obs = matex_obs::Obs::enabled(),
            other => {
                eprintln!("unknown serve argument {other}");
                return ExitCode::from(2);
            }
        }
    }
    let engine = Arc::new(ScenarioEngine::new(opts));
    let handle = match serve(engine, &ServiceOptions::builder().addr(addr).build()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("matex-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", handle.addr());
    // Serve until killed.
    loop {
        std::thread::park();
    }
}

fn cmd_load(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut addr = None;
    let mut clients = 4usize;
    let mut jobs_per_grid = 5usize;
    let mut grids = 2usize;
    let mut mode = "scale".to_string();
    let mut deadline_ms: Option<f64> = None;
    let mut frame_delay_ms = 5.0f64;
    let mut retries = 0usize;
    let mut trace_out: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = Some(take(&mut args, "--addr")),
            "--clients" => clients = take(&mut args, "--clients").parse().expect("--clients N"),
            "--retries" => retries = take(&mut args, "--retries").parse().expect("--retries N"),
            "--jobs" => jobs_per_grid = take(&mut args, "--jobs").parse().expect("--jobs N"),
            "--grids" => grids = take(&mut args, "--grids").parse().expect("--grids N"),
            "--mode" => mode = take(&mut args, "--mode"),
            "--deadline-ms" => {
                deadline_ms = Some(
                    take(&mut args, "--deadline-ms")
                        .parse()
                        .expect("--deadline-ms MS"),
                )
            }
            "--frame-delay-ms" => {
                frame_delay_ms = take(&mut args, "--frame-delay-ms")
                    .parse()
                    .expect("--frame-delay-ms MS")
            }
            "--trace-out" => trace_out = Some(take(&mut args, "--trace-out")),
            other => {
                eprintln!("unknown load argument {other}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("load requires --addr HOST:PORT");
        return ExitCode::from(2);
    };
    if !["scale", "whatif", "burst", "heavytail", "slowreader"].contains(&mode.as_str()) {
        eprintln!("--mode must be scale, whatif, burst, heavytail, or slowreader, got {mode:?}");
        return ExitCode::from(2);
    }
    // `grids` distinct structures, `jobs_per_grid` scenario variations
    // each — the repeated-structure workload the cache exists for. In
    // whatif mode, the variations are small cap edits instead of source
    // scales: same pattern, few changed matrix values, so the engine
    // serves them by low-rank correction of the base factorization. In
    // heavytail mode the sizes themselves are the adversary: mostly
    // small grids with sparse much-larger elephants (a Pareto-ish mix
    // over the pdn_* parameters).
    let mut jobs = Vec::new();
    if mode == "heavytail" {
        let total = (grids.max(1) * jobs_per_grid.max(1)).max(1);
        for i in 0..total {
            // ~80% small, ~15% medium, ~5% elephants — deterministic.
            let dim = match i % 20 {
                19 => 20,
                15..=18 => 12,
                _ => 6,
            };
            let job = LoadJob::pdn(dim, dim, dim * dim / 8, 3, 100 + (i % grids.max(1)) as u64);
            jobs.push(if i % 4 == 0 {
                job
            } else {
                job.scaled(0.75 + 0.125 * (i % 4) as f64)
            });
        }
    } else {
        for g in 0..grids.max(1) {
            let dim = 6 + 2 * g;
            for j in 0..jobs_per_grid.max(1) {
                let job = LoadJob::pdn(dim, dim, 8 + 2 * g, 3, 100 + g as u64);
                jobs.push(if j == 0 {
                    job
                } else if mode == "whatif" {
                    job.cap_scaled(2 + j, 1.0 + 0.5 * j as f64)
                } else {
                    job.scaled(0.75 + 0.125 * j as f64)
                });
            }
        }
    }
    if let Some(ms) = deadline_ms {
        jobs = jobs.into_iter().map(|j| j.deadline_ms(ms)).collect();
    }
    let load_mode = match mode.as_str() {
        "burst" => LoadMode::Burst,
        "slowreader" => LoadMode::SlowReader {
            frame_delay: Duration::from_secs_f64(frame_delay_ms.max(0.0) / 1e3),
        },
        _ => LoadMode::Steady,
    };
    // --trace-out implies client-side recording: the report then
    // carries the merged client+server Chrome trace to dump.
    let client_obs = if trace_out.is_some() {
        matex_obs::Obs::enabled()
    } else {
        matex_obs::Obs::disabled()
    };
    match run_load(
        &LoadSpec::new(addr, clients, jobs)
            .mode(load_mode)
            .retries(retries)
            .obs(client_obs.clone()),
    ) {
        Ok(r) => {
            println!(
                "clients {clients}  jobs {}  failed {}  rejected {} ({:.0}%)  wall {:.3}s  {:.1} jobs/s",
                r.completed,
                r.failed,
                r.rejected,
                r.rejection_rate() * 1e2,
                r.wall.as_secs_f64(),
                r.jobs_per_s
            );
            println!(
                "latency p50 {:.1}ms  p99 {:.1}ms  deterministic: {}",
                r.p50.as_secs_f64() * 1e3,
                r.p99.as_secs_f64() * 1e3,
                r.deterministic
            );
            if r.retries > 0 || r.reconnects > 0 {
                println!("retries {}  reconnects {}", r.retries, r.reconnects);
            }
            println!("stream bytes {}", r.stream_bytes);
            if mode == "whatif" {
                println!("whatif hits {}  rate {:.2}", r.whatif_hits, r.whatif_rate());
            }
            if client_obs.is_enabled() {
                let (p50, p90, p99) = client_obs.quantiles("loadgen_job_seconds");
                println!(
                    "client histogram p50 {:.1}ms  p90 {:.1}ms  p99 {:.1}ms",
                    p50 * 1e3,
                    p90 * 1e3,
                    p99 * 1e3
                );
            }
            if let (Some(path), Some(trace)) = (&trace_out, &r.trace_json) {
                match std::fs::write(path, trace) {
                    Ok(()) => println!("merged trace written to {path}"),
                    Err(e) => {
                        eprintln!("matex-serve load: cannot write {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            // Rejections are shed load — expected under overload, not a
            // failure of the run.
            if r.deterministic && r.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("matex-serve load: {e}");
            ExitCode::FAILURE
        }
    }
}
