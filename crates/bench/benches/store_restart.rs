//! **Artifact store restart** — cold analysis vs a store-hydrated
//! restart, plus the binary wire encoding's byte saving.
//!
//! The fleet scenario the store exists for: a service computes a
//! design's expensive artifacts (symbolic LU, numeric setup, DC
//! operating point) once, persists them, and is then restarted — or a
//! new engine joins pointed at the same directory. Two paths are timed
//! per design:
//!
//! * **cold** — a fresh engine over an empty store: symbolic analysis +
//!   factorization + DC + schedules + march (and the store write-back).
//! * **restart** — a *different* engine process-equivalent opened over
//!   the populated store: every artifact hydrates from disk, so only
//!   decode + the numeric march remain.
//!
//! Tracks `restart_speedup = cold_s / restart_s` (expected ≥ 2.5X) and
//! asserts the restarted waveform is **bitwise** identical to the run
//! that populated the store — persistence must not perturb a single
//! bit. The restart run must skip all symbolic analyses and setup
//! builds (`setup_misses == symbolic_misses == 0`).
//!
//! The same waveform is then framed both ways the TCP service can
//! stream it — protocol-v1 JSON text lines and protocol-v2 binary
//! [`WaveFrame`] records — and `bytes_ratio = json_bytes / binary_bytes`
//! (expected ≥ 2X) records the binary encoding's wire saving.
//!
//! Writes `BENCH_store.json` at the repo root; the `restart_speedup`
//! and `bytes_ratio` rows are gated by `bench_gate` against
//! `baselines/BENCH_store.json`.

use matex_bench::{Scale, Table};
use matex_core::TransientSpec;
use matex_serve::{EngineOptions, JobSpec, ScenarioEngine};
use matex_store::ArtifactStore;
use matex_waveform::WaveFrame;
use std::sync::Arc;
use std::time::Instant;

struct Row {
    design: String,
    n: usize,
    cold_s: f64,
    restart_s: f64,
    restart_speedup: f64,
    json_bytes: usize,
    binary_bytes: usize,
    bytes_ratio: f64,
}

/// Hand-rolled JSON (the workspace builds offline, without serde). The
/// `store` summary object precedes `rows` so the gate's row scanner —
/// which starts at `"rows"` — sees only the per-design objects.
fn write_json(scale: Scale, writes: u64, hits: u64, bitwise: bool, rows: &[Row]) {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"bench\": \"store_restart\",\n  \"scale\": \"{}\",\n",
        match scale {
            Scale::Ci => "ci",
            Scale::Paper => "paper",
        },
    ));
    out.push_str(&format!(
        "  \"store\": {{\"writes\": {writes}, \"hits\": {hits}, \"bitwise\": {bitwise}}},\n",
    ));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"design\": \"{}\", \"n\": {}, \"cold_s\": {:.6}, \"restart_s\": {:.6}, \
             \"restart_speedup\": {:.2}, \"json_bytes\": {}, \"binary_bytes\": {}, \
             \"bytes_ratio\": {:.2}}}{}\n",
            r.design,
            r.n,
            r.cold_s,
            r.restart_s,
            r.restart_speedup,
            r.json_bytes,
            r.binary_bytes,
            r.bytes_ratio,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_store.json");
    match std::fs::write(path, &out) {
        Ok(()) => println!("\nwrote BENCH_store.json ({} designs)", rows.len()),
        Err(e) => eprintln!("\ncould not write BENCH_store.json: {e}"),
    }
}

/// Frames the waveform exactly as the service streams it in each
/// encoding; returns `(json_bytes, binary_bytes)` for the whole run.
fn wire_bytes(times: &[f64], series: &[Vec<f64>], chunk: usize) -> (usize, usize) {
    let frames = times.len().div_ceil(chunk);
    let mut json = 0usize;
    let mut binary = 0usize;
    for f in 0..frames {
        let start = f * chunk;
        let end = (start + chunk).min(times.len());
        let mut line = format!(
            "{{\"ok\": true, \"frame\": {f}, \"start\": {start}, \"count\": {}, \"times\": [",
            end - start,
        );
        for (i, v) in times[start..end].iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!("{v:e}"));
        }
        line.push_str("], \"series\": [");
        for (k, s) in series.iter().enumerate() {
            if k > 0 {
                line.push(',');
            }
            line.push('[');
            for (i, v) in s[start..end].iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push_str(&format!("{v:e}"));
            }
            line.push(']');
        }
        line.push_str("]}\n");
        json += line.len();

        let wf = WaveFrame {
            frame: f as u64,
            start: start as u64,
            times: times[start..end].to_vec(),
            series: series.iter().map(|s| s[start..end].to_vec()).collect(),
        };
        binary += wf.encode().len();
    }
    (json, binary)
}

fn main() {
    let scale = Scale::from_env();
    let (dims, window, dt) = match scale {
        // Grids where analysis + factorization dominate one march, so
        // the ratio measures what the store actually skips — the fleet
        // restart workload is "same designs, new process", not a fresh
        // sweep of never-seen structures.
        Scale::Ci => (vec![64usize, 72], 5e-10, 4e-11),
        Scale::Paper => (vec![60, 90], 5e-10, 4e-11),
    };

    println!("\n=== Artifact store: cold vs store-hydrated restart ===\n");
    let spec = TransientSpec::new(0.0, window, dt).expect("spec");
    let mut table = Table::new(&[
        "Design",
        "n",
        "cold(s)",
        "restart(s)",
        "Spdp",
        "json(B)",
        "bin(B)",
        "ratio",
    ]);
    let mut rows = Vec::new();
    let mut total_writes = 0u64;
    let mut total_hits = 0u64;
    let mut bitwise = true;
    let stamp = std::process::id();
    for (i, &d) in dims.iter().enumerate() {
        let sys = Arc::new(
            matex_circuit::PdnBuilder::new(d, d)
                .num_loads(d * d / 16)
                .num_features(2)
                .window(window)
                .cap_spread(30.0)
                .seed(5000 + i as u64)
                .build()
                .expect("grid builds"),
        );
        let n = sys.dim();
        let job = JobSpec::new(sys, spec.clone());

        let dir = std::env::temp_dir().join(format!("matex-bench-store-{stamp}-{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ArtifactStore::open(&dir).expect("store opens"));

        // Engine A pays the full cold path and populates the store.
        let cold_engine = ScenarioEngine::new(EngineOptions {
            store: Some(store.clone()),
            ..EngineOptions::default()
        });
        let t0 = Instant::now();
        let cold = cold_engine.run(&job).expect("cold job");
        let cold_s = t0.elapsed().as_secs_f64();
        let cold_stats = cold_engine.stats();
        assert!(cold_stats.store_writes > 0, "cold run persisted nothing");
        total_writes += cold_stats.store_writes;
        drop(cold_engine);

        // Engine B is the restart: a fresh engine over the populated
        // directory. Everything expensive must hydrate from disk.
        let warm_engine = ScenarioEngine::new(EngineOptions {
            store: Some(store.clone()),
            ..EngineOptions::default()
        });
        let t0 = Instant::now();
        let warm = warm_engine.run(&job).expect("restart job");
        let restart_s = t0.elapsed().as_secs_f64();
        let warm_stats = warm_engine.stats();
        assert!(warm.cache.is_warm(), "restart did not run warm");
        assert_eq!(warm_stats.setup_misses, 0, "restart rebuilt a setup");
        assert_eq!(
            warm_stats.symbolic_misses, 0,
            "restart re-ran a symbolic analysis"
        );
        assert!(warm_stats.store_hits > 0, "restart never touched the store");
        total_hits += warm_stats.store_hits;
        bitwise &= warm.result.series() == cold.result.series();
        assert!(bitwise, "store round-trip perturbed the waveform");

        let restart_speedup = cold_s / restart_s.max(1e-12);
        let (json_bytes, binary_bytes) = wire_bytes(warm.result.times(), warm.result.series(), 25);
        let bytes_ratio = json_bytes as f64 / (binary_bytes as f64).max(1.0);
        table.row(vec![
            format!("pg{}r", i + 1),
            format!("{n}"),
            format!("{cold_s:.4}"),
            format!("{restart_s:.4}"),
            format!("{restart_speedup:.1}X"),
            format!("{json_bytes}"),
            format!("{binary_bytes}"),
            format!("{bytes_ratio:.2}X"),
        ]);
        rows.push(Row {
            design: format!("pg{}r", i + 1),
            n,
            cold_s,
            restart_s,
            restart_speedup,
            json_bytes,
            binary_bytes,
            bytes_ratio,
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    table.print();
    println!("\nstore writes {total_writes}  restart hits {total_hits}  bitwise: {bitwise}");

    write_json(scale, total_writes, total_hits, bitwise, &rows);
    println!("\nshape check: the restart run skips the symbolic analysis, the");
    println!("numeric factorization, and the DC solve — only store decode and the");
    println!("march remain, so restart(s) sits well below cold(s); and the binary");
    println!("frame encoding carries each f64 in 8 bytes instead of its ~18-byte");
    println!("round-trip decimal, so json/binary stays comfortably above 2X.");
}
