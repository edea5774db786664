//! **Parallel Krylov kernels** — Arnoldi generation at pool widths 1/2/4.
//!
//! Measures the intra-node hot path the TPDAA journal version of MATEX
//! parallelizes: one Krylov-subspace generation (rational operator
//! applies — `C` mat-vec plus a substitution pair against `LU(C + γG)` —
//! and the fused CGS2 orthogonalization) on the `pg_suite` grids. One
//! code path, three widths per design:
//!
//! * `par(1)` — the one-thread pool, which is also what a run without a
//!   pool (`MATEX_THREADS` unset) executes: the baseline;
//! * `par(2)` / `par(4)` — the same kernels on wider pools. The bench
//!   **asserts** these are bitwise-identical to `par(1)`.
//!
//! Writes `BENCH_par.json` at the repo root (`speedup4 = par1 / par4`),
//! annotated with the host's available parallelism: on a single-core CI
//! runner the wide-pool rows
//! measure pure dispatch overhead (speedup ≤ 1 is expected there — the
//! kernels can't beat physics), so this bench is reported, not gated.

use matex_bench::{pg_suite, secs, Scale, Table};
use matex_krylov::{Arnoldi, KrylovOp, RationalOp};
use matex_par::ParPool;
use matex_sparse::{CsrMatrix, LuOptions, SparseLu};
use std::time::{Duration, Instant};

const GAMMA: f64 = 1e-10;
/// Arnoldi steps per measured generation (a stiff-grid R-MATEX node
/// rebuilds subspaces of this order at every transition spot).
const M_STEPS: usize = 40;
const REPS: usize = 3;

struct JsonRow {
    design: String,
    n: usize,
    nnz: usize,
    par1_s: f64,
    par2_s: f64,
    par4_s: f64,
    speedup4: f64,
}

/// Hand-rolled JSON (the workspace builds offline, without serde).
fn write_json(scale: Scale, host_threads: usize, rows: &[JsonRow]) {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"bench\": \"arnoldi_par\",\n  \"scale\": \"{}\",\n  \"m_steps\": {},\n  \
         \"host_threads\": {},\n  \"rows\": [\n",
        match scale {
            Scale::Ci => "ci",
            Scale::Paper => "paper",
        },
        M_STEPS,
        host_threads,
    ));
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"design\": \"{}\", \"n\": {}, \"nnz\": {}, \
             \"par1_s\": {:.6}, \"par2_s\": {:.6}, \"par4_s\": {:.6}, \"speedup4\": {:.2}}}{}\n",
            r.design,
            r.n,
            r.nnz,
            r.par1_s,
            r.par2_s,
            r.par4_s,
            r.speedup4,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_par.json");
    match std::fs::write(path, &out) {
        Ok(()) => println!("\nwrote BENCH_par.json ({} designs)", rows.len()),
        Err(e) => eprintln!("\ncould not write BENCH_par.json: {e}"),
    }
}

/// Minimum wall time of `f` over `REPS` runs.
fn best_of<T>(mut f: impl FnMut() -> T) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let out = f();
        best = best.min(t0.elapsed());
        std::hint::black_box(&out);
    }
    best
}

/// One full Krylov generation; returns the last basis vector as the
/// bitwise-comparison witness (it transitively depends on every kernel
/// invocation of the run).
fn generate(op: &dyn KrylovOp, v: &[f64]) -> Vec<f64> {
    let mut ar = Arnoldi::new(op, v, true).expect("nonzero start vector");
    for _ in 0..M_STEPS {
        ar.step().expect("finite Arnoldi step");
    }
    let m = ar.m();
    ar.basis(m + usize::from(!ar.broke_down()))
        .last()
        .expect("basis nonempty")
        .clone()
}

fn main() {
    let scale = Scale::from_env();
    let host_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("\n=== Parallel Krylov kernels: Arnoldi at pool widths 1/2/4 ({M_STEPS} steps) ===");
    println!("host parallelism: {host_threads} thread(s)\n");
    let mut table = Table::new(&[
        "Design", "n", "nnz", "par1(s)", "par2(s)", "par4(s)", "Spdp4",
    ]);
    let mut json_rows = Vec::new();
    for case in pg_suite(scale) {
        let sys = case.build().expect("grid builds");
        let shifted =
            CsrMatrix::linear_combination(1.0, sys.c(), GAMMA, sys.g()).expect("same shape");
        let lu = SparseLu::factor(&shifted, &LuOptions::default()).expect("factor");
        let n = shifted.nrows();
        let v: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();

        // Correctness first: the pooled path must be bitwise-invariant
        // in the pool width.
        let pools: Vec<ParPool> = [1usize, 2, 4].iter().map(|&t| ParPool::new(t)).collect();
        let witness: Vec<Vec<f64>> = pools
            .iter()
            .map(|pool| {
                generate(
                    &RationalOp::new(&lu, sys.c(), GAMMA).with_parallelism(pool),
                    &v,
                )
            })
            .collect();
        for (k, w) in witness.iter().enumerate().skip(1) {
            assert!(
                witness[0]
                    .iter()
                    .zip(w)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "[{}] pool width {} diverged from width 1",
                case.name,
                pools[k].threads(),
            );
        }
        // Timings.
        let pooled_t: Vec<Duration> = pools
            .iter()
            .map(|pool| {
                best_of(|| {
                    generate(
                        &RationalOp::new(&lu, sys.c(), GAMMA).with_parallelism(pool),
                        &v,
                    )
                })
            })
            .collect();
        let speedup4 = pooled_t[0].as_secs_f64() / pooled_t[2].as_secs_f64().max(1e-12);
        table.row(vec![
            case.name.clone(),
            format!("{n}"),
            format!("{}", shifted.nnz()),
            secs(pooled_t[0]),
            secs(pooled_t[1]),
            secs(pooled_t[2]),
            format!("{speedup4:.1}X"),
        ]);
        json_rows.push(JsonRow {
            design: case.name.clone(),
            n,
            nnz: shifted.nnz(),
            par1_s: pooled_t[0].as_secs_f64(),
            par2_s: pooled_t[1].as_secs_f64(),
            par4_s: pooled_t[2].as_secs_f64(),
            speedup4,
        });
    }
    table.print();
    write_json(scale, host_threads, &json_rows);
    println!("\nshape check: with ≥ 4 physical cores the Krylov phase runs ≥ 1.5X faster");
    println!("at 4 threads (bitwise-identical waveforms); on a {host_threads}-thread host the");
    println!("wide-pool rows measure dispatch overhead only.");
}
