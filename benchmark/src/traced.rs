//! The traced run: the workload's first circuit taken through every
//! layer inside harness spans — the workload's own pass at half its
//! untraced job count, the others once or twice.
//!
//! Every workload reports every listed layer metric because the
//! benchmark driver's contract says so ("with `--trace 1` the metrics
//! are every `per_layer` metric") and refuses a time that reads the same
//! on every run, so a layer a workload bypasses is measured on its
//! circuit rather than reported as a constant 0.

use crate::inputs::{derive, grid_seed};
use crate::ledger::{
    dist_values, hit_path_probe, kernel_probes, makespan_run, mono_values, obs_probe, per_call_us,
    store_probe, traced_dist_job, traced_mono_job, Prepared,
};
use crate::report::{RunResult, Value};
use crate::serve::{
    inprocess_ms, measure, phase_values, probe_traffic, record_job_spans, session_values, traffic,
    verify, Service, JOBS_PER_CLIENT,
};
use crate::solver::{jobs_for, mono_job, result_hash, shape, Fixture};
use crate::stats::median;
use crate::trace::Tracer;
use matex_core::{MatexOptions, MatexSymbolic};
use matex_serve::parse_flat_json;
use std::path::Path;
use std::time::Instant;

/// Runs the traced pass of `workload` and returns its values with the
/// span recording behind them.
///
/// # Errors
///
/// Set-up or probe failures. A wrong waveform is counted, not fatal.
pub fn run_traced(
    workload: &str,
    seed: u64,
    seconds: f64,
    scratch: &Path,
) -> Result<(RunResult, Tracer), String> {
    let mut out = RunResult::default();
    let tr = Tracer::new();

    // The subject — the workload's first circuit, as a fixture — and
    // how often each kind of job runs: the workload's own kind half as
    // often as in its untraced run, the others as little as a median
    // takes.
    let (fx, mono_pairs, dist_jobs, served, grid) = match shape(workload) {
        Some(sh) => {
            let fx = Fixture::for_shape(&sh, grid_seed(seed, workload, 0))?;
            let own = jobs_for(sh.jobs, 15, seconds) / 2;
            let (mono, dist) = if sh.distributed { (2, own) } else { (own, 1) };
            (fx, mono, dist, None, sh.n)
        }
        None => {
            let per_client = jobs_for(JOBS_PER_CLIENT, 160, seconds) / 2;
            let w = traffic(workload, seed, per_client, scratch)?;
            let fx = Fixture::new(&w.first.builder(), w.traffic.plan.spec.clone())?;
            (fx, 2, 1, Some(w.traffic), w.first.n)
        }
    };
    // The grid's own nodes come first and all carry a ground cap.
    let cap_row = derive(seed, "probe_cap", 0) as usize % (grid * grid);

    // Plain one-shot jobs — what every ratio below is taken against, and
    // the expected bits of every traced variant — alternate with the
    // same job cut at the layer boundaries, so that a drifting host
    // slows both sides of `core.coverage` alike.
    let symbolic =
        MatexSymbolic::analyze(&fx.sys, &MatexOptions::default()).map_err(|e| e.to_string())?;
    // How the workload's own jobs reach `MatexSetup::prepare`: without
    // a shared analysis on the monolithic workloads only.
    let shared = (served.is_some() || dist_jobs > 1).then_some(&symbolic);
    let mut expected = None;
    let mut last = None;
    let mut wrong = 0u64;
    let (mut plain, mut coverage) = (Vec::new(), Vec::new());
    for k in 0..mono_pairs {
        let t0 = Instant::now();
        let p = mono_job(&fx.text, &fx.spec).map_err(|e| format!("plain job: {e}"))?;
        plain.push(t0.elapsed().as_secs_f64() * 1e3);
        let plain_bits = result_hash(&p);
        let want = *expected.get_or_insert(plain_bits);
        let (r, traced_ms) = traced_mono_job(&tr, &fx, shared, k as u64)?;
        coverage.push(traced_ms / plain[k]);
        wrong += u64::from(plain_bits != want) + u64::from(result_hash(&r) != want);
        last = Some(r);
    }
    let last = last.expect("at least two traced jobs ran");
    out.values.extend(mono_values(&tr, &fx, &last, &coverage));
    let mut attempted = 2 * mono_pairs as u64;

    // The distributed job.
    let mut runs = Vec::new();
    for k in 0..dist_jobs {
        let run = traced_dist_job(&tr, &fx, 10_000 + k as u64)?;
        // Superposition reorders the sums: equal to rounding, not bitwise.
        let dev = run.result.error_vs(&last).map_err(|e| e.to_string())?.0;
        wrong += u64::from(dev > 1e-5);
        runs.push(run);
    }
    attempted += runs.len() as u64;
    let makespan = makespan_run(&fx)?;
    out.values
        .extend(dist_values(&tr, &runs, &makespan, &plain));

    // The kernel layers, the store, the engine's hit paths, the
    // program's own recorder.
    let prep = Prepared::new(&fx)?;
    out.values.extend(kernel_probes(&tr, &fx, &prep, cap_row)?);
    out.values
        .extend(store_probe(&tr, &fx, &prep, &symbolic, scratch)?);
    out.values
        .extend(hit_path_probe(&tr, &fx, cap_row, scratch)?);
    let march_ms = median(&tr.durations_ms("core.march"));
    out.values.extend(obs_probe(&fx, &prep, march_ms, 30)?);

    // The service: the workload itself when it is a serve workload,
    // else the circuit shipped as a netlist through a short session.
    let own_serve = served.is_some();
    let t = match served {
        Some(t) => t,
        None => probe_traffic(&fx, seed, 4)?,
    };
    t.plan.clear_store()?;
    let keep = t.plan.store_dir.is_some();
    let m = measure(&t, Service::start(&t.plan)?, keep)?;
    for (j, d) in m.done.iter().enumerate() {
        record_job_spans(&tr, d, 20_000 + j as u64);
    }
    wrong += verify(&t.plan, &m.done)? + m.failures.len() as u64;
    attempted += (m.done.len() + m.failures.len()) as u64;
    // What the wire adds, like for like. A serve workload replays each
    // client's first jobs through in-process `ScenarioEngine::run` and
    // compares exactly those jobs' TCP times; the short session of a
    // solver workload sends cache-hit variants only, which the hit-path
    // probe above already ran in-process.
    let per_client = 40;
    let inproc = if own_serve {
        inprocess_ms(&t, per_client, scratch)?
    } else {
        tr.durations_ms("serve.engine_job.cache")
    };
    let mut seen = vec![0usize; t.scripts.len()];
    let tcp: Vec<f64> = m
        .done
        .iter()
        .filter(|d| d.phase == t.phases[0])
        .filter(|d| {
            seen[d.client] += 1;
            seen[d.client] <= per_client
        })
        .map(|d| d.times.total_ms())
        .collect();
    out.values.extend(session_values(&m, &tcp, &inproc));
    let line = t.plan.submit_line(&t.scripts[0][0]);
    let parse_us = per_call_us(|| {
        std::hint::black_box(parse_flat_json(&line).is_ok());
    });
    out.push(Value::median_of("serve.json_parse_us", &parse_us, "us"));
    // A multi-phase workload also gets its per-phase medians and
    // counters (printed, not listed: they exist on one workload only).
    out.values.extend(phase_values(&m));
    if t.phases.len() > 1 {
        for (phase, c) in m.counters.iter().take(t.phases.len()) {
            for key in [
                "setup_misses",
                "store_hits",
                "store_writes",
                "evictions",
                "whatif_hits",
            ] {
                let v = c.get(key).copied().unwrap_or(0.0);
                out.push(Value::scalar(&format!("serve.{phase}.{key}"), v, "count"));
            }
        }
    }

    out.attempted = attempted;
    out.failed = wrong.min(attempted);
    out.push(Value::scalar(
        "fail_share.traced",
        out.fail_share(),
        "ratio",
    ));
    // What each kind of job spent outside the spans it caused: the part
    // of the whole the ledger does not name.
    for root in ["job.mono", "job.dist", "job.serve"] {
        out.push(Value::median_of(
            &format!("trace.self_ms.{root}"),
            &tr.self_times_ms(root),
            "ms",
        ));
    }
    out.push(Value::scalar("trace.spans", tr.closed() as f64, "count"));
    out.note(format!(
        "traced: plain_jobs={} plain_p50_ms={} mono_jobs={} dist_jobs={} serve_jobs={}",
        plain.len(),
        median(&plain),
        mono_pairs,
        runs.len(),
        m.done.len()
    ));
    Ok((out, tr))
}
