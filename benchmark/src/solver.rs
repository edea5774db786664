//! The three solver workloads, run the way a user runs them: SPICE text
//! in, waveform out, tracing off.

use crate::inputs::{check_fixture, emit_spice, grid_seed, rlc_grid};
use crate::report::{RunResult, Value};
use matex_circuit::{parse_netlist, MnaSystem, PdnBuilder};
use matex_core::{
    reference_solution, MatexOptions, MatexSolver, ReferenceMethod, TransientEngine,
    TransientResult, TransientSpec,
};
use matex_dist::{run_distributed, DistributedOptions};
use matex_waveform::Fnv64;
use std::sync::Arc;
use std::time::Instant;

/// Parallel width used everywhere: clients, executors, engine threads,
/// distributed workers.
pub const WIDTH: usize = 2;

/// Size and sampling of a solver workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Grid side.
    pub n: usize,
    /// Current loads.
    pub loads: usize,
    /// Bump features (groups − 1 under `ByBumpFeature`).
    pub features: usize,
    /// Output samples over the 10 ns window.
    pub samples: usize,
    /// Every `row_step`-th node row is observed.
    pub row_step: usize,
    /// Trapezoidal steps per output sample of the accuracy reference.
    pub ref_steps: usize,
    /// Measured jobs of a run at [`NOMINAL_SECONDS`]: fixed, so that two
    /// commits do the same work and read the same tail percentile.
    pub jobs: usize,
    /// Distributed (`run_distributed`, 2 workers) rather than monolithic.
    pub distributed: bool,
}

/// The shape of a solver workload, `None` for the serve workloads.
///
/// `march_dense` samples twenty times more densely than the other two,
/// so four reference steps per sample already put its reference step
/// (1.25 ps) under the 5 ps theirs use.
pub fn shape(workload: &str) -> Option<Shape> {
    let s = |n, loads, features, samples, row_step, ref_steps, jobs, distributed| Shape {
        n,
        loads,
        features,
        samples,
        row_step,
        ref_steps,
        jobs,
        distributed,
    };
    // Job counts: about ten seconds of work on the seed commit, except
    // `cold_factor`, whose 21 one-second jobs are the fewest that support
    // a tail past the median.
    match workload {
        "cold_factor" => Some(s(80, 1600, 8, 100, 11, 20, 21, false)),
        "march_dense" => Some(s(40, 800, 64, 2000, 1, 4, 36, false)),
        "dist_pg" => Some(s(60, 900, 8, 100, 11, 20, 24, true)),
        _ => None,
    }
}

/// The run length the workloads' job counts are sized for: `run_seconds`
/// of `BENCHMARK.json`.
pub const NOMINAL_SECONDS: f64 = 10.0;

/// The number of jobs a run of `seconds` measures: the workload's fixed
/// count scaled with the run length, never below `floor` (15 solver
/// runs, 320 served jobs).
pub fn jobs_for(nominal: usize, floor: usize, seconds: f64) -> usize {
    ((nominal as f64 * seconds / NOMINAL_SECONDS).round() as usize).max(floor)
}

/// One circuit ready to be submitted: the assembled system, its SPICE
/// text (checked to parse back to the same fingerprints) and the
/// analysis window.
#[derive(Debug, Clone)]
pub struct Fixture {
    /// The system as the builder assembled it.
    pub sys: Arc<MnaSystem>,
    /// The emitted netlist.
    pub text: String,
    /// Window, sampling and observed rows.
    pub spec: TransientSpec,
}

impl Fixture {
    /// Builds, emits and round-trip-checks one circuit.
    ///
    /// # Errors
    ///
    /// Build failures, or an emitted netlist that does not parse back to
    /// the built system.
    pub fn new(builder: &PdnBuilder, spec: TransientSpec) -> Result<Fixture, String> {
        let nl = builder.build_netlist().map_err(|e| e.to_string())?;
        let sys = MnaSystem::assemble(&nl).map_err(|e| e.to_string())?;
        let text = emit_spice(&nl)?;
        check_fixture(&sys, &text)?;
        Ok(Fixture {
            sys: Arc::new(sys),
            text,
            spec,
        })
    }

    /// The fixture of a solver workload for one grid seed.
    ///
    /// # Errors
    ///
    /// As [`Fixture::new`].
    pub fn for_shape(sh: &Shape, grid_seed: u64) -> Result<Fixture, String> {
        let builder = rlc_grid(sh.n, sh.loads, sh.features, grid_seed);
        let spec =
            TransientSpec::new(0.0, 1e-8, 1e-8 / sh.samples as f64).map_err(|e| e.to_string())?;
        // Node rows come first in the state vector, one per grid node
        // before any strap, pad or branch row.
        let spec = if sh.row_step > 1 {
            spec.observing((0..sh.n * sh.n).step_by(sh.row_step).collect())
        } else {
            spec
        };
        Fixture::new(&builder, spec)
    }
}

/// One monolithic job: text → `parse_netlist` → `assemble` →
/// `MatexSolver::run` with default options.
///
/// # Errors
///
/// Any stage's error, as text.
pub fn mono_job(text: &str, spec: &TransientSpec) -> Result<TransientResult, String> {
    let parsed = parse_netlist(text).map_err(|e| e.to_string())?;
    let sys = MnaSystem::assemble(&parsed.netlist).map_err(|e| e.to_string())?;
    MatexSolver::new(MatexOptions::default())
        .run(&sys, spec)
        .map_err(|e| e.to_string())
}

/// One distributed job: text → parse → assemble → `run_distributed`
/// with `ByBumpFeature` grouping on two workers.
///
/// # Errors
///
/// Any stage's error, as text.
pub fn dist_job(text: &str, spec: &TransientSpec) -> Result<TransientResult, String> {
    let parsed = parse_netlist(text).map_err(|e| e.to_string())?;
    let sys = MnaSystem::assemble(&parsed.netlist).map_err(|e| e.to_string())?;
    let opts = DistributedOptions {
        workers: Some(WIDTH),
        ..DistributedOptions::default()
    };
    run_distributed(&sys, spec, &opts)
        .map(|run| run.result)
        .map_err(|e| e.to_string())
}

/// The workload's own job.
///
/// # Errors
///
/// As [`mono_job`] / [`dist_job`].
pub fn job(sh: &Shape, fx: &Fixture) -> Result<TransientResult, String> {
    if sh.distributed {
        dist_job(&fx.text, &fx.spec)
    } else {
        mono_job(&fx.text, &fx.spec)
    }
}

/// Bit-pattern hash of a result's times and series.
pub fn result_hash(r: &TransientResult) -> u64 {
    let mut h = Fnv64::new();
    h.write_f64s(r.times());
    for s in r.series() {
        h.write_f64s(s);
    }
    h.finish()
}

/// Runs the workload's job on `fx` and returns the result with its
/// largest deviation from a fine-step trapezoidal reference.
///
/// # Errors
///
/// Reference or job failures.
pub fn job_against_reference(sh: &Shape, fx: &Fixture) -> Result<(TransientResult, f64), String> {
    let reference = reference_solution(
        &fx.sys,
        &fx.spec,
        ReferenceMethod::Trapezoidal,
        sh.ref_steps,
    )
    .map_err(|e| format!("reference: {e}"))?;
    let result = job(sh, fx)?;
    let (max_err, _) = result.error_vs(&reference).map_err(|e| e.to_string())?;
    Ok((result, max_err))
}

/// Largest tolerated deviation of a seeded job from its reference. The
/// trapezoidal reference's own error at these step sizes is a few
/// 1e-4 V on the RLC grids; anything past this is a wrong waveform.
pub const MAX_ERR_LIMIT_V: f64 = 5e-3;

/// The grid seed of the accuracy twin: the same recipe with a seed that
/// never changes, so `max_err_v` is one number per commit, whatever
/// `--seed` the timed circuit was drawn with.
pub const TWIN_SEED: u64 = 1000;

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The untraced run of a solver workload: set up (seeded fixture and its
/// reference, the accuracy twin, two warm-up jobs), then a fixed number
/// of whole jobs back to back, each checked bitwise against the verified
/// warm-up result.
///
/// # Errors
///
/// Set-up failures; a failing *job* is counted, not fatal.
pub fn run_untraced(
    workload: &str,
    sh: &Shape,
    seed: u64,
    seconds: f64,
) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    let t_setup = Instant::now();
    let fx = Fixture::for_shape(sh, grid_seed(seed, workload, 0))?;
    // The seeded circuit's first job doubles as a warm-up and, once
    // checked against the reference, as the expected bits of every
    // later job.
    let (first, seeded_err) = job_against_reference(sh, &fx)?;
    let expected = result_hash(&first);
    drop(first);
    let twin = Fixture::for_shape(sh, TWIN_SEED)?;
    let (_, max_err) = job_against_reference(sh, &twin)?;
    drop(twin);
    let mut wrong = u64::from(seeded_err > MAX_ERR_LIMIT_V || max_err > MAX_ERR_LIMIT_V);
    wrong += u64::from(result_hash(&job(sh, &fx)?) != expected);
    let setup_s = t_setup.elapsed().as_secs_f64();

    let jobs = jobs_for(sh.jobs, 15, seconds);
    let mut ms = Vec::with_capacity(jobs);
    let t_run = Instant::now();
    for _ in 0..jobs {
        let t0 = Instant::now();
        let r = job(sh, &fx);
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match r {
            Ok(r) if result_hash(&r) == expected => {}
            Ok(_) => wrong += 1,
            Err(e) => {
                wrong += 1;
                out.note(format!("job failed: {e}"));
            }
        }
    }
    let wall = t_run.elapsed().as_secs_f64();

    out.attempted = jobs as u64;
    out.failed = wrong.min(out.attempted);
    out.push_job_times(&ms, wall);
    out.push(Value::scalar("max_err_v", max_err, "V"));
    out.push(Value::scalar("max_err_v.seeded", seeded_err, "V"));
    out.push(Value::scalar("peak_rss_mb", peak_rss_mb(), "MB"));
    out.push(Value::scalar("setup_s", setup_s, "s"));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_cover_the_solver_workloads_only() {
        for w in ["cold_factor", "march_dense", "dist_pg"] {
            let sh = shape(w).unwrap();
            // Never fewer than 15 runs, and a tail past the median.
            assert!(jobs_for(sh.jobs, 15, 1.0) >= 15, "{w}");
            assert!(crate::stats::tail_percentile(sh.jobs) > 50.0, "{w}");
        }
        assert!(shape("serve_warm").is_none());
        assert_eq!(jobs_for(36, 15, NOMINAL_SECONDS), 36);
        assert_eq!(jobs_for(36, 15, 20.0), 72);
    }

    #[test]
    fn mono_and_dist_jobs_agree_with_the_reference() {
        let sh = Shape {
            n: 8,
            loads: 12,
            features: 3,
            samples: 50,
            row_step: 3,
            ref_steps: 20,
            jobs: 1,
            distributed: false,
        };
        let fx = Fixture::for_shape(&sh, 5).unwrap();
        let (mono, err) = job_against_reference(&sh, &fx).unwrap();
        assert!(err < MAX_ERR_LIMIT_V, "{err}");
        assert_eq!(mono.rows().len(), 64usize.div_ceil(3));
        assert_eq!(result_hash(&mono), result_hash(&job(&sh, &fx).unwrap()));
        let dist = Shape {
            distributed: true,
            ..sh
        };
        let (d, err) = job_against_reference(&dist, &fx).unwrap();
        assert!(err < MAX_ERR_LIMIT_V, "{err}");
        assert!(d.error_vs(&mono).unwrap().0 < 1e-5);
        assert!(peak_rss_mb() > 1.0);
    }
}
