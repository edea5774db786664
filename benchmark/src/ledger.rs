//! The layer ledger: the traced run's passes below the TCP service.
//!
//! Every pass takes one circuit — the workload's first — through the
//! public functions of one layer, inside harness spans, and turns the
//! span durations into `layer.metric` values. The passes that *are* a
//! workload's own job (the monolithic job on `cold_factor` and
//! `march_dense`, the distributed job on `dist_pg`) run half as often as
//! in the untraced run; on the other workloads they run once or twice, so
//! the ledger has every column on every workload.

use crate::report::Value;
use crate::solver::{result_hash, Fixture, WIDTH};
use crate::stats::median;
use crate::trace::Tracer;
use matex_circuit::{parse_netlist, MnaSystem};
use matex_core::{
    MatexOptions, MatexSetup, MatexSolver, MatexSymbolic, SmwOptions, TransientEngine,
    TransientResult, TransientSpec,
};
use matex_dense::{expm_col0_into, expm_col0_ladder, DMat, ExpmScratch};
use matex_dist::{plan_groups, run_distributed, DistributedOptions, DistributedRun};
use matex_krylov::{build_basis, RationalOp, SnapshotEvaluator};
use matex_par::ParPool;
use matex_serve::{EngineOptions, HitPath, JobSpec, ScenarioEngine};
use matex_sparse::{CsrMatrix, LuOptions, SparseLu, SymbolicLu};
use matex_store::{ArtifactStore, DcStoreKey, SetupStoreKey, SymbolicStoreKey};
use matex_waveform::{group_sources, GroupingStrategy, WaveFrame};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Microseconds per call of a cheap kernel: ten batches of as many
/// calls as fit in ~2 ms each, one sample per batch.
pub fn per_call_us(mut f: impl FnMut()) -> Vec<f64> {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-7);
    let per_batch = ((2e-3 / once) as usize).clamp(1, 2000);
    (0..10)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / per_batch as f64
        })
        .collect()
}

fn span_value(tr: &Tracer, span: &str, metric: &str) -> Value {
    Value::median_of(metric, &tr.durations_ms(span), "ms")
}

/// Job id of spans recorded outside any job.
const PROBE: u64 = u64::MAX;

/// Calls `f` inside a `span` `times` times — a fixed count, so that
/// every run records the same spans — and returns the last call's result.
fn probe<T, E: std::fmt::Display>(
    tr: &Tracer,
    span: &'static str,
    times: usize,
    mut f: impl FnMut() -> Result<T, E>,
) -> Result<T, String> {
    let mut last = None;
    for _ in 0..times.max(1) {
        last = Some(
            tr.time(span, None, PROBE, &mut f)
                .map_err(|e| format!("{span}: {e}"))?,
        );
    }
    Ok(last.expect("ran at least once"))
}

/// One traced monolithic job: the same work as
/// [`mono_job`](crate::solver::mono_job), cut at the layer boundaries.
/// `symbolic` is how the workload's own jobs reach `MatexSetup::prepare`:
/// `None` on the monolithic workloads, the shared analysis on the
/// distributed and serve ones. Returns the result and the job's length
/// in milliseconds — the sum of its parts, the harness adding ~0.02 ms
/// of its own.
///
/// # Errors
///
/// Any stage's error, as text.
pub fn traced_mono_job(
    tr: &Tracer,
    fx: &Fixture,
    symbolic: Option<&MatexSymbolic>,
    job: u64,
) -> Result<(TransientResult, f64), String> {
    let root_id = tr.open("job.mono", None, job);
    let root = Some(root_id);
    let parsed = tr
        .time("circuit.parse", root, job, || parse_netlist(&fx.text))
        .map_err(|e| e.to_string())?;
    let sys = tr
        .time("circuit.assemble", root, job, || {
            MnaSystem::assemble(&parsed.netlist)
        })
        .map_err(|e| e.to_string())?;
    let opts = MatexOptions::default();
    let setup = tr
        .time("core.prepare", root, job, || {
            MatexSetup::prepare(&sys, &opts, symbolic, false)
        })
        .map_err(|e| e.to_string())?;
    let setup = Arc::new(setup);
    let x0 = tr.time("core.dc", root, job, || {
        Arc::new(setup.solve_g(&sys.bu_at(fx.spec.t_start())))
    });
    let march = tr.open("core.march", root, job);
    let result = MatexSolver::new(opts)
        .with_setup(setup)
        .with_dc(x0)
        .run(&sys, &fx.spec)
        .map_err(|e| e.to_string());
    tr.close(march);
    let result = result?;
    // T_H and T_e as the program measured them, nested under the march.
    let at = tr.start_us(march);
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    tr.record(
        "core.expm",
        Some(march),
        job,
        at,
        us(result.stats.expm_time),
    );
    tr.record(
        "core.combine",
        Some(march),
        job,
        at,
        us(result.stats.combine_time),
    );
    Ok((result, tr.close(root_id)))
}

/// The `circuit.*`, `core.*` and `krylov.*` count values of the traced
/// monolithic jobs recorded so far. `coverage` holds, per traced job,
/// its length over that of the untraced whole job run right before it;
/// `core.coverage` is the median of those ratios.
pub fn mono_values(
    tr: &Tracer,
    fx: &Fixture,
    last: &TransientResult,
    coverage: &[f64],
) -> Vec<Value> {
    let s = &last.stats;
    vec![
        span_value(tr, "circuit.parse", "circuit.parse_ms"),
        span_value(tr, "circuit.assemble", "circuit.assemble_ms"),
        Value::scalar("circuit.n", fx.sys.dim() as f64, "count"),
        Value::scalar(
            "circuit.nnz",
            (fx.sys.g().nnz() + fx.sys.c().nnz()) as f64,
            "count",
        ),
        span_value(tr, "core.prepare", "core.prepare_ms"),
        span_value(tr, "core.dc", "core.dc_ms"),
        span_value(tr, "core.march", "core.march_ms"),
        span_value(tr, "core.expm", "core.expm_ms"),
        span_value(tr, "core.combine", "core.combine_ms"),
        Value::scalar("core.steps", s.steps as f64, "count"),
        Value::scalar("core.rejected_steps", s.rejected_steps as f64, "count"),
        Value::scalar("core.substeps", s.substeps as f64, "count"),
        Value::scalar("core.expm_evals", s.expm_evals as f64, "count"),
        Value::scalar("krylov.bases", s.krylov_bases as f64, "count"),
        Value::scalar("krylov.dim_avg", s.krylov_dim_avg(), "count"),
        Value::scalar("krylov.subst_pairs", s.substitution_pairs as f64, "count"),
        Value::median_of("core.coverage", coverage, "ratio"),
    ]
}

/// One traced distributed job: plan, the shared analysis, then
/// `run_distributed` on two workers with both injected, its per-node
/// walls and superposition time recorded (as the program measured them)
/// under the run.
///
/// # Errors
///
/// Analysis or run failures.
pub fn traced_dist_job(tr: &Tracer, fx: &Fixture, job: u64) -> Result<DistributedRun, String> {
    let root = tr.open("job.dist", None, job);
    let strategy = GroupingStrategy::ByBumpFeature;
    let plan = Arc::new(tr.time("dist.plan", Some(root), job, || {
        plan_groups(&fx.sys, &fx.spec, strategy)
    }));
    let opts = MatexOptions::default();
    let symbolic = tr
        .time("dist.analyze", Some(root), job, || {
            MatexSymbolic::analyze(&fx.sys, &opts)
        })
        .map_err(|e| e.to_string())?;
    let dopts = DistributedOptions {
        workers: Some(WIDTH),
        plan: Some(plan),
        symbolic: Some(Arc::new(symbolic)),
        ..DistributedOptions::default()
    };
    let span = tr.open("dist.run", Some(root), job);
    let run = run_distributed(&fx.sys, &fx.spec, &dopts).map_err(|e| e.to_string());
    tr.close(span);
    let run = run?;
    let at = tr.start_us(span);
    for node in &run.nodes {
        tr.record(
            "dist.node",
            Some(span),
            job,
            at,
            node.wall.as_secs_f64() * 1e6,
        );
    }
    tr.record(
        "dist.superpose",
        Some(span),
        job,
        at,
        run.superposition_time.as_secs_f64() * 1e6,
    );
    tr.close(root);
    Ok(run)
}

/// The `dist.*` values of the traced distributed jobs recorded so far.
/// `mono_ms` are untraced monolithic whole-job times of the same
/// circuit; `makespan` is a one-worker run of it, whose slowest node is
/// the uncontended makespan of the paper's one-node-per-group model.
pub fn dist_values(
    tr: &Tracer,
    runs: &[DistributedRun],
    makespan: &DistributedRun,
    mono_ms: &[f64],
) -> Vec<Value> {
    let run_ms = tr.durations_ms("dist.run");
    let node_sums: Vec<f64> = runs
        .iter()
        .map(|r| r.nodes.iter().map(|n| n.wall.as_secs_f64() * 1e3).sum())
        .collect();
    let eff: Vec<f64> = node_sums
        .iter()
        .zip(&run_ms)
        .map(|(sum, wall)| sum / (WIDTH as f64 * wall))
        .collect();
    let last = runs.last().expect("at least one distributed run");
    let job_ms = tr.durations_ms("job.dist");
    let text_in = median(&tr.durations_ms("circuit.parse"))
        + median(&tr.durations_ms("circuit.assemble"))
        + median(&job_ms);
    vec![
        span_value(tr, "dist.plan", "dist.plan_ms"),
        Value::scalar("dist.groups", last.num_groups() as f64, "count"),
        span_value(tr, "dist.analyze", "dist.analyze_ms"),
        Value::scalar(
            "dist.makespan_ms",
            makespan.emulated_total.as_secs_f64() * 1e3,
            "ms",
        ),
        Value::median_of("dist.node_wall_sum_ms", &node_sums, "ms"),
        Value::median_of("dist.parallel_eff", &eff, "ratio"),
        span_value(tr, "dist.superpose", "dist.superpose_ms"),
        Value::scalar("dist.lpt_proxy_err", last.stats.proxy_max_error, "ratio"),
        Value::scalar(
            "dist.node_retries",
            runs.iter().map(|r| r.node_retries).sum::<usize>() as f64,
            "count",
        ),
        Value::scalar("dist.speedup_vs_mono", median(mono_ms) / text_in, "ratio"),
    ]
}

/// A one-worker distributed run: each node runs uncontended, so the
/// slowest one (`emulated_total`) is the model's makespan.
///
/// # Errors
///
/// Run failures.
pub fn makespan_run(fx: &Fixture) -> Result<DistributedRun, String> {
    let opts = DistributedOptions {
        workers: Some(1),
        ..DistributedOptions::default()
    };
    run_distributed(&fx.sys, &fx.spec, &opts).map_err(|e| e.to_string())
}

/// A circuit's numeric setup and DC state, prepared once for the probes
/// that start from them.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// `MatexSetup::prepare` with default options, no shared analysis.
    pub setup: Arc<MatexSetup>,
    /// `G x₀ = B u(t_start)`.
    pub x0: Arc<Vec<f64>>,
}

impl Prepared {
    /// Factors and solves the DC point.
    ///
    /// # Errors
    ///
    /// Factorization failures.
    pub fn new(fx: &Fixture) -> Result<Prepared, String> {
        let setup = MatexSetup::prepare(&fx.sys, &MatexOptions::default(), None, false)
            .map_err(|e| e.to_string())?;
        let x0 = setup.solve_g(&fx.sys.bu_at(fx.spec.t_start()));
        Ok(Prepared {
            setup: Arc::new(setup),
            x0: Arc::new(x0),
        })
    }
}

/// The kernel layers on the circuit's own matrices: `sparse.*` on
/// `C + γG`, `krylov.*`/`dense.*` on one basis built the way the march
/// builds them, `par.*` at the circuit's dimension, `core.correct_ms` for a one-cap
/// edit, `waveform.*` at the workload's row count.
///
/// # Errors
///
/// Any probed call's error.
pub fn kernel_probes(
    tr: &Tracer,
    fx: &Fixture,
    prep: &Prepared,
    cap_row: usize,
) -> Result<Vec<Value>, String> {
    let sys = &fx.sys;
    let opts = MatexOptions::default();
    let lu_opts = LuOptions::default();
    let mut v = Vec::new();
    let err = |e: &dyn std::fmt::Display| format!("kernel probe: {e}");

    // sparse: the shifted system every R-MATEX run factors.
    let a =
        CsrMatrix::linear_combination(1.0, sys.c(), opts.gamma, sys.g()).map_err(|e| err(&e))?;
    let sym = probe(tr, "sparse.analyze", 3, || {
        SymbolicLu::analyze(&a, &lu_opts)
    })?;
    let lu = probe(tr, "sparse.factor", 3, || SparseLu::factor(&a, &lu_opts))?;
    probe(tr, "sparse.refactor", 3, || sym.refactor(&a))?;
    v.push(span_value(tr, "sparse.analyze", "sparse.analyze_ms"));
    v.push(span_value(tr, "sparse.factor", "sparse.factor_ms"));
    v.push(span_value(tr, "sparse.refactor", "sparse.refactor_ms"));
    v.push(Value::scalar(
        "sparse.fill_ratio",
        lu.fill_factor(a.nnz()),
        "ratio",
    ));
    let n = sys.dim();
    let rhs = sys.bu_at(fx.spec.t_start());
    let (mut x, mut work) = (vec![0.0; n], vec![0.0; n]);
    v.push(Value::median_of(
        "sparse.solve_us",
        &per_call_us(|| lu.solve_into(&rhs, &mut x, &mut work)),
        "us",
    ));
    let mut y = vec![0.0; n];
    v.push(Value::median_of(
        "sparse.matvec_us",
        &per_call_us(|| sys.c().matvec_into(&x, &mut y)),
        "us",
    ));

    // krylov + dense: one basis, reused for a window of 32 snapshots —
    // the march's inner loop, one call at a time. The DC state itself
    // is a fixed point (nothing to propagate), so the start vector is
    // how far the quasi-static state under the heaviest load sits from
    // it: smooth and circuit-shaped, like the march's own vectors.
    let (setup, x0) = (&prep.setup, prep.x0.as_slice());
    let t_peak = (1..=32)
        .map(|k| fx.spec.t_start() + (fx.spec.t_stop() - fx.spec.t_start()) * f64::from(k) / 32.0)
        .max_by(|a, b| {
            let swing = |t: &f64| -> f64 {
                sys.bu_at(*t)
                    .iter()
                    .zip(&rhs)
                    .map(|(p, q)| (p - q).abs())
                    .sum()
            };
            swing(a).total_cmp(&swing(b))
        })
        .expect("32 candidate times");
    let start: Vec<f64> = setup
        .solve_g(&sys.bu_at(t_peak))
        .iter()
        .zip(x0)
        .map(|(p, q)| p - q)
        .collect();
    let op = RationalOp::new(
        setup.lu_x1().expect("rational setup holds lu(C+γG)"),
        sys.c(),
        opts.gamma,
    );
    let h = fx.spec.dt_out();
    let basis = probe(tr, "krylov.basis", 5, || {
        build_basis(&op, &start, h, &opts.expm)
    })?
    .basis;
    v.push(span_value(tr, "krylov.basis", "krylov.basis_ms"));
    v.push(Value::scalar("krylov.basis_dim", basis.m() as f64, "count"));
    const SNAPSHOTS: usize = 32;
    let hs: Vec<f64> = (1..=SNAPSHOTS)
        .map(|k| h * k as f64 / SNAPSHOTS as f64)
        .collect();
    let mut ev = SnapshotEvaluator::new();
    ev.weights_many(&basis, &hs).map_err(|e| err(&e))?;
    v.push(Value::median_of(
        "krylov.weights_us",
        &per_call_us(|| {
            let _ = ev.weights_many(&basis, &hs);
        }),
        "us",
    ));
    let mut xs = vec![0.0; SNAPSHOTS * n];
    v.push(Value::median_of(
        "krylov.combine_us",
        &per_call_us(|| ev.combine_into(&basis, SNAPSHOTS, None, &mut xs)),
        "us",
    ));
    let m = basis.m();
    let mut hm = DMat::zeros(m, m);
    basis.hm().scaled_into(h, &mut hm);
    let mut scratch = ExpmScratch::new();
    let mut col = vec![0.0; m];
    expm_col0_into(&hm, &mut scratch, &mut col).map_err(|e| err(&e))?;
    v.push(Value::median_of(
        "dense.expm_us",
        &per_call_us(|| {
            let _ = expm_col0_into(&hm, &mut scratch, &mut col);
        }),
        "us",
    ));
    const RUNGS: usize = 12;
    let mut rungs = vec![0.0; (RUNGS + 1) * m];
    v.push(Value::median_of(
        "dense.ladder_us",
        &per_call_us(|| {
            let _ = expm_col0_ladder(&hm, RUNGS, &mut scratch, &mut rungs, |_, _| true);
        }),
        "us",
    ));

    // par: an empty dispatch, and one reduction at the circuit's size.
    let pools = [ParPool::new(1), ParPool::new(WIDTH)];
    v.push(Value::median_of(
        "par.dispatch_us",
        &per_call_us(|| pools[1].run(WIDTH, &|_| {})),
        "us",
    ));
    for (pool, name) in pools.iter().zip(["par.dot_us.w1", "par.dot_us.w2"]) {
        v.push(Value::median_of(
            name,
            &per_call_us(|| {
                std::hint::black_box(matex_par::dot(pool, x0, &x));
            }),
            "us",
        ));
    }

    // core: the what-if correction of a one-cap edit.
    let edited = sys.with_cap_scaled(cap_row, 2.0).map_err(|e| err(&e))?;
    let diff = edited
        .value_diff(sys)
        .ok_or("cap edit changed the pattern")?;
    probe(tr, "core.correct", 5, || {
        MatexSetup::correct(setup.clone(), &diff, &SmwOptions::default())
    })?;
    v.push(span_value(tr, "core.correct", "core.correct_ms"));

    // waveform: grouping the sources, and one 32-sample frame at the
    // workload's row count.
    probe(tr, "waveform.group", 5, || {
        Ok::<_, String>(group_sources(
            &sys.source_waveforms(),
            fx.spec.t_stop(),
            GroupingStrategy::ByBumpFeature,
        ))
    })?;
    v.push(span_value(tr, "waveform.group", "waveform.group_ms"));
    let rows = fx.spec.observed_rows(n).len();
    let frame = WaveFrame {
        frame: 0,
        start: 0,
        times: hs.clone(),
        series: (0..rows).map(|r| vec![x0[r % n]; SNAPSHOTS]).collect(),
    };
    let bytes = frame.encode();
    v.push(Value::median_of(
        "waveform.frame_encode_us",
        &per_call_us(|| {
            std::hint::black_box(frame.encode());
        }),
        "us",
    ));
    v.push(Value::median_of(
        "waveform.frame_decode_us",
        &per_call_us(|| {
            std::hint::black_box(WaveFrame::decode_payload(&bytes[8..]).is_ok());
        }),
        "us",
    ));
    v.push(Value::scalar(
        "waveform.frame_bytes",
        bytes.len() as f64,
        "B",
    ));
    Ok(v)
}

fn dir_bytes(dir: &Path) -> f64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len() as f64)
                .sum()
        })
        .unwrap_or(0.0)
}

/// `store.write_ms` / `store.read_ms` / `store.bytes`: one circuit's
/// artifacts (symbolic analysis, numeric setup, DC point) saved to and
/// loaded from a fresh `ArtifactStore` under `scratch`.
///
/// # Errors
///
/// I/O failures, or a record that does not load back.
pub fn store_probe(
    tr: &Tracer,
    fx: &Fixture,
    prep: &Prepared,
    symbolic: &MatexSymbolic,
    scratch: &Path,
) -> Result<Vec<Value>, String> {
    let sys = &fx.sys;
    let opts = MatexOptions::default();
    let sym_key = SymbolicStoreKey {
        pattern_fp: sys.pattern_fingerprint(),
        kind_tag: 2,
        gamma_decade: opts.gamma.log10().floor() as i32,
    };
    let setup_key = SetupStoreKey {
        value_fp: sys.value_fingerprint(),
        kind_tag: 2,
        gamma_bits: opts.gamma.to_bits(),
        regularize_bits: opts.regularize_eps.to_bits(),
        scheduled: false,
    };
    let dc_key = DcStoreKey {
        value_fp: sys.value_fingerprint(),
        source_fp: sys.source_fingerprint(),
        t_start_bits: fx.spec.t_start().to_bits(),
    };
    let mut bytes = 0.0;
    for k in 0..3 {
        let dir = scratch.join(format!("store-probe-{k}"));
        let store = ArtifactStore::open(&dir).map_err(|e| e.to_string())?;
        tr.time("store.write", None, PROBE, || {
            store
                .save_symbolic(&sym_key, symbolic)
                .and_then(|()| store.save_setup(&setup_key, &prep.setup))
                .and_then(|()| store.save_dc(&dc_key, &prep.x0))
        })
        .map_err(|e| e.to_string())?;
        bytes = dir_bytes(&dir);
        let loaded = tr.time("store.read", None, PROBE, || {
            store.load_symbolic(&sym_key).is_some()
                && store.load_setup(&setup_key).is_some()
                && store.load_dc(&dc_key).is_some()
        });
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        if !loaded {
            return Err("a saved artifact did not load back".to_string());
        }
    }
    Ok(vec![
        span_value(tr, "store.write", "store.write_ms"),
        span_value(tr, "store.read", "store.read_ms"),
        Value::scalar("store.bytes", bytes, "B"),
    ])
}

/// The engine options every harness engine uses: the defaults at width
/// two, plus a store when one is given.
pub fn engine_options(store: Option<Arc<ArtifactStore>>) -> EngineOptions {
    EngineOptions {
        threads: Some(WIDTH),
        executors: WIDTH,
        dist_workers: WIDTH,
        store,
        ..EngineOptions::default()
    }
}

/// `serve.engine_job_ms.*`: one circuit through in-process
/// `ScenarioEngine::run` on each hit path — cold, a source-scale variant
/// (cache), a cap edit (what-if), then the base job on a fresh engine
/// over the same store (store) — timed by the engine's own `wall`.
///
/// # Errors
///
/// Job failures, or a job that took another path than intended.
pub fn hit_path_probe(
    tr: &Tracer,
    fx: &Fixture,
    cap_row: usize,
    scratch: &Path,
) -> Result<Vec<Value>, String> {
    let base = JobSpec::new(fx.sys.clone(), fx.spec.clone());
    let run = |engine: &ScenarioEngine, spec: &JobSpec, want: HitPath, job: u64| {
        let at = tr.open("serve.engine_job", None, job);
        let out = engine.run(spec).map_err(|e| e.to_string());
        tr.close(at);
        let out = out?;
        let got = out.cache.hit_path;
        if got != want {
            return Err(format!(
                "job meant for the {} path ran {}",
                want.label(),
                got.label()
            ));
        }
        let name = match want {
            HitPath::Cold => "serve.engine_job.cold",
            HitPath::Cache => "serve.engine_job.cache",
            HitPath::Whatif => "serve.engine_job.whatif",
            HitPath::Store => "serve.engine_job.store",
        };
        tr.record(
            name,
            Some(at),
            job,
            tr.start_us(at),
            out.wall.as_secs_f64() * 1e6,
        );
        Ok(())
    };
    for k in 0..2 {
        let dir = scratch.join(format!("hit-path-{k}"));
        let open = || {
            ArtifactStore::open(&dir)
                .map(Arc::new)
                .map_err(|e| e.to_string())
        };
        let job = 1000 + 4 * k as u64;
        {
            let engine = ScenarioEngine::new(engine_options(Some(open()?)));
            run(&engine, &base, HitPath::Cold, job)?;
            run(
                &engine,
                &base.clone().source_scale(1.1),
                HitPath::Cache,
                job + 1,
            )?;
            run(
                &engine,
                &base.clone().cap_scale(cap_row, 2.0),
                HitPath::Whatif,
                job + 2,
            )?;
        }
        let restarted = ScenarioEngine::new(engine_options(Some(open()?)));
        run(&restarted, &base, HitPath::Store, job + 3)?;
        drop(restarted);
        std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    }
    Ok(["cold", "cache", "whatif", "store"]
        .iter()
        .map(|p| {
            Value::median_of(
                &format!("serve.engine_job_ms.{p}"),
                &tr.durations_ms(&format!("serve.engine_job.{p}")),
                "ms",
            )
        })
        .collect())
}

/// `obs.overhead_pct` / `obs.spans_per_job`: the same march (setup and
/// DC injected, so the recorder's share is not diluted by a
/// factorization it never touches) with the program's own recorder on
/// and off. The overhead is the median, over `pairs` back-to-back pairs in
/// alternating order, of each pair's on/off ratio: a pair lasts tens of
/// milliseconds, far less than this host's slow phases, so both halves
/// see the same host. To afford many pairs the pairs march only the
/// head of the window (`march_ms` is what the whole window takes);
/// `spans_per_job` comes from one recorded run of the whole window.
///
/// # Errors
///
/// Run failures, or recorded runs that differ bitwise from unrecorded
/// ones.
pub fn obs_probe(
    fx: &Fixture,
    prep: &Prepared,
    march_ms: f64,
    pairs: usize,
) -> Result<Vec<Value>, String> {
    let run = |obs: matex_obs::Obs, spec: &TransientSpec| {
        let opts = MatexOptions {
            obs,
            ..MatexOptions::default()
        };
        let t = Instant::now();
        let r = MatexSolver::new(opts)
            .with_setup(prep.setup.clone())
            .with_dc(prep.x0.clone())
            .run(&fx.sys, spec)
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((t.elapsed().as_secs_f64() * 1e3, result_hash(&r)))
    };
    // Enough of the window for a ~20 ms march, never under a tenth.
    let head = (20.0 / march_ms).clamp(0.1, 1.0);
    let (t0, t1) = (fx.spec.t_start(), fx.spec.t_stop());
    let mut short = TransientSpec::new(t0, t0 + head * (t1 - t0), fx.spec.dt_out())
        .map_err(|e| e.to_string())?;
    short.observe = fx.spec.observe.clone();
    let recorder = matex_obs::Obs::enabled();
    let mut ratios = Vec::new();
    for k in 0..pairs {
        let first_on = k % 2 == 0;
        let side = |on: bool| {
            if on {
                recorder.clone()
            } else {
                matex_obs::Obs::disabled()
            }
        };
        let (a, ha) = run(side(first_on), &short)?;
        let (b, hb) = run(side(!first_on), &short)?;
        if ha != hb {
            return Err("recording changed the waveform".to_string());
        }
        ratios.push(if first_on { a / b } else { b / a });
    }
    let whole = matex_obs::Obs::enabled();
    run(whole.clone(), &fx.spec)?;
    let spans = whole.recorder().map_or(0, |r| r.span_count());
    Ok(vec![
        Value::scalar("obs.overhead_pct", 100.0 * (median(&ratios) - 1.0), "%"),
        Value::scalar("obs.spans_per_job", spans as f64, "count"),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{mono_job, Shape};

    fn small() -> Fixture {
        let sh = Shape {
            n: 8,
            loads: 12,
            features: 3,
            samples: 40,
            row_step: 5,
            ref_steps: 20,
            jobs: 1,
            distributed: false,
        };
        Fixture::for_shape(&sh, 3).unwrap()
    }

    #[test]
    fn traced_job_is_the_plain_job_cut_at_layer_boundaries() {
        let fx = small();
        let tr = Tracer::new();
        let plain = mono_job(&fx.text, &fx.spec).unwrap();
        let (traced, traced_ms) = traced_mono_job(&tr, &fx, None, 1).unwrap();
        assert_eq!(result_hash(&plain), result_hash(&traced));
        let sym = MatexSymbolic::analyze(&fx.sys, &MatexOptions::default()).unwrap();
        let (shared, _) = traced_mono_job(&tr, &fx, Some(&sym), 2).unwrap();
        assert_eq!(result_hash(&plain), result_hash(&shared));
        assert_eq!(shared.stats.refactorizations, 2);

        let vals = mono_values(&tr, &fx, &traced, &[0.9, 1.1, 1.0]);
        let get = |n: &str| vals.iter().find(|v| v.name == n).unwrap().value;
        assert_eq!(get("circuit.n"), fx.sys.dim() as f64);
        assert_eq!(get("krylov.bases"), traced.stats.krylov_bases as f64);
        assert_eq!(get("core.coverage"), 1.0);
        assert!(traced_ms > 0.0);
        // Parts sum to the job span, up to the harness's own glue.
        let spans = tr.spans();
        let root = spans.iter().position(|s| s.name == "job.mono").unwrap();
        let own = crate::trace::self_time_us(&spans, root);
        assert!(own >= 0.0 && own < 0.2 * spans[root].dur_us(), "self {own}");
        // T_H + T_e are nested under the march, not beside it.
        let march = spans.iter().position(|s| s.name == "core.march").unwrap();
        assert!(crate::trace::self_time_us(&spans, march) < spans[march].dur_us());
    }

    #[test]
    fn dist_pass_reports_every_dist_metric_from_the_same_runs() {
        let fx = small();
        let tr = Tracer::new();
        traced_mono_job(&tr, &fx, None, 0).unwrap();
        let runs = vec![traced_dist_job(&tr, &fx, 1).unwrap()];
        let mk = makespan_run(&fx).unwrap();
        let vals = dist_values(&tr, &runs, &mk, &[5.0]);
        let get = |n: &str| vals.iter().find(|v| v.name == n).unwrap().value;
        assert_eq!(get("dist.groups"), 4.0);
        assert!(get("dist.parallel_eff") > 0.0 && get("dist.parallel_eff") <= 1.05);
        assert!(get("dist.makespan_ms") > 0.0);
        assert_eq!(get("dist.node_retries"), 0.0);
        assert_eq!(tr.durations_ms("dist.node").len(), 4);
        let mono = mono_job(&fx.text, &fx.spec).unwrap();
        assert!(runs[0].result.error_vs(&mono).unwrap().0 < 1e-5);
    }

    #[test]
    fn kernel_store_hit_path_and_obs_probes_fill_their_columns() {
        let fx = small();
        let tr = Tracer::new();
        let scratch =
            std::env::temp_dir().join(format!("matex-bench-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        let prep = Prepared::new(&fx).unwrap();
        let mut vals = kernel_probes(&tr, &fx, &prep, 7).unwrap();
        let sym = MatexSymbolic::analyze(&fx.sys, &MatexOptions::default()).unwrap();
        vals.extend(store_probe(&tr, &fx, &prep, &sym, &scratch).unwrap());
        vals.extend(hit_path_probe(&tr, &fx, 7, &scratch).unwrap());
        vals.extend(obs_probe(&fx, &prep, 5.0, 5).unwrap());
        std::fs::remove_dir_all(&scratch).unwrap();
        for name in [
            "sparse.analyze_ms",
            "sparse.fill_ratio",
            "sparse.solve_us",
            "krylov.basis_dim",
            "krylov.combine_us",
            "dense.ladder_us",
            "par.dot_us.w2",
            "core.correct_ms",
            "waveform.frame_bytes",
            "store.bytes",
            "serve.engine_job_ms.store",
            "obs.spans_per_job",
        ] {
            let v = vals
                .iter()
                .find(|v| v.name == name)
                .unwrap_or_else(|| panic!("{name}"));
            assert!(v.value.is_finite() && v.value > 0.0, "{name} = {}", v.value);
        }
        let rows = fx.spec.observed_rows(fx.sys.dim()).len();
        let frame = vals
            .iter()
            .find(|v| v.name == "waveform.frame_bytes")
            .unwrap();
        assert_eq!(frame.value, (8 + 32 + 8 * 32 * (1 + rows)) as f64);
    }
}
