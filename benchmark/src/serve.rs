//! The serve workloads: an in-process `matex_serve::serve` service, two
//! closed-loop clients, every streamed waveform checked against a
//! standalone run of the same effective circuit.

use crate::inputs::{derive, derive_unit, grid_seed, spread_rows, WirePdn};
use crate::ledger::engine_options;
use crate::report::{RunResult, Value};
use crate::solver::{jobs_for, peak_rss_mb, Fixture, MAX_ERR_LIMIT_V, TWIN_SEED, WIDTH};
use crate::stats::median;
use crate::trace::Tracer;
use crate::wire::{escape_netlist, expected_stream_hash, Client, JobTimes, Streamed, Waited};
use matex_circuit::MnaSystem;
use matex_core::{
    reference_solution, MatexOptions, MatexSetup, MatexSolver, ReferenceMethod, TransientEngine,
    TransientSpec,
};
use matex_serve::{serve, JobSpec, ScenarioEngine, ServiceHandle, ServiceOptions};
use matex_store::ArtifactStore;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One job as a client words it: which circuit, and the scenario edit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireJob {
    /// Index into [`Plan::circuits`].
    pub circuit: usize,
    /// `scale` field: every source scaled.
    pub scale: Option<f64>,
    /// `cap_row`/`cap_scale` fields: one node's ground cap scaled.
    pub cap: Option<(usize, f64)>,
}

/// A circuit the clients can name on the wire, with the locally built
/// system that checks what comes back.
#[derive(Debug, Clone)]
pub struct ServeCircuit {
    /// The system the service will build or parse.
    pub sys: Arc<MnaSystem>,
    /// The circuit's submit fields (`pdn_*`, or an inline `netlist`).
    pub fields: String,
}

impl ServeCircuit {
    /// A synthetic grid named by its parameters.
    ///
    /// # Errors
    ///
    /// Build failures.
    pub fn pdn(p: &WirePdn) -> Result<ServeCircuit, String> {
        Ok(ServeCircuit {
            sys: Arc::new(p.builder().build().map_err(|e| e.to_string())?),
            fields: p.submit_fields(),
        })
    }

    /// Any fixture, shipped as inline SPICE text.
    pub fn netlist(fx: &Fixture) -> ServeCircuit {
        ServeCircuit {
            sys: fx.sys.clone(),
            fields: format!("\"netlist\": \"{}\"", escape_netlist(&fx.text)),
        }
    }
}

/// What the clients ask for: the circuits, the window and the rows.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Circuits by index.
    pub circuits: Vec<ServeCircuit>,
    /// Window, sampling and observed rows of every job.
    pub spec: TransientSpec,
    /// Back the engine with an `ArtifactStore` under this directory.
    pub store_dir: Option<PathBuf>,
    /// Jobs that warm the engine before the clients start (set-up).
    pub warmup: Vec<WireJob>,
}

impl Plan {
    /// The `submit` line of `job`.
    pub fn submit_line(&self, job: &WireJob) -> String {
        let mut line = format!(
            "{{\"cmd\": \"submit\", {}, \"t_stop\": {:e}, \"dt_out\": {:e}",
            self.circuits[job.circuit].fields,
            self.spec.t_stop(),
            self.spec.dt_out()
        );
        if let matex_core::ObserveSpec::Rows(rows) = &self.spec.observe {
            let list: Vec<String> = rows.iter().map(usize::to_string).collect();
            line.push_str(&format!(", \"rows\": \"{}\"", list.join(",")));
        }
        if let Some(k) = job.scale {
            line.push_str(&format!(", \"scale\": {k:e}"));
        }
        if let Some((row, factor)) = job.cap {
            line.push_str(&format!(", \"cap_row\": {row}, \"cap_scale\": {factor:e}"));
        }
        line.push('}');
        line
    }

    /// The same job for in-process `ScenarioEngine::run`.
    pub fn job_spec(&self, job: &WireJob) -> JobSpec {
        let mut spec = JobSpec::new(self.circuits[job.circuit].sys.clone(), self.spec.clone());
        if let Some(k) = job.scale {
            spec = spec.source_scale(k);
        }
        if let Some((row, factor)) = job.cap {
            spec = spec.cap_scale(row, factor);
        }
        spec
    }

    /// Empties the store directory, if the plan has one.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn clear_store(&self) -> Result<(), String> {
        match &self.store_dir {
            Some(dir) if dir.exists() => std::fs::remove_dir_all(dir).map_err(|e| e.to_string()),
            _ => Ok(()),
        }
    }

    fn open_store(&self) -> Result<Option<Arc<ArtifactStore>>, String> {
        self.store_dir
            .as_ref()
            .map(|d| {
                ArtifactStore::open(d)
                    .map(Arc::new)
                    .map_err(|e| e.to_string())
            })
            .transpose()
    }
}

/// A running engine + service pair.
pub struct Service {
    /// The engine, for its counters.
    pub engine: Arc<ScenarioEngine>,
    handle: ServiceHandle,
}

impl Service {
    /// Starts an engine (width two, default options otherwise) and the
    /// TCP service on a free local port, then runs the plan's warm-up
    /// jobs through one client.
    ///
    /// # Errors
    ///
    /// Bind, connect or warm-up failures.
    pub fn start(plan: &Plan) -> Result<Service, String> {
        let engine = Arc::new(ScenarioEngine::new(engine_options(plan.open_store()?)));
        let handle =
            serve(engine.clone(), &ServiceOptions::default()).map_err(|e| e.to_string())?;
        let svc = Service { engine, handle };
        if !plan.warmup.is_empty() {
            let mut c = Client::connect(svc.addr())?;
            for job in &plan.warmup {
                c.run_job(&plan.submit_line(job))?;
            }
        }
        Ok(svc)
    }

    /// Where the clients connect.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Stops accepting and drops the engine (its executors join).
    pub fn stop(self) {
        self.handle.stop();
    }
}

/// One finished job as a client saw it.
#[derive(Debug, Clone)]
pub struct Done {
    /// What was asked.
    pub job: WireJob,
    /// Which client asked.
    pub client: usize,
    /// Phase label (`run`, or `fill`/`restart` on `serve_churn`).
    pub phase: &'static str,
    /// The client-side timeline.
    pub times: JobTimes,
    /// The `wait` reply.
    pub waited: Waited,
    /// The decoded stream (`series` emptied unless the plan keeps them).
    pub streamed: Streamed,
}

/// Drives one closed-loop client per script against `addr`, each
/// working its script down to the end: a client sends its next job only
/// when the previous stream has fully decoded. Returns the completed
/// jobs in start order and the failures (as text). `keep_series` keeps
/// each job's decoded rows (needed to compare what-if jobs by tolerance;
/// too much memory for full-state streams).
pub fn run_clients(
    addr: SocketAddr,
    plan: &Plan,
    scripts: &[Vec<WireJob>],
    phase: &'static str,
    keep_series: bool,
) -> (Vec<Done>, Vec<String>) {
    let per_client: Vec<(Vec<Done>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(client, script)| {
                scope.spawn(move || {
                    let (mut done, mut failed) = (Vec::new(), Vec::new());
                    let mut conn = match Client::connect(addr) {
                        Ok(c) => c,
                        Err(e) => return (done, vec![e]),
                    };
                    for job in script {
                        match conn.run_job(&plan.submit_line(job)) {
                            Ok((times, waited, mut streamed)) => {
                                if !keep_series {
                                    streamed.series = Vec::new();
                                }
                                done.push(Done {
                                    job: *job,
                                    client,
                                    phase,
                                    times,
                                    waited,
                                    streamed,
                                });
                            }
                            Err(e) => {
                                failed.push(e);
                                // A dead connection fails every later job
                                // too; a fresh one keeps the loop closed.
                                match Client::connect(addr) {
                                    Ok(c) => conn = c,
                                    Err(e) => {
                                        failed.push(e);
                                        break;
                                    }
                                }
                            }
                        }
                    }
                    (done, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let mut done = Vec::new();
    let mut failed = Vec::new();
    for (d, f) in per_client {
        done.extend(d);
        failed.extend(f);
    }
    done.sort_by_key(|d| d.times.started);
    (done, failed)
}

/// Largest tolerated deviation of a what-if (low-rank corrected) job
/// from a standalone refactoring run: what the engine promises.
const WHATIF_TOL_V: f64 = 1e-8;

/// What a standalone run says a job must stream.
struct Expected {
    /// Chained frame hash.
    hash: u64,
    /// The rows themselves, kept only for cap edits (the jobs the engine
    /// may serve by correction, which are compared by tolerance).
    series: Vec<Vec<f64>>,
}

/// A job's identity: circuit, scale bits, cap row, cap factor bits.
type JobKey = (usize, Option<u64>, Option<(usize, u64)>);

fn job_key(job: &WireJob) -> JobKey {
    (
        job.circuit,
        job.scale.map(f64::to_bits),
        job.cap.map(|(row, factor)| (row, factor.to_bits())),
    )
}

/// Checks every completed job against an in-process standalone
/// `MatexSolver` run of the same effective circuit: bitwise (the chained
/// frame hash) for everything the engine promises bitwise, within
/// [`WHATIF_TOL_V`] for jobs it served by low-rank correction. Returns
/// the number of wrong waveforms.
///
/// # Errors
///
/// A standalone run that fails (the circuit itself is broken).
pub fn verify(plan: &Plan, done: &[Done]) -> Result<u64, String> {
    let chunk = ServiceOptions::default().stream_chunk;
    let opts = MatexOptions::default();
    // A script may repeat a job (the two phases of serve_churn): one
    // standalone run serves every repeat.
    let mut distinct: Vec<WireJob> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for d in done {
        if seen.insert(job_key(&d.job)) {
            distinct.push(d.job);
        }
    }
    let run_share = |t: usize| -> Result<Vec<(JobKey, Expected)>, String> {
        // Source scaling keeps the matrices, so one standalone
        // factorization per circuit serves its variants; a cap edit
        // factors its own.
        let mut shared: HashMap<usize, Arc<MatexSetup>> = HashMap::new();
        let mut out = Vec::new();
        for job in distinct.iter().skip(t).step_by(WIDTH) {
            let sys = plan
                .job_spec(job)
                .effective_circuit()
                .map_err(|e| e.to_string())?;
            let mut solver = MatexSolver::new(opts.clone());
            if job.cap.is_none() {
                let setup = match shared.get(&job.circuit) {
                    Some(s) => s.clone(),
                    None => {
                        let base = &plan.circuits[job.circuit].sys;
                        let s = MatexSetup::prepare(base, &opts, None, false)
                            .map_err(|e| e.to_string())?;
                        shared.entry(job.circuit).or_insert(Arc::new(s)).clone()
                    }
                };
                solver = solver.with_setup(setup);
            }
            let r = solver.run(&sys, &plan.spec).map_err(|e| e.to_string())?;
            let series = if job.cap.is_some() {
                r.series().to_vec()
            } else {
                Vec::new()
            };
            let hash = expected_stream_hash(r.times(), r.series(), chunk);
            out.push((job_key(job), Expected { hash, series }));
        }
        Ok(out)
    };
    let run_share = &run_share;
    let shares: Vec<Result<Vec<(JobKey, Expected)>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WIDTH)
            .map(|t| scope.spawn(move || run_share(t)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a verifier thread panicked"))
            .collect()
    });
    let mut expected: HashMap<JobKey, Expected> = HashMap::new();
    for share in shares {
        expected.extend(share?);
    }
    let wrong = done
        .iter()
        .filter(|d| {
            let want = &expected[&job_key(&d.job)];
            let ok = if d.waited.whatif {
                d.streamed.series.len() == want.series.len()
                    && d.streamed.series.iter().zip(&want.series).all(|(a, b)| {
                        a.len() == b.len()
                            && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= WHATIF_TOL_V)
                    })
            } else {
                d.streamed.hash == want.hash
            };
            !ok
        })
        .count();
    Ok(wrong as u64)
}

/// The service error a user of this workload's jobs sees: one circuit of
/// the workload's recipe with a grid seed that never changes (see
/// [`TWIN_SEED`]), run standalone — the service streams exactly those
/// bits — against a fine-step trapezoidal reference.
///
/// # Errors
///
/// Build, reference or run failures.
pub fn twin_error(twin: &WirePdn, spec: &TransientSpec) -> Result<f64, String> {
    let sys = twin.builder().build().map_err(|e| e.to_string())?;
    let reference = reference_solution(&sys, spec, ReferenceMethod::Trapezoidal, 20)
        .map_err(|e| e.to_string())?;
    let r = MatexSolver::new(MatexOptions::default())
        .run(&sys, spec)
        .map_err(|e| e.to_string())?;
    r.error_vs(&reference)
        .map(|(max, _)| max)
        .map_err(|e| e.to_string())
}

/// The traffic of one serve workload, generated from the seed.
#[derive(Debug, Clone)]
pub struct Traffic {
    /// What is asked for.
    pub plan: Plan,
    /// One script per client; each is run to its end once per phase, so
    /// a run's job count is fixed.
    pub scripts: Vec<Vec<WireJob>>,
    /// Phase labels; every phase after the first starts a fresh engine
    /// over the same store.
    pub phases: &'static [&'static str],
}

const SERVE_WINDOW: f64 = 2e-9;
fn serve_spec(rows: Option<Vec<usize>>, samples: usize) -> Result<TransientSpec, String> {
    let spec = TransientSpec::new(0.0, SERVE_WINDOW, SERVE_WINDOW / samples as f64)
        .map_err(|e| e.to_string())?;
    Ok(match rows {
        Some(r) => spec.observing(r),
        None => spec,
    })
}

fn wire_pdn(n: usize, seed: u64) -> WirePdn {
    WirePdn {
        n,
        loads: n * n / 4,
        features: 4,
        seed,
        window: SERVE_WINDOW,
    }
}

/// A serve workload, generated: its traffic plus the two circuits the
/// harness needs by recipe rather than by assembled system.
#[derive(Debug, Clone)]
pub struct ServeWorkload {
    /// The traffic.
    pub traffic: Traffic,
    /// The first circuit: the one the traced run probes every layer on.
    pub first: WirePdn,
    /// The fixed-seed sibling `max_err_v` is measured on.
    pub twin: WirePdn,
}

/// Jobs per client of `serve_warm` and `serve_stream` at
/// [`NOMINAL_SECONDS`](crate::solver::NOMINAL_SECONDS): about ten seconds
/// of traffic on the seed commit, and a fixed count, so that two commits
/// do the same work and the engine retains the same number of outcomes.
/// (`serve_churn` is a script: 40 circuits × 4 jobs × 2 phases, whatever
/// the run length.)
pub const JOBS_PER_CLIENT: usize = 200;

/// Builds a serve workload from the run seed, `per_client` jobs to a
/// client (ignored by the scripted `serve_churn`). `scratch` is where
/// `serve_churn` keeps its store.
///
/// # Errors
///
/// An unknown workload, or circuits that fail to build.
pub fn traffic(
    workload: &str,
    seed: u64,
    per_client: usize,
    scratch: &Path,
) -> Result<ServeWorkload, String> {
    // 16 rows of the smallest grid exist on every grid of the workload.
    let rows16 = |n: usize| Some(spread_rows(n * n, 16));
    // serve_stream samples four times as densely as the other two: at
    // 100 samples the engine's march, not the frames, is most of a job
    // (stream 0.23 of it); at 400 (3.5 MB of frames) streaming is half.
    let (grids, rows, samples, churn): (&[usize], Option<Vec<usize>>, usize, bool) = match workload
    {
        "serve_warm" => (&[36, 40, 44], rows16(36), 100, false),
        "serve_stream" => (&[28, 32, 36], None, 400, false),
        "serve_churn" => (&[44; 40], rows16(44), 100, true),
        other => return Err(format!("{other} is not a serve workload")),
    };
    let recipes: Vec<WirePdn> = grids
        .iter()
        .enumerate()
        .map(|(i, &n)| wire_pdn(n, grid_seed(seed, workload, i as u64)))
        .collect();
    let circuits = recipes
        .iter()
        .map(ServeCircuit::pdn)
        .collect::<Result<Vec<_>, _>>()?;
    let spec = serve_spec(rows, samples)?;
    let (first, twin) = (recipes[0], wire_pdn(grids[grids.len() / 2], TWIN_SEED));
    if churn {
        // Per circuit: the base job, then three cap edits of seed-drawn
        // rows. A circuit's four jobs stay on one client, in order, so
        // the base is resolved before its edits ask for it.
        let mut scripts = vec![Vec::new(); WIDTH];
        for (c, &n) in grids.iter().enumerate() {
            let script = &mut scripts[c % WIDTH];
            script.push(WireJob {
                circuit: c,
                scale: None,
                cap: None,
            });
            for (e, factor) in [2.0, 0.5, 4.0].into_iter().enumerate() {
                let row = derive(seed, "cap_row", (c * 3 + e) as u64) as usize % (n * n);
                script.push(WireJob {
                    circuit: c,
                    scale: None,
                    cap: Some((row, factor)),
                });
            }
        }
        let traffic = Traffic {
            plan: Plan {
                circuits,
                spec,
                store_dir: Some(scratch.join("churn-store")),
                warmup: Vec::new(),
            },
            scripts,
            phases: &["fill", "restart"],
        };
        return Ok(ServeWorkload {
            traffic,
            first,
            twin,
        });
    }
    // After the warm-up pass of the base jobs, every job is a distinct
    // source-scale variant: same factors (cache hit), new DC point.
    let warmup = (0..circuits.len())
        .map(|circuit| WireJob {
            circuit,
            scale: None,
            cap: None,
        })
        .collect();
    let scripts = (0..WIDTH)
        .map(|client| {
            (0..per_client)
                .map(|i| {
                    let j = i * WIDTH + client;
                    WireJob {
                        circuit: j % circuits.len(),
                        scale: Some(0.75 + 0.5 * derive_unit(seed, "scale", j as u64)),
                        cap: None,
                    }
                })
                .collect()
        })
        .collect();
    let traffic = Traffic {
        plan: Plan {
            circuits,
            spec,
            store_dir: None,
            warmup,
        },
        scripts,
        phases: &["run"],
    };
    Ok(ServeWorkload {
        traffic,
        first,
        twin,
    })
}

/// The engine's counters after a phase: the `stats` verb, plus the two
/// counters the verb does not carry, read from the engine.
fn phase_counters(svc: &Service) -> Result<HashMap<String, f64>, String> {
    let mut stats = Client::connect(svc.addr())?.stats()?;
    let s = svc.engine.stats();
    stats.insert("retries".into(), s.retries as f64);
    stats.insert("store_errors".into(), s.store_errors as f64);
    Ok(stats)
}

/// Everything the measured part of a serve run produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Completed jobs of every phase, in start order within a phase.
    pub done: Vec<Done>,
    /// Failure texts (rejected, failed, dropped).
    pub failures: Vec<String>,
    /// Sum of the phases' walls, seconds.
    pub wall_s: f64,
    /// Counters per phase label.
    pub counters: Vec<(&'static str, HashMap<String, f64>)>,
}

/// Runs the traffic against `first` (already started and warm): every
/// phase works the scripts down to their end; each phase after the first
/// runs on a freshly started engine over the same store.
///
/// # Errors
///
/// Service start failures between phases.
pub fn measure(t: &Traffic, first: Service, keep_series: bool) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut svc = Some(first);
    for phase in t.phases {
        let service = match svc.take() {
            Some(s) => s,
            None => Service::start(&t.plan)?,
        };
        let t0 = Instant::now();
        let (done, failed) = run_clients(service.addr(), &t.plan, &t.scripts, phase, keep_series);
        m.wall_s += t0.elapsed().as_secs_f64();
        m.done.extend(done);
        m.failures.extend(failed);
        m.counters.push((phase, phase_counters(&service)?));
        service.stop();
    }
    Ok(m)
}

/// Sets a serve workload up once: circuits, accuracy twin, store
/// directory, service start, warm-up.
///
/// # Errors
///
/// Any of those failing.
pub fn set_up(
    workload: &str,
    seed: u64,
    per_client: usize,
    scratch: &Path,
) -> Result<(Traffic, Service, f64), String> {
    let ServeWorkload {
        traffic: t, twin, ..
    } = traffic(workload, seed, per_client, scratch)?;
    t.plan.clear_store()?;
    let err = twin_error(&twin, &t.plan.spec)?;
    let svc = Service::start(&t.plan)?;
    Ok((t, svc, err))
}

/// Set-up time is short and therefore noisy here: it is done three
/// times and the median reported. The last set-up is the one measured
/// against.
const SETUP_REPEATS: usize = 3;

fn end_to_end_values(out: &mut RunResult, m: &Measured, wrong: u64) {
    let ms: Vec<f64> = m.done.iter().map(|d| d.times.total_ms()).collect();
    out.attempted = (m.done.len() + m.failures.len()) as u64;
    out.failed = (m.failures.len() as u64 + wrong).min(out.attempted);
    out.note(format!(
        "failed_or_rejected={} wrong_waveforms={wrong}",
        m.failures.len()
    ));
    for f in m.failures.iter().take(3) {
        out.note(format!("failure: {f}"));
    }
    out.push_job_times(&ms, m.wall_s);
    out.values.extend(phase_values(m));
}

/// `serve.phase_p50_ms.<phase>`: the median job of each named phase of
/// a multi-phase (scripted) workload; nothing for single-phase traffic.
pub fn phase_values(m: &Measured) -> Vec<Value> {
    let mut phases: Vec<&'static str> = m.counters.iter().map(|(p, _)| *p).collect();
    phases.dedup();
    if phases.len() < 2 {
        return Vec::new();
    }
    phases
        .iter()
        .map(|phase| {
            let ms: Vec<f64> = m
                .done
                .iter()
                .filter(|d| d.phase == *phase)
                .map(|d| d.times.total_ms())
                .collect();
            Value::median_of(&format!("serve.phase_p50_ms.{phase}"), &ms, "ms")
        })
        .collect()
}

/// The untraced run of a serve workload.
///
/// # Errors
///
/// Set-up failures; failing *jobs* are counted, not fatal.
pub fn run_untraced(
    workload: &str,
    seed: u64,
    seconds: f64,
    scratch: &Path,
) -> Result<RunResult, String> {
    let mut out = RunResult::default();
    let per_client = jobs_for(JOBS_PER_CLIENT, 160, seconds);
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((_, svc, _)) = ready.take() {
            Service::stop(svc);
        }
        let t0 = Instant::now();
        ready = Some(set_up(workload, seed, per_client, scratch)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (t, svc, max_err) = ready.expect("set up at least once");
    let keep = t.plan.store_dir.is_some();
    let m = measure(&t, svc, keep)?;
    let rss = peak_rss_mb();
    let wrong = verify(&t.plan, &m.done)? + u64::from(max_err > MAX_ERR_LIMIT_V);
    end_to_end_values(&mut out, &m, wrong);
    out.push(Value::scalar("max_err_v", max_err, "V"));
    out.push(Value::scalar("peak_rss_mb", rss, "MB"));
    out.push(Value::median_of("setup_s", &setups, "s"));
    Ok(out)
}

/// Records one job's client-side timeline as spans: the job, its three
/// contiguous parts, and the engine's own run time under the wait.
pub fn record_job_spans(tr: &Tracer, d: &Done, job: u64) {
    let at = tr.us(d.times.started);
    let (ack, wait, stream) = (
        d.times.ack_ms * 1e3,
        d.times.wait_ms * 1e3,
        d.times.stream_ms * 1e3,
    );
    let root = tr.record("job.serve", None, job, at, ack + wait + stream);
    tr.record("serve.ack", Some(root), job, at, ack);
    let w = tr.record("serve.wait", Some(root), job, at + ack, wait);
    tr.record("serve.stream", Some(root), job, at + ack + wait, stream);
    // The engine finished when the wait returned; it may have started
    // while the ack was still in flight, so the span is clipped.
    let run = (d.waited.engine_ms * 1e3).min(wait);
    tr.record("serve.engine_run", Some(w), job, at + ack + wait - run, run);
}

/// The tenth of the jobs whose whole-job time is nearest the median.
/// The *median job*'s split is each part averaged over them: the medians
/// of the parts, taken one by one, would not add up to the median job on
/// a workload that mixes cheap and dear jobs (`serve_churn`); these do,
/// to within the width of that tenth.
fn median_band(done: &[Done]) -> Vec<&Done> {
    let mut by_total: Vec<&Done> = done.iter().collect();
    by_total.sort_by(|a, b| a.times.total_ms().total_cmp(&b.times.total_ms()));
    let n = by_total.len();
    let lo = n * 45 / 100;
    by_total[lo..(n * 55).div_ceil(100).max(lo + 1)].to_vec()
}

/// The `serve.*` values of a traced session: the median job's
/// client-side split, the engine's counters, and — from `inproc_ms`, the
/// same jobs through in-process `ScenarioEngine::run` — what the wire
/// adds.
///
/// # Panics
///
/// Panics when no job completed.
pub fn session_values(m: &Measured, tcp_ms: &[f64], inproc_ms: &[f64]) -> Vec<Value> {
    let band = median_band(&m.done);
    let split = |name: &str, part: &dyn Fn(&Done) -> f64| {
        let all: Vec<f64> = m.done.iter().map(part).collect();
        Value {
            value: band.iter().map(|d| part(d)).sum::<f64>() / band.len() as f64,
            ..Value::median_of(name, &all, "ms")
        }
    };
    let bytes: f64 = m.done.iter().map(|d| d.streamed.bytes as f64).sum();
    let total = |key: &str| -> f64 {
        m.counters
            .iter()
            .map(|(_, c)| c.get(key).copied().unwrap_or(0.0))
            .sum()
    };
    vec![
        // The session's own median job: what the three parts below add
        // up to (printed, not listed).
        Value::median_of(
            "serve.session_p50_ms",
            &m.done
                .iter()
                .map(|d| d.times.total_ms())
                .collect::<Vec<_>>(),
            "ms",
        ),
        split("serve.ack_ms", &|d| d.times.ack_ms),
        split("serve.wait_ms", &|d| d.times.wait_ms),
        split("serve.stream_ms", &|d| d.times.stream_ms),
        split("serve.engine_run_ms", &|d| d.waited.engine_ms),
        // The engine starts on a job while its ack is still in flight,
        // so the time it did *not* spend running is taken over ack + wait.
        split("serve.queue_ms", &|d| {
            d.times.ack_ms + d.times.wait_ms - d.waited.engine_ms
        }),
        Value::scalar(
            "serve.wire_overhead_ms",
            median(tcp_ms) - median(inproc_ms),
            "ms",
        ),
        Value::scalar(
            "serve.bytes_per_job",
            bytes / m.done.len().max(1) as f64,
            "B",
        ),
        Value::scalar(
            "serve.warm_rate",
            total("warm_jobs") / total("completed").max(1.0),
            "ratio",
        ),
        Value::scalar("serve.whatif_hits", total("whatif_hits"), "count"),
        Value::scalar("serve.evictions", total("evictions"), "count"),
        Value::scalar("serve.rejected", total("rejected"), "count"),
        Value::scalar("serve.retries", total("retries"), "count"),
        Value::scalar("store.hits", total("store_hits"), "count"),
        Value::scalar("store.writes", total("store_writes"), "count"),
        Value::scalar("store.io_errors", total("store_errors"), "count"),
    ]
}

/// The first `per_client` jobs of each script through in-process
/// `ScenarioEngine::run` on a fresh engine of the same kind — one thread
/// per script, like the clients — timed per job. For a scripted
/// workload this is its first phase on an empty store.
///
/// # Errors
///
/// Engine or job failures.
pub fn inprocess_ms(t: &Traffic, per_client: usize, scratch: &Path) -> Result<Vec<f64>, String> {
    let mut plan = t.plan.clone();
    if plan.store_dir.is_some() {
        plan.store_dir = Some(scratch.join("inprocess-store"));
    }
    let engine = ScenarioEngine::new(engine_options(plan.open_store()?));
    for job in &plan.warmup {
        engine.run(&plan.job_spec(job)).map_err(|e| e.to_string())?;
    }
    let (engine, plan_ref) = (&engine, &plan);
    let per: Vec<Result<Vec<f64>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = t
            .scripts
            .iter()
            .map(|script| {
                scope.spawn(move || {
                    script
                        .iter()
                        .take(per_client)
                        .map(|job| {
                            let t0 = Instant::now();
                            engine
                                .run(&plan_ref.job_spec(job))
                                .map(|_| t0.elapsed().as_secs_f64() * 1e3)
                                .map_err(|e| e.to_string())
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("an in-process client panicked"))
            .collect()
    });
    plan.clear_store()?;
    let per: Vec<Vec<f64>> = per.into_iter().collect::<Result<_, _>>()?;
    Ok(per.concat())
}

/// The small session the traced run of a *solver* workload puts its
/// circuit through, so that the `serve.*` columns exist there too: the
/// circuit shipped as inline SPICE, the base job as warm-up, then a few
/// distinct source-scale variants from one client.
///
/// # Errors
///
/// Spec construction failures.
pub fn probe_traffic(fx: &Fixture, seed: u64, jobs: usize) -> Result<Traffic, String> {
    let script = (0..jobs)
        .map(|j| WireJob {
            circuit: 0,
            scale: Some(0.75 + 0.5 * derive_unit(seed, "probe_scale", j as u64)),
            cap: None,
        })
        .collect();
    Ok(Traffic {
        plan: Plan {
            circuits: vec![ServeCircuit::netlist(fx)],
            spec: fx.spec.clone(),
            store_dir: None,
            warmup: vec![WireJob {
                circuit: 0,
                scale: None,
                cap: None,
            }],
        },
        scripts: vec![script],
        phases: &["run"],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(store: Option<PathBuf>) -> Traffic {
        let circuits: Vec<ServeCircuit> = (0..4)
            .map(|i| ServeCircuit::pdn(&wire_pdn(8, 50 + i)).unwrap())
            .collect();
        let mut scripts = vec![Vec::new(); WIDTH];
        for c in 0..4 {
            let s = &mut scripts[c % WIDTH];
            s.push(WireJob {
                circuit: c,
                scale: None,
                cap: None,
            });
            s.push(WireJob {
                circuit: c,
                scale: Some(1.5),
                cap: None,
            });
            s.push(WireJob {
                circuit: c,
                scale: None,
                cap: Some((5, 2.0)),
            });
        }
        Traffic {
            plan: Plan {
                circuits,
                spec: serve_spec(Some(spread_rows(64, 4)), 100).unwrap(),
                store_dir: store,
                warmup: Vec::new(),
            },
            scripts,
            phases: &["fill", "restart"],
        }
    }

    #[test]
    fn fill_then_restart_serves_from_the_store_and_verifies() {
        let dir = std::env::temp_dir().join(format!("matex-bench-serve-{}", std::process::id()));
        let t = tiny(Some(dir.join("store")));
        let svc = Service::start(&t.plan).unwrap();
        let m = measure(&t, svc, true).unwrap();
        assert!(m.failures.is_empty(), "{:?}", m.failures);
        let done = &m.done;
        assert_eq!(done.len(), 24);
        let counters = |phase: &str| &m.counters.iter().find(|(p, _)| *p == phase).unwrap().1;
        assert!(counters("fill")["store_writes"] > 0.0);
        assert_eq!(counters("fill")["setup_misses"], 4.0);
        assert!(counters("restart")["store_hits"] > 0.0);
        assert_eq!(counters("restart")["setup_misses"], 0.0);
        assert_eq!(counters("restart")["whatif_hits"], 4.0);
        assert_eq!(verify(&t.plan, done).unwrap(), 0);
        // A flipped bit in one stream is one wrong waveform.
        let mut bad = done.clone();
        bad[0].streamed.hash ^= 1;
        bad[0].waited.whatif = false;
        assert_eq!(verify(&t.plan, &bad).unwrap(), 1);

        let tr = Tracer::new();
        for (j, d) in done.iter().enumerate() {
            record_job_spans(&tr, d, j as u64);
        }
        let tcp: Vec<f64> = done.iter().map(|d| d.times.total_ms()).collect();
        let inproc = inprocess_ms(&t, 5, &dir).unwrap();
        assert_eq!(inproc.len(), 10);
        let vals = session_values(&m, &tcp, &inproc);
        let get = |n: &str| vals.iter().find(|v| v.name == n).unwrap().value;
        // The median job's parts add up to the median job.
        let parts = get("serve.ack_ms") + get("serve.wait_ms") + get("serve.stream_ms");
        assert!(
            (parts - median(&tcp)).abs() < 0.25 * median(&tcp),
            "{parts}"
        );
        assert!(get("store.hits") > 0.0);
        assert_eq!(get("serve.whatif_hits"), 8.0);
        // Spans of one job are contiguous: no self time left at the root.
        let spans = tr.spans();
        assert!(crate::trace::self_time_us(&spans, 0).abs() < 1e-6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seeded_traffic_is_reproducible_and_split_by_client() {
        let dir = std::env::temp_dir();
        let w = traffic("serve_warm", 9, 50, &dir).unwrap();
        assert_eq!((w.twin.n, w.twin.seed, w.first.n), (40, TWIN_SEED, 36));
        let (a, b) = (
            w.traffic,
            traffic("serve_warm", 9, 50, &dir).unwrap().traffic,
        );
        assert_eq!((a.scripts.len(), a.scripts[0].len()), (WIDTH, 50));
        assert_eq!(a.scripts[1], b.scripts[1]);
        assert_ne!(a.scripts[0][0].scale, a.scripts[1][0].scale);
        assert_ne!(
            traffic("serve_warm", 10, 50, &dir).unwrap().traffic.scripts[0][0].scale,
            a.scripts[0][0].scale
        );
        let churn = traffic("serve_churn", 9, 0, &dir).unwrap().traffic;
        assert_eq!((churn.scripts[0].len(), churn.phases.len()), (80, 2));
        let line = a.plan.submit_line(&a.scripts[0][0]);
        assert!(line.contains("\"rows\": \"0,81,162") && line.contains("\"scale\": "));
        assert!(matex_serve::parse_flat_json(&line).is_ok());
        assert!(traffic("cold_factor", 1, 50, &dir).is_err());
    }
}
