//! The master node: grouping, scheduling, execution, superposition.

use crate::plan::{plan_groups, GroupPlan, PlanJob};
use crate::schedule::{NodeMeasurement, RunStats};
use crate::{DistError, DistributedOptions};
use matex_circuit::MnaSystem;
use matex_core::{
    panic_message, CoreError, FaultKind, MatexSetup, MatexSolver, MatexSymbolic, SolveStats,
    TransientEngine, TransientResult, TransientSpec,
};
use matex_par::ParPool;
use matex_waveform::SpotSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One slave node's completed subtask (accounting only — the node's
/// sample series is superposed into the combined result as soon as the
/// node finishes, then dropped, so peak memory no longer scales with the
/// group count).
#[derive(Debug, Clone)]
pub struct NodeRun {
    /// Group id this node simulated (0 is the constant/supply group).
    pub group: usize,
    /// Number of member sources in the group.
    pub num_sources: usize,
    /// Local transition spots inside the simulation window — the number
    /// of fresh Krylov subspaces the node must generate, and therefore
    /// the scheduler's cost estimate for the group.
    pub num_lts: usize,
    /// Wall time of this node's solver run as measured on the worker
    /// thread (uncontended when `workers == Some(1)`).
    pub wall: Duration,
    /// The node's solver cost counters and timings.
    pub stats: SolveStats,
}

/// A completed distributed run.
#[derive(Debug, Clone)]
pub struct DistributedRun {
    /// The superposed full solution.
    pub result: TransientResult,
    /// Per-node accounting, in ascending group order.
    pub nodes: Vec<NodeRun>,
    /// Global transition spots (union of all LTS).
    pub gts: SpotSet,
    /// Scheduling accounting: per-group predicted-vs-measured cost and
    /// the master's analysis and preparation times.
    pub stats: RunStats,
    /// Makespan of the pure transient phase: the *maximum* node transient
    /// time, per the paper's one-instance-per-node accounting (Table 3's
    /// `trmatex`).
    pub emulated_transient: Duration,
    /// The paper's one-factorization-per-machine makespan (Table 3's
    /// `tr_total`): the run's one preparation
    /// ([`RunStats::prepare_time`]) plus the slowest node's DC and
    /// transient time.
    pub emulated_total: Duration,
    /// Wall time of the streaming superposition work on the master.
    pub superposition_time: Duration,
    /// Actual wall time of the whole distributed run on this machine
    /// (contended when several workers share cores).
    pub wall_time: Duration,
    /// Node re-dispatches performed after solver failures or panics
    /// (0 on a healthy run). Each retry replays the identical pure
    /// computation, so a non-zero count never changes the waveform.
    pub node_retries: usize,
}

impl DistributedRun {
    /// Number of simulated groups (slave nodes).
    pub fn num_groups(&self) -> usize {
        self.nodes.len()
    }
}

/// What a worker hands the master per finished node.
type NodeOutcome = Result<(NodeRun, TransientResult), CoreError>;

/// Shared dispatch state: the LPT cursor plus the master's retry queue.
/// Workers drain retries before fresh schedule positions so a recovered
/// group lands while its superposition slot is still the drain frontier.
struct WorkQueue {
    next: usize,
    retry: Vec<usize>,
    done: bool,
}

/// Streaming accumulator: superposes node results **in ascending group
/// order** as they arrive, buffering only out-of-order completions, so
/// the combined numerics stay bitwise independent of the worker count
/// while full per-node series are dropped as soon as they are summed.
///
/// The summation order is the **LPT schedule order** — a fixed
/// permutation of the groups determined by the jobs alone, never by the
/// worker count (that fixedness is what makes the result bitwise
/// worker-invariant). Because workers also *dispatch* in that order,
/// completions arrive approximately in drain order and the out-of-order
/// buffer stays bounded by the in-flight worker count, instead of
/// growing with the group count as an ascending-group drain would when
/// LPT schedules a light group last.
struct Superposer {
    pending: Vec<Option<(NodeRun, TransientResult)>>,
    next: usize,
    acc: Option<TransientResult>,
    stats: SolveStats,
    engine: String,
    nodes: Vec<NodeRun>,
    spent: Duration,
}

impl Superposer {
    fn new(jobs: usize) -> Superposer {
        Superposer {
            pending: (0..jobs).map(|_| None).collect(),
            next: 0,
            acc: None,
            stats: SolveStats::default(),
            engine: String::new(),
            nodes: Vec::with_capacity(jobs),
            spent: Duration::ZERO,
        }
    }

    /// Accepts the payload of the node at schedule position `pos` and
    /// drains everything now contiguous in schedule order.
    fn push(&mut self, pos: usize, payload: (NodeRun, TransientResult)) -> Result<(), CoreError> {
        self.pending[pos] = Some(payload);
        while self.next < self.pending.len() {
            let Some((node, series)) = self.pending[self.next].take() else {
                break;
            };
            let t0 = Instant::now();
            if self.acc.is_none() {
                // "Zeros + add-all" in the fixed schedule order: every
                // node shares one grid, so any first node seeds it.
                self.acc = Some(series.zeros_like());
                self.engine = series.engine.clone();
            }
            self.acc
                .as_mut()
                .expect("accumulator present")
                .add_scaled(&series, 1.0)?;
            self.stats.absorb(&series.stats);
            self.spent += t0.elapsed();
            self.nodes.push(node);
            self.next += 1;
            // `series` dropped here: the streamed memory saving.
        }
        Ok(())
    }
}

/// Runs the distributed MATEX framework of paper Fig. 4.
///
/// Sources are partitioned under `opts.strategy`; each group becomes one
/// subtask running a masked [`MatexSolver`] with the group's LTS against
/// the shared immutable `sys`. The node matrices are identical —
/// masking only selects input columns — so the master prepares **one**
/// [`MatexSetup`] per run (the injected `opts.setup`, else one
/// [`MatexSetup::prepare`] from the injected-or-fresh [`MatexSymbolic`])
/// and shares it read-only with every worker: no node ever factors.
/// Subtasks are scheduled onto a scoped worker
/// pool in longest-processing-time order (cost estimate: LTS count) and
/// every finished node's samples are immediately superposed into the
/// combined result in that same fixed, worker-independent schedule
/// order, so the numerics are bitwise independent of `opts.workers`
/// while peak memory stays at one full series plus the in-flight
/// stragglers.
///
/// Workers are **supervised**: a node that panics or fails is
/// re-dispatched to a surviving worker up to `opts.max_node_retries`
/// times before the run aborts. A retried node replays the identical
/// pure computation against the shared read-only artifacts and
/// superposes at its original schedule position, so recovered runs are
/// bitwise-identical to fault-free ones ([`DistributedRun::node_retries`]
/// counts the re-dispatches).
///
/// # Errors
///
/// Returns [`DistError::Analyze`] when the master's analysis or
/// preparation fails, [`DistError::Node`] carrying the first terminal
/// node failure (retry budget exhausted; panics arrive as
/// [`CoreError::Panicked`]), or [`DistError::Superposition`] if result
/// grids mismatch (internal invariant violation).
pub fn run_distributed(
    sys: &MnaSystem,
    spec: &TransientSpec,
    opts: &DistributedOptions,
) -> Result<DistributedRun, DistError> {
    let wall0 = Instant::now();

    // The planning phase — grouping, LTS clipping, LPT ordering — either
    // injected (a scenario engine amortizes it across runs of one
    // circuit) or computed here. The plan is a pure function of
    // `(sources, window, strategy)`, so injection never changes the jobs
    // or their fixed summation order.
    let plan_storage;
    let plan: &GroupPlan = match &opts.plan {
        Some(shared) => {
            shared
                .check(sys, spec, opts.strategy)
                .map_err(DistError::Plan)?;
            shared.as_ref()
        }
        None => {
            plan_storage = plan_groups(sys, spec, opts.strategy);
            &plan_storage
        }
    };
    let jobs: &[PlanJob] = plan.jobs();
    let order: &[usize] = plan.order();

    let workers = opts
        .workers
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1)
        .min(jobs.len());

    // Nested-parallelism policy: one total kernel-thread budget
    // (`MATEX_THREADS` / `opts.par`, 1 when unset), divided across the
    // active workers so node-level and kernel-level parallelism compose
    // without oversubscribing. Each worker owns one pool for all the
    // nodes it runs. Kernel results are bitwise-invariant in the pool
    // width, so the division (and the worker count) never changes the
    // waveform.
    let kernel_budget = (opts.par.resolve() / workers).max(1);

    // One preparation per run, on the master: the matrices are identical
    // across nodes (masking only selects input columns), so every node
    // marches from the same factors. An injected setup is used as is; an
    // injected analysis skips only the master's own analysis.
    let mut analyze_time = Duration::ZERO;
    let setup: Arc<MatexSetup> = match &opts.setup {
        Some(shared) => shared.clone(),
        None => {
            let fresh;
            let symbolic: &MatexSymbolic = match &opts.symbolic {
                Some(shared) => shared,
                None => {
                    let ta = Instant::now();
                    fresh = MatexSymbolic::analyze(sys, &opts.matex).map_err(DistError::Analyze)?;
                    analyze_time = ta.elapsed();
                    let obs = &opts.matex.obs;
                    obs.record_span("dist.analyze", obs.job(), ta, analyze_time, &[]);
                    obs.observe("dist_analyze_seconds", analyze_time);
                    &fresh
                }
            };
            let _sp = opts.matex.obs.span("dist.prepare");
            Arc::new(
                MatexSetup::prepare(sys, &opts.matex, Some(symbolic), false)
                    .map_err(DistError::Analyze)?,
            )
        }
    };

    // rank[job] = position in the schedule (and summation) order.
    let mut rank = vec![0usize; jobs.len()];
    for (k, &j) in order.iter().enumerate() {
        rank[j] = k;
    }

    // Worker pool: a shared queue draining the LPT order (retries first);
    // finished subtasks stream back to the master, which superposes them
    // in group order and is the sole arbiter of failure: a failed or
    // panicked node is pushed back onto the queue for a surviving worker
    // (its retry replays the identical pure computation and superposes at
    // the original schedule position, so recovery is bitwise-invisible)
    // until its attempt budget runs out, at which point `done` stops the
    // pool from simulating groups whose results would be discarded.
    let work = (
        Mutex::new(WorkQueue {
            next: 0,
            retry: Vec::new(),
            done: false,
        }),
        Condvar::new(),
    );
    let (tx, rx) = mpsc::channel::<(usize, NodeOutcome)>();
    let mut sup = Superposer::new(jobs.len());
    let mut failures: Vec<(usize, CoreError)> = Vec::new();
    let mut attempts = vec![0usize; jobs.len()];
    let mut node_retries = 0usize;
    std::thread::scope(|scope| {
        let (work, setup) = (&work, &setup);
        for w in 0..workers {
            let tx = tx.clone();
            scope.spawn(move || {
                let pool = Arc::new(ParPool::new(kernel_budget));
                let (queue, available) = work;
                loop {
                    // Take a retry if one is queued, else advance the LPT
                    // cursor, else wait for the master to queue a retry or
                    // declare the run over. Cooperative cancellation:
                    // stop dispatching the moment the token trips
                    // (running nodes give up at their own step boundaries
                    // via `with_cancel`).
                    let j = {
                        let mut q = queue.lock().expect("work queue poisoned");
                        loop {
                            if q.done || opts.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                                break None;
                            }
                            if let Some(j) = q.retry.pop() {
                                break Some((j, true));
                            }
                            if let Some(&j) = order.get(q.next) {
                                q.next += 1;
                                break Some((j, false));
                            }
                            // Short timeout: the condvar has no waker for
                            // an externally tripped cancel token.
                            q = available
                                .wait_timeout(q, Duration::from_millis(5))
                                .expect("work queue poisoned")
                                .0;
                        }
                    };
                    let Some((j, was_retry)) = j else { break };
                    // One span per dispatch: the timeline shows which
                    // worker ran which group, and whether the dispatch
                    // was a retry of a failed node.
                    let mut node_span = opts.matex.obs.span("dist.node");
                    if node_span.is_armed() {
                        node_span.label("group", jobs[j].group.to_string());
                        node_span.label("worker", w.to_string());
                        node_span.label("retry", if was_retry { "1" } else { "0" });
                    }
                    // Supervision: a panicking node unwinds into a node
                    // error (payload message preserved) instead of
                    // poisoning the scope and aborting the process.
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        match opts.matex.faults.check("dist.node") {
                            Some(FaultKind::Panic) => {
                                panic!("injected fault: dist.node (group {})", jobs[j].group)
                            }
                            Some(FaultKind::Error) => {
                                return Err(CoreError::Injected {
                                    site: "dist.node".to_string(),
                                })
                            }
                            None => {}
                        }
                        run_node(sys, spec, opts, &jobs[j], setup.clone(), pool.clone())
                    }))
                    .unwrap_or_else(|payload| Err(CoreError::Panicked(panic_message(&*payload))));
                    node_span.label("ok", if outcome.is_ok() { "1" } else { "0" });
                    drop(node_span);
                    opts.matex.obs.add_labeled(
                        "dist_nodes_total",
                        &[("outcome", if outcome.is_ok() { "ok" } else { "err" })],
                        1,
                    );
                    if tx.send((j, outcome)).is_err() {
                        break; // master gone (superposition error): stop
                    }
                }
            });
        }
        drop(tx);
        // The master thread superposes while workers keep producing, and
        // decides per failure: re-queue (budget remaining) or abort.
        while let Ok((j, outcome)) = rx.recv() {
            match outcome {
                Ok(payload) => {
                    if let Err(e) = sup.push(rank[j], payload) {
                        failures.push((j, e));
                        break;
                    }
                    if sup.next == jobs.len() {
                        break; // all drained; idle workers hold senders
                    }
                }
                Err(e) => {
                    let retryable =
                        !matches!(e, CoreError::Cancelled) && attempts[j] < opts.max_node_retries;
                    if retryable {
                        attempts[j] += 1;
                        node_retries += 1;
                        opts.matex.obs.add("dist_node_retries_total", 1);
                        let (queue, available) = &work;
                        queue.lock().expect("work queue poisoned").retry.push(j);
                        available.notify_all();
                    } else {
                        failures.push((j, e));
                        break;
                    }
                }
            }
        }
        // Whatever ended the drain — completion, terminal failure or a
        // superposition mismatch — wake every waiting worker to exit.
        let (queue, available) = &work;
        queue.lock().expect("work queue poisoned").done = true;
        available.notify_all();
    });

    if let Some((j, source)) = failures.into_iter().min_by_key(|&(j, _)| j) {
        // First completed failure in group order. Distinguish internal
        // superposition mismatches from node solver failures, and fold
        // per-node cancellations into the run-level verdict.
        return Err(match source {
            CoreError::Cancelled => DistError::Cancelled,
            CoreError::Incomparable(_) => DistError::Superposition(source),
            _ => DistError::Node {
                group: jobs[j].group,
                source,
            },
        });
    }
    if sup.next != jobs.len() {
        // No node failed, yet jobs went unran: the only path is the
        // cancel token tripping before every node was dispatched.
        assert!(
            opts.cancel.as_ref().is_some_and(|c| c.is_cancelled()),
            "worker pool left a job unran without a failure or cancellation"
        );
        return Err(DistError::Cancelled);
    }
    let Superposer {
        mut nodes,
        stats,
        engine,
        acc,
        spent: superposition_time,
        ..
    } = sup;
    let mut result = acc.expect("at least one job ran");
    result.stats = stats;
    // Every node reports the shared setup's amortized factorization
    // cost; the run performed it once.
    result.stats.factorizations = setup.factorizations();
    result.stats.refactorizations = setup.refactorizations();
    result.stats.factor_time = setup.factor_time();
    result.engine = format!("MATEX-dist[{} x {}]", nodes.len(), engine);
    // Drained in schedule order; the public accounting is group order.
    nodes.sort_by_key(|n| n.group);

    let run_stats = RunStats::from_measurements(
        &nodes
            .iter()
            .map(|n| NodeMeasurement {
                group: n.group,
                num_lts: n.num_lts,
                wall: n.wall,
                expm_time: n.stats.expm_time,
                combine_time: n.stats.combine_time,
            })
            .collect::<Vec<_>>(),
        analyze_time,
        setup.factor_time(),
    );
    let emulated_transient = nodes
        .iter()
        .map(|n| n.stats.transient_time)
        .max()
        .unwrap_or_default();
    let emulated_total = setup.factor_time()
        + nodes
            .iter()
            .map(|n| n.stats.dc_time + n.stats.transient_time)
            .max()
            .unwrap_or_default();

    Ok(DistributedRun {
        result,
        nodes,
        gts: plan.gts().clone(),
        stats: run_stats,
        emulated_transient,
        emulated_total,
        superposition_time,
        wall_time: wall0.elapsed(),
        node_retries,
    })
}

/// Runs one group's masked solver (one slave node of Fig. 4) from the
/// run's shared preparation.
fn run_node(
    sys: &MnaSystem,
    spec: &TransientSpec,
    opts: &DistributedOptions,
    job: &PlanJob,
    setup: Arc<MatexSetup>,
    pool: Arc<ParPool>,
) -> NodeOutcome {
    let t0 = Instant::now();
    let mut solver = MatexSolver::new(opts.matex.clone())
        .with_source_mask(job.members.clone())
        .with_lts(job.lts.clone())
        .with_setup(setup)
        .with_parallelism(pool);
    if let Some(token) = &opts.cancel {
        solver = solver.with_cancel(token.clone());
    }
    let result = solver.run(sys, spec)?;
    Ok((
        NodeRun {
            group: job.group,
            num_sources: job.members.len(),
            num_lts: job.lts.len(),
            wall: t0.elapsed(),
            stats: result.stats.clone(),
        },
        result,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use matex_circuit::{Netlist, PdnBuilder};
    use matex_core::MatexOptions;
    use matex_waveform::{GroupingStrategy, Pulse, Waveform};

    fn small_grid() -> MnaSystem {
        PdnBuilder::new(6, 6)
            .num_loads(8)
            .num_features(3)
            .window(1e-9)
            .build()
            .expect("grid builds")
    }

    #[test]
    fn groups_cover_every_source_once() {
        let sys = small_grid();
        let spec = TransientSpec::new(0.0, 1e-9, 2e-11).unwrap();
        let run = run_distributed(&sys, &spec, &DistributedOptions::default()).unwrap();
        let covered: usize = run.nodes.iter().map(|n| n.num_sources).sum();
        assert_eq!(covered, sys.num_sources());
        // Ascending group order, starting with the supply group.
        for w in run.nodes.windows(2) {
            assert!(w[0].group < w[1].group);
        }
        assert_eq!(run.nodes[0].group, 0);
    }

    #[test]
    fn matches_monolithic_solver() {
        let sys = small_grid();
        let spec = TransientSpec::new(0.0, 1e-9, 2e-11).unwrap();
        let opts = DistributedOptions {
            matex: MatexOptions::default().tol(1e-10),
            ..DistributedOptions::default()
        };
        let run = run_distributed(&sys, &spec, &opts).unwrap();
        let mono = MatexSolver::new(MatexOptions::default().tol(1e-10))
            .run(&sys, &spec)
            .unwrap();
        let (max_err, _) = run.result.error_vs(&mono).unwrap();
        assert!(max_err < 1e-6, "superposition deviates: {max_err:.3e}");
    }

    #[test]
    fn a_run_prepares_once_whatever_its_group_count() {
        // 8 bump features + the supply group, and still the one
        // preparation of a monolithic R-MATEX run: G and C + γG, both
        // replays of the master's analysis, reported once.
        let sys = PdnBuilder::new(8, 8)
            .num_loads(16)
            .num_features(8)
            .window(1e-9)
            .build()
            .expect("grid builds");
        let spec = TransientSpec::new(0.0, 1e-9, 2e-11).unwrap();
        let run = run_distributed(&sys, &spec, &DistributedOptions::default()).unwrap();
        assert_eq!(run.num_groups(), 9);
        assert_eq!(run.result.stats.factorizations, 2);
        assert_eq!(run.result.stats.refactorizations, 2);
        assert_eq!(run.result.stats.factor_time, run.stats.prepare_time);
        assert!(run.stats.analyze_time > Duration::ZERO);
        assert!(run.stats.prepare_time > Duration::ZERO);
        // Nodes report that same preparation (amortized), never their own.
        for node in &run.nodes {
            assert_eq!(node.stats.factor_time, run.stats.prepare_time);
        }
        // One factorization per machine: preparation + slowest DC + march.
        let slowest = run
            .nodes
            .iter()
            .map(|n| n.stats.dc_time + n.stats.transient_time)
            .max()
            .unwrap();
        assert_eq!(run.emulated_total, run.stats.prepare_time + slowest);
        // The other counters still sum over the nodes.
        let pairs: usize = run.nodes.iter().map(|n| n.stats.substitution_pairs).sum();
        assert_eq!(run.result.stats.substitution_pairs, pairs);
    }

    #[test]
    fn run_stats_cover_every_group() {
        let sys = small_grid();
        let spec = TransientSpec::new(0.0, 1e-9, 2e-11).unwrap();
        let run = run_distributed(&sys, &spec, &DistributedOptions::default()).unwrap();
        assert_eq!(run.stats.groups.len(), run.num_groups());
        let p: f64 = run.stats.groups.iter().map(|g| g.predicted_share).sum();
        let m: f64 = run.stats.groups.iter().map(|g| g.measured_share).sum();
        assert!((p - 1.0).abs() < 1e-9 && (m - 1.0).abs() < 1e-9);
        for (g, n) in run.stats.groups.iter().zip(&run.nodes) {
            assert_eq!(g.group, n.group);
            assert_eq!(g.num_lts, n.num_lts);
            assert_eq!(g.wall, n.wall);
            // The Fig. 13-style T_H / T_e split rides along per node.
            assert_eq!(g.expm_time, n.stats.expm_time);
            assert_eq!(g.combine_time, n.stats.combine_time);
            assert!(g.expm_time + g.combine_time <= n.stats.transient_time);
        }
    }

    #[test]
    fn sourceless_system_yields_zero_result() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.add_resistor("r", a, Netlist::ground(), 1.0).unwrap();
        nl.add_capacitor("c", a, Netlist::ground(), 1e-12).unwrap();
        let sys = MnaSystem::assemble(&nl).unwrap();
        let spec = TransientSpec::new(0.0, 1e-9, 1e-10).unwrap();
        let run = run_distributed(&sys, &spec, &DistributedOptions::default()).unwrap();
        assert_eq!(run.num_groups(), 1);
        assert!(run.result.series()[0].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn single_strategy_puts_loads_on_one_node() {
        let sys = small_grid();
        let spec = TransientSpec::new(0.0, 1e-9, 2e-11).unwrap();
        let opts = DistributedOptions {
            strategy: GroupingStrategy::Single,
            ..DistributedOptions::default()
        };
        let run = run_distributed(&sys, &spec, &opts).unwrap();
        assert_eq!(run.num_groups(), 2); // supplies + one load group
    }

    #[test]
    fn kernel_budget_never_changes_the_waveform() {
        // The nested-parallelism contract: any MATEX_THREADS budget —
        // unset included — at any worker count splitting it produces
        // bitwise-identical superposed results. An RLC grid, so the
        // Krylov bases are deep enough for the orthogonalization order
        // to show in the last bits.
        let sys = PdnBuilder::new(6, 6)
            .num_loads(8)
            .num_features(3)
            .window(1e-9)
            .pad_inductance(1e-11)
            .build()
            .expect("grid builds");
        let spec = TransientSpec::new(0.0, 1e-9, 2e-11).unwrap();
        let run_with = |threads: Option<usize>, workers: usize| {
            let opts = DistributedOptions {
                par: matex_par::ParOptions { threads },
                workers: Some(workers),
                ..DistributedOptions::default()
            };
            run_distributed(&sys, &spec, &opts).unwrap()
        };
        let reference = run_with(None, 1);
        for threads in [None, Some(1), Some(2)] {
            for workers in [1, 2] {
                let run = run_with(threads, workers);
                assert_eq!(
                    reference.result.series(),
                    run.result.series(),
                    "budget {threads:?} / workers {workers} changed the waveform"
                );
                assert_eq!(reference.result.final_state(), run.result.final_state());
            }
        }
    }

    #[test]
    fn injected_artifacts_are_bitwise_invisible() {
        // Pre-built plan / symbolic / setup — alone and together, at any
        // worker count — must reproduce the self-computing run bit for
        // bit: each artifact is exactly what the run would have derived.
        let sys = small_grid();
        let spec = TransientSpec::new(0.0, 1e-9, 2e-11).unwrap();
        let base_opts = DistributedOptions::default();
        let reference = run_distributed(&sys, &spec, &base_opts).unwrap();

        let plan = Arc::new(crate::plan_groups(&sys, &spec, base_opts.strategy));
        let symbolic =
            Arc::new(matex_core::MatexSymbolic::analyze(&sys, &base_opts.matex).unwrap());
        let setup = Arc::new(
            matex_core::MatexSetup::prepare(&sys, &base_opts.matex, Some(&symbolic), false)
                .unwrap(),
        );
        for workers in [Some(1), Some(2), Some(3)] {
            let base_opts = DistributedOptions {
                workers,
                ..base_opts.clone()
            };
            let variants = [
                base_opts.clone(),
                DistributedOptions {
                    plan: Some(plan.clone()),
                    ..base_opts.clone()
                },
                DistributedOptions {
                    symbolic: Some(symbolic.clone()),
                    ..base_opts.clone()
                },
                DistributedOptions {
                    setup: Some(setup.clone()),
                    ..base_opts.clone()
                },
                DistributedOptions {
                    plan: Some(plan.clone()),
                    symbolic: Some(symbolic.clone()),
                    setup: Some(setup.clone()),
                    ..base_opts.clone()
                },
            ];
            for (k, opts) in variants.iter().enumerate() {
                let run = run_distributed(&sys, &spec, opts).unwrap();
                assert_eq!(
                    reference.result.series(),
                    run.result.series(),
                    "variant {k} at {workers:?} workers changed the waveform"
                );
                assert_eq!(
                    reference.result.final_state(),
                    run.result.final_state(),
                    "variant {k} at {workers:?} workers changed the final state"
                );
                assert_eq!(reference.gts.as_slice(), run.gts.as_slice());
                // However the setup was obtained, it is reported once.
                assert_eq!(run.result.stats.factorizations, 2, "variant {k}");
                // Injected symbolic or setup: the master skips its analysis.
                let analyzed = opts.symbolic.is_none() && opts.setup.is_none();
                assert_eq!(run.stats.analyze_time > Duration::ZERO, analyzed);
            }
        }

        // A plan for a different window is rejected, not silently used.
        let other_spec = TransientSpec::new(0.0, 2e-9, 2e-11).unwrap();
        let err = run_distributed(
            &sys,
            &other_spec,
            &DistributedOptions {
                plan: Some(plan),
                ..base_opts
            },
        );
        assert!(matches!(err, Err(DistError::Plan(_))));
    }

    #[test]
    fn panicked_and_failed_nodes_recover_bitwise() {
        // Two injected faults — one panic, one error — on different node
        // dispatches: both groups are re-dispatched and the recovered
        // waveform must be bitwise-identical to the fault-free run.
        use matex_core::{FaultHook, FaultKind, FaultPlan};
        let sys = small_grid();
        let spec = TransientSpec::new(0.0, 1e-9, 2e-11).unwrap();
        let reference = run_distributed(&sys, &spec, &DistributedOptions::default()).unwrap();
        assert_eq!(reference.node_retries, 0);
        let plan = FaultPlan::new()
            .fail_at("dist.node", 1, FaultKind::Panic)
            .fail_at("dist.node", 3, FaultKind::Error);
        for workers in [Some(1), Some(3)] {
            let opts = DistributedOptions {
                matex: MatexOptions {
                    faults: FaultHook::new(plan.clone()),
                    ..MatexOptions::default()
                },
                workers,
                // Budget 2: with retries interleaving into the occurrence
                // stream, both entries may land on the same group.
                max_node_retries: 2,
                ..DistributedOptions::default()
            };
            let run = run_distributed(&sys, &spec, &opts).unwrap();
            assert_eq!(run.node_retries, 2, "workers {workers:?}");
            assert_eq!(
                reference.result.series(),
                run.result.series(),
                "recovery changed the waveform (workers {workers:?})"
            );
            assert_eq!(reference.result.final_state(), run.result.final_state());
            assert_eq!(opts.matex.faults.injected(), 2);
        }
    }

    #[test]
    fn solver_level_faults_recover_through_node_retry() {
        // Faults injected *inside* the node's solver (via MatexOptions)
        // surface as node failures and heal through the same re-dispatch.
        use matex_core::{FaultHook, FaultKind, FaultPlan};
        let sys = small_grid();
        let spec = TransientSpec::new(0.0, 1e-9, 2e-11).unwrap();
        let reference = run_distributed(&sys, &spec, &DistributedOptions::default()).unwrap();
        let matex = MatexOptions {
            faults: FaultHook::new(FaultPlan::new().fail_at(
                "core.solver.run",
                0,
                FaultKind::Error,
            )),
            ..MatexOptions::default()
        };
        let opts = DistributedOptions {
            matex,
            workers: Some(2),
            ..DistributedOptions::default()
        };
        let run = run_distributed(&sys, &spec, &opts).unwrap();
        assert_eq!(run.node_retries, 1);
        assert_eq!(reference.result.series(), run.result.series());
    }

    #[test]
    fn one_hook_serves_the_node_site_and_the_solver_site() {
        // The master's "dist.node" site and the nodes' solver sites read
        // one hook: a plan holding both fires both, and the run heals.
        use matex_core::{FaultHook, FaultKind, FaultPlan};
        let sys = small_grid();
        let spec = TransientSpec::new(0.0, 1e-9, 2e-11).unwrap();
        let reference = run_distributed(&sys, &spec, &DistributedOptions::default()).unwrap();
        let opts = DistributedOptions {
            matex: MatexOptions {
                faults: FaultHook::new(
                    FaultPlan::new()
                        .fail_at("dist.node", 1, FaultKind::Panic)
                        .fail_at("core.solver.run", 0, FaultKind::Error),
                ),
                ..MatexOptions::default()
            },
            workers: Some(2),
            max_node_retries: 2,
            ..DistributedOptions::default()
        };
        let run = run_distributed(&sys, &spec, &opts).unwrap();
        assert_eq!(opts.matex.faults.injected(), 2);
        assert_eq!(run.node_retries, 2);
        assert_eq!(reference.result.series(), run.result.series());
        assert_eq!(reference.result.final_state(), run.result.final_state());
    }

    #[test]
    fn every_dispatch_consults_the_node_site_once() {
        // An armed hook whose entry never comes due: the run is unchanged
        // and the "dist.node" counter reads one check per group.
        use matex_core::{FaultHook, FaultKind, FaultPlan};
        let sys = small_grid();
        let spec = TransientSpec::new(0.0, 1e-9, 2e-11).unwrap();
        let reference = run_distributed(&sys, &spec, &DistributedOptions::default()).unwrap();
        let opts = DistributedOptions {
            matex: MatexOptions {
                faults: FaultHook::new(FaultPlan::new().fail_at(
                    "dist.node",
                    1_000_000,
                    FaultKind::Panic,
                )),
                ..MatexOptions::default()
            },
            workers: Some(2),
            ..DistributedOptions::default()
        };
        let run = run_distributed(&sys, &spec, &opts).unwrap();
        assert_eq!(run.node_retries, 0);
        assert_eq!(
            opts.matex.faults.occurrences("dist.node"),
            run.num_groups() as u64
        );
        assert_eq!(opts.matex.faults.injected(), 0);
        assert_eq!(reference.result.series(), run.result.series());
    }

    #[test]
    fn master_records_through_the_node_recorder() {
        // One recorder for the whole run: the master's analysis,
        // preparation and per-dispatch spans land beside the nodes'
        // solver phases.
        let sys = small_grid();
        let spec = TransientSpec::new(0.0, 1e-9, 2e-11).unwrap();
        let opts = DistributedOptions {
            matex: MatexOptions {
                obs: matex_obs::Obs::enabled(),
                ..MatexOptions::default()
            },
            workers: Some(2),
            ..DistributedOptions::default()
        };
        let run = run_distributed(&sys, &spec, &opts).unwrap();
        let trace = opts.matex.obs.chrome_trace_events();
        let spans = |name: &str| trace.matches(&format!("{{\"name\":\"{name}\"")).count();
        assert_eq!(spans("dist.analyze"), 1);
        assert_eq!(spans("dist.prepare"), 1);
        assert_eq!(spans("dist.node"), run.num_groups());
        assert!(spans("solver.dc") >= run.num_groups(), "{trace}");
    }

    #[test]
    fn exhausted_retry_budget_aborts_with_the_node_error() {
        use matex_core::{FaultHook, FaultKind, FaultPlan};
        let sys = small_grid();
        let spec = TransientSpec::new(0.0, 1e-9, 2e-11).unwrap();
        // Every dispatch fails: the budget runs out and the run reports
        // the injected fault as a node error instead of panicking or
        // hanging.
        let opts = DistributedOptions {
            matex: MatexOptions {
                faults: FaultHook::new(
                    FaultPlan::new()
                        .seeded(9, 1000, FaultKind::Error)
                        .on_sites(&["dist.node"]),
                ),
                ..MatexOptions::default()
            },
            workers: Some(2),
            max_node_retries: 1,
            ..DistributedOptions::default()
        };
        match run_distributed(&sys, &spec, &opts) {
            Err(DistError::Node { source, .. }) => {
                assert!(matches!(source, CoreError::Injected { .. }), "{source}");
            }
            other => panic!("expected node error, got {other:?}"),
        }
    }

    #[test]
    fn node_panic_is_contained_and_reported() {
        use matex_core::{FaultHook, FaultKind, FaultPlan};
        let sys = small_grid();
        let spec = TransientSpec::new(0.0, 1e-9, 2e-11).unwrap();
        let opts = DistributedOptions {
            matex: MatexOptions {
                faults: FaultHook::new(FaultPlan::new().fail_at("dist.node", 0, FaultKind::Panic)),
                ..MatexOptions::default()
            },
            workers: Some(1),
            max_node_retries: 0,
            ..DistributedOptions::default()
        };
        match run_distributed(&sys, &spec, &opts) {
            Err(DistError::Node { source, .. }) => match source {
                CoreError::Panicked(msg) => assert!(msg.contains("injected fault"), "{msg}"),
                other => panic!("expected preserved panic payload, got {other}"),
            },
            other => panic!("expected node error, got {other:?}"),
        }
    }

    #[test]
    fn lpt_order_is_deterministic() {
        // Groups with distinct LTS counts: heavier groups first, ties on id.
        let p = |d: f64| Waveform::Pulse(Pulse::new(0.0, 1e-3, d, 1e-11, 1e-10, 1e-11).unwrap());
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.add_resistor("r", a, Netlist::ground(), 10.0).unwrap();
        nl.add_capacitor("c", a, Netlist::ground(), 1e-13).unwrap();
        nl.add_isource("i0", Netlist::ground(), a, p(1e-10))
            .unwrap();
        nl.add_isource("i1", Netlist::ground(), a, p(3e-10))
            .unwrap();
        let sys = MnaSystem::assemble(&nl).unwrap();
        let spec = TransientSpec::new(0.0, 1e-9, 1e-11).unwrap();
        let opts = DistributedOptions {
            strategy: GroupingStrategy::BySource,
            workers: Some(2),
            ..DistributedOptions::default()
        };
        let a_run = run_distributed(&sys, &spec, &opts).unwrap();
        let b_run = run_distributed(&sys, &spec, &opts).unwrap();
        assert_eq!(a_run.result.series(), b_run.result.series());
        assert_eq!(a_run.num_groups(), 2);
    }
}
