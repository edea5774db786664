//! The master node: grouping, scheduling, execution, superposition.

use crate::plan::{plan_groups, GroupPlan, PlanJob};
use crate::schedule::RunStats;
use crate::{DistError, DistributedOptions};
use matex_circuit::MnaSystem;
use matex_core::{
    panic_message, CoreError, FaultKind, MatexSetup, MatexSolver, SolveStats, TransientEngine,
    TransientResult, TransientSpec,
};
use matex_waveform::SpotSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
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
    /// Scheduling accounting: the LTS proxy's worst share error and the
    /// master's preparation time.
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
    /// Node retries performed after solver failures or panics, summed
    /// over the nodes (0 on a healthy run). Each retry replays the
    /// identical pure computation on the worker that ran the failed
    /// attempt, so a non-zero count never changes the waveform.
    pub node_retries: usize,
}

impl DistributedRun {
    /// Number of simulated groups (slave nodes).
    pub fn num_groups(&self) -> usize {
        self.nodes.len()
    }
}

/// The outcome of one node attempt; a worker hands the master the last.
type NodeOutcome = Result<(NodeRun, TransientResult), CoreError>;

/// Streaming accumulator: superposes node results **in LPT schedule
/// order** as they arrive, buffering only out-of-order completions, so
/// the combined numerics stay bitwise independent of the worker count
/// while full per-node series are dropped as soon as they are summed.
///
/// The schedule order is a fixed permutation of the groups determined
/// by the jobs alone, never by the worker count (that fixedness is what
/// makes the result bitwise worker-invariant). It is not ascending group
/// order: a change to the cost estimate reorders the sum and so moves
/// waveform bits. Because workers also *dispatch* in that order,
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
/// [`MatexSetup`] per run and shares it read-only with every worker: no
/// node ever factors. The setup is the injected `opts.setup`, else
/// [`MatexSetup::prepare_with`] factors `G` and the variant's `X1`
/// directly (replays them, with an injected `opts.symbolic`), the two
/// side by side on a scoped thread when the run has two or more
/// workers. The width never moves a bit: each factor is a pure function
/// of its matrix.
/// Subtasks are scheduled onto a scoped worker
/// pool in longest-processing-time order (cost estimate: LTS count):
/// each worker takes the next schedule position from one shared cursor.
/// Every finished node's samples are immediately superposed into the
/// combined result in that same fixed, worker-independent schedule
/// order, so the numerics are bitwise independent of `opts.workers`
/// while peak memory stays at one full series plus the in-flight
/// stragglers.
///
/// Workers are **supervised**: a node that panics or fails is retried at
/// once, on the worker that ran it, up to `opts.max_node_retries` times
/// before the run aborts. A retry replays the identical pure computation
/// against the shared read-only artifacts and superposes at the node's
/// schedule position, so recovered runs are bitwise-identical to
/// fault-free ones ([`DistributedRun::node_retries`] counts the retries).
///
/// # Errors
///
/// Returns [`DistError::Analyze`] when the master's preparation fails
/// (`G`'s error when both factorizations do), [`DistError::Node`]
/// carrying the terminal node failure (retry budget exhausted; panics
/// arrive as [`CoreError::Panicked`]), [`DistError::Cancelled`] when
/// `opts.cancel` trips, or [`DistError::Superposition`] if result grids
/// mismatch (internal invariant violation).
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

    let setup = prepare(sys, opts, workers)?;

    // Worker pool: one cursor over the schedule order. A worker runs the
    // node at the position it takes to a final outcome — retrying a
    // failed or panicked attempt in place while the budget lasts — and
    // streams that outcome with its retry count to the master, which
    // superposes in schedule order and stops the pool at the first
    // terminal failure. `stop` (or a tripped cancel token) ends dispatch
    // before the next node and before the next retry; a worker also
    // exits once the cursor runs past the schedule. Both atomics are
    // `Relaxed`: neither publishes other data (outcomes travel on the
    // channel, and the schedule is immutable).
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let stopped =
        || stop.load(Ordering::Relaxed) || opts.cancel.as_ref().is_some_and(|c| c.is_cancelled());
    let (tx, rx) = mpsc::channel::<(usize, usize, NodeOutcome)>();
    let mut sup = Superposer::new(jobs.len());
    let mut failure: Option<(usize, CoreError)> = None;
    let mut node_retries = 0usize;
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (tx, cursor, stopped, setup) = (tx.clone(), &cursor, &stopped, &setup);
            scope.spawn(move || {
                while !stopped() {
                    let pos = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&j) = order.get(pos) else { break };
                    let mut retries = 0;
                    let outcome = loop {
                        match run_node(sys, spec, opts, &jobs[j], setup, w, retries > 0) {
                            Err(e)
                                if !matches!(e, CoreError::Cancelled)
                                    && retries < opts.max_node_retries =>
                            {
                                if stopped() {
                                    return;
                                }
                                retries += 1;
                            }
                            outcome => break outcome,
                        }
                    };
                    tx.send((pos, retries, outcome))
                        .expect("the master holds the receiver until the pool exits");
                }
            });
        }
        drop(tx);
        // The master superposes while workers keep producing; the loop
        // ends when every worker has exited, or at a terminal failure.
        while let Ok((pos, retries, outcome)) = rx.recv() {
            if retries > 0 {
                node_retries += retries;
                opts.matex
                    .obs
                    .add("dist_node_retries_total", retries as u64);
            }
            if let Err(e) = outcome.and_then(|payload| sup.push(pos, payload)) {
                failure = Some((jobs[order[pos]].group, e));
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    if let Some((group, source)) = failure {
        // Distinguish internal superposition mismatches from node solver
        // failures, and fold per-node cancellations into the run-level
        // verdict.
        return Err(match source {
            CoreError::Cancelled => DistError::Cancelled,
            CoreError::Incomparable(_) => DistError::Superposition(source),
            _ => DistError::Node { group, source },
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

    let run_stats = RunStats::new(&nodes, setup.factor_time());
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

/// The run's one preparation, on the master: the node matrices are
/// identical (masking only selects input columns), so every node marches
/// from the same factors. An injected setup is used as is; otherwise `G`
/// and the variant's `X1` are factored — or, with an injected analysis,
/// replayed — side by side when the run holds two workers. Each factor
/// is a pure function of its matrix, so the width never moves a bit.
fn prepare(
    sys: &MnaSystem,
    opts: &DistributedOptions,
    workers: usize,
) -> Result<Arc<MatexSetup>, DistError> {
    if let Some(shared) = &opts.setup {
        return Ok(shared.clone());
    }
    let _sp = opts.matex.obs.span("dist.prepare");
    let symbolic = opts.symbolic.as_deref();
    let setup = MatexSetup::prepare_with(sys, &opts.matex, symbolic, |g, x1| {
        if workers < 2 {
            g();
            x1();
            return;
        }
        std::thread::scope(|scope| {
            let x1 = scope.spawn(x1);
            g();
            if let Err(payload) = x1.join() {
                std::panic::resume_unwind(payload);
            }
        });
    })
    .map_err(DistError::Analyze)?;
    Ok(Arc::new(setup))
}

/// One attempt at one group's masked solver (one slave node of Fig. 4)
/// from the run's shared preparation, on worker `worker`. The attempt
/// consults the `"dist.node"` fault site, runs under its own panic
/// boundary — a panicking node unwinds into a node error, payload
/// message preserved, instead of poisoning the scope and aborting the
/// process — and records one `dist.node` span, so the timeline shows
/// which worker ran which group and whether the attempt was a retry.
fn run_node(
    sys: &MnaSystem,
    spec: &TransientSpec,
    opts: &DistributedOptions,
    job: &PlanJob,
    setup: &Arc<MatexSetup>,
    worker: usize,
    retry: bool,
) -> NodeOutcome {
    let mut span = opts.matex.obs.span("dist.node");
    if span.is_armed() {
        span.label("group", job.group.to_string());
        span.label("worker", worker.to_string());
        span.label("retry", if retry { "1" } else { "0" });
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        match opts.matex.faults.check("dist.node") {
            Some(FaultKind::Panic) => panic!("injected fault: dist.node (group {})", job.group),
            Some(FaultKind::Error) => {
                return Err(CoreError::Injected {
                    site: "dist.node".to_string(),
                })
            }
            None => {}
        }
        let t0 = Instant::now();
        let mut solver = MatexSolver::new(opts.matex.clone())
            .with_source_mask(job.members.clone())
            .with_lts(job.lts.clone())
            .with_setup(setup.clone());
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
    }))
    .unwrap_or_else(|payload| Err(CoreError::Panicked(panic_message(&*payload))));
    span.label("ok", if outcome.is_ok() { "1" } else { "0" });
    drop(span);
    opts.matex.obs.add_labeled(
        "dist_nodes_total",
        &[("outcome", if outcome.is_ok() { "ok" } else { "err" })],
        1,
    );
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use matex_circuit::{Netlist, PdnBuilder};
    use matex_core::{CancelToken, MatexOptions};
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
        // preparation of a monolithic R-MATEX run: G and C + γG, factored
        // directly (no analysis that nothing reuses), reported once.
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
        assert_eq!(run.result.stats.refactorizations, 0);
        assert_eq!(run.result.stats.factor_time, run.stats.prepare_time);
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

    fn encoded(setup: &MatexSetup) -> Vec<u8> {
        let mut w = matex_sparse::WireWriter::new();
        setup.wire_encode(&mut w).unwrap();
        w.into_bytes()
    }

    #[test]
    fn the_setup_a_run_marches_from_is_bitwise_the_sequential_preparation() {
        // Side by side or in sequence, factored or replayed: the factors
        // are byte for byte those of `MatexSetup::prepare`.
        use matex_core::{KrylovKind, MatexSymbolic};
        let sys = small_grid();
        for kind in [KrylovKind::Rational, KrylovKind::Standard] {
            let matex = MatexOptions::new(kind);
            let expected = encoded(&MatexSetup::prepare(&sys, &matex, None, false).unwrap());
            let symbolic = Arc::new(MatexSymbolic::analyze(&sys, &matex).unwrap());
            for workers in [1, 2] {
                for symbolic in [None, Some(symbolic.clone())] {
                    // MEXP's regularized C has no analysis to replay.
                    let replays = match (&symbolic, kind) {
                        (None, _) => 0,
                        (Some(_), KrylovKind::Rational) => 2,
                        (Some(_), _) => 1,
                    };
                    let opts = DistributedOptions {
                        matex: matex.clone(),
                        symbolic,
                        ..DistributedOptions::default()
                    };
                    let setup = prepare(&sys, &opts, workers).unwrap();
                    let at = format!("{kind:?}, {workers} workers, {replays} replays");
                    assert!(encoded(&setup) == expected, "{at}");
                    assert_eq!(setup.factorizations(), 2, "{at}");
                    assert_eq!(setup.refactorizations(), replays, "{at}");
                }
            }
        }
    }

    #[test]
    fn a_singular_g_fails_the_preparation_at_any_width() {
        // A node reached only through a capacitor: G is singular, while
        // C + γG is not. The side-by-side preparation reports G's error
        // exactly as the sequential one does. Two sources, one job each,
        // so that two workers stay two.
        let p = |d: f64| Waveform::Pulse(Pulse::new(0.0, 1e-3, d, 1e-11, 1e-10, 1e-11).unwrap());
        let mut nl = Netlist::new();
        let (a, b) = (nl.node("a"), nl.node("b"));
        nl.add_resistor("r", a, Netlist::ground(), 1.0).unwrap();
        nl.add_capacitor("ca", a, Netlist::ground(), 1e-12).unwrap();
        nl.add_capacitor("cb", a, b, 1e-12).unwrap();
        nl.add_isource("i0", Netlist::ground(), a, p(1e-10))
            .unwrap();
        nl.add_isource("i1", Netlist::ground(), a, p(3e-10))
            .unwrap();
        let sys = MnaSystem::assemble(&nl).unwrap();
        let spec = TransientSpec::new(0.0, 1e-9, 1e-10).unwrap();
        let sequential = MatexSetup::prepare(&sys, &MatexOptions::default(), None, false);
        let Err(expected) = sequential else {
            panic!("G of a capacitor-only node factored");
        };
        for workers in [1, 2] {
            let opts = DistributedOptions {
                strategy: GroupingStrategy::BySource,
                workers: Some(workers),
                ..DistributedOptions::default()
            };
            assert_eq!(crate::plan_groups(&sys, &spec, opts.strategy).num_jobs(), 2);
            match run_distributed(&sys, &spec, &opts) {
                Err(DistError::Analyze(e)) => assert_eq!(e, expected, "{workers} workers"),
                other => panic!("expected the preparation's error, got {other:?}"),
            }
        }
    }

    #[test]
    fn node_records_carry_the_scheduling_accounting() {
        let sys = small_grid();
        let spec = TransientSpec::new(0.0, 1e-9, 2e-11).unwrap();
        let run = run_distributed(&sys, &spec, &DistributedOptions::default()).unwrap();
        assert_eq!(
            run.stats.proxy_max_error.to_bits(),
            RunStats::new(&run.nodes, run.stats.prepare_time)
                .proxy_max_error
                .to_bits()
        );
        assert!((0.0..=1.0).contains(&run.stats.proxy_max_error));
        for n in &run.nodes {
            // The Fig. 13-style T_H / T_e split rides along per node.
            assert!(n.stats.expm_time + n.stats.combine_time <= n.stats.transient_time);
            assert!(n.wall >= n.stats.transient_time);
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
    fn worker_count_never_changes_an_rlc_waveform() {
        // Nodes run serially on whichever worker takes them and superpose
        // in schedule order, so the worker count cannot move a bit. An
        // RLC grid, so the Krylov bases are deep enough for any change
        // in arithmetic order to show in the last bits.
        let sys = PdnBuilder::new(6, 6)
            .num_loads(8)
            .num_features(3)
            .window(1e-9)
            .pad_inductance(1e-11)
            .build()
            .expect("grid builds");
        let spec = TransientSpec::new(0.0, 1e-9, 2e-11).unwrap();
        let run_with = |workers: usize| {
            let opts = DistributedOptions {
                workers: Some(workers),
                ..DistributedOptions::default()
            };
            run_distributed(&sys, &spec, &opts).unwrap()
        };
        let reference = run_with(1);
        assert_eq!(reference.num_groups(), 4);
        for workers in [2, 3, 4] {
            let run = run_with(workers);
            assert_eq!(
                reference.result.series(),
                run.result.series(),
                "{workers} workers changed the waveform"
            );
            assert_eq!(reference.result.final_state(), run.result.final_state());
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
                // However the setup was obtained, it is reported once;
                // only an injected analysis makes it replays.
                assert_eq!(run.result.stats.factorizations, 2, "variant {k}");
                let replays = if opts.setup.is_some() || opts.symbolic.is_some() {
                    2
                } else {
                    0
                };
                assert_eq!(run.result.stats.refactorizations, replays, "variant {k}");
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
        // attempts: both groups retry and the recovered waveform must be
        // bitwise-identical to the fault-free run.
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
                // Budget 2: at three workers, both entries may land on
                // the same group.
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
        // surface as node failures and heal through the same retry.
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
        // One recorder for the whole run: the master's preparation and
        // per-attempt spans land beside the nodes' solver phases. There
        // is no analysis to record.
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
        assert_eq!(spans("dist.analyze"), 0);
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

    /// `(group, retry)` labels of a run's `dist.node` spans, in the order
    /// they closed.
    fn node_spans(obs: &matex_obs::Obs) -> Vec<(String, String)> {
        let label = |event: &str, key: &str| {
            let key = format!("\"{key}\":\"");
            let at = event.find(&key).expect("label recorded") + key.len();
            event[at..]
                .split('"')
                .next()
                .unwrap_or_default()
                .to_string()
        };
        obs.chrome_trace_events()
            .split("{\"name\":")
            .filter(|event| event.starts_with("\"dist.node\""))
            .map(|event| (label(event, "group"), label(event, "retry")))
            .collect()
    }

    #[test]
    fn a_failed_node_retries_next_on_its_own_worker() {
        // At one worker, the retry of a failed node is the very next
        // attempt, and the recovered waveform is the fault-free one.
        use matex_core::{FaultHook, FaultKind, FaultPlan};
        let sys = small_grid();
        let spec = TransientSpec::new(0.0, 1e-9, 2e-11).unwrap();
        let one = DistributedOptions {
            workers: Some(1),
            ..DistributedOptions::default()
        };
        let reference = run_distributed(&sys, &spec, &one).unwrap();
        let opts = DistributedOptions {
            matex: MatexOptions {
                faults: FaultHook::new(FaultPlan::new().fail_at("dist.node", 0, FaultKind::Error)),
                obs: matex_obs::Obs::enabled(),
                ..MatexOptions::default()
            },
            max_node_retries: 1,
            ..one
        };
        let run = run_distributed(&sys, &spec, &opts).unwrap();
        assert_eq!(run.node_retries, 1);
        let plan = crate::plan_groups(&sys, &spec, opts.strategy);
        let first = plan.jobs()[plan.order()[0]].group.to_string();
        let spans = node_spans(&opts.matex.obs);
        assert_eq!(spans.len(), run.num_groups() + 1);
        assert_eq!(spans[0], (first.clone(), "0".to_string()));
        assert_eq!(spans[1], (first, "1".to_string()));
        assert!(spans[2..].iter().all(|(_, retry)| retry == "0"));
        assert!(opts
            .matex
            .obs
            .prometheus_text()
            .contains("matex_dist_node_retries_total 1"));
        assert_eq!(reference.result.series(), run.result.series());
        assert_eq!(reference.result.final_state(), run.result.final_state());
    }

    #[test]
    fn a_cancel_token_tripped_before_the_call_runs_no_node() {
        let sys = small_grid();
        let spec = TransientSpec::new(0.0, 1e-9, 2e-11).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let opts = DistributedOptions {
            matex: MatexOptions {
                obs: matex_obs::Obs::enabled(),
                ..MatexOptions::default()
            },
            workers: Some(2),
            cancel: Some(token),
            ..DistributedOptions::default()
        };
        assert!(matches!(
            run_distributed(&sys, &spec, &opts),
            Err(DistError::Cancelled)
        ));
        assert!(node_spans(&opts.matex.obs).is_empty());
    }

    #[test]
    fn a_cancel_token_tripped_mid_run_stops_every_worker() {
        // Nine groups on one worker; a watcher trips the token once the
        // run has recorded its first span. The call returning at all
        // means every worker exited, and the nodes after the cut never ran.
        // Nothing in a run can wait on the test, so a margin orders the
        // two: at 10,000 samples the uncut nodes march for far longer
        // (~0.1 s optimized) than the watcher takes to wake.
        let sys = PdnBuilder::new(8, 8)
            .num_loads(16)
            .num_features(8)
            .window(1e-9)
            .build()
            .expect("grid builds");
        let spec = TransientSpec::new(0.0, 1e-9, 1e-13).unwrap();
        let token = CancelToken::new();
        let opts = DistributedOptions {
            matex: MatexOptions {
                obs: matex_obs::Obs::enabled(),
                ..MatexOptions::default()
            },
            workers: Some(1),
            cancel: Some(token.clone()),
            ..DistributedOptions::default()
        };
        let groups = crate::plan_groups(&sys, &spec, opts.strategy).num_jobs();
        assert_eq!(groups, 9);
        let recorder = opts.matex.obs.recorder().expect("enabled").clone();
        let outcome = std::thread::scope(|scope| {
            scope.spawn(|| {
                while recorder.span_count() == 0 {
                    std::thread::sleep(Duration::from_micros(50));
                }
                token.cancel();
            });
            run_distributed(&sys, &spec, &opts)
        });
        assert!(
            matches!(outcome, Err(DistError::Cancelled)),
            "{:?}",
            outcome.map(|run| run.num_groups())
        );
        assert!(node_spans(&opts.matex.obs).len() < groups);
    }
}
