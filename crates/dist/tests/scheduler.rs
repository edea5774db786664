//! Scheduler contracts of the distributed framework: worker-count
//! invariance of the numerics, the per-node factorization budget, the
//! paper's one-instance-per-node makespan accounting, and the LTS-count
//! cost proxy's list-scheduling error bound against measured wall times.

use matex_circuit::PdnBuilder;
use matex_core::{MatexOptions, TransientSpec};
use matex_dist::{
    list_schedule_makespan, plan_groups, run_distributed, DistributedOptions, DistributedRun,
};
use matex_waveform::GroupingStrategy;

fn grid_and_spec() -> (matex_circuit::MnaSystem, TransientSpec) {
    let sys = PdnBuilder::new(10, 10)
        .num_loads(16)
        .num_features(4)
        .window(2e-9)
        .seed(11)
        .build()
        .expect("grid builds");
    let spec = TransientSpec::new(0.0, 2e-9, 4e-11).expect("valid spec");
    (sys, spec)
}

fn run_with(workers: Option<usize>) -> DistributedRun {
    let (sys, spec) = grid_and_spec();
    let opts = DistributedOptions {
        matex: MatexOptions::default().tol(1e-8),
        strategy: GroupingStrategy::ByBumpFeature,
        workers,
        ..DistributedOptions::default()
    };
    run_distributed(&sys, &spec, &opts).expect("distributed run")
}

/// The combined result must be **bitwise** identical for any worker
/// count: scheduling order must never change the numerics, because the
/// streaming superposition sums in fixed group-index order.
#[test]
fn worker_count_does_not_change_results() {
    let one = run_with(Some(1));
    let four = run_with(Some(4));
    let auto = run_with(None);
    assert_eq!(one.result.times(), four.result.times());
    assert_eq!(one.result.series(), four.result.series());
    assert_eq!(one.result.series(), auto.result.series());
    assert_eq!(one.result.final_state(), four.result.final_state());
    assert_eq!(one.result.final_state(), auto.result.final_state());
    // Per-node numerics are identical too, node by node (cost counters
    // are deterministic; wall times are not compared).
    assert_eq!(one.num_groups(), four.num_groups());
    for (a, b) in one.nodes.iter().zip(&four.nodes) {
        assert_eq!(a.group, b.group);
        assert_eq!(a.stats.substitution_pairs, b.stats.substitution_pairs);
        assert_eq!(a.stats.krylov_bases, b.stats.krylov_bases);
        assert_eq!(a.stats.krylov_dim_sum, b.stats.krylov_dim_sum);
        assert_eq!(a.stats.factorizations, b.stats.factorizations);
        assert_eq!(a.stats.refactorizations, b.stats.refactorizations);
    }
}

/// Every node factors at most twice (G, and C + γG for R-MATEX) no
/// matter how many transition spots it marches through — the paper's
/// zero-refactorization contract, per node. The run factors them
/// directly, once, on the master: no node replays an analysis.
#[test]
fn per_node_factorization_budget() {
    let run = run_with(Some(2));
    assert!(run.num_groups() >= 5, "expected 4 features + supplies");
    for node in &run.nodes {
        assert!(
            node.stats.factorizations <= 2,
            "group {} performed {} factorizations",
            node.group,
            node.stats.factorizations
        );
        assert_eq!(
            node.stats.refactorizations, 0,
            "group {} replayed an analysis",
            node.group
        );
    }
}

/// `emulated_transient` / `emulated_total` are the *maxima* over nodes
/// (Table 3's one-MATLAB-instance-per-node accounting), not sums.
#[test]
fn makespan_is_max_over_nodes() {
    let run = run_with(Some(1));
    let max_transient = run
        .nodes
        .iter()
        .map(|n| n.stats.transient_time)
        .max()
        .expect("nodes exist");
    let max_total = run
        .nodes
        .iter()
        .map(|n| n.stats.total_time())
        .max()
        .expect("nodes exist");
    assert_eq!(run.emulated_transient, max_transient);
    assert_eq!(run.emulated_total, max_total);
    // The makespan can never exceed the sum of node times.
    let sum_transient: std::time::Duration = run.nodes.iter().map(|n| n.stats.transient_time).sum();
    assert!(run.emulated_transient <= sum_transient);
}

/// The scheduler must hand every group its own LTS: nodes with more
/// transition spots do more Krylov generations, and the busiest node's
/// substitution count stays far below a 10 ps fixed-step baseline's.
#[test]
fn lts_accounting_per_node() {
    let run = run_with(Some(1));
    for node in &run.nodes {
        if node.num_lts == 0 {
            // Constant group: no Krylov generations required beyond reuse.
            continue;
        }
        assert!(
            node.stats.krylov_bases >= 1,
            "group {} has {} LTS but built no subspace",
            node.group,
            node.num_lts
        );
    }
    let busiest = run
        .nodes
        .iter()
        .map(|n| n.stats.substitution_pairs)
        .max()
        .unwrap();
    // 2 ns window at 10 ps TR steps would be 200 pairs.
    assert!(busiest < 200, "busiest node spent {busiest} pairs");
}

/// LPT order over job costs: indices by descending cost, ties on
/// ascending index (the order `plan_groups` fixes over LTS counts).
fn lpt_order(costs: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
    order
}

/// Calibration of the LPT cost proxy: schedule the *measured* wall times
/// (uncontended, `workers = 1` run) in the order the LTS-count proxy
/// dictates, and compare the makespan against scheduling the measured
/// costs in their own LPT order. Any list schedule is within
/// `2 − 1/workers` of optimal (Graham), and measured-LPT is ≥ optimal,
/// so the proxy-ordered makespan may exceed the measured-ordered one by
/// at most a factor of 2 — the proxy's demonstrable error bound.
#[test]
fn lts_proxy_makespan_within_list_scheduling_bound() {
    let run = run_with(Some(1));
    let walls: Vec<f64> = run.nodes.iter().map(|n| n.wall.as_secs_f64()).collect();
    let lts: Vec<usize> = run.nodes.iter().map(|n| n.num_lts).collect();
    assert!(walls.iter().all(|&w| w >= 0.0));
    let proxy_order = lpt_order(&lts);
    // Measured costs in their own LPT order (descending wall time).
    let scaled: Vec<usize> = walls.iter().map(|&w| (w * 1e9) as usize).collect();
    let measured_order = lpt_order(&scaled);
    // The run dispatched in the proxy's order.
    let (sys, spec) = grid_and_spec();
    let plan = plan_groups(&sys, &spec, GroupingStrategy::ByBumpFeature);
    assert_eq!(plan.order(), proxy_order.as_slice());
    for workers in [2usize, 3, 4] {
        let proxy = list_schedule_makespan(&proxy_order, &walls, workers);
        let measured = list_schedule_makespan(&measured_order, &walls, workers);
        let bound = 2.0 - 1.0 / workers as f64;
        assert!(
            proxy <= measured * bound + 1e-12,
            "workers={workers}: proxy makespan {proxy:.3e}s breaks the \
             {bound:.2}x list-scheduling bound over {measured:.3e}s"
        );
    }
    // The proxy's worst share error is published with the node records.
    assert!(run.stats.proxy_max_error <= 1.0);
    assert_eq!(run.nodes.len(), run.num_groups());
}
