//! Scheduling order and cost-proxy accounting.
//!
//! The master schedules subtasks in longest-processing-time (LPT) order
//! using each group's LTS count as the cost proxy: a node's runtime is
//! dominated by its Krylov generations, one per local transition spot.
//! This module holds the order itself, a list-scheduling simulator used
//! to bound the proxy's scheduling error against measured wall times
//! (see `tests/scheduler.rs`), and the proxy's worst share error
//! published on every [`DistributedRun`](crate::DistributedRun).

use crate::NodeRun;
use std::time::Duration;

/// LPT order over job costs: indices sorted by descending cost, ties
/// broken by ascending index so the schedule is deterministic.
pub(crate) fn lpt_order(costs: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
    order
}

/// Simulates list scheduling: jobs are taken in `order` and each is
/// assigned to the earliest-available worker; returns the makespan.
///
/// With `order` = LPT over the *true* costs this is the classic LPT
/// heuristic (≤ 4/3·OPT); with `order` derived from a cost *proxy* it is
/// still a list schedule, so Graham's bound guarantees a makespan within
/// `2 − 1/workers` of optimal regardless of how wrong the proxy is —
/// the error bound the LTS-count proxy is tested against.
///
/// # Panics
///
/// Panics when `workers == 0` or `order` indexes out of `costs`.
pub fn list_schedule_makespan(order: &[usize], costs: &[f64], workers: usize) -> f64 {
    assert!(workers > 0, "list schedule needs at least one worker");
    let mut load = vec![0.0_f64; workers];
    for &j in order {
        let w = load
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite loads"))
            .map(|(i, _)| i)
            .expect("workers > 0");
        load[w] += costs[j];
    }
    load.iter().cloned().fold(0.0, f64::max)
}

/// Scheduling accounting for one distributed run. The per-node record
/// — LTS count, wall time and the solver's `T_H` / `T_e` split — is
/// [`DistributedRun::nodes`](crate::DistributedRun::nodes).
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// `max_g |predicted_share − measured_share|` over the nodes, where
    /// a node's predicted share is its LTS count over the run's total and
    /// its measured share is its wall time over the run's total (an even
    /// share when a total is zero). 0 means the LTS proxy ranked the work
    /// exactly like the wall clock did.
    pub proxy_max_error: f64,
    /// Wall time of the run's one preparation — the factorizations of
    /// `G` and the variant's `X1` every node marches from, side by side
    /// when the run has two workers
    /// ([`MatexSetup::factor_time`](matex_core::MatexSetup::factor_time);
    /// the amortized cost when the setup was injected).
    pub prepare_time: Duration,
}

impl RunStats {
    /// Builds the record from the node records, in ascending group order.
    pub(crate) fn new(nodes: &[NodeRun], prepare_time: Duration) -> RunStats {
        let total_lts: usize = nodes.iter().map(|n| n.num_lts).sum();
        let total_wall: f64 = nodes.iter().map(|n| n.wall.as_secs_f64()).sum();
        let even = 1.0 / nodes.len().max(1) as f64;
        let proxy_max_error = nodes
            .iter()
            .map(|n| {
                let predicted_share = if total_lts == 0 {
                    even
                } else {
                    n.num_lts as f64 / total_lts as f64
                };
                let measured_share = if total_wall <= 0.0 {
                    even
                } else {
                    n.wall.as_secs_f64() / total_wall
                };
                (predicted_share - measured_share).abs()
            })
            .fold(0.0_f64, f64::max);
        RunStats {
            proxy_max_error,
            prepare_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpt_order_descends_with_stable_ties() {
        assert_eq!(lpt_order(&[1, 5, 5, 0, 9]), vec![4, 1, 2, 0, 3]);
        assert!(lpt_order(&[]).is_empty());
    }

    #[test]
    fn list_schedule_balances() {
        // LPT on [5,4,3,3,3] with 2 workers: 5+4 vs ... -> loads 9 wait:
        // 5 | 4, then 3 -> worker1 (4+3=7), 3 -> worker0 (5+3=8), 3 ->
        // worker1 (7+3=10) => makespan 10? No: earliest-available picks
        // min load each time: 5|0 -> 5|4 -> 5|7 -> 8|7 -> 8|10.
        let order = lpt_order(&[5, 4, 3, 3, 3]);
        let costs = [5.0, 4.0, 3.0, 3.0, 3.0];
        assert_eq!(list_schedule_makespan(&order, &costs, 2), 10.0);
        // One worker: makespan is the sum.
        assert_eq!(list_schedule_makespan(&order, &costs, 1), 18.0);
        // Enough workers: makespan is the max.
        assert_eq!(list_schedule_makespan(&order, &costs, 5), 5.0);
    }

    fn node(group: usize, num_lts: usize, wall: Duration) -> NodeRun {
        NodeRun {
            group,
            num_sources: 1,
            num_lts,
            wall,
            stats: matex_core::SolveStats::default(),
        }
    }

    /// The proxy error as the per-group share records computed it: every
    /// share, then the running maximum of their differences.
    fn share_table_error(nodes: &[NodeRun]) -> f64 {
        let total_lts: usize = nodes.iter().map(|n| n.num_lts).sum();
        let total_wall: f64 = nodes.iter().map(|n| n.wall.as_secs_f64()).sum();
        let even = 1.0 / nodes.len().max(1) as f64;
        let mut shares = Vec::new();
        for n in nodes {
            let predicted = if total_lts == 0 {
                even
            } else {
                n.num_lts as f64 / total_lts as f64
            };
            let measured = if total_wall <= 0.0 {
                even
            } else {
                n.wall.as_secs_f64() / total_wall
            };
            shares.push((predicted, measured));
        }
        let mut max_error = 0.0_f64;
        for (predicted, measured) in shares {
            max_error = max_error.max((predicted - measured).abs());
        }
        max_error
    }

    #[test]
    fn proxy_error_is_the_share_formula_bit_for_bit() {
        let ms = Duration::from_millis;
        let us = Duration::from_micros;
        let cases = [
            vec![node(0, 0, ms(10)), node(1, 6, ms(50)), node(2, 3, ms(40))],
            vec![node(0, 2, us(30_017)), node(1, 4, us(61_003))],
            vec![
                node(0, 0, us(1_234)),
                node(1, 7, us(98_765)),
                node(2, 7, us(97_531)),
                node(3, 1, us(4_321)),
                node(4, 12, us(150_001)),
            ],
            vec![node(0, 5, ms(3))],
        ];
        for nodes in &cases {
            let stats = RunStats::new(nodes, ms(7));
            assert_eq!(
                stats.proxy_max_error.to_bits(),
                share_table_error(nodes).to_bits()
            );
            assert!((0.0..=1.0).contains(&stats.proxy_max_error));
            assert_eq!(stats.prepare_time, ms(7));
        }
        // Shares 0 / 2/3 / 1/3 against 0.1 / 0.5 / 0.4: group 1 is off by 1/6.
        let error = RunStats::new(&cases[0], Duration::ZERO).proxy_max_error;
        assert!((error - 1.0 / 6.0).abs() < 1e-12, "{error}");
    }

    #[test]
    fn degenerate_nodes_fall_back_to_even_shares() {
        let nodes = [node(0, 0, Duration::ZERO), node(1, 0, Duration::ZERO)];
        assert_eq!(RunStats::new(&nodes, Duration::ZERO).proxy_max_error, 0.0);
        assert_eq!(RunStats::new(&[], Duration::ZERO).proxy_max_error, 0.0);
    }
}
