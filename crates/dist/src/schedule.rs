//! Scheduling order and cost-proxy accounting.
//!
//! The master schedules subtasks in longest-processing-time (LPT) order
//! using each group's LTS count as the cost proxy: a node's runtime is
//! dominated by its Krylov generations, one per local transition spot.
//! This module holds the order itself, a list-scheduling simulator used
//! to bound the proxy's scheduling error against measured wall times
//! (see `tests/scheduler.rs`), and the per-group predicted-vs-actual
//! record published on every [`DistributedRun`](crate::DistributedRun).

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

/// One group's predicted-vs-measured scheduling cost.
#[derive(Debug, Clone)]
pub struct GroupCost {
    /// Group id.
    pub group: usize,
    /// The scheduler's cost proxy: LTS count.
    pub num_lts: usize,
    /// Proxy cost as a share of the total proxy cost.
    pub predicted_share: f64,
    /// Measured wall time as a share of the total wall time.
    pub measured_share: f64,
    /// Measured wall time of the node run.
    pub wall: Duration,
    /// Of the node's transient time, the small-expm share (`T_H`: the
    /// per-snapshot `e^{h·Hm}e₁` columns and the sub-step ladder).
    pub expm_time: Duration,
    /// Of the node's transient time, the basis-combination share
    /// (`T_e`) including output recording.
    pub combine_time: Duration,
}

/// Scheduling accounting for one distributed run: the per-group
/// predicted-vs-actual record and the proxy's worst share error.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Per-group costs, ascending group order.
    pub groups: Vec<GroupCost>,
    /// `max_g |predicted_share − measured_share|` — 0 means the LTS
    /// proxy ranked the work exactly like the wall clock did.
    pub proxy_max_error: f64,
    /// Wall time of the run's one preparation — the factorizations of
    /// `G` and the variant's `X1` every node marches from, side by side
    /// when the run has two workers
    /// ([`MatexSetup::factor_time`](matex_core::MatexSetup::factor_time);
    /// the amortized cost when the setup was injected).
    pub prepare_time: Duration,
}

/// One node's raw scheduling measurement, fed to
/// [`RunStats::from_measurements`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NodeMeasurement {
    pub group: usize,
    pub num_lts: usize,
    pub wall: Duration,
    /// The node solver's `T_H` wall time (`SolveStats::expm_time`).
    pub expm_time: Duration,
    /// The node solver's `T_e` wall time (`SolveStats::combine_time`).
    pub combine_time: Duration,
}

impl RunStats {
    /// Builds the record from per-node measurements.
    pub(crate) fn from_measurements(
        measurements: &[NodeMeasurement],
        prepare_time: Duration,
    ) -> RunStats {
        let total_lts: usize = measurements.iter().map(|m| m.num_lts).sum();
        let total_wall: f64 = measurements.iter().map(|m| m.wall.as_secs_f64()).sum();
        let even = 1.0 / measurements.len().max(1) as f64;
        let mut proxy_max_error = 0.0_f64;
        let groups = measurements
            .iter()
            .map(|m| {
                let predicted_share = if total_lts == 0 {
                    even
                } else {
                    m.num_lts as f64 / total_lts as f64
                };
                let measured_share = if total_wall <= 0.0 {
                    even
                } else {
                    m.wall.as_secs_f64() / total_wall
                };
                proxy_max_error = proxy_max_error.max((predicted_share - measured_share).abs());
                GroupCost {
                    group: m.group,
                    num_lts: m.num_lts,
                    predicted_share,
                    measured_share,
                    wall: m.wall,
                    expm_time: m.expm_time,
                    combine_time: m.combine_time,
                }
            })
            .collect();
        RunStats {
            groups,
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

    fn m(group: usize, num_lts: usize, wall: Duration) -> NodeMeasurement {
        NodeMeasurement {
            group,
            num_lts,
            wall,
            ..NodeMeasurement::default()
        }
    }

    #[test]
    fn run_stats_shares_sum_to_one() {
        let m = [
            m(0, 0, Duration::from_millis(10)),
            m(1, 6, Duration::from_millis(50)),
            m(2, 3, Duration::from_millis(40)),
        ];
        let stats = RunStats::from_measurements(&m, Duration::ZERO);
        let p: f64 = stats.groups.iter().map(|g| g.predicted_share).sum();
        let w: f64 = stats.groups.iter().map(|g| g.measured_share).sum();
        assert!((p - 1.0).abs() < 1e-12);
        assert!((w - 1.0).abs() < 1e-12);
        assert!(stats.proxy_max_error <= 1.0);
    }

    #[test]
    fn group_costs_carry_the_node_splits() {
        // The per-node T_H/T_e measurements survive into the per-group
        // records.
        let m = [
            NodeMeasurement {
                group: 0,
                num_lts: 2,
                wall: Duration::from_millis(30),
                expm_time: Duration::from_micros(1_500),
                combine_time: Duration::from_micros(700),
            },
            NodeMeasurement {
                group: 1,
                num_lts: 4,
                wall: Duration::from_millis(60),
                expm_time: Duration::from_micros(2_500),
                combine_time: Duration::from_micros(1_300),
            },
        ];
        let stats = RunStats::from_measurements(&m, Duration::ZERO);
        assert_eq!(stats.groups[0].expm_time, Duration::from_micros(1_500));
        assert_eq!(stats.groups[1].combine_time, Duration::from_micros(1_300));
    }

    #[test]
    fn degenerate_measurements_fall_back_to_even_shares() {
        let m = [m(0, 0, Duration::ZERO), m(1, 0, Duration::ZERO)];
        let stats = RunStats::from_measurements(&m, Duration::ZERO);
        for g in &stats.groups {
            assert_eq!(g.predicted_share, 0.5);
            assert_eq!(g.measured_share, 0.5);
        }
        assert_eq!(stats.proxy_max_error, 0.0);
    }
}
