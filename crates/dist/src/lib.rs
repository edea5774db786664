//! The distributed MATEX framework (paper Sec. 3 / Fig. 4).
//!
//! The paper's headline speedups (Table 3) come from *decomposition*:
//! input sources are partitioned into groups — by bump feature, so every
//! group's members share their transition timing — and each group is
//! simulated independently by one "slave node" running a masked
//! [`MatexSolver`](matex_core::MatexSolver) with its own local transition
//! spots. Because the MNA system is linear, the node results superpose
//! into the full solution.
//!
//! This crate is the master of Fig. 4:
//!
//! * [`run_distributed`] — group, prepare **one**
//!   [`MatexSetup`](matex_core::MatexSetup) per run on the master (one
//!   factorization each of `G` and `C + γG`, side by side when the run
//!   has two workers, and no symbolic analysis; the node matrices are
//!   identical, so no node ever factors), schedule onto a
//!   worker pool (workers of a [`std::thread::scope`] take
//!   longest-processing-time positions from one shared cursor; each
//!   node runs serially on its worker — the workers are the only
//!   parallelism — and a failed node retries in place on the worker
//!   that ran it), run one masked solver per
//!   group against the shared immutable system and setup, and
//!   **stream** each finished node's samples into the combined result
//!   in the fixed, worker-independent schedule order — numerics bitwise
//!   independent of the worker count, peak memory independent of the
//!   group count,
//! * [`DistributedRun`] — the combined result plus one record per node
//!   ([`NodeRun`]: LTS count, wall time, solver stats with the `T_H` /
//!   `T_e` split) and the paper's one-instance-per-node makespan
//!   emulation, matching Table 3's `trmatex` / `tr_total` columns
//!   (`emulated_transient` is the slowest node's march;
//!   `emulated_total` adds the run's one preparation and that node's DC
//!   — one factorization per machine),
//! * [`RunStats`] — the LTS-count proxy's worst share error against
//!   `NodeRun::wall`, and the preparation time, with
//!   [`list_schedule_makespan`] to bound the proxy's scheduling error,
//! * [`SpeedupModel`] — the Sec. 3.4 analytic model (Eqs. (11)–(12)).
//!
//! # Example
//!
//! ```
//! use matex_circuit::PdnBuilder;
//! use matex_core::TransientSpec;
//! use matex_dist::{run_distributed, DistributedOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let grid = PdnBuilder::new(8, 8).num_loads(10).num_features(3).window(2e-9).build()?;
//! let spec = TransientSpec::new(0.0, 2e-9, 4e-11)?;
//! let run = run_distributed(&grid, &spec, &DistributedOptions::default())?;
//! assert_eq!(run.num_groups(), 4); // 3 bump shapes + the supply group
//! assert_eq!(run.result.times().len(), 51);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

// Compile the README's examples as doctests so the documented recovery
// workflow can never drift from the code.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

mod error;
mod options;
mod plan;
mod run;
mod schedule;
mod speedup;

pub use error::DistError;
pub use options::DistributedOptions;
pub use plan::{plan_groups, GroupPlan, PlanJob};
pub use run::{run_distributed, DistributedRun, NodeRun};
pub use schedule::{list_schedule_makespan, RunStats};
pub use speedup::SpeedupModel;
