//! # MATEX — matrix-exponential transient simulation of power grids
//!
//! A from-scratch Rust reproduction of *"MATEX: A Distributed Framework
//! for Transient Simulation of Power Distribution Networks"* (Zhuang,
//! Weng, Lin, Cheng — DAC 2014), including every substrate the paper
//! builds on. This facade crate re-exports the workspace:
//!
//! * [`dense`] — small dense kernels (LU, QR, eig, Padé `expm`)
//! * [`sparse`] — sparse matrices, AMD/RCM orderings, Gilbert–Peierls LU
//! * [`waveform`] — PULSE/PWL sources, transition spots, bump grouping
//! * [`circuit`] — netlists, SPICE parser, MNA assembly, PDN generators
//! * [`krylov`] — Arnoldi + standard/inverted/rational expm kernels
//! * [`par`] — std-only worker pool + deterministic tiled kernels
//! * [`core`] — transient engines (BE, TR, TR-adaptive, MATEX solver)
//! * [`dist`] — the distributed scheduler / superposition framework
//! * [`store`] — the disk-backed artifact store (versioned records)
//! * [`serve`] — the service layer: scenario engine + TCP job service
//!
//! ## Quickstart
//!
//! ```
//! use matex::circuit::RcMeshBuilder;
//! use matex::core::{KrylovKind, MatexOptions, MatexSolver, TransientEngine, TransientSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small RC mesh driven by a pulse current source.
//! let circuit = RcMeshBuilder::new(4, 4).build()?;
//! let spec = TransientSpec::new(0.0, 1e-9, 1e-11)?;
//! let solver = MatexSolver::new(MatexOptions::new(KrylovKind::Rational));
//! let result = solver.run(&circuit, &spec)?;
//! assert_eq!(result.num_time_points(), 101);
//! // One factorization of G, one of (C + γG) — and none thereafter.
//! assert_eq!(result.stats.factorizations, 2);
//! # Ok(())
//! # }
//! ```
//!
//! ## Distributed quickstart
//!
//! ```
//! use matex::circuit::PdnBuilder;
//! use matex::core::TransientSpec;
//! use matex::dist::{run_distributed, DistributedOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let grid = PdnBuilder::new(10, 10).num_loads(12).num_features(4).window(2e-9).build()?;
//! let spec = TransientSpec::new(0.0, 2e-9, 2e-11)?;
//! let run = run_distributed(&grid, &spec, &DistributedOptions::default())?;
//! assert_eq!(run.num_groups(), 5); // 4 bump shapes + supplies
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

// Compile the README's code blocks as doctests so the documented
// quickstarts can never rot.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

pub use matex_circuit as circuit;
pub use matex_core as core;
pub use matex_dense as dense;
pub use matex_dist as dist;
pub use matex_krylov as krylov;
pub use matex_obs as obs;
pub use matex_par as par;
pub use matex_serve as serve;
pub use matex_sparse as sparse;
pub use matex_store as store;
pub use matex_waveform as waveform;
