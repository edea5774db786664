//! The MATEX service layer: a scenario engine and TCP job service that
//! amortize per-circuit analysis across fleets of transient runs.
//!
//! MATEX's premise (paper Sec. 3) is that one circuit's expensive
//! artifacts — MNA structure, symbolic LU, numeric factors, DC operating
//! point, source-group schedule — are reusable across the many
//! per-input-source transients it spawns. Until this crate, every run
//! re-derived all of them. `matex-serve` turns that premise into a
//! serving system:
//!
//! * [`JobSpec`] — circuit + window + tolerances + scenario overrides
//!   (γ, scaled sources) + execution mode (monolithic or distributed),
//! * [`ScenarioEngine`] — runs jobs against a two-level
//!   structure-fingerprint cache (symbolic analyses anchored per
//!   γ decade, numeric setups per value fingerprint, DC solutions and
//!   group plans per source fingerprint), admitted through one ranked
//!   queue whose job table leases a fixed thread count, so concurrent
//!   jobs never oversubscribe the host,
//! * [`serve`] / [`ServiceHandle`] — a TCP front end (hello / submit /
//!   poll / wait / stream / stats) over [`std::net::TcpListener`]:
//!   JSON-lines requests and control responses, with waveforms streamed
//!   as length-prefixed binary [`matex_waveform::WaveFrame`] records,
//! * [`run_load`] — a load generator measuring throughput, latency
//!   percentiles, stream bytes on the wire, and cross-client
//!   determinism.
//!
//! Pointing [`EngineOptions::store`] at a [`matex_store::ArtifactStore`]
//! directory persists every computed artifact: a restarted engine
//! hydrates its cache from disk and serves its first jobs warm, bitwise
//! identical to the run that populated it.
//!
//! **Determinism contract:** a job's waveform is bitwise identical to a
//! standalone [`matex_core::MatexSolver`] /
//! [`matex_dist::run_distributed`] call, whether the job ran cold or
//! hit every cache. Cache hits
//! replay the very factors a fresh run would compute (see
//! `matex_sparse::SymbolicLu`'s replay re-verification).
//!
//! # Example
//!
//! ```
//! use matex_circuit::PdnBuilder;
//! use matex_core::TransientSpec;
//! use matex_serve::{EngineOptions, JobSpec, ScenarioEngine};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let engine = ScenarioEngine::new(EngineOptions::default());
//! let grid = Arc::new(PdnBuilder::new(8, 8).num_loads(10).window(1e-9).build()?);
//! let spec = TransientSpec::new(0.0, 1e-9, 2e-11)?;
//! // First job pays for analysis; the fleet replays it.
//! engine.run(&JobSpec::new(grid.clone(), spec.clone()))?;
//! for scale in [0.8, 1.0, 1.2] {
//!     let out = engine.run(&JobSpec::new(grid.clone(), spec.clone()).source_scale(scale))?;
//!     assert!(out.cache.is_warm());
//! }
//! assert!(engine.stats().warm_rate() >= 0.75);
//! # Ok(())
//! # }
//! ```

mod admission;
mod cache;
mod engine;
mod error;
mod execute;
mod job;
mod json;
mod loadgen;
mod resolve;
mod service;
mod stats;

pub use cache::CacheSizes;
pub use engine::{EngineOptions, ScenarioEngine};
pub use error::ServeError;
pub use job::{
    CacheReport, ExecutionMode, Hit, HitPath, JobId, JobOutcome, JobSpec, JobSpecBuilder,
    JobStatus, Priority, ScenarioOverrides, ScenarioOverridesBuilder,
};
pub use json::{parse_flat_json, JsonValue};
pub use loadgen::{run_load, LoadJob, LoadMode, LoadReport, LoadSpec};
pub use matex_core::CancelToken;
pub use service::{serve, ServiceHandle, ServiceOptions, ServiceOptionsBuilder};
pub use stats::EngineStats;

// Compile the crate README's code blocks as doctests so the documented
// quickstart can never rot.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
