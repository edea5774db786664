//! MATEX transient-simulation engines.
//!
//! Six interchangeable engines over the MNA system `C x' = -G x + B u(t)`,
//! all implementing [`TransientEngine`]:
//!
//! * [`MatexSolver`] in its three [`KrylovKind`]s — the paper's
//!   contribution: matrix-exponential stepping with a standard (MEXP),
//!   inverted (I-MATEX) or rational (R-MATEX) Krylov subspace, subspace
//!   reuse at snapshots, and *zero* refactorization,
//! * [`Trapezoidal`] — fixed-step TR, the TAU-contest-style baseline the
//!   paper compares against (Table 3) and the accuracy reference,
//! * [`BackwardEuler`] — fixed-step BE, which shares TR's step loop,
//! * [`TrapezoidalAdaptive`] — LTE-controlled TR that re-factorizes on
//!   step changes (Table 2 baseline).
//!
//! Plus shared plumbing: [`TransientSpec`], the one definition of the
//! output grid, which every engine fills by sample index;
//! [`TransientResult`] / [`SolveStats`]; and the source masking of
//! [`MatexSolver::with_source_mask`] (and [`Trapezoidal`]'s, for
//! superposition checks) that the distributed framework builds on.
//!
//! # Example
//!
//! ```
//! use matex_circuit::RcMeshBuilder;
//! use matex_core::{
//!     BackwardEuler, KrylovKind, MatexOptions, MatexSolver, TransientEngine, TransientSpec,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let sys = RcMeshBuilder::new(4, 4).build()?;
//! let spec = TransientSpec::new(0.0, 1e-9, 1e-11)?;
//! let matex = MatexSolver::new(MatexOptions::new(KrylovKind::Rational)).run(&sys, &spec)?;
//! let reference = BackwardEuler::new(1e-13).run(&sys, &spec)?;
//! let (max_err, _avg) = matex.error_vs(&reference)?;
//! assert!(max_err < 1e-4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod be;
mod cancel;
mod engine;
mod error;
mod faults;
mod fixed_step;
mod fp_terms;
mod matex_solver;
mod reference;
mod result;
mod setup;
mod spec;
mod stats;
mod stiffness;
mod symbolic;
mod tr;
mod tr_adaptive;

pub use be::BackwardEuler;
pub use cancel::CancelToken;
pub use engine::{InputEval, Recorder, TransientEngine};
pub use error::{panic_message, CoreError};
pub use faults::{FaultHook, FaultKind, FaultPlan};
pub use fp_terms::IntervalTerms;
pub use matex_solver::{MatexOptions, MatexSolver};
pub use reference::{reference_solution, ReferenceMethod};
pub use result::TransientResult;
pub use setup::MatexSetup;
pub use spec::{ObserveSpec, TransientSpec};
pub use stats::SolveStats;
pub use stiffness::measure_stiffness;
pub use symbolic::MatexSymbolic;
pub use tr::Trapezoidal;
pub use tr_adaptive::TrapezoidalAdaptive;

// Re-export the Krylov variant selector: it is part of this crate's API.
pub use matex_krylov::{ExpmParams, KrylovKind};
// Re-export the what-if correction types consumed by `MatexSetup::correct`,
// so downstream crates (the serve engine) need no direct sparse dependency.
pub use matex_sparse::{SmwOptions, SmwRejection};
