//! Sparse linear-algebra substrate for the MATEX power-grid simulator.
//!
//! The MATEX paper builds on a direct sparse solver (UMFPACK under MATLAB):
//! every simulation engine factors one matrix up front — `C/h + G/2` for
//! trapezoidal, `G` for the inverted Krylov variant, `C + γG` for the
//! rational variant — and then performs thousands of forward/backward
//! substitution pairs. This crate provides that solver stack from scratch:
//!
//! * [`CooMatrix`] — triplet assembly (duplicates summed, as MNA stamps
//!   require),
//! * [`CsrMatrix`] — compressed row storage with mat-vecs and
//!   pattern-merged linear combinations (the only stored format: the
//!   factorization reads `A`'s columns through a CSR → CSC gather map),
//! * [`OrderingKind`] — AMD / RCM / natural fill-reducing orderings,
//! * [`equilibrate`] — power-of-two row/column scaling,
//! * [`SparseLu`] — left-looking Gilbert–Peierls LU with threshold partial
//!   pivoting,
//! * [`SymbolicLu`] — the two-phase split of that factorization: pay for
//!   ordering + reach analysis once, then numerically refactor every
//!   same-pattern matrix (the `C + γG` sweep hot path) at a fraction of
//!   the cost. [`SparseLu::factor`] and [`SymbolicLu::analyze_with_factor`]
//!   run one elimination loop, with recording off and on.
//!
//! # Example
//!
//! ```
//! use matex_sparse::{CsrMatrix, SparseLu, LuOptions};
//!
//! # fn main() -> Result<(), matex_sparse::SparseError> {
//! // A tiny resistive network: solve G v = i.
//! let g = CsrMatrix::from_triplets(
//!     2,
//!     2,
//!     &[(0, 0, 3.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 2.0)],
//! );
//! let lu = SparseLu::factor(&g, &LuOptions::default())?;
//! let v = lu.solve(&[1.0, 0.0]);
//! assert!((v[0] - 0.4).abs() < 1e-12);
//! assert!((v[1] - 0.2).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
// Index loops mirror the CSparse-style formulations these kernels are
// transcribed from; iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

mod coo;
mod csr;
mod error;
mod lu;
mod options;
mod perm;
mod scaling;
mod smw;
mod symbolic;
mod wire;

pub mod ordering;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use error::SparseError;
pub use lu::{SparseLu, SOLVE_BATCH};
pub use options::LuOptions;
pub use ordering::OrderingKind;
pub use perm::Permutation;
pub use scaling::equilibrate;
pub use smw::{FactorRef, SmwOptions, SmwRejection, SmwUpdate, SparseCol};
pub use symbolic::SymbolicLu;
pub use wire::{WireError, WireReader, WireWriter};

// Compile the crate README's code blocks as doctests so the documented
// two-phase workflow can never rot.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
