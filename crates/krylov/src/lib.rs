//! Krylov-subspace matrix-exponential kernels for MATEX.
//!
//! Implements the paper's Alg. 1 ("MATEX Arnoldi") and its three operator
//! variants, plus the reusable-basis evaluation that powers Alg. 2:
//!
//! * [`Arnoldi`] — incremental Arnoldi factorization with fused, tiled
//!   classical Gram–Schmidt + re-orthogonalization (CGS2),
//! * [`StandardOp`] / [`InvertedOp`] / [`RationalOp`] — MEXP, I-MATEX and
//!   R-MATEX iteration operators (each one forward/backward substitution
//!   pair per step),
//! * [`KrylovKind::map_hessenberg`] — `Ĥ → Hm` mappings
//!   (`Ĥ`, `Ĥ⁻¹`, `(I−Ĥ⁻¹)/γ`),
//! * [`build_basis`] — tolerance-driven subspace construction with the
//!   paper's posterior error estimates; a [`BasisBuilder`] keeps its
//!   storage (an [`ArnoldiSpace`]) across the builds of a run, so warm
//!   builds allocate nothing per step,
//! * [`KrylovBasis`] — `(β, V_m, H_m)`, reused across snapshots,
//! * [`SnapshotEvaluator`] — the one way to evaluate a basis: batched,
//!   allocation-free `Vᵀ·W` combination over a whole window of eval
//!   times plus the `expm` squaring ladder that subsumes the sub-step
//!   search (see `README.md` for the model).
//!
//! # Example
//!
//! ```
//! use matex_krylov::{build_basis, ExpmParams, RationalOp, SnapshotEvaluator};
//! use matex_sparse::{CsrMatrix, LuOptions, SparseLu};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 2-node RC system: C x' = -G x.
//! let c = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]);
//! let g = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (0, 1, -1.0), (1, 0, -1.0), (1, 1, 2.0)]);
//! let gamma = 0.1;
//! let shifted = CsrMatrix::linear_combination(1.0, &c, gamma, &g)?;
//! let lu = SparseLu::factor(&shifted, &LuOptions::default())?;
//! let op = RationalOp::new(&lu, &c, gamma);
//!
//! let v = vec![1.0, 0.0];
//! let out = build_basis(&op, &v, 0.5, &ExpmParams::with_tol(1e-10))?;
//! let mut x = vec![0.0; 2];
//! SnapshotEvaluator::new().eval_many_into(&out.basis, &[0.5], None, &mut x)?; // ≈ e^{0.5 A} v
//! assert!(x[0] < 1.0 && x[1] > 0.0); // charge spreads to node 2
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod arnoldi;
mod error;
mod expmv;
mod operator;
mod snapshot;
mod variant;

pub use arnoldi::{Arnoldi, ArnoldiSpace};
pub use error::KrylovError;
pub use expmv::{build_basis, BasisBuilder, BuildOutcome, ExpmParams, KrylovBasis};
pub use operator::{shifted_system, InvertedOp, KrylovOp, RationalOp, StandardOp};
pub use snapshot::SnapshotEvaluator;
pub use variant::KrylovKind;

// Compile the crate README's code blocks as doctests so the documented
// snapshot-evaluation model can never rot.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
