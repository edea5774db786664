//! Small dense linear-algebra kernels for the MATEX power-grid simulator.
//!
//! MATEX approximates `e^{hA} v` for a huge sparse `A` by projecting onto a
//! Krylov subspace of dimension `m` (typically 5–30, a few hundred in the
//! worst case). Every per-step computation on the projected system happens on
//! *small dense* matrices:
//!
//! * the Hessenberg matrix `H_m` produced by the Arnoldi process,
//! * its inverse (inverted / rational Krylov variants),
//! * the matrix exponential `e^{h H_m}` (Padé scaling-and-squaring, the same
//!   algorithm family as MATLAB's `expm` used by the paper),
//! * eigenvalue diagnostics used to measure circuit stiffness.
//!
//! This crate implements those kernels from scratch with no external
//! dependencies. It is deliberately tuned for the "small but numerically
//! nasty" regime (stiffness ratios up to `1e16`), not for large-matrix BLAS
//! throughput.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
// Index loops mirror the reference LAPACK-style formulations these
// kernels are transcribed from; iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]
//!
//! # Example
//!
//! ```
//! use matex_dense::{DMat, expm};
//!
//! // e^{0} == I
//! let z = DMat::zeros(3, 3);
//! let e = expm(&z).unwrap();
//! assert!((&e - &DMat::identity(3)).norm_inf() < 1e-14);
//! ```

mod error;
mod expm;
mod lu;
mod matrix;
mod vector;

pub mod eig;

pub use error::DenseError;
pub use expm::{expm, expm_col0, expm_col0_into, expm_col0_ladder, ExpmScratch};
pub use lu::DenseLu;
pub use matrix::DMat;
pub use vector::{
    axpy, dot, lin_comb, norm1, norm2, norm_inf, normalize, scale_in_place, sub, unit_vector,
};

/// Result alias used by all fallible dense operations.
pub type Result<T> = std::result::Result<T, DenseError>;
