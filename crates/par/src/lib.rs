//! Shared parallel-kernel layer for the MATEX stack.
//!
//! The per-node cost of a MATEX transient run is dominated by Krylov
//! subspace generation: sparse mat-vecs, forward/backward substitution
//! pairs, and Gram–Schmidt orthogonalization (paper Sec. 3.2–3.3). This
//! crate provides the std-only machinery those kernels parallelize over:
//!
//! * [`ParPool`] — a persistent, reusable worker pool (spin-then-park
//!   dispatch, no allocation per call, caller participates),
//! * tiled kernels ([`dot`], [`norm2`], [`multi_dot`],
//!   [`subtract_combination`], [`combine_columns`], [`div_in_place`])
//!   with **fixed tile boundaries and deterministic tile-order
//!   reductions**, so results are bitwise-invariant in the thread count.
//!
//! # Determinism contract
//!
//! These kernels are the only ones: there is no separate serial copy.
//! A kernel driven by a `k`-thread pool produces **bit-for-bit** the
//! same output for every `k ≥ 1`: tiles are a function of the problem
//! size alone and partials combine serially in tile order. Every solver,
//! distributed node and engine job runs them on [`ParPool::inline`], a
//! one-thread pool that runs the tiled arithmetic on the caller; the
//! stack's parallelism is across superposition nodes and jobs, not
//! inside a kernel.
//!
//! # Example
//!
//! ```
//! use matex_par::ParPool;
//!
//! let pool = ParPool::new(2);
//! let x: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
//! // Bitwise equality across pool widths.
//! assert_eq!(
//!     matex_par::dot(&pool, &x, &x).to_bits(),
//!     matex_par::dot(ParPool::inline(), &x, &x).to_bits(),
//! );
//! ```

#![warn(unreachable_pub)]

mod kernels;
mod pool;

pub use kernels::{
    combine_columns, div_in_place, dot, multi_dot, norm2, subtract_combination, tile_span, tiles,
    TILE,
};
pub use pool::ParPool;

// Compile the crate README's code blocks as doctests so the documented
// threading model can never rot.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
