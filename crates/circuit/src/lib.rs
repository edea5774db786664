//! Linear-circuit substrate for the MATEX power-grid simulator.
//!
//! Covers everything between "a power grid exists" and "solve
//! `C x' = -G x + B u(t)`":
//!
//! * [`Netlist`] — R/C/L/V/I elements over named nodes,
//! * [`parse_netlist`] — SPICE-subset parser (IBM PG benchmark dialect),
//! * [`MnaSystem`] — modified nodal analysis assembly into sparse
//!   `G`, `C`, `B` (paper Eq. (1)),
//! * [`dc_operating_point`] — the initial condition,
//! * [`regularize_c`] — ε-regularization of singular `C` (needed by the
//!   MEXP baseline only; Sec. 3.3.3),
//! * [`RcMeshBuilder`] / [`PdnBuilder`] — synthetic Table-1 meshes and
//!   IBM-like grids (DESIGN.md §2 documents this substitution),
//! * [`ibmpg`] — real-benchmark interop and reference-solution files.
//!
//! # Example
//!
//! ```
//! use matex_circuit::{dc_operating_point, PdnBuilder};
//!
//! # fn main() -> Result<(), matex_circuit::CircuitError> {
//! let sys = PdnBuilder::new(8, 8).num_loads(12).build()?;
//! let x0 = dc_operating_point(&sys)?;
//! // Every grid node sits near VDD before the loads fire.
//! assert!(x0[..sys.num_nodes()].iter().all(|&v| v > 1.0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod dc;
mod elements;
mod error;
mod mna;
mod netlist;
mod parser;
mod pdn;
mod regularize;

pub mod ibmpg;

pub use dc::dc_operating_point;
pub use elements::{Element, Node, SourceKind};
pub use error::CircuitError;
pub use mna::{MnaSystem, SourceInfo, ValueDiff};
pub use netlist::Netlist;
pub use parser::{parse_netlist, parse_value, ParsedCircuit, TranSpec};
pub use pdn::{PdnBuilder, RcMeshBuilder};
pub use regularize::{regularize_c, Regularized};
