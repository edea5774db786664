//! Source waveforms and input-transition analysis for MATEX.
//!
//! A power distribution network is driven by thousands of current sources
//! with pulse-like ("bump") waveforms plus a handful of DC supplies. MATEX's
//! distributed decomposition (paper Sec. 3) is entirely a statement about
//! these inputs:
//!
//! * each waveform contributes *local transition spots* ([`Waveform::transition_spots`]),
//! * sources sharing a timing shape ([`FeatureKey`]) form one class of
//!   the run's [`TimingClasses`], with one spot set per class,
//! * the union of the spots is the *global transition spots* set,
//! * classes are grouped into subtasks ([`group_sources`]), whose
//!   snapshot points (GTS minus the group's LTS) reuse Krylov subspaces.
//!
//! # Example
//!
//! ```
//! use matex_waveform::{group_sources, GroupingStrategy, Pulse, Waveform};
//!
//! # fn main() -> Result<(), matex_waveform::WaveformError> {
//! // Three loads, two distinct bump shapes (paper Fig. 3 in miniature).
//! let early = Pulse::new(0.0, 1e-3, 1e-10, 2e-11, 4e-11, 2e-11)?;
//! let late = Pulse::new(0.0, 2e-3, 5e-10, 2e-11, 4e-11, 2e-11)?;
//! let sources = vec![
//!     Waveform::Pulse(early),
//!     Waveform::Pulse(late),
//!     Waveform::Pulse(early), // same shape as #0
//! ];
//! let grouping = group_sources(&sources, 1e-9, GroupingStrategy::ByBumpFeature);
//! assert_eq!(grouping.groups.len(), 3); // constants + 2 shapes
//! assert_eq!(grouping.gts.len(), 8);    // 4 spots per distinct shape
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod error;
mod features;
mod fingerprint;
mod frame;
mod grouping;
mod pulse;
mod pwl;
mod spots;
mod waveform;

pub use error::WaveformError;
pub use features::{FeatureKey, TimingClasses};
pub use fingerprint::Fnv64;
pub use frame::{FrameError, WaveFrame};
pub use grouping::{group_sources, Grouping, GroupingStrategy, SourceGroup};
pub use pulse::Pulse;
pub use pwl::Pwl;
pub use spots::SpotSet;
pub use waveform::Waveform;
