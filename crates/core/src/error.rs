use std::fmt;

/// Errors from transient-simulation engines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// The transient specification was inconsistent (non-positive window,
    /// bad sample step, ...).
    InvalidSpec(String),
    /// An engine option was invalid.
    InvalidOption(String),
    /// The adaptive step controller could not meet its tolerance above
    /// the minimum step size.
    StepUnderflow {
        /// Time at which the controller gave up.
        at: f64,
        /// The rejected step size.
        h: f64,
    },
    /// The march produced a non-finite state (NaN or ±∞): the run stops
    /// there instead of returning a poisoned waveform.
    NotFinite {
        /// Time of the first non-finite state.
        at: f64,
    },
    /// The march diverged: the projected (dense) computation of a step
    /// failed, on a start vector that has blown up or degenerated, or a
    /// step no sub-step could rescue carried an error estimate far over
    /// the tolerance (`cause` is then
    /// [`KrylovError::NoConvergence`](matex_krylov::KrylovError::NoConvergence)).
    /// A kernel failure inside the march surfaces as this, never bare.
    Diverged {
        /// Time of the anchor the step starts from.
        at: f64,
        /// The step from the anchor.
        h: f64,
        /// Dimension of the basis the step was evaluated on; `None` when
        /// building the basis failed.
        m: Option<usize>,
        /// The kernel failure.
        cause: matex_krylov::KrylovError,
    },
    /// The engine ended its march with output samples unrecorded.
    SamplesUnfilled {
        /// Samples recorded, in order from the first.
        filled: usize,
        /// Samples on the grid.
        total: usize,
    },
    /// Two results could not be compared (different grids/rows).
    Incomparable(String),
    /// The run's [`CancelToken`](crate::CancelToken) was tripped; the
    /// solver stopped at the next transient-step boundary.
    Cancelled,
    /// Circuit-level failure (DC, assembly, regularization).
    Circuit(matex_circuit::CircuitError),
    /// Sparse-solver failure.
    Sparse(matex_sparse::SparseError),
    /// Krylov kernel failure.
    Krylov(matex_krylov::KrylovError),
    /// A worker panicked; the payload message is preserved so supervisors
    /// can report *what* unwound instead of a generic failure.
    Panicked(String),
    /// A fault injected by an armed [`FaultHook`](crate::FaultHook) at
    /// the named site (test/bench-only by construction: disarmed hooks
    /// never produce this).
    Injected {
        /// The fault site that fired (`"dist.node"`, ...).
        site: String,
    },
}

/// Best-effort extraction of a panic payload's message (`&str` and
/// `String` payloads cover `panic!`/`assert!`/`unwrap` in practice) —
/// what every supervision layer puts in [`CoreError::Panicked`] or its
/// own error text after a `catch_unwind`.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidSpec(m) => write!(f, "invalid transient spec: {m}"),
            CoreError::InvalidOption(m) => write!(f, "invalid option: {m}"),
            CoreError::StepUnderflow { at, h } => {
                write!(f, "adaptive step underflow at t = {at:.3e} (h = {h:.3e})")
            }
            CoreError::NotFinite { at } => write!(f, "non-finite state at t = {at:.3e}"),
            CoreError::Diverged { at, h, m, cause } => {
                write!(f, "march diverged at t = {at:.3e}, step {h:.3e}, ")?;
                match m {
                    Some(m) => write!(f, "basis dimension {m}: {cause}")?,
                    None => write!(f, "building the basis: {cause}")?,
                }
                match cause {
                    matex_krylov::KrylovError::NoConvergence { .. } => {
                        write!(f, " (try a larger m_max or a smaller dt_out)")
                    }
                    _ => Ok(()),
                }
            }
            CoreError::SamplesUnfilled { filled, total } => {
                write!(
                    f,
                    "{} of {total} samples unfilled",
                    total.saturating_sub(*filled)
                )
            }
            CoreError::Incomparable(m) => write!(f, "results are not comparable: {m}"),
            CoreError::Cancelled => write!(f, "run cancelled"),
            CoreError::Circuit(e) => write!(f, "circuit error: {e}"),
            CoreError::Sparse(e) => write!(f, "sparse error: {e}"),
            CoreError::Krylov(e) => write!(f, "krylov error: {e}"),
            CoreError::Panicked(m) => write!(f, "worker panicked: {m}"),
            CoreError::Injected { site } => write!(f, "injected fault at {site}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Circuit(e) => Some(e),
            CoreError::Sparse(e) => Some(e),
            CoreError::Krylov(e) | CoreError::Diverged { cause: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<matex_circuit::CircuitError> for CoreError {
    fn from(e: matex_circuit::CircuitError) -> Self {
        CoreError::Circuit(e)
    }
}

impl From<matex_sparse::SparseError> for CoreError {
    fn from(e: matex_sparse::SparseError) -> Self {
        CoreError::Sparse(e)
    }
}

impl From<matex_krylov::KrylovError> for CoreError {
    fn from(e: matex_krylov::KrylovError) -> Self {
        CoreError::Krylov(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = CoreError::StepUnderflow { at: 1e-9, h: 1e-15 };
        assert!(e.to_string().contains("underflow"));
        let wrapped = CoreError::from(matex_sparse::SparseError::Singular { column: 0 });
        assert!(wrapped.source().is_some());
        let cause = matex_krylov::KrylovError::Dense(matex_dense::DenseError::NotFinite);
        let e = CoreError::Diverged {
            at: 1.5e-10,
            h: 7e-12,
            m: Some(4),
            cause,
        };
        let text = e.to_string();
        assert!(text.contains("t = 1.500e-10") && text.contains("step 7.000e-12"));
        assert!(text.contains("basis dimension 4"), "{text}");
        assert!(e.source().is_some());
    }

    #[test]
    fn panic_payloads_become_messages() {
        let caught = |f: fn()| panic_message(&*std::panic::catch_unwind(f).unwrap_err());
        assert_eq!(caught(|| panic!("static")), "static");
        assert_eq!(caught(|| panic!("formatted {}", 7)), "formatted 7");
        assert_eq!(
            caught(|| std::panic::panic_any(7_u8)),
            "non-string panic payload"
        );
    }
}
