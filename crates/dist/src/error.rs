use matex_core::CoreError;
use std::fmt;

/// Errors from the distributed scheduler.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DistError {
    /// A node's solver failed, retry budget exhausted; carries the first
    /// terminal failure to reach the master.
    Node {
        /// Group id of the failing subtask.
        group: usize,
        /// The underlying engine error.
        source: CoreError,
    },
    /// The superposition step failed (mismatched grids — an internal
    /// invariant violation, since every node shares one spec).
    Superposition(CoreError),
    /// The master's one preparation (the factorizations every node
    /// marches from) failed before any node was scheduled.
    Analyze(CoreError),
    /// An injected pre-built group plan does not match this run's
    /// system, spec, or grouping strategy.
    Plan(String),
    /// The run's cancel token was tripped; workers stopped between node
    /// attempts and in-flight nodes gave up at a transient-step boundary.
    Cancelled,
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Node { group, source } => {
                write!(f, "distributed node for group {group} failed: {source}")
            }
            DistError::Superposition(e) => write!(f, "superposition failed: {e}"),
            DistError::Analyze(e) => write!(f, "shared preparation failed: {e}"),
            DistError::Plan(msg) => write!(f, "injected plan mismatch: {msg}"),
            DistError::Cancelled => write!(f, "distributed run cancelled"),
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Node { source, .. } => Some(source),
            DistError::Superposition(e) => Some(e),
            DistError::Analyze(e) => Some(e),
            DistError::Plan(_) | DistError::Cancelled => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_group() {
        let e = DistError::Node {
            group: 3,
            source: CoreError::InvalidSpec("x".into()),
        };
        assert!(e.to_string().contains("group 3"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
