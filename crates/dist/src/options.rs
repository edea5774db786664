use crate::GroupPlan;
use matex_core::{CancelToken, MatexOptions, MatexSetup, MatexSymbolic};
use matex_waveform::GroupingStrategy;
use std::sync::Arc;

/// Options for a distributed run.
///
/// # Example
///
/// ```
/// use matex_dist::DistributedOptions;
/// use matex_waveform::GroupingStrategy;
///
/// let opts = DistributedOptions {
///     strategy: GroupingStrategy::BySource,
///     ..DistributedOptions::default()
/// };
/// assert_eq!(opts.workers, None); // None -> all available cores
/// ```
#[derive(Debug, Clone)]
pub struct DistributedOptions {
    /// Solver options handed to every node (the paper runs R-MATEX nodes;
    /// that is [`MatexOptions::default`]). Their fault hook and recorder
    /// serve the master too: it consults `matex.faults` at `"dist.node"`
    /// once per node attempt (retries included), and records its
    /// `dist.prepare` span and one `dist.node` span per attempt
    /// (labeled group / worker / retry) through `matex.obs`.
    pub matex: MatexOptions,
    /// How to partition the sources into subtasks (default: by bump
    /// feature, the paper's Sec. 3.2 decomposition).
    pub strategy: GroupingStrategy,
    /// Worker threads. `None` uses [`std::thread::available_parallelism`];
    /// `Some(1)` emulates the paper's dedicated-node cluster faithfully
    /// (every node's wall time is uncontended).
    pub workers: Option<usize>,
    /// A pre-built symbolic analysis for the master's one preparation.
    /// `None` (default) factors `G` and the variant's `X1` directly —
    /// an analysis of its own would be replayed once and dropped;
    /// `Some` turns those factorizations into numeric replays of it
    /// (nothing per node — nodes never factor). Either way the factors
    /// are bitwise the same, absent an exact cancellation (see
    /// `matex_sparse::SymbolicLu`). Ignored when `setup` is also
    /// injected — the setup already embeds the factors.
    pub symbolic: Option<Arc<MatexSymbolic>>,
    /// A pre-built solver setup. Every run marches **all** its nodes
    /// from one shared setup (the node matrices are identical — masking
    /// only selects input columns): `None` (default) prepares it once on
    /// the master, running its two factorizations side by side when
    /// the run has two workers; `Some` uses the given one (a scenario engine
    /// amortizes it across runs). Must match `matex` (kind, γ) and the
    /// system, per [`MatexSetup::check`].
    pub setup: Option<Arc<MatexSetup>>,
    /// A pre-built group plan ([`crate::plan_groups`]). `None` (default)
    /// plans inside the run; `Some` must fit the run's system, spec, and
    /// `strategy` ([`GroupPlan::check`]) or the run fails with
    /// [`crate::DistError::Plan`].
    pub plan: Option<Arc<GroupPlan>>,
    /// A cooperative cancellation token. `None` (default) runs to
    /// completion. When tripped, workers stop taking further nodes and
    /// retries, and every in-flight node solver gives up at its next
    /// transient-step boundary; the run returns
    /// [`crate::DistError::Cancelled`]. Tokens never corrupt shared
    /// artifacts — nodes only read the shared setup.
    pub cancel: Option<CancelToken>,
    /// Per-node retry budget: a node group whose solver fails or panics
    /// is retried at once, on the worker that ran it, up to this many
    /// times before the run aborts with [`crate::DistError::Node`]. A
    /// retry replays the identical pure computation against the shared
    /// read-only artifacts and superposes at the node's schedule
    /// position, so recovery never changes the waveform. Default 1.
    /// Cancellations are never retried.
    pub max_node_retries: usize,
}

impl Default for DistributedOptions {
    fn default() -> Self {
        DistributedOptions {
            matex: MatexOptions::default(),
            strategy: GroupingStrategy::default(),
            workers: None,
            symbolic: None,
            setup: None,
            plan: None,
            cancel: None,
            max_node_retries: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = DistributedOptions::default();
        assert_eq!(o.strategy, GroupingStrategy::ByBumpFeature);
        assert!(o.workers.is_none());
        assert!(matches!(o.matex.kind, matex_core::KrylovKind::Rational));
        assert_eq!(o.max_node_retries, 1);
        assert!(!o.matex.faults.is_armed());
    }
}
