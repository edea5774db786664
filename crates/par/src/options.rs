//! Thread-count configuration (`MATEX_THREADS` + builder API).

/// How many threads the parallel kernels may use.
///
/// Resolution order: an explicit [`ParOptions::threads`] wins; otherwise
/// the `MATEX_THREADS` environment variable; otherwise one thread. There
/// is no "off": a width of 1 — including `0`, unset, or unparseable —
/// runs the tiled kernels inline on the caller
/// ([`ParPool::inline`](crate::ParPool::inline)), and every width
/// produces bit-for-bit the same results.
///
/// # Example
///
/// ```
/// use matex_par::ParOptions;
///
/// assert_eq!(ParOptions::with_threads(4).resolve(), 4);
/// assert_eq!(ParOptions::with_threads(0).resolve(), 1); // inline
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParOptions {
    /// Total threads (workers + caller). `None` defers to
    /// `MATEX_THREADS`; `Some(0)` means one thread, like `Some(1)`.
    pub threads: Option<usize>,
}

impl ParOptions {
    /// Options pinning an explicit thread count.
    pub fn with_threads(threads: usize) -> ParOptions {
        ParOptions {
            threads: Some(threads),
        }
    }

    /// The effective thread count, at least 1.
    pub fn resolve(&self) -> usize {
        self.threads.or_else(env_threads).unwrap_or(1).max(1)
    }
}

/// Parses `MATEX_THREADS`; `None` when unset or unparseable.
fn env_threads() -> Option<usize> {
    std::env::var("MATEX_THREADS").ok()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_threads_win() {
        assert_eq!(ParOptions::with_threads(7).resolve(), 7);
        assert_eq!(ParOptions::with_threads(1).resolve(), 1);
    }

    #[test]
    fn explicit_zero_is_one_thread() {
        assert_eq!(ParOptions::with_threads(0).resolve(), 1);
    }

    #[test]
    fn build_pool_matches_resolution() {
        for (asked, width) in [(0, 1), (1, 1), (2, 2)] {
            let pool = crate::ParPool::new(ParOptions::with_threads(asked).resolve());
            assert_eq!(pool.threads(), width);
        }
    }
}
