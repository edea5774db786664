//! Solver cost accounting.
//!
//! The paper's comparisons are phrased in these units (Sec. 3.4): pairs of
//! forward/backward substitutions (`T_bs`), small-exponential evaluations
//! (`T_H + T_e`), matrix factorizations, and Krylov basis dimensions
//! (`m_a`, `m_p` in Table 1). Every engine fills in a [`SolveStats`] so
//! benches can report exactly the paper's columns.

use std::time::Duration;

/// Cost counters and timings for one transient run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveStats {
    /// Sparse LU factorizations performed (full or numeric-replay).
    pub factorizations: usize,
    /// Of those, how many were cheap numeric refactorizations replaying
    /// a shared symbolic analysis (two-phase LU fast path).
    pub refactorizations: usize,
    /// Pairs of forward/backward substitutions (the `T_bs` unit). A
    /// MATEX run counts one per Arnoldi step, one for the DC solve
    /// unless one is injected, and its input columns once per run —
    /// `g₀` plus two per load shape — and, when it has non-pulse
    /// sources, one or three per input window (see `fp_terms`).
    pub substitution_pairs: usize,
    /// Accepted time steps (fixed-step engines) or evaluation points
    /// (MATEX).
    pub steps: usize,
    /// Rejected steps (adaptive engines).
    pub rejected_steps: usize,
    /// Krylov subspaces generated.
    pub krylov_bases: usize,
    /// Sum of generated Krylov dimensions (for `m_a` = average).
    pub krylov_dim_sum: usize,
    /// Peak Krylov dimension (`m_p` of Table 1).
    pub krylov_dim_peak: usize,
    /// Small-exponential evaluations (`T_H + T_e` events).
    pub expm_evals: usize,
    /// Sub-step bisections forced by non-converged subspaces.
    pub substeps: usize,
    /// Of the accepted steps, how many took the best-effort value of an
    /// exhausted sub-step search (MATEX only): their posterior estimate
    /// did not meet the tolerance.
    pub best_effort_steps: usize,
    /// Wall time of DC analysis.
    pub dc_time: Duration,
    /// Wall time of matrix factorization(s).
    pub factor_time: Duration,
    /// Wall time of the transient computation after factorization (the
    /// paper's "pure transient computing" column).
    pub transient_time: Duration,
    /// Of the transient time, wall time spent in small projected
    /// exponentials — the per-snapshot `e^{h·Hm}e₁` columns and the
    /// sub-step squaring ladder (the paper's `T_H` term). MATEX only;
    /// zero for the companion-model engines.
    pub expm_time: Duration,
    /// Of the transient time, wall time spent materializing accepted
    /// snapshots: the basis combination itself plus the
    /// particular-solution (`P(h)`) application and output recording
    /// (the paper's `T_e` term). MATEX only.
    pub combine_time: Duration,
}

impl SolveStats {
    /// Average Krylov dimension `m_a` (0 when no bases were built).
    pub fn krylov_dim_avg(&self) -> f64 {
        if self.krylov_bases == 0 {
            0.0
        } else {
            self.krylov_dim_sum as f64 / self.krylov_bases as f64
        }
    }

    /// Total wall time (DC + factorization + transient).
    pub fn total_time(&self) -> Duration {
        self.dc_time + self.factor_time + self.transient_time
    }

    /// Merges counters from another run (used when summing distributed
    /// subtask costs).
    pub fn absorb(&mut self, other: &SolveStats) {
        self.factorizations += other.factorizations;
        self.refactorizations += other.refactorizations;
        self.substitution_pairs += other.substitution_pairs;
        self.steps += other.steps;
        self.rejected_steps += other.rejected_steps;
        self.krylov_bases += other.krylov_bases;
        self.krylov_dim_sum += other.krylov_dim_sum;
        self.krylov_dim_peak = self.krylov_dim_peak.max(other.krylov_dim_peak);
        self.expm_evals += other.expm_evals;
        self.substeps += other.substeps;
        self.best_effort_steps += other.best_effort_steps;
        self.dc_time += other.dc_time;
        self.factor_time += other.factor_time;
        self.transient_time += other.transient_time;
        self.expm_time += other.expm_time;
        self.combine_time += other.combine_time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages() {
        let mut s = SolveStats::default();
        assert_eq!(s.krylov_dim_avg(), 0.0);
        s.krylov_bases = 4;
        s.krylov_dim_sum = 40;
        assert_eq!(s.krylov_dim_avg(), 10.0);
    }

    #[test]
    fn absorb_sums_and_maxes() {
        let mut a = SolveStats {
            substitution_pairs: 10,
            krylov_dim_peak: 5,
            best_effort_steps: 2,
            ..SolveStats::default()
        };
        let b = SolveStats {
            substitution_pairs: 7,
            krylov_dim_peak: 9,
            best_effort_steps: 3,
            ..SolveStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.substitution_pairs, 17);
        assert_eq!(a.krylov_dim_peak, 9);
        assert_eq!(a.best_effort_steps, 5);
    }
}
