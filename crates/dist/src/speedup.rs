//! The Sec. 3.4 analytic speedup model (Eqs. (11)–(12)).
//!
//! Cost units, as measured by [`SolveStats`](matex_core::SolveStats):
//!
//! * `T_bs` — one pair of forward/backward substitutions with the
//!   factored matrix,
//! * `T_H` — one Arnoldi/Hessenberg projection bookkeeping step,
//! * `T_e` — one small `e^{hH_m}` evaluation.
//!
//! A slave node with `k` local transition spots generates `k` Krylov
//! subspaces of average dimension `m` (cost `k·m·T_bs`) and evaluates the
//! projected exponential at all `K` global transition spots (cost
//! `K·(T_H + T_e)`). Single-node MATEX must generate a subspace at every
//! one of the `K` GTS points; fixed-step TR spends one substitution pair
//! per step over `N` steps.

/// Inputs to the paper's speedup model. All costs in seconds.
#[derive(Debug, Clone, Copy)]
pub struct SpeedupModel {
    /// `K` — number of global transition spots (total evaluation points).
    pub gts_points: usize,
    /// `k` — local transition spots of the busiest node.
    pub lts_points: usize,
    /// `m` — average Krylov subspace dimension.
    pub m: f64,
    /// `N` — substitution pairs spent by the fixed-step baseline.
    pub fixed_steps: usize,
    /// Cost of one substitution pair (`T_bs`).
    pub t_bs: f64,
    /// Cost of one Hessenberg projection step (`T_H`).
    pub t_h: f64,
    /// Cost of one small-exponential evaluation (`T_e`).
    pub t_e: f64,
    /// Serial overhead common to both sides — one factorization per
    /// machine plus the DC solve, the same split
    /// [`DistributedRun::emulated_total`](crate::DistributedRun::emulated_total)
    /// adds to the slowest node's march; zero for the pure-transient
    /// comparison of Eq. (12).
    pub t_serial: f64,
}

impl SpeedupModel {
    /// Modeled transient cost of the busiest distributed node:
    /// `k·m·T_bs + K·(T_H + T_e)`.
    fn node_cost(&self) -> f64 {
        self.lts_points as f64 * self.m * self.t_bs + self.gts_points as f64 * (self.t_h + self.t_e)
    }

    /// Modeled transient cost of single-node (undecomposed) MATEX:
    /// `K·(m·T_bs + T_H + T_e)`.
    fn single_node_cost(&self) -> f64 {
        self.gts_points as f64 * (self.m * self.t_bs + self.t_h + self.t_e)
    }

    /// Eq. (11): decomposition speedup over single-node MATEX.
    ///
    /// Saturates as `k → K` (no decomposition left to exploit) and
    /// approaches `K·(m·T_bs + T_H + T_e) / (K·(T_H + T_e))` as `k → 0`.
    pub fn speedup_over_single(&self) -> f64 {
        self.single_node_cost() / self.node_cost().max(f64::MIN_POSITIVE)
    }

    /// Eq. (12): speedup of the busiest distributed node over fixed-step
    /// TR, `(N·T_bs + T_serial) / (k·m·T_bs + K·(T_H + T_e) + T_serial)`.
    ///
    /// Grows with the simulation span: `N` and `K` scale with the window
    /// while `k` stays a per-group property.
    pub fn speedup_over_fixed(&self) -> f64 {
        (self.fixed_steps as f64 * self.t_bs + self.t_serial)
            / (self.node_cost() + self.t_serial).max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SpeedupModel {
        SpeedupModel {
            gts_points: 100,
            lts_points: 10,
            m: 20.0,
            fixed_steps: 1000,
            t_bs: 1e-4,
            t_h: 1e-5,
            t_e: 1e-5,
            t_serial: 0.0,
        }
    }

    #[test]
    fn decomposition_speedup_saturates_as_k_grows() {
        let mut prev = f64::INFINITY;
        for k in [1usize, 10, 50, 100] {
            let s = SpeedupModel {
                lts_points: k,
                ..base()
            }
            .speedup_over_single();
            assert!(s < prev, "speedup must fall as k grows");
            prev = s;
        }
        // k == K: decomposition gains only the T_H/T_e sharing, so the
        // speedup is near (but above) 1.
        let s = SpeedupModel {
            lts_points: 100,
            ..base()
        }
        .speedup_over_single();
        assert!((1.0..1.5).contains(&s));
    }

    #[test]
    fn fixed_speedup_grows_with_span() {
        let short = base().speedup_over_fixed();
        let long = SpeedupModel {
            fixed_steps: base().fixed_steps * 8,
            gts_points: base().gts_points * 8,
            ..base()
        }
        .speedup_over_fixed();
        assert!(long > short, "Eq. (12) must grow with the span");
    }

    #[test]
    fn serial_overhead_damps_both_sides() {
        let pure = base().speedup_over_fixed();
        let damped = SpeedupModel {
            t_serial: 1.0,
            ..base()
        }
        .speedup_over_fixed();
        assert!(damped < pure);
        assert!(damped > 1.0 - 1e-9 || pure < 1.0);
    }
}
