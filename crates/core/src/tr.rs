//! Trapezoidal method with fixed step — the paper's primary baseline.
//!
//! This is the TAU-contest-style power-grid solver (paper Sec. 2.1,
//! Eq. (2)): factor `(C/h + G/2)` once, then each step costs one sparse
//! mat-vec with `(C/h − G/2)` plus one forward/backward substitution pair.
//! Table 3 compares distributed MATEX against exactly this engine at
//! `h = 10 ps` (1000 steps over 10 ns → the `t1000` column).

use crate::engine::{InputEval, TransientEngine};
use crate::fixed_step::{self, Rule};
use crate::{CoreError, TransientResult, TransientSpec};
use matex_circuit::MnaSystem;

/// Fixed-step trapezoidal engine.
///
/// # Example
///
/// ```
/// use matex_circuit::RcMeshBuilder;
/// use matex_core::{Trapezoidal, TransientEngine, TransientSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = RcMeshBuilder::new(3, 3).build()?;
/// let spec = TransientSpec::new(0.0, 1e-10, 1e-11)?;
/// let result = Trapezoidal::new(1e-11).run(&sys, &spec)?;
/// assert_eq!(result.num_time_points(), 11);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Trapezoidal {
    h: f64,
    mask: Option<Vec<usize>>,
}

impl Trapezoidal {
    /// Creates the engine with step size `h` (seconds).
    ///
    /// # Panics
    ///
    /// Panics if `h` is not positive and finite.
    pub fn new(h: f64) -> Self {
        assert!(h.is_finite() && h > 0.0, "step size must be positive");
        Trapezoidal { h, mask: None }
    }

    /// Restricts the active sources (superposition subtask mode).
    pub fn with_source_mask(mut self, members: Vec<usize>) -> Self {
        self.mask = Some(members);
        self
    }
}

impl TransientEngine for Trapezoidal {
    fn run(&self, sys: &MnaSystem, spec: &TransientSpec) -> Result<TransientResult, CoreError> {
        let input = match &self.mask {
            None => InputEval::new(sys),
            Some(m) => InputEval::masked(sys, m),
        };
        fixed_step::march(Rule::Trapezoidal, self.h, self.name(), sys, &input, spec)
    }

    fn name(&self) -> String {
        format!("TR(h={:.3e})", self.h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BackwardEuler;
    use matex_circuit::Netlist;
    use matex_waveform::{Pulse, Waveform};

    /// RC driven by a rising pulse; compare TR against fine BE.
    fn pulsed_rc() -> MnaSystem {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let p = Pulse::new(0.0, 1e-3, 1e-10, 5e-11, 2e-10, 5e-11).unwrap();
        nl.add_isource("i", Netlist::ground(), a, Waveform::Pulse(p))
            .unwrap();
        nl.add_resistor("r", a, Netlist::ground(), 1000.0).unwrap();
        nl.add_capacitor("c", a, Netlist::ground(), 1e-13).unwrap();
        MnaSystem::assemble(&nl).unwrap()
    }

    #[test]
    fn tr_close_to_fine_be() {
        let sys = pulsed_rc();
        let spec = TransientSpec::new(0.0, 1e-9, 1e-11).unwrap();
        let tr = Trapezoidal::new(1e-11).run(&sys, &spec).unwrap();
        let be = BackwardEuler::new(2e-13).run(&sys, &spec).unwrap();
        let (max_err, _) = tr.error_vs(&be).unwrap();
        // Peak is ~0.1 V; TR at 10 ps should be within a millivolt-ish.
        assert!(max_err < 2e-3, "TR deviates from reference: {max_err}");
    }

    #[test]
    fn tr_second_order_convergence() {
        // Halving h should cut the error by ~4x (order 2). The reference
        // must itself be second order, or its own error dominates.
        let sys = pulsed_rc();
        let spec = TransientSpec::new(0.0, 1e-9, 5e-11).unwrap();
        let reference = Trapezoidal::new(1e-13).run(&sys, &spec).unwrap();
        let e1 = Trapezoidal::new(1e-11)
            .run(&sys, &spec)
            .unwrap()
            .error_vs(&reference)
            .unwrap()
            .0;
        let e2 = Trapezoidal::new(5e-12)
            .run(&sys, &spec)
            .unwrap()
            .error_vs(&reference)
            .unwrap()
            .0;
        // Allow slack: reference itself has O(h_ref) error.
        assert!(
            e2 < e1 / 2.0,
            "no second-order behaviour: e(h)={e1:.3e}, e(h/2)={e2:.3e}"
        );
    }

    #[test]
    fn one_factorization_for_aligned_grid() {
        let sys = pulsed_rc();
        // 1e-9 / 1e-11 = 100 steps exactly: no ragged final step.
        let spec = TransientSpec::new(0.0, 1e-9, 1e-11).unwrap();
        let r = Trapezoidal::new(1e-11).run(&sys, &spec).unwrap();
        // One for G (DC), one for (C/h + G/2).
        assert_eq!(r.stats.factorizations, 2);
        assert_eq!(r.stats.steps, 100);
    }

    #[test]
    fn masked_run_uses_subset() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.add_isource("i1", Netlist::ground(), a, Waveform::Dc(1e-3))
            .unwrap();
        nl.add_isource("i2", Netlist::ground(), a, Waveform::Dc(5e-3))
            .unwrap();
        nl.add_resistor("r", a, Netlist::ground(), 1000.0).unwrap();
        nl.add_capacitor("c", a, Netlist::ground(), 1e-13).unwrap();
        let sys = MnaSystem::assemble(&nl).unwrap();
        let spec = TransientSpec::new(0.0, 1e-10, 1e-11).unwrap();
        let full = Trapezoidal::new(1e-11).run(&sys, &spec).unwrap();
        let m1 = Trapezoidal::new(1e-11)
            .with_source_mask(vec![0])
            .run(&sys, &spec)
            .unwrap();
        let m2 = Trapezoidal::new(1e-11)
            .with_source_mask(vec![1])
            .run(&sys, &spec)
            .unwrap();
        // Superposition: masked runs sum to the full run.
        let mut sum = m1.clone();
        sum.add_scaled(&m2, 1.0).unwrap();
        let (max_err, _) = sum.error_vs(&full).unwrap();
        assert!(max_err < 1e-12, "superposition violated: {max_err}");
    }
}
