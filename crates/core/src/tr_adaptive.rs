//! LTE-controlled adaptive trapezoidal method.
//!
//! The paper's Table 2 baseline ("TR(adpt)"): trapezoidal stepping with a
//! local-truncation-error controller. The crucial cost property (Sec. 1,
//! Sec. 3) is that **every accepted step-size change re-factorizes
//! `(C/h + G/2)`** — the expense MATEX avoids entirely by reusing one
//! factorization for arbitrary step sizes.
//!
//! Since `C/h + G/2` keeps one nonzero pattern for every `h`, those
//! repeated factorizations are two-phase: the sparsity analysis
//! ([`SymbolicLu`]) runs once at the first step and every later step
//! change replays only the numeric updates (counted in
//! `stats.refactorizations`). The factorization *count* — the baseline's
//! cost signature in Table 2 — is unchanged; each one just costs less.
//!
//! LTE estimation follows standard circuit-simulation practice (Najm,
//! *Circuit Simulation*, 2010): the trapezoidal LTE is `−h³ x‴/12`, with
//! `x‴` estimated from third divided differences of the recent solution
//! history. The controller also lands exactly on input transition spots —
//! skipping a pulse edge would silently corrupt PWL inputs.

use crate::engine::{InputEval, Recorder, TransientEngine};
use crate::{CoreError, SolveStats, TransientResult, TransientSpec};
use matex_circuit::MnaSystem;
use matex_sparse::{CsrMatrix, LuOptions, SparseLu, SymbolicLu};
use matex_waveform::TimingClasses;
use std::time::Instant;

/// Adaptive-step trapezoidal engine with LTE control.
#[derive(Debug, Clone)]
pub struct TrapezoidalAdaptive {
    /// Absolute LTE tolerance (volts).
    pub atol: f64,
    /// Relative LTE tolerance.
    pub rtol: f64,
    /// Initial step size, seconds.
    pub h_init: f64,
    /// Smallest allowed step.
    pub h_min: f64,
    /// Largest allowed step.
    pub h_max: f64,
}

impl TrapezoidalAdaptive {
    /// Creates the engine with the given tolerances and an initial step.
    ///
    /// # Panics
    ///
    /// Panics when the step bounds are inconsistent or non-positive.
    pub fn new(atol: f64, h_init: f64) -> Self {
        assert!(atol > 0.0 && atol.is_finite(), "atol must be positive");
        assert!(
            h_init > 0.0 && h_init.is_finite(),
            "h_init must be positive"
        );
        TrapezoidalAdaptive {
            atol,
            rtol: 1e-3,
            h_init,
            h_min: h_init * 1e-6,
            h_max: h_init * 1e4,
        }
    }

    /// Weighted LTE norm against tolerance: ≤ 1 means acceptable.
    fn lte_norm(&self, lte: &[f64], x: &[f64]) -> f64 {
        let mut worst = 0.0_f64;
        for (e, v) in lte.iter().zip(x) {
            worst = worst.max(e.abs() / (self.atol + self.rtol * v.abs()));
        }
        worst
    }
}

impl TransientEngine for TrapezoidalAdaptive {
    fn run(&self, sys: &MnaSystem, spec: &TransientSpec) -> Result<TransientResult, CoreError> {
        let mut stats = SolveStats::default();
        let input = InputEval::new(sys);
        // Transition spots of the sources: mandatory landing points.
        let waveforms = sys.sources().iter().map(|s| &s.waveform);
        let breakpoints = TimingClasses::new(waveforms.enumerate(), spec.t_stop())
            .lts(spec.t_start(), spec.t_stop());

        let t0 = Instant::now();
        let lu_g = SparseLu::factor(sys.g(), &LuOptions::default())?;
        let mut x = lu_g.solve(&input.bu_at(spec.t_start()));
        stats.substitution_pairs += 1;
        stats.factorizations += 1;
        stats.dc_time = t0.elapsed();

        let tt = Instant::now();
        let mut rec = Recorder::new(spec, sys.dim())?;
        rec.record(0, &x);
        let mut k = 1;

        // Current factorization state. The LHS pattern is h-independent,
        // so one symbolic analysis serves every step-size change.
        let mut h_fact = -1.0_f64; // step the factors were built for
        let mut lu: Option<SparseLu> = None;
        let mut symbolic: Option<SymbolicLu> = None;
        let mut rhs_mat: Option<CsrMatrix> = None;
        let mut factor_time = std::time::Duration::ZERO;

        // Solution history for divided differences: (t, x).
        let mut history: Vec<(f64, Vec<f64>)> = vec![(spec.t_start(), x.clone())];

        let mut t = spec.t_start();
        let mut h = self.h_init;
        let mut out = vec![0.0; sys.dim()];
        let mut work = vec![0.0; sys.dim()];
        let mut rhs = vec![0.0; sys.dim()];
        let mut rejects_in_a_row = 0usize;
        while t < spec.t_stop() {
            // Clamp to breakpoints and the window end.
            let mut h_step = h.clamp(self.h_min, self.h_max);
            if let Some(bp) = breakpoints.next_after(t) {
                if bp - t > 1e-18 {
                    h_step = h_step.min(bp - t);
                }
            }
            h_step = h_step.min(spec.t_stop() - t);
            // The final step lands on `t_stop` exactly.
            let tn = if h_step < spec.t_stop() - t {
                t + h_step
            } else {
                spec.t_stop()
            };

            // (Re)factor when the step changed materially: symbolic
            // analysis on the first step, numeric replay thereafter.
            if lu.is_none() || (h_step - h_fact).abs() > 1e-9 * h_fact {
                let tf = Instant::now();
                let lhs = CsrMatrix::linear_combination(1.0 / h_step, sys.c(), 0.5, sys.g())?;
                let rm = CsrMatrix::linear_combination(1.0 / h_step, sys.c(), -0.5, sys.g())?;
                lu = Some(match &symbolic {
                    Some(sym) => match sym.try_refactor(&lhs)? {
                        Some(f) => {
                            stats.refactorizations += 1;
                            f
                        }
                        None => SparseLu::factor(&lhs, &LuOptions::default())?,
                    },
                    None => {
                        // First step: the analysis computes the numeric
                        // factors anyway — keep them instead of paying
                        // a second pass.
                        let (sym, f) =
                            SymbolicLu::analyze_with_factor(&lhs, &LuOptions::default())?;
                        symbolic = Some(sym);
                        f
                    }
                });
                rhs_mat = Some(rm);
                h_fact = h_step;
                stats.factorizations += 1;
                factor_time += tf.elapsed();
            }
            let lu_ref = lu.as_ref().expect("factorization present");
            let rhs_ref = rhs_mat.as_ref().expect("rhs matrix present");

            // Trapezoidal step.
            rhs_ref.matvec_into(&x, &mut rhs);
            let bu_now = input.bu_at(t);
            let bu_next = input.bu_at(tn);
            for i in 0..rhs.len() {
                rhs[i] += 0.5 * (bu_now[i] + bu_next[i]);
            }
            lu_ref.solve_into(&rhs, &mut out, &mut work);
            stats.substitution_pairs += 1;

            // LTE via third divided difference over the last 4 points.
            let accept = if history.len() >= 3 {
                let mut pts: Vec<(f64, &[f64])> = history
                    .iter()
                    .rev()
                    .take(3)
                    .map(|(tp, xp)| (*tp, xp.as_slice()))
                    .collect();
                pts.reverse();
                pts.push((tn, &out));
                let lte = tr_lte(&pts, h_step);
                let norm = self.lte_norm(&lte, &out);
                if norm <= 1.0 {
                    // Grow the step gently; quantized to avoid refactoring
                    // on every step.
                    let grow = (1.0 / norm.max(1e-4)).powf(1.0 / 3.0).min(2.0) * 0.9;
                    if grow > 1.25 {
                        h = (h_step * grow).clamp(self.h_min, self.h_max);
                    } else {
                        h = h_step;
                    }
                    true
                } else {
                    let shrink = (1.0 / norm).powf(1.0 / 3.0).max(0.1) * 0.9;
                    h = (h_step * shrink).clamp(self.h_min, self.h_max);
                    false
                }
            } else {
                true // bootstrap: accept the first few small steps
            };

            if accept {
                rejects_in_a_row = 0;
                while rec.sample_times().get(k).is_some_and(|&ts| ts <= tn) {
                    rec.record_within(k, t, &x, tn, &out);
                    k += 1;
                }
                x.copy_from_slice(&out);
                t = tn;
                history.push((t, x.clone()));
                if history.len() > 4 {
                    history.remove(0);
                }
                stats.steps += 1;
            } else {
                stats.rejected_steps += 1;
                rejects_in_a_row += 1;
                if h_step <= self.h_min * (1.0 + 1e-9) || rejects_in_a_row > 40 {
                    return Err(CoreError::StepUnderflow { at: t, h: h_step });
                }
            }
        }
        stats.factor_time = factor_time;
        stats.transient_time = tt.elapsed().saturating_sub(factor_time);
        rec.finish(self.name(), x, stats)
    }

    fn name(&self) -> String {
        format!("TR-adaptive(atol={:.1e})", self.atol)
    }
}

/// Trapezoidal LTE estimate `|h³ x‴ / 12|` per component, with `x‴` from
/// the third divided difference of four `(t, x)` points (times strictly
/// increasing).
fn tr_lte(pts: &[(f64, &[f64])], h: f64) -> Vec<f64> {
    assert_eq!(pts.len(), 4, "lte needs 4 history points");
    let n = pts[0].1.len();
    let mut lte = vec![0.0; n];
    for i in 0..n {
        // Divided differences on component i.
        let mut dd: Vec<f64> = pts.iter().map(|(_, x)| x[i]).collect();
        for level in 1..4 {
            for k in 0..(4 - level) {
                let dt = pts[k + level].0 - pts[k].0;
                dd[k] = (dd[k + 1] - dd[k]) / dt;
            }
        }
        // x''' ≈ 6 · dd3  →  LTE ≈ h³ |x‴| / 12 = h³ |dd3| / 2.
        lte[i] = 0.5 * h.powi(3) * dd[0].abs();
    }
    lte
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackwardEuler, Trapezoidal};
    use matex_circuit::Netlist;
    use matex_waveform::{Pulse, Waveform};

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
    fn adaptive_matches_reference() {
        let sys = pulsed_rc();
        let spec = TransientSpec::new(0.0, 1e-9, 1e-11).unwrap();
        let adaptive = TrapezoidalAdaptive::new(1e-5, 1e-12)
            .run(&sys, &spec)
            .unwrap();
        let reference = BackwardEuler::new(2e-13).run(&sys, &spec).unwrap();
        let (max_err, _) = adaptive.error_vs(&reference).unwrap();
        assert!(max_err < 5e-3, "adaptive TR error too large: {max_err}");
    }

    #[test]
    fn adaptive_takes_fewer_steps_than_fixed_fine() {
        let sys = pulsed_rc();
        let spec = TransientSpec::new(0.0, 1e-9, 1e-11).unwrap();
        let adaptive = TrapezoidalAdaptive::new(1e-4, 1e-12)
            .run(&sys, &spec)
            .unwrap();
        let fixed = Trapezoidal::new(1e-12).run(&sys, &spec).unwrap();
        assert!(
            adaptive.stats.steps < fixed.stats.steps,
            "adaptive used {} steps, fixed {}",
            adaptive.stats.steps,
            fixed.stats.steps
        );
    }

    #[test]
    fn adaptive_refactorizes_on_step_changes() {
        let sys = pulsed_rc();
        let spec = TransientSpec::new(0.0, 1e-9, 1e-11).unwrap();
        let r = TrapezoidalAdaptive::new(1e-5, 1e-12)
            .run(&sys, &spec)
            .unwrap();
        // The cost signature of adaptive TR: many factorizations.
        assert!(
            r.stats.factorizations > 3,
            "expected several refactorizations, got {}",
            r.stats.factorizations
        );
        // All step-size factorizations except the DC factor of G and
        // the first LHS build (which doubles as the symbolic analysis)
        // replay that analysis: the LHS pattern never changes and the
        // diagonally-dominant pivots survive every step-size change.
        assert_eq!(
            r.stats.refactorizations,
            r.stats.factorizations - 2,
            "step-size refactorizations should all take the two-phase fast path"
        );
    }

    #[test]
    fn lands_on_pulse_edges() {
        // A very short pulse between otherwise quiet spans must not be
        // skipped even when the controller has grown the step.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let p = Pulse::new(0.0, 5e-3, 5e-10, 1e-10, 1e-10, 1e-10).unwrap();
        nl.add_isource("i", Netlist::ground(), a, Waveform::Pulse(p))
            .unwrap();
        nl.add_resistor("r", a, Netlist::ground(), 1000.0).unwrap();
        nl.add_capacitor("c", a, Netlist::ground(), 1e-13).unwrap();
        let sys = MnaSystem::assemble(&nl).unwrap();
        let spec = TransientSpec::new(0.0, 1.5e-9, 1e-11).unwrap();
        let r = TrapezoidalAdaptive::new(1e-5, 1e-12)
            .run(&sys, &spec)
            .unwrap();
        // Peak voltage (~5 V on 1 kΩ) must be visible in the output.
        let peak = r
            .waveform(0)
            .unwrap()
            .iter()
            .fold(0.0_f64, |m, &v| m.max(v));
        assert!(peak > 3.0, "pulse was skipped: peak = {peak}");
    }

    #[test]
    fn lte_of_cubic_is_detected() {
        // x(t) = t³ has constant x''' = 6: LTE = h³/2 · 6/6 ... dd3 = 1.
        let ts = [0.0, 1.0, 2.0, 3.0];
        let xs: Vec<Vec<f64>> = ts.iter().map(|&t| vec![t * t * t]).collect();
        let pts: Vec<(f64, &[f64])> = ts
            .iter()
            .zip(&xs)
            .map(|(&t, x)| (t, x.as_slice()))
            .collect();
        let lte = tr_lte(&pts, 1.0);
        // dd3 of t³ = 1, so LTE = 0.5.
        assert!((lte[0] - 0.5).abs() < 1e-12);
    }
}
