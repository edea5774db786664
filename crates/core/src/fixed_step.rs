//! The fixed-step march shared by [`Trapezoidal`](crate::Trapezoidal) and
//! [`BackwardEuler`](crate::BackwardEuler).
//!
//! Both factor one step matrix up front and then spend one sparse
//! mat-vec plus one forward/backward substitution pair per step. The
//! step count is an integer fixed before the march, by the same rule as
//! the output grid ([`TransientSpec`]): every step is `h` long except a
//! ragged last one, which refactors at its own length.

use crate::engine::{InputEval, Recorder};
use crate::spec::Grid;
use crate::{CoreError, SolveStats, TransientResult, TransientSpec};
use matex_circuit::MnaSystem;
use matex_sparse::{CsrMatrix, LuOptions, SparseLu};
use std::time::Instant;

/// The one-step discretization of `C x' = −G x + B u(t)`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rule {
    /// `(C/h + G/2) x₊ = (C/h − G/2) x + (B u + B u₊)/2`.
    Trapezoidal,
    /// `(C/h + G) x₊ = (C/h) x + B u₊`.
    BackwardEuler,
}

impl Rule {
    /// The factored left-hand matrix and the right-hand mat-vec operator
    /// for step `h`.
    fn matrices(self, sys: &MnaSystem, h: f64) -> Result<(SparseLu, CsrMatrix), CoreError> {
        let (lhs, rhs) = match self {
            Rule::Trapezoidal => (
                CsrMatrix::linear_combination(1.0 / h, sys.c(), 0.5, sys.g())?,
                CsrMatrix::linear_combination(1.0 / h, sys.c(), -0.5, sys.g())?,
            ),
            Rule::BackwardEuler => (
                CsrMatrix::linear_combination(1.0 / h, sys.c(), 1.0, sys.g())?,
                sys.c().scaled(1.0 / h),
            ),
        };
        Ok((SparseLu::factor(&lhs, &LuOptions::default())?, rhs))
    }

    /// Adds the input term of a step from `bu_now` to `bu_next` to `rhs`.
    fn add_input(self, rhs: &mut [f64], bu_now: &[f64], bu_next: &[f64]) {
        match self {
            Rule::Trapezoidal => {
                for i in 0..rhs.len() {
                    rhs[i] += 0.5 * (bu_now[i] + bu_next[i]);
                }
            }
            Rule::BackwardEuler => {
                for (r, b) in rhs.iter_mut().zip(bu_next) {
                    *r += b;
                }
            }
        }
    }
}

/// Runs `rule` at step `h` over the spec's window from the DC operating
/// point, recording each output sample by index from the step that
/// reaches it.
pub(crate) fn march(
    rule: Rule,
    h: f64,
    name: String,
    sys: &MnaSystem,
    input: &InputEval<'_>,
    spec: &TransientSpec,
) -> Result<TransientResult, CoreError> {
    let mut stats = SolveStats::default();
    let t0 = Instant::now();
    let lu_g = SparseLu::factor(sys.g(), &LuOptions::default())?;
    let mut x = lu_g.solve(&input.bu_at(spec.t_start()));
    stats.substitution_pairs += 1;
    stats.factorizations += 1;
    stats.dc_time = t0.elapsed();

    let tf = Instant::now();
    let (mut lu, mut rhs_mat) = rule.matrices(sys, h)?;
    stats.factorizations += 1;
    stats.factor_time = tf.elapsed();

    let tt = Instant::now();
    let steps = Grid::new(spec.t_start(), spec.t_stop(), h);
    let mut rec = Recorder::new(spec, sys.dim())?;
    rec.record(0, &x);
    let mut k = 1;
    let mut t = spec.t_start();
    let mut out = vec![0.0; sys.dim()];
    let mut work = vec![0.0; sys.dim()];
    let mut rhs = vec![0.0; sys.dim()];
    let mut bu_now = input.bu_at(t);
    for n in 1..=steps.intervals {
        let last = n == steps.intervals;
        if last && !steps.last_is_whole() {
            // The ragged last step refactors at its own length. It starts
            // from its grid point, so drift in the accumulated `t` cannot
            // shrink it to nothing.
            t = steps.point(n - 1);
            (lu, rhs_mat) = rule.matrices(sys, spec.t_stop() - t)?;
            stats.factorizations += 1;
        }
        let tn = t + h.min(spec.t_stop() - t);
        let bu_next = input.bu_at(tn);
        rhs_mat.matvec_into(&x, &mut rhs);
        rule.add_input(&mut rhs, &bu_now, &bu_next);
        lu.solve_into(&rhs, &mut out, &mut work);
        stats.substitution_pairs += 1;
        stats.steps += 1;
        // The samples this step reaches; the last step takes the rest.
        while let Some(&ts) = rec.sample_times().get(k) {
            if !last && steps.interval_of(ts) > n {
                break;
            }
            rec.record_within(k, t, &x, tn, &out);
            k += 1;
        }
        x.copy_from_slice(&out);
        bu_now = bu_next;
        t = tn;
    }
    stats.transient_time = tt.elapsed();
    rec.finish(name, x, stats)
}
