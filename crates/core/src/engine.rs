//! Shared engine infrastructure: the [`TransientEngine`] trait, masked
//! input evaluation, and output-grid recording.

use crate::{CoreError, SolveStats, TransientResult, TransientSpec};
use matex_circuit::MnaSystem;

/// A transient simulation engine.
///
/// All engines consume the same `C x' = -G x + B u(t)` system and emit
/// results on the spec's sample grid, so they are interchangeable in
/// benches and in the distributed framework.
pub trait TransientEngine {
    /// Runs the transient analysis.
    ///
    /// # Errors
    ///
    /// Engine-specific; see the concrete types.
    fn run(&self, sys: &MnaSystem, spec: &TransientSpec) -> Result<TransientResult, CoreError>;

    /// Short engine label for reports (e.g. `"TR"`, `"R-MATEX"`).
    fn name(&self) -> String;
}

/// Evaluates the input vector `u(t)` and right-hand side `B u(t)`,
/// optionally restricted to a subset of source columns (the superposition
/// mask of a distributed subtask).
#[derive(Debug, Clone)]
pub struct InputEval<'a> {
    sys: &'a MnaSystem,
    mask: Option<&'a [usize]>,
}

impl<'a> InputEval<'a> {
    /// Full-input evaluator.
    pub fn new(sys: &'a MnaSystem) -> Self {
        InputEval { sys, mask: None }
    }

    /// Evaluator with only the listed source columns active.
    pub fn masked(sys: &'a MnaSystem, members: &'a [usize]) -> Self {
        InputEval {
            sys,
            mask: Some(members),
        }
    }

    /// The (masked) right-hand side `B u(t)`.
    pub fn bu_at(&self, t: f64) -> Vec<f64> {
        let mut u = vec![0.0; self.num_sources()];
        let mut out = vec![0.0; self.sys.dim()];
        self.bu_into(t, &mut out, &mut u);
        out
    }

    /// Allocation-free variant of [`InputEval::bu_at`]: fills `out` with
    /// `B u(t)` using `u` (length [`InputEval::num_sources`]) as the input
    /// scratch.
    ///
    /// # Panics
    ///
    /// Panics if `u.len() != num_sources()` or `out` does not match the
    /// system dimension.
    pub fn bu_into(&self, t: f64, out: &mut [f64], u: &mut [f64]) {
        match self.mask {
            None => self.sys.input_into(t, u),
            Some(members) => self.sys.input_masked_into(t, members, u),
        }
        self.sys.b().matvec_into(u, out);
    }

    /// Number of source columns of the underlying system (masked or not —
    /// the mask zeroes entries, it does not shrink the vector).
    pub fn num_sources(&self) -> usize {
        self.sys.num_sources()
    }

    /// Active source column indices.
    pub fn active_columns(&self) -> Vec<usize> {
        match self.mask {
            None => (0..self.sys.num_sources()).collect(),
            Some(members) => members.to_vec(),
        }
    }
}

/// Records solution values onto the spec's output sample grid, one
/// sample at a time and by index: an engine says which sample it fills,
/// and either hands over the state there or the step that spans it.
///
/// Samples must be filled in order. A sample offered out of turn is not
/// recorded, so [`Recorder::finish`] reports it as unfilled.
#[derive(Debug)]
pub struct Recorder {
    sample_times: Vec<f64>,
    rows: Vec<usize>,
    series: Vec<Vec<f64>>,
    next: usize,
}

impl Recorder {
    /// Creates a recorder for the spec over a system of dimension `dim`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidSpec`] when an observed row is not below `dim`.
    pub fn new(spec: &TransientSpec, dim: usize) -> Result<Self, CoreError> {
        let sample_times = spec.sample_times();
        let rows = spec.observed_rows(dim);
        if let Some(row) = rows.iter().find(|&&r| r >= dim) {
            return Err(CoreError::InvalidSpec(format!(
                "observed row {row} is outside the system's {dim} rows"
            )));
        }
        // Not `vec![Vec::with_capacity(..); k]`: cloning an empty Vec
        // drops its capacity, which would make recording reallocate as
        // samples accumulate (the hot path must stay allocation-free).
        let series = (0..rows.len())
            .map(|_| Vec::with_capacity(sample_times.len()))
            .collect();
        Ok(Recorder {
            sample_times,
            rows,
            series,
            next: 0,
        })
    }

    /// The output grid.
    pub fn sample_times(&self) -> &[f64] {
        &self.sample_times
    }

    /// Records `x` as sample `k`.
    pub fn record(&mut self, k: usize, x: &[f64]) {
        // A zero-length step is its end state.
        self.record_within(k, 0.0, x, 0.0, x);
    }

    /// Records sample `k` from the step `(t0, x0) → (t1, x1)` that spans
    /// it, by linear interpolation; a sample time outside `[t0, t1]`
    /// takes the nearer end's state.
    pub fn record_within(&mut self, k: usize, t0: f64, x0: &[f64], t1: f64, x1: &[f64]) {
        let Some(&ts) = self.sample_times.get(k).filter(|_| k == self.next) else {
            return;
        };
        let w = if t1 > t0 {
            ((ts - t0) / (t1 - t0)).clamp(0.0, 1.0)
        } else {
            1.0
        };
        for (s, &row) in self.series.iter_mut().zip(&self.rows) {
            s.push(x0[row] * (1.0 - w) + x1[row] * w);
        }
        self.next += 1;
    }

    /// Finalizes into the run's result.
    ///
    /// # Errors
    ///
    /// [`CoreError::SamplesUnfilled`] when the engine left a sample
    /// unrecorded.
    pub fn finish(
        self,
        engine: String,
        final_state: Vec<f64>,
        stats: SolveStats,
    ) -> Result<TransientResult, CoreError> {
        if self.next < self.sample_times.len() {
            return Err(CoreError::SamplesUnfilled {
                filled: self.next,
                total: self.sample_times.len(),
            });
        }
        let (times, rows, series) = (self.sample_times, self.rows, self.series);
        Ok(TransientResult::new(
            engine,
            times,
            rows,
            series,
            final_state,
            stats,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matex_circuit::Netlist;
    use matex_waveform::Waveform;

    fn two_source_sys() -> MnaSystem {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.add_isource("i1", Netlist::ground(), a, Waveform::Dc(1.0))
            .unwrap();
        nl.add_isource("i2", Netlist::ground(), a, Waveform::Dc(10.0))
            .unwrap();
        nl.add_resistor("r", a, Netlist::ground(), 1.0).unwrap();
        MnaSystem::assemble(&nl).unwrap()
    }

    #[test]
    fn masked_input_eval() {
        let sys = two_source_sys();
        let full = InputEval::new(&sys);
        assert_eq!(full.bu_at(0.0), vec![11.0]);
        let members = [1usize];
        let sub = InputEval::masked(&sys, &members);
        assert_eq!(sub.bu_at(0.0), vec![10.0]);
        assert_eq!(sub.active_columns(), vec![1]);
    }

    #[test]
    fn recorder_interpolates() {
        let spec = TransientSpec::new(0.0, 1.0, 0.5).unwrap();
        let mut rec = Recorder::new(&spec, 1).unwrap();
        let (x0, x1, x2) = ([0.0], [2.0], [3.0]);
        rec.record(0, &x0);
        rec.record_within(1, 0.0, &x0, 0.8, &x1); // sample 0.5
        rec.record_within(2, 0.8, &x1, 1.0, &x2); // sample 1.0
        let r = rec.finish("test".into(), vec![3.0], SolveStats::default());
        let r = r.unwrap();
        assert_eq!(r.times(), &[0.0, 0.5, 1.0]);
        assert_eq!(r.rows(), &[0]);
        assert_eq!(r.series()[0], vec![0.0, 1.25, 3.0]);
    }

    #[test]
    fn recorder_exact_samples() {
        let spec = TransientSpec::new(0.0, 1.0, 1.0).unwrap();
        let mut rec = Recorder::new(&spec, 2).unwrap();
        rec.record(0, &[1.0, 2.0]);
        rec.record(1, &[3.0, 4.0]);
        let r = rec.finish("test".into(), vec![3.0, 4.0], SolveStats::default());
        let series = r.unwrap().series().to_vec();
        assert_eq!(series[0], vec![1.0, 3.0]);
        assert_eq!(series[1], vec![2.0, 4.0]);
    }

    #[test]
    fn unfilled_and_out_of_turn_samples_are_a_typed_error() {
        let spec = TransientSpec::new(0.0, 1.0, 0.5).unwrap();
        let mut rec = Recorder::new(&spec, 1).unwrap();
        rec.record(0, &[1.0]);
        rec.record(2, &[2.0]); // out of turn: sample 1 comes first
        rec.record(0, &[3.0]); // already filled
        let err = rec
            .finish("test".into(), vec![3.0], SolveStats::default())
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::SamplesUnfilled {
                filled: 1,
                total: 3
            }
        );
        assert_eq!(err.to_string(), "2 of 3 samples unfilled");
    }

    #[test]
    fn out_of_range_rows_are_a_typed_error() {
        let spec = TransientSpec::new(0.0, 1.0, 0.5)
            .unwrap()
            .observing(vec![0, 2]);
        let err = Recorder::new(&spec, 2).unwrap_err();
        assert!(matches!(err, CoreError::InvalidSpec(_)), "{err}");
        assert!(Recorder::new(&spec, 3).is_ok());
    }
}
