//! Transient results.

use crate::{CoreError, SolveStats};

/// The recorded outcome of a transient run.
///
/// Holds the observed waveforms sampled on the spec's output grid, the
/// final full state, and the cost counters. Two results from the same
/// spec are directly comparable ([`TransientResult::error_vs`]) and
/// summable ([`TransientResult::add_scaled`] — the superposition
/// operation of distributed MATEX).
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    times: Vec<f64>,
    rows: Vec<usize>,
    /// `series[k][i]` = value of state row `rows[k]` at `times[i]`.
    series: Vec<Vec<f64>>,
    final_state: Vec<f64>,
    /// Cost counters.
    pub stats: SolveStats,
    /// Engine label (for reports).
    pub engine: String,
}

impl TransientResult {
    /// Assembles a result.
    ///
    /// # Panics
    ///
    /// Panics if series shapes disagree with `times`/`rows`.
    pub fn new(
        engine: impl Into<String>,
        times: Vec<f64>,
        rows: Vec<usize>,
        series: Vec<Vec<f64>>,
        final_state: Vec<f64>,
        stats: SolveStats,
    ) -> Self {
        assert_eq!(rows.len(), series.len(), "rows/series mismatch");
        for s in &series {
            assert_eq!(s.len(), times.len(), "series length mismatch");
        }
        TransientResult {
            times,
            rows,
            series,
            final_state,
            stats,
            engine: engine.into(),
        }
    }

    /// Sample times.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Observed state rows.
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// Number of recorded time points.
    pub fn num_time_points(&self) -> usize {
        self.times.len()
    }

    /// Waveform of observed row `row`, if recorded.
    pub fn waveform(&self, row: usize) -> Option<&[f64]> {
        self.rows
            .iter()
            .position(|&r| r == row)
            .map(|k| self.series[k].as_slice())
    }

    /// All series, aligned with [`TransientResult::rows`].
    pub fn series(&self) -> &[Vec<f64>] {
        &self.series
    }

    /// Final full state vector.
    pub fn final_state(&self) -> &[f64] {
        &self.final_state
    }

    /// Maximum and average absolute difference against a reference run
    /// over all shared observed rows and times.
    ///
    /// These are the `Max. Err` / `Avg. Err` columns of the paper's
    /// Table 3.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Incomparable`] when the sample times differ
    /// in any bit or no rows are shared, and [`CoreError::NotFinite`]
    /// (at the first such sample time) when a shared sample differs by a
    /// NaN or an infinity: a run that went non-finite has no error
    /// figure, and must not read as a small one.
    pub fn error_vs(&self, reference: &TransientResult) -> Result<(f64, f64), CoreError> {
        self.same_grid(reference)?;
        let mut max_err = 0.0_f64;
        let mut sum = 0.0_f64;
        let mut count = 0usize;
        let mut shared = 0usize;
        for (k, &row) in self.rows.iter().enumerate() {
            let Some(rk) = reference.rows.iter().position(|&r| r == row) else {
                continue;
            };
            shared += 1;
            for ((a, b), &t) in self.series[k]
                .iter()
                .zip(&reference.series[rk])
                .zip(&self.times)
            {
                let e = (a - b).abs();
                if !e.is_finite() {
                    return Err(CoreError::NotFinite { at: t });
                }
                max_err = max_err.max(e);
                sum += e;
                count += 1;
            }
        }
        if shared == 0 {
            return Err(CoreError::Incomparable("no shared observed rows".into()));
        }
        Ok((max_err, sum / count.max(1) as f64))
    }

    /// Adds `scale · other` into this result (series and final state):
    /// the superposition step of distributed MATEX.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Incomparable`] when the sample times differ
    /// in any bit, or the rows or state dimensions differ.
    pub fn add_scaled(&mut self, other: &TransientResult, scale: f64) -> Result<(), CoreError> {
        self.same_grid(other)?;
        if self.rows != other.rows || self.final_state.len() != other.final_state.len() {
            return Err(CoreError::Incomparable(
                "superposition requires identical rows and dimensions".into(),
            ));
        }
        for (mine, theirs) in self.series.iter_mut().zip(&other.series) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += scale * b;
            }
        }
        for (a, b) in self.final_state.iter_mut().zip(&other.final_state) {
            *a += scale * b;
        }
        Ok(())
    }

    /// Checks that `other` sampled the same grid: the same times, bit for
    /// bit. One rule ([`TransientSpec`](crate::TransientSpec)) produces
    /// every grid, so equal specs give equal times and any difference is
    /// a different grid.
    fn same_grid(&self, other: &TransientResult) -> Result<(), CoreError> {
        let same = |(a, b): (&f64, &f64)| a.to_bits() == b.to_bits();
        if self.times.len() == other.times.len() && self.times.iter().zip(&other.times).all(same) {
            return Ok(());
        }
        Err(CoreError::Incomparable(format!(
            "time grids differ: {} points from {:?} vs {} from {:?}",
            self.times.len(),
            self.times.first(),
            other.times.len(),
            other.times.first(),
        )))
    }

    /// A zero result on the same grid/rows (identity for superposition).
    pub fn zeros_like(&self) -> TransientResult {
        TransientResult {
            times: self.times.clone(),
            rows: self.rows.clone(),
            series: vec![vec![0.0; self.times.len()]; self.rows.len()],
            final_state: vec![0.0; self.final_state.len()],
            stats: SolveStats::default(),
            engine: self.engine.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(vals: &[f64]) -> TransientResult {
        TransientResult::new(
            "test",
            vec![0.0, 1.0],
            vec![0],
            vec![vals.to_vec()],
            vec![*vals.last().unwrap()],
            SolveStats::default(),
        )
    }

    #[test]
    fn error_metrics() {
        let a = sample(&[1.0, 2.0]);
        let b = sample(&[1.5, 2.25]);
        let (mx, avg) = a.error_vs(&b).unwrap();
        assert_eq!(mx, 0.5);
        assert_eq!(avg, 0.375);
    }

    #[test]
    fn a_non_finite_difference_is_an_error_not_a_small_one() {
        let a = sample(&[1.0, 2.0]);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let b = sample(&[1.5, bad]);
            assert!(
                matches!(a.error_vs(&b), Err(CoreError::NotFinite { at }) if at == 1.0),
                "{bad} read as {:?}",
                a.error_vs(&b)
            );
            assert!(matches!(b.error_vs(&a), Err(CoreError::NotFinite { .. })));
        }
    }

    #[test]
    fn superposition_adds() {
        let mut a = sample(&[1.0, 2.0]);
        let b = sample(&[0.5, 0.25]);
        a.add_scaled(&b, 2.0).unwrap();
        assert_eq!(a.waveform(0).unwrap(), &[2.0, 2.5]);
        assert_eq!(a.final_state(), &[2.5]);
    }

    #[test]
    fn incompatible_rejected() {
        let a = sample(&[1.0, 2.0]);
        let mut b = sample(&[1.0, 2.0]);
        b.times = vec![0.0, 2.0];
        assert!(a.error_vs(&b).is_err());
    }

    #[test]
    fn shifted_grid_of_the_same_length_is_incomparable() {
        let spec = |t0: f64| crate::TransientSpec::new(t0, t0 + 1e-9, 1e-10).unwrap();
        let on = |spec: crate::TransientSpec| {
            let times = spec.sample_times();
            let vals = vec![1.0; times.len()];
            TransientResult::new(
                "test",
                times,
                vec![0],
                vec![vals],
                vec![1.0],
                SolveStats::default(),
            )
        };
        let mut a = on(spec(0.0));
        let b = on(spec(1e-10));
        assert_eq!(a.num_time_points(), b.num_time_points());
        assert!(matches!(
            a.add_scaled(&b, 1.0),
            Err(CoreError::Incomparable(_))
        ));
        assert!(matches!(a.error_vs(&b), Err(CoreError::Incomparable(_))));
        // Untouched by the refused superposition, and fine on its own grid.
        assert_eq!(a.waveform(0).unwrap()[0], 1.0);
        assert!(a.add_scaled(&on(spec(0.0)), 1.0).is_ok());
    }

    #[test]
    fn zeros_like_is_identity() {
        let a = sample(&[3.0, 4.0]);
        let mut z = a.zeros_like();
        z.add_scaled(&a, 1.0).unwrap();
        assert_eq!(z.waveform(0).unwrap(), a.waveform(0).unwrap());
    }

    #[test]
    fn waveform_lookup() {
        let a = sample(&[1.0, 2.0]);
        assert!(a.waveform(0).is_some());
        assert!(a.waveform(5).is_none());
    }
}
