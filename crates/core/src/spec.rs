//! Transient analysis specification.

use crate::CoreError;

/// Which unknowns a transient run records.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum ObserveSpec {
    /// Record every unknown (nodes and branch currents). Fine for small
    /// systems; memory-heavy for full grids.
    #[default]
    All,
    /// Record only the listed state rows.
    Rows(Vec<usize>),
}

/// A transient-analysis request: the window `[t_start, t_stop]` and the
/// output sampling step.
///
/// The spec is the only definition of the output grid. It counts the
/// grid's intervals once, `K = ⌈(t_stop − t_start)/dt_out − 10⁻⁹⌉` (at
/// least 1), and every sample time comes from `K`: sample `k` is
/// `t_start + k·dt_out` for `k < K`, and sample `K` is `t_stop`. So the
/// grid holds `K + 1` samples and ends exactly on `t_stop`.
///
/// The last interval is ragged when `dt_out` does not divide the window,
/// but never a sliver: a remainder of at most `10⁻⁹·dt_out`, or one that
/// rounding in `t_start + k·dt_out` leaves that short, is absorbed into
/// the interval before it. So whenever `dt_out` is well above the float
/// resolution of the times, every interval is longer than
/// `10⁻⁹·dt_out` and the grid strictly increases.
///
/// All engines emit their solution *on the sample grid* (MATEX evaluates
/// there directly via Krylov reuse; fixed-step engines land on or
/// interpolate onto it) and record it by sample index, so results from
/// different engines are directly comparable.
///
/// # Example
///
/// ```
/// use matex_core::TransientSpec;
///
/// # fn main() -> Result<(), matex_core::CoreError> {
/// let spec = TransientSpec::new(0.0, 1e-9, 1e-11)?;
/// assert_eq!(spec.sample_times().len(), 101);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TransientSpec {
    grid: Grid,
    /// Which rows to record.
    pub observe: ObserveSpec,
}

impl TransientSpec {
    /// Creates a spec for `[t_start, t_stop]` sampled every `dt_out`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSpec`] when the window is empty, the
    /// sample step is non-positive, any value is non-finite, or the grid
    /// would exceed 10⁸ points.
    pub fn new(t_start: f64, t_stop: f64, dt_out: f64) -> Result<Self, CoreError> {
        if !t_start.is_finite() || !t_stop.is_finite() || !dt_out.is_finite() {
            return Err(CoreError::InvalidSpec("times must be finite".into()));
        }
        if t_stop <= t_start {
            return Err(CoreError::InvalidSpec(format!(
                "t_stop ({t_stop}) must exceed t_start ({t_start})"
            )));
        }
        if dt_out <= 0.0 {
            return Err(CoreError::InvalidSpec("dt_out must be positive".into()));
        }
        let n = (t_stop - t_start) / dt_out;
        if n > 1e8 {
            return Err(CoreError::InvalidSpec(format!(
                "sample grid of {n:.1e} points is too large"
            )));
        }
        Ok(TransientSpec {
            grid: Grid::new(t_start, t_stop, dt_out),
            observe: ObserveSpec::All,
        })
    }

    /// Restricts recording to the given state rows (builder style).
    pub fn observing(mut self, rows: Vec<usize>) -> Self {
        self.observe = ObserveSpec::Rows(rows);
        self
    }

    /// Window start, seconds.
    pub fn t_start(&self) -> f64 {
        self.grid.start
    }

    /// Window end, seconds.
    pub fn t_stop(&self) -> f64 {
        self.grid.stop
    }

    /// Output sampling step, seconds.
    pub fn dt_out(&self) -> f64 {
        self.grid.step
    }

    /// The output sample grid: `K + 1` times from `t_start` to `t_stop`
    /// (see the type docs for the rule and the ragged last interval).
    pub fn sample_times(&self) -> Vec<f64> {
        (0..=self.grid.intervals)
            .map(|k| self.grid.point(k))
            .collect()
    }

    /// Resolves the observation row list for a system dimension.
    pub fn observed_rows(&self, dim: usize) -> Vec<usize> {
        match &self.observe {
            ObserveSpec::All => (0..dim).collect(),
            ObserveSpec::Rows(rows) => rows.clone(),
        }
    }
}

/// A remainder of at most this fraction of a step is absorbed into the
/// interval before it instead of becoming an interval of its own.
const SLIVER: f64 = 1e-9;

/// A uniform grid over `[start, stop]`: `intervals` intervals, each one
/// `step` long except the last, which ends on `stop`. It is the rule of
/// the output grid ([`TransientSpec`]) and of the fixed-step engines'
/// step count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Grid {
    start: f64,
    stop: f64,
    step: f64,
    /// Number of intervals, at least 1.
    pub(crate) intervals: usize,
}

impl Grid {
    pub(crate) fn new(start: f64, stop: f64, step: f64) -> Self {
        let intervals = intervals_until(start, stop, step).max(1);
        let grid = Grid {
            start,
            stop,
            step,
            intervals,
        };
        // The ratio is exact to within rounding, but `start + k·step`
        // rounds to the resolution of `stop`: when that puts the last
        // point within a sliver of `stop`, absorb it as well.
        if intervals > 1 && stop - grid.point(intervals - 1) <= SLIVER * step {
            return Grid {
                intervals: intervals - 1,
                ..grid
            };
        }
        grid
    }

    /// Point `k`: `start + k·step` for `k < intervals`, `stop` from there
    /// on. The one place a grid time is computed.
    pub(crate) fn point(&self, k: usize) -> f64 {
        if k < self.intervals {
            self.start + k as f64 * self.step
        } else {
            self.stop
        }
    }

    /// `true` when the last interval is a whole step (within the sliver
    /// fraction), `false` when it is ragged.
    pub(crate) fn last_is_whole(&self) -> bool {
        (self.stop - self.start) / self.step >= self.intervals as f64 - SLIVER
    }

    /// The interval (numbered from 1) that ends at or after `t`: `0` for
    /// `t` at the start, `intervals` at most.
    pub(crate) fn interval_of(&self, t: f64) -> usize {
        intervals_until(self.start, t, self.step).min(self.intervals)
    }
}

/// `⌈(to − from)/step − SLIVER⌉`, floored at 0.
fn intervals_until(from: f64, to: f64, step: f64) -> usize {
    // A float-to-int `as` cast saturates: negative and NaN give 0.
    ((to - from) / step - SLIVER).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_includes_endpoints() {
        let s = TransientSpec::new(0.0, 1.0, 0.25).unwrap();
        assert_eq!(s.sample_times(), vec![0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn ragged_last_interval() {
        let s = TransientSpec::new(0.0, 0.9, 0.4).unwrap();
        let t = s.sample_times();
        assert_eq!(t.len(), 4);
        assert_eq!(*t.last().unwrap(), 0.9);
    }

    #[test]
    fn validation() {
        assert!(TransientSpec::new(0.0, 0.0, 0.1).is_err());
        assert!(TransientSpec::new(0.0, 1.0, 0.0).is_err());
        assert!(TransientSpec::new(0.0, f64::NAN, 0.1).is_err());
        assert!(TransientSpec::new(0.0, 1.0, 1e-10).is_err()); // too many points
    }

    #[test]
    fn observed_rows_modes() {
        let s = TransientSpec::new(0.0, 1.0, 0.5).unwrap();
        assert_eq!(s.observed_rows(3), vec![0, 1, 2]);
        let s = s.observing(vec![7, 2]);
        assert_eq!(s.observed_rows(100), vec![7, 2]);
    }
}
