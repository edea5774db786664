//! Piecewise-linear waveforms.

use crate::WaveformError;

/// A piecewise-linear waveform given by `(time, value)` breakpoints.
///
/// Before the first breakpoint the waveform holds the first value; after
/// the last it holds the last value (SPICE `PWL` semantics).
///
/// # Example
///
/// ```
/// use matex_waveform::Pwl;
///
/// # fn main() -> Result<(), matex_waveform::WaveformError> {
/// let w = Pwl::new(vec![(0.0, 0.0), (1.0, 2.0), (3.0, 2.0)])?;
/// assert_eq!(w.value(-5.0), 0.0);
/// assert_eq!(w.value(0.5), 1.0);
/// assert_eq!(w.value(10.0), 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pwl {
    points: Vec<(f64, f64)>,
}

impl Pwl {
    /// Creates a PWL waveform from breakpoints.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::InvalidTiming`] when fewer than one point
    /// is given, times are not strictly increasing, or any coordinate is
    /// not finite.
    pub fn new(points: Vec<(f64, f64)>) -> Result<Self, WaveformError> {
        if points.is_empty() {
            return Err(WaveformError::InvalidTiming(
                "pwl requires at least one breakpoint".into(),
            ));
        }
        for w in points.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(WaveformError::InvalidTiming(format!(
                    "pwl times not strictly increasing at t={}",
                    w[1].0
                )));
            }
        }
        if points
            .iter()
            .any(|&(t, v)| !t.is_finite() || !v.is_finite())
        {
            return Err(WaveformError::InvalidTiming(
                "pwl coordinate is not finite".into(),
            ));
        }
        Ok(Pwl { points })
    }

    /// The breakpoints.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Value at time `t` (linear interpolation, clamped ends).
    pub fn value(&self, t: f64) -> f64 {
        let pts = &self.points;
        if t <= pts[0].0 {
            return pts[0].1;
        }
        if t >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        // Binary search for the segment containing t.
        let mut lo = 0;
        let mut hi = pts.len() - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if pts[mid].0 <= t {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let (t0, v0) = pts[lo];
        let (t1, v1) = pts[hi];
        v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    }

    /// Transition spots (slope breakpoints) within `[0, t_end]`, sorted.
    pub(crate) fn transition_spots(&self, t_end: f64) -> Vec<f64> {
        self.points
            .iter()
            .map(|&(t, _)| t)
            .filter(|&t| t >= 0.0 && t <= t_end)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_and_clamping() {
        let w = Pwl::new(vec![(1.0, 0.0), (2.0, 10.0), (4.0, -10.0)]).unwrap();
        assert_eq!(w.value(0.0), 0.0);
        assert_eq!(w.value(1.5), 5.0);
        assert_eq!(w.value(2.0), 10.0);
        assert_eq!(w.value(3.0), 0.0);
        assert_eq!(w.value(99.0), -10.0);
    }

    #[test]
    fn single_point_is_constant() {
        let w = Pwl::new(vec![(5.0, 7.0)]).unwrap();
        assert_eq!(w.value(0.0), 7.0);
        assert_eq!(w.value(100.0), 7.0);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Pwl::new(vec![]).is_err());
        assert!(Pwl::new(vec![(0.0, 1.0), (0.0, 2.0)]).is_err());
        assert!(Pwl::new(vec![(1.0, 1.0), (0.5, 2.0)]).is_err());
        assert!(Pwl::new(vec![(0.0, f64::INFINITY)]).is_err());
    }

    #[test]
    fn spots_window() {
        let w = Pwl::new(vec![(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]).unwrap();
        assert_eq!(w.transition_spots(1.5), vec![0.0, 1.0]);
        assert_eq!(w.transition_spots(5.0), vec![0.0, 1.0, 2.0]);
    }
}
