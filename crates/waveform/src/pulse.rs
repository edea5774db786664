//! SPICE-style pulse waveforms.

use crate::WaveformError;

/// A SPICE `PULSE(v1 v2 td tr tw tf [period])` source waveform.
///
/// The waveform starts at `v1`, stays there until `t_delay`, ramps linearly
/// to `v2` over `t_rise`, holds for `t_width`, ramps back over `t_fall`,
/// and (optionally) repeats with period `t_period`. This is the "bump"
/// shape of the paper's Fig. 3 — the unit from which PDN current loads are
/// built and by which MATEX groups its subtasks.
///
/// # Example
///
/// ```
/// use matex_waveform::Pulse;
///
/// # fn main() -> Result<(), matex_waveform::WaveformError> {
/// let p = Pulse::new(0.0, 1e-3, 1e-10, 2e-11, 5e-11, 2e-11)?;
/// assert_eq!(p.value(0.0), 0.0);            // before delay
/// assert_eq!(p.value(1.4e-10), 1e-3);       // on the plateau
/// assert!(p.value(1.1e-10) > 0.0);          // mid-rise
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pulse {
    /// Initial (baseline) value.
    pub v1: f64,
    /// Pulsed (peak) value.
    pub v2: f64,
    /// Initial delay before the first rise, seconds.
    pub t_delay: f64,
    /// Rise time, seconds.
    pub t_rise: f64,
    /// Plateau width, seconds.
    pub t_width: f64,
    /// Fall time, seconds.
    pub t_fall: f64,
    /// Repetition period; `None` for a one-shot pulse.
    pub t_period: Option<f64>,
}

impl Pulse {
    /// Creates a one-shot pulse.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::InvalidTiming`] when any duration is
    /// negative, both ramps are zero-length *and* `v1 != v2` (a true
    /// discontinuity cannot be represented as piecewise linear), or a
    /// parameter is not finite.
    pub fn new(
        v1: f64,
        v2: f64,
        t_delay: f64,
        t_rise: f64,
        t_width: f64,
        t_fall: f64,
    ) -> Result<Self, WaveformError> {
        let p = Pulse {
            v1,
            v2,
            t_delay,
            t_rise,
            t_width,
            t_fall,
            t_period: None,
        };
        p.validate()?;
        Ok(p)
    }

    /// Creates a periodic pulse train.
    ///
    /// # Errors
    ///
    /// As [`Pulse::new`]; additionally the period must cover the whole
    /// active shape (`t_rise + t_width + t_fall ≤ t_period`).
    pub fn periodic(
        v1: f64,
        v2: f64,
        t_delay: f64,
        t_rise: f64,
        t_width: f64,
        t_fall: f64,
        t_period: f64,
    ) -> Result<Self, WaveformError> {
        let p = Pulse {
            v1,
            v2,
            t_delay,
            t_rise,
            t_width,
            t_fall,
            t_period: Some(t_period),
        };
        p.validate()?;
        Ok(p)
    }

    fn validate(&self) -> Result<(), WaveformError> {
        let all = [
            self.v1,
            self.v2,
            self.t_delay,
            self.t_rise,
            self.t_width,
            self.t_fall,
        ];
        if all.iter().any(|v| !v.is_finite()) {
            return Err(WaveformError::InvalidTiming(
                "pulse parameter is not finite".into(),
            ));
        }
        if self.t_delay < 0.0 || self.t_rise < 0.0 || self.t_width < 0.0 || self.t_fall < 0.0 {
            return Err(WaveformError::InvalidTiming(
                "pulse durations must be non-negative".into(),
            ));
        }
        if self.v1 != self.v2 && (self.t_rise == 0.0 || self.t_fall == 0.0) {
            return Err(WaveformError::InvalidTiming(
                "zero rise/fall with distinct levels is a discontinuity; use a small ramp".into(),
            ));
        }
        if let Some(per) = self.t_period {
            if !per.is_finite() || per <= 0.0 {
                return Err(WaveformError::InvalidTiming(
                    "pulse period must be positive".into(),
                ));
            }
            if self.t_rise + self.t_width + self.t_fall > per {
                return Err(WaveformError::InvalidTiming(
                    "pulse shape longer than its period".into(),
                ));
            }
        }
        Ok(())
    }

    /// Value at time `t` (seconds).
    pub fn value(&self, t: f64) -> f64 {
        if t < self.t_delay {
            return self.v1;
        }
        let mut tau = t - self.t_delay;
        if let Some(per) = self.t_period {
            tau %= per;
        }
        if tau < self.t_rise {
            return self.v1 + (self.v2 - self.v1) * (tau / self.t_rise);
        }
        let tau = tau - self.t_rise;
        if tau < self.t_width {
            return self.v2;
        }
        let tau = tau - self.t_width;
        if tau < self.t_fall {
            return self.v2 + (self.v1 - self.v2) * (tau / self.t_fall);
        }
        self.v1
    }

    /// Transition spots (slope breakpoints) within `[0, t_end]`, sorted.
    ///
    /// These are the *local transition spots* (LTS) the paper assigns to
    /// each subtask: `{td, td+tr, td+tr+tw, td+tr+tw+tf}` for every period
    /// instance that intersects the window.
    pub(crate) fn transition_spots(&self, t_end: f64) -> Vec<f64> {
        let mut out = Vec::new();
        if t_end <= 0.0 {
            return out;
        }
        let base = [
            0.0,
            self.t_rise,
            self.t_rise + self.t_width,
            self.t_rise + self.t_width + self.t_fall,
        ];
        let mut start = self.t_delay;
        loop {
            for &b in &base {
                let t = start + b;
                if t <= t_end && t >= 0.0 {
                    out.push(t);
                }
            }
            match self.t_period {
                Some(per) => {
                    start += per;
                    if start > t_end {
                        break;
                    }
                }
                None => break,
            }
        }
        out.sort_by(|a, b| a.partial_cmp(b).expect("finite spots"));
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Pulse {
        Pulse::new(0.0, 2.0, 10.0, 2.0, 4.0, 2.0).unwrap()
    }

    #[test]
    fn value_piecewise() {
        let p = sample();
        assert_eq!(p.value(0.0), 0.0);
        assert_eq!(p.value(9.999), 0.0);
        assert_eq!(p.value(11.0), 1.0); // mid-rise
        assert_eq!(p.value(12.0), 2.0); // plateau start
        assert_eq!(p.value(14.0), 2.0);
        assert_eq!(p.value(17.0), 1.0); // mid-fall
        assert_eq!(p.value(18.0), 0.0);
        assert_eq!(p.value(100.0), 0.0);
    }

    #[test]
    fn transition_spots_one_shot() {
        let p = sample();
        assert_eq!(p.transition_spots(100.0), vec![10.0, 12.0, 16.0, 18.0]);
        // Window cuts the shape.
        assert_eq!(p.transition_spots(12.5), vec![10.0, 12.0]);
        assert!(p.transition_spots(0.0).is_empty());
    }

    #[test]
    fn periodic_repeats() {
        let p = Pulse::periodic(0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 10.0).unwrap();
        assert_eq!(p.value(2.5), 1.0);
        assert_eq!(p.value(12.5), 1.0); // next period
        assert_eq!(p.value(6.0), 0.0);
        let spots = p.transition_spots(25.0);
        assert_eq!(
            spots,
            vec![1.0, 2.0, 3.0, 4.0, 11.0, 12.0, 13.0, 14.0, 21.0, 22.0, 23.0, 24.0]
        );
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(Pulse::new(0.0, 1.0, -1.0, 1.0, 1.0, 1.0).is_err());
        assert!(Pulse::new(0.0, 1.0, 0.0, 0.0, 1.0, 1.0).is_err()); // discontinuous rise
        assert!(Pulse::periodic(0.0, 1.0, 0.0, 1.0, 5.0, 1.0, 3.0).is_err()); // shape > period
        assert!(Pulse::new(0.0, f64::NAN, 0.0, 1.0, 1.0, 1.0).is_err());
    }

    #[test]
    fn flat_pulse_with_zero_ramps_allowed() {
        // v1 == v2 makes zero ramps fine (it is a constant).
        let p = Pulse::new(3.0, 3.0, 0.0, 0.0, 1.0, 0.0).unwrap();
        assert_eq!(p.value(0.5), 3.0);
    }
}
