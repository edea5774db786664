//! The unified waveform type.

use crate::{Fnv64, Pulse, Pwl, WaveformError};

/// A source waveform: constant, pulse, or piecewise linear.
///
/// All MATEX solvers assume inputs are piecewise linear in time (the
/// paper's Eq. (5) integrates the convolution term analytically under this
/// assumption); every variant of this enum satisfies that.
///
/// # Example
///
/// ```
/// use matex_waveform::{Waveform, Pulse};
///
/// # fn main() -> Result<(), matex_waveform::WaveformError> {
/// let w = Waveform::Pulse(Pulse::new(0.0, 1.0, 1.0, 1.0, 1.0, 1.0)?);
/// assert_eq!(w.value(1.5), 0.5);
/// assert_eq!(w.transition_spots(10.0), vec![1.0, 2.0, 3.0, 4.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Waveform {
    /// Constant value for all time.
    Dc(f64),
    /// SPICE-style pulse (the PDN "bump" shape).
    Pulse(Pulse),
    /// Piecewise-linear breakpoints.
    Pwl(Pwl),
}

impl Waveform {
    /// Value at time `t`.
    pub fn value(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pulse(p) => p.value(t),
            Waveform::Pwl(w) => w.value(t),
        }
    }

    /// Time points in `[0, t_end]` at which the slope changes, sorted.
    ///
    /// These are the waveform's *local transition spots* (LTS). A
    /// constant waveform ([`Waveform::is_constant`]: DC, a pulse with
    /// `v1 == v2`, a one-point PWL) has none.
    pub fn transition_spots(&self, t_end: f64) -> Vec<f64> {
        if self.is_constant() {
            return Vec::new();
        }
        match self {
            Waveform::Dc(_) => Vec::new(),
            Waveform::Pulse(p) => p.transition_spots(t_end),
            Waveform::Pwl(w) => w.transition_spots(t_end),
        }
    }

    /// `true` if the waveform never changes (no transition spots ever).
    pub fn is_constant(&self) -> bool {
        match self {
            Waveform::Dc(_) => true,
            Waveform::Pulse(p) => p.v1 == p.v2,
            Waveform::Pwl(w) => w.points().len() <= 1,
        }
    }

    /// The waveform scaled by `k` in value: `w'(t) = k · w(t)`.
    ///
    /// Timing is unchanged, and for `k ≠ 0` so is every transition spot,
    /// which is what makes scaled-source scenarios structure-preserving:
    /// a scenario engine can replay the same grouping and factorization
    /// artifacts under any non-zero load scaling. `k = 0` makes a pulse
    /// constant, and a constant waveform has no spots.
    ///
    /// # Errors
    ///
    /// Returns [`WaveformError::InvalidTiming`] when `k` is not finite
    /// (the scaled levels re-validate through the variant constructors).
    pub fn scaled(&self, k: f64) -> Result<Waveform, WaveformError> {
        if !k.is_finite() {
            return Err(WaveformError::InvalidTiming(format!(
                "source scale {k} is not finite"
            )));
        }
        Ok(match self {
            Waveform::Dc(v) => {
                let scaled = v * k;
                if !scaled.is_finite() {
                    return Err(WaveformError::InvalidTiming(format!(
                        "scaled DC level {scaled} is not finite"
                    )));
                }
                Waveform::Dc(scaled)
            }
            Waveform::Pulse(p) => {
                // Through the validating constructors: a product that
                // overflows fails here, at the override boundary, not
                // as an Inf deep inside a solver run.
                let scaled = match p.t_period {
                    None => {
                        Pulse::new(p.v1 * k, p.v2 * k, p.t_delay, p.t_rise, p.t_width, p.t_fall)?
                    }
                    Some(per) => Pulse::periodic(
                        p.v1 * k,
                        p.v2 * k,
                        p.t_delay,
                        p.t_rise,
                        p.t_width,
                        p.t_fall,
                        per,
                    )?,
                };
                Waveform::Pulse(scaled)
            }
            Waveform::Pwl(w) => Waveform::Pwl(Pwl::new(
                w.points().iter().map(|&(t, v)| (t, v * k)).collect(),
            )?),
        })
    }

    /// Feeds the waveform's identity — variant tag plus every parameter's
    /// bit pattern — into a fingerprint hasher. Two waveforms fingerprint
    /// equal iff they evaluate bitwise-identically at every time.
    pub fn fingerprint(&self, h: &mut Fnv64) {
        match self {
            Waveform::Dc(v) => {
                h.write_u8(0);
                h.write_f64(*v);
            }
            Waveform::Pulse(p) => {
                h.write_u8(1);
                h.write_f64(p.v1);
                h.write_f64(p.v2);
                h.write_f64(p.t_delay);
                h.write_f64(p.t_rise);
                h.write_f64(p.t_width);
                h.write_f64(p.t_fall);
                match p.t_period {
                    None => h.write_u8(0),
                    Some(per) => {
                        h.write_u8(1);
                        h.write_f64(per);
                    }
                }
            }
            Waveform::Pwl(w) => {
                h.write_u8(2);
                h.write_usize(w.points().len());
                for &(t, v) in w.points() {
                    h.write_f64(t);
                    h.write_f64(v);
                }
            }
        }
    }
}

impl Default for Waveform {
    fn default() -> Self {
        Waveform::Dc(0.0)
    }
}

impl From<Pulse> for Waveform {
    fn from(p: Pulse) -> Self {
        Waveform::Pulse(p)
    }
}

impl From<Pwl> for Waveform {
    fn from(w: Pwl) -> Self {
        Waveform::Pwl(w)
    }
}

impl From<f64> for Waveform {
    fn from(v: f64) -> Self {
        Waveform::Dc(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_has_no_spots() {
        let w = Waveform::Dc(1.8);
        assert_eq!(w.value(0.0), 1.8);
        assert_eq!(w.value(1e9), 1.8);
        assert!(w.transition_spots(1.0).is_empty());
        assert!(w.is_constant());
    }

    #[test]
    fn constant_waveforms_have_no_spots() {
        let p = Waveform::Pulse(Pulse::new(0.0, 2.0, 1.0, 1.0, 2.0, 1.0).unwrap());
        assert_eq!(p.transition_spots(10.0).len(), 4);
        let flat = p.scaled(0.0).unwrap();
        assert!(flat.is_constant());
        assert!(flat.transition_spots(10.0).is_empty());
        let point = Waveform::Pwl(Pwl::new(vec![(1.0, 3.0)]).unwrap());
        assert!(point.is_constant());
        assert!(point.transition_spots(10.0).is_empty());
    }

    #[test]
    fn conversions() {
        let w: Waveform = 2.5.into();
        assert_eq!(w.value(0.0), 2.5);
        let p: Waveform = Pulse::new(0.0, 1.0, 0.0, 1.0, 1.0, 1.0).unwrap().into();
        assert!(matches!(p, Waveform::Pulse(_)));
        let l: Waveform = Pwl::new(vec![(0.0, 1.0)]).unwrap().into();
        assert!(matches!(l, Waveform::Pwl(_)));
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Waveform::default(), Waveform::Dc(0.0));
    }

    #[test]
    fn constant_pulse_detected() {
        let p = Pulse::new(1.0, 1.0, 0.0, 0.0, 1.0, 0.0).unwrap();
        assert!(Waveform::Pulse(p).is_constant());
    }

    #[test]
    fn scaling_preserves_timing_and_scales_values() {
        let p = Waveform::Pulse(Pulse::new(0.0, 2.0, 1.0, 1.0, 2.0, 1.0).unwrap());
        let s = p.scaled(0.5).unwrap();
        assert_eq!(s.transition_spots(10.0), p.transition_spots(10.0));
        assert_eq!(s.value(2.5), 0.5 * p.value(2.5));
        let w = Waveform::Pwl(Pwl::new(vec![(0.0, 1.0), (1.0, -2.0)]).unwrap());
        assert_eq!(w.scaled(3.0).unwrap().value(1.0), -6.0);
        assert_eq!(Waveform::Dc(2.0).scaled(-1.0).unwrap().value(0.0), -2.0);
        assert!(p.scaled(f64::NAN).is_err());
        // Scaling to zero flattens the pulse without a validation trip
        // (v1 == v2 == 0 permits the zero-length ramps).
        assert_eq!(p.scaled(0.0).unwrap().value(2.5), 0.0);
    }

    #[test]
    fn fingerprint_separates_waveforms() {
        let fp = |w: &Waveform| {
            let mut h = crate::Fnv64::new();
            w.fingerprint(&mut h);
            h.finish()
        };
        let p = Waveform::Pulse(Pulse::new(0.0, 2.0, 1.0, 1.0, 2.0, 1.0).unwrap());
        assert_eq!(fp(&p), fp(&p.clone()));
        assert_ne!(fp(&p), fp(&p.scaled(2.0).unwrap()));
        assert_ne!(fp(&Waveform::Dc(1.0)), fp(&Waveform::Dc(2.0)));
        // A periodic pulse must not collide with its one-shot shape.
        let per = Waveform::Pulse(Pulse::periodic(0.0, 2.0, 1.0, 1.0, 2.0, 1.0, 10.0).unwrap());
        assert_ne!(fp(&p), fp(&per));
    }
}
