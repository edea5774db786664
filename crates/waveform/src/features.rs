//! Bump-feature extraction for subtask grouping.
//!
//! The paper decomposes the simulation "more aggressively" than one task
//! per source: pulse sources that share the same
//! `(t_delay, t_rise, t_fall, t_width, t_period)` tuple produce *identical
//! transition spots*, so simulating them together costs no extra Krylov
//! subspace generations (Fig. 3). [`FeatureKey`] is the grouping key, and
//! [`TimingClasses`] the one table of a run's classes that every consumer
//! reads: the solver's LTS and input columns, the distributed groups,
//! admission's cost and TR's breakpoints.

use crate::{SpotSet, Waveform};
use std::collections::HashMap;

/// A hashable identity of a waveform's *timing shape* (not its amplitude).
///
/// Two sources with equal `FeatureKey`s have exactly the same transition
/// spots and can share a MATEX subtask for free.
///
/// Keys compare by exact bit pattern of the timing parameters: workload
/// generators that stamp many loads from one template produce identical
/// bits, which is precisely the structure the paper's grouping exploits.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FeatureKey {
    /// Constant waveform — never produces transition spots.
    Constant,
    /// Pulse timing tuple `(delay, rise, width, fall, period)` as raw bits.
    Bump([u64; 5]),
    /// PWL breakpoint times as raw bits.
    PwlTimes(Vec<u64>),
}

impl FeatureKey {
    /// Extracts the feature key of a waveform.
    ///
    /// # Example
    ///
    /// ```
    /// use matex_waveform::{FeatureKey, Pulse, Waveform};
    ///
    /// # fn main() -> Result<(), matex_waveform::WaveformError> {
    /// let a = Waveform::Pulse(Pulse::new(0.0, 1.0, 1e-10, 2e-11, 5e-11, 2e-11)?);
    /// let b = Waveform::Pulse(Pulse::new(0.0, 3.0, 1e-10, 2e-11, 5e-11, 2e-11)?);
    /// // Same timing, different amplitude: same key.
    /// assert_eq!(FeatureKey::of(&a), FeatureKey::of(&b));
    /// # Ok(())
    /// # }
    /// ```
    pub fn of(w: &Waveform) -> FeatureKey {
        if w.is_constant() {
            return FeatureKey::Constant;
        }
        match w {
            Waveform::Dc(_) => FeatureKey::Constant,
            Waveform::Pulse(p) => FeatureKey::Bump([
                p.t_delay.to_bits(),
                p.t_rise.to_bits(),
                p.t_width.to_bits(),
                p.t_fall.to_bits(),
                p.t_period.unwrap_or(0.0).to_bits(),
            ]),
            Waveform::Pwl(w) => {
                FeatureKey::PwlTimes(w.points().iter().map(|&(t, _)| t.to_bits()).collect())
            }
        }
    }
}

/// A run's sources partitioned by timing shape: per class its
/// [`FeatureKey`], its member columns and one [`SpotSet`] of transition
/// spots over `[0, t_end]`.
///
/// Members of a class have bit-identical timing (a constant waveform has
/// no spots at all), so one `transition_spots` call per class gives every
/// member's spots, and [`TimingClasses::lts`] — the flat union of the
/// class sets — equals the union over the members bit for bit. Classes
/// are in order of their first member among the given columns, and each
/// class lists its members in that order, repeats included.
///
/// # Example
///
/// ```
/// use matex_waveform::{FeatureKey, Pulse, TimingClasses, Waveform};
///
/// # fn main() -> Result<(), matex_waveform::WaveformError> {
/// let bump = Pulse::new(0.0, 1.0, 1.0, 1.0, 1.0, 1.0)?;
/// let sources = [
///     Waveform::Dc(1.8),
///     Waveform::Pulse(bump),
///     Waveform::Pulse(Pulse { v2: 3.0, ..bump }), // same timing
/// ];
/// let table = TimingClasses::new(sources.iter().enumerate(), 10.0);
/// let classes: Vec<_> = table.iter().collect();
/// assert_eq!(classes.len(), 2);
/// assert_eq!(classes[0].0, &FeatureKey::Constant);
/// assert_eq!(classes[1].1, &[1, 2]);
/// assert_eq!(table.lts(1.5, 10.0).as_slice(), &[2.0, 3.0, 4.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TimingClasses {
    classes: Vec<(FeatureKey, Vec<usize>, SpotSet)>,
}

impl TimingClasses {
    /// Classifies the `(column, waveform)` pairs of the active sources,
    /// in order, with spots collected over `[0, t_end]`.
    pub fn new<'w>(sources: impl IntoIterator<Item = (usize, &'w Waveform)>, t_end: f64) -> Self {
        let mut classes: Vec<(FeatureKey, Vec<usize>, SpotSet)> = Vec::new();
        let mut class_of = HashMap::new();
        for (c, w) in sources {
            let key = FeatureKey::of(w);
            let k = match class_of.get(&key) {
                Some(&k) => k,
                None => {
                    class_of.insert(key.clone(), classes.len());
                    let spots = SpotSet::from_times(w.transition_spots(t_end));
                    classes.push((key, Vec::new(), spots));
                    classes.len() - 1
                }
            };
            classes[k].1.push(c);
        }
        TimingClasses { classes }
    }

    /// The classes in order: key, member columns, transition spots.
    pub fn iter(&self) -> impl Iterator<Item = (&FeatureKey, &[usize], &SpotSet)> {
        self.classes.iter().map(|(k, m, s)| (k, m.as_slice(), s))
    }

    /// The local transition spots of all the sources, clipped to
    /// `[t0, t1]`: the union of the class sets.
    pub fn lts(&self, t0: f64, t1: f64) -> SpotSet {
        SpotSet::union(self.classes.iter().map(|(_, _, s)| s)).clip(t0, t1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pulse, Pwl};

    #[test]
    fn amplitude_does_not_affect_key() {
        let a = Waveform::Pulse(Pulse::new(0.0, 1.0, 1.0, 1.0, 1.0, 1.0).unwrap());
        let b = Waveform::Pulse(Pulse::new(-2.0, 5.0, 1.0, 1.0, 1.0, 1.0).unwrap());
        assert_eq!(FeatureKey::of(&a), FeatureKey::of(&b));
    }

    #[test]
    fn timing_affects_key() {
        let a = Waveform::Pulse(Pulse::new(0.0, 1.0, 1.0, 1.0, 1.0, 1.0).unwrap());
        let b = Waveform::Pulse(Pulse::new(0.0, 1.0, 2.0, 1.0, 1.0, 1.0).unwrap());
        assert_ne!(FeatureKey::of(&a), FeatureKey::of(&b));
    }

    #[test]
    fn constants_collapse() {
        assert_eq!(FeatureKey::of(&Waveform::Dc(1.0)), FeatureKey::Constant);
        assert_eq!(FeatureKey::of(&Waveform::Dc(-3.0)), FeatureKey::Constant);
        let flat = Waveform::Pulse(Pulse::new(2.0, 2.0, 1.0, 0.0, 1.0, 0.0).unwrap());
        assert_eq!(FeatureKey::of(&flat), FeatureKey::Constant);
    }

    #[test]
    fn pwl_keys_by_times() {
        let a = Waveform::Pwl(Pwl::new(vec![(0.0, 1.0), (1.0, 2.0)]).unwrap());
        let b = Waveform::Pwl(Pwl::new(vec![(0.0, -1.0), (1.0, 7.0)]).unwrap());
        let c = Waveform::Pwl(Pwl::new(vec![(0.0, 1.0), (2.0, 2.0)]).unwrap());
        assert_eq!(FeatureKey::of(&a), FeatureKey::of(&b));
        assert_ne!(FeatureKey::of(&a), FeatureKey::of(&c));
    }

    #[test]
    fn periodic_vs_oneshot_differ() {
        let a = Waveform::Pulse(Pulse::new(0.0, 1.0, 1.0, 1.0, 1.0, 1.0).unwrap());
        let b = Waveform::Pulse(Pulse::periodic(0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 10.0).unwrap());
        assert_ne!(FeatureKey::of(&a), FeatureKey::of(&b));
    }
}
