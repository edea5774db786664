//! Transition-spot sets: LTS, GTS, snapshots.
//!
//! The paper's decomposition vocabulary (Sec. 3.1):
//!
//! * **LTS** (local transition spots) — the slope breakpoints of one input
//!   source (or one group of sources),
//! * **GTS** (global transition spots) — the union of all LTS,
//! * **snapshots** — `GTS \ LTS_k`: the points where subtask `k` must
//!   evaluate its solution (for later superposition) but may *reuse* the
//!   Krylov subspace generated at its most recent LTS.

/// A sorted, deduplicated set of time points.
///
/// Duplicate detection uses a relative tolerance because the spots come
/// from floating-point arithmetic on waveform parameters.
///
/// # Example
///
/// ```
/// use matex_waveform::SpotSet;
///
/// let a = SpotSet::from_times(vec![0.0, 1e-9, 2e-9]);
/// let b = SpotSet::from_times(vec![1e-9, 3e-9]);
/// let gts = SpotSet::union(&[a.clone(), b.clone()]);
/// assert_eq!(gts.len(), 4);
/// let snap = gts.difference(&a);
/// assert_eq!(snap.as_slice(), &[3e-9]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpotSet {
    times: Vec<f64>,
}

/// Relative tolerance used to consider two spots identical.
const REL_TOL: f64 = 1e-9;

fn same_spot(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs());
    (a - b).abs() <= REL_TOL * scale
}

impl SpotSet {
    /// An empty spot set.
    pub fn new() -> Self {
        SpotSet { times: Vec::new() }
    }

    /// Builds a set from arbitrary times (sorted and deduplicated).
    ///
    /// Non-finite values are discarded.
    pub fn from_times(mut times: Vec<f64>) -> Self {
        times.retain(|t| t.is_finite());
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        times.dedup_by(|a, b| same_spot(*a, *b));
        SpotSet { times }
    }

    /// Number of spots.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when there are no spots.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The sorted spots.
    pub fn as_slice(&self) -> &[f64] {
        &self.times
    }

    /// Iterator over spots.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.times.iter()
    }

    /// `true` if `t` is in the set (within tolerance).
    pub fn contains(&self, t: f64) -> bool {
        match self
            .times
            .binary_search_by(|x| x.partial_cmp(&t).expect("finite"))
        {
            Ok(_) => true,
            Err(i) => {
                (i < self.times.len() && same_spot(self.times[i], t))
                    || (i > 0 && same_spot(self.times[i - 1], t))
            }
        }
    }

    /// The smallest spot strictly greater than `t`, if any.
    ///
    /// This is the paper's "maximum allowed step": from time `t` a MATEX
    /// node may step at most to `next_after(t)`.
    pub fn next_after(&self, t: f64) -> Option<f64> {
        let idx = match self
            .times
            .binary_search_by(|x| x.partial_cmp(&t).expect("finite"))
        {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        // Skip spots equal to t within tolerance.
        let mut k = idx;
        while k < self.times.len() && same_spot(self.times[k], t) {
            k += 1;
        }
        self.times.get(k).copied()
    }

    /// Union of several spot sets.
    pub fn union<'a>(sets: impl IntoIterator<Item = &'a SpotSet>) -> SpotSet {
        let mut all: Vec<f64> = sets
            .into_iter()
            .flat_map(|s| s.times.iter().copied())
            .collect();
        all.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        all.dedup_by(|a, b| same_spot(*a, *b));
        SpotSet { times: all }
    }

    /// Spots of `self` that are *not* in `other` — the snapshot set
    /// `self \ other`.
    pub fn difference(&self, other: &SpotSet) -> SpotSet {
        SpotSet {
            times: self
                .times
                .iter()
                .copied()
                .filter(|&t| !other.contains(t))
                .collect(),
        }
    }

    /// Restricts to the window `[t0, t1]`.
    pub fn clip(&self, t0: f64, t1: f64) -> SpotSet {
        SpotSet {
            times: self
                .times
                .iter()
                .copied()
                .filter(|&t| t >= t0 && t <= t1)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_times_sorts_and_dedups() {
        let s = SpotSet::from_times(vec![3.0, 1.0, 2.0, 1.0 + 1e-12]);
        assert_eq!(s.as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn union_is_gts() {
        let a = SpotSet::from_times(vec![1.0, 2.0]);
        let b = SpotSet::from_times(vec![2.0, 3.0]);
        let c = SpotSet::from_times(vec![0.5]);
        let u = SpotSet::union(&[a, b, c]);
        assert_eq!(u.as_slice(), &[0.5, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn difference_is_snapshot() {
        let gts = SpotSet::from_times(vec![0.5, 1.0, 2.0, 3.0]);
        let lts = SpotSet::from_times(vec![1.0, 3.0]);
        assert_eq!(gts.difference(&lts).as_slice(), &[0.5, 2.0]);
    }

    #[test]
    fn next_after_steps_forward() {
        let s = SpotSet::from_times(vec![1.0, 2.0, 3.0]);
        assert_eq!(s.next_after(0.0), Some(1.0));
        assert_eq!(s.next_after(1.0), Some(2.0));
        assert_eq!(s.next_after(2.5), Some(3.0));
        assert_eq!(s.next_after(3.0), None);
        // Tolerance: a point epsilon below 1.0 still advances past it.
        assert_eq!(s.next_after(1.0 - 1e-13), Some(2.0));
    }

    #[test]
    fn contains_with_tolerance() {
        let s = SpotSet::from_times(vec![1e-9]);
        assert!(s.contains(1e-9 * (1.0 + 1e-12)));
        assert!(!s.contains(1.0001e-9));
    }

    #[test]
    fn clip_window() {
        let s = SpotSet::from_times(vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.clip(0.5, 2.5).as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn non_finite_inputs_discarded() {
        let s = SpotSet::from_times(vec![f64::INFINITY, 1.0, f64::NAN]);
        assert_eq!(s.as_slice(), &[1.0]);
    }
}
