//! Source grouping: partitioning inputs into MATEX subtasks.

use crate::{SpotSet, TimingClasses, Waveform};

/// How to partition input sources into subtasks (paper Sec. 3.1–3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum GroupingStrategy {
    /// Group sources sharing a bump feature (the paper's default): every
    /// group's members have identical transition spots.
    #[default]
    ByBumpFeature,
    /// One group per (non-constant) source — the paper's first, less
    /// aggressive decomposition.
    BySource,
    /// No decomposition: all sources in a single group (single-node MATEX).
    Single,
    /// Feature grouping, then balanced merging down to at most this many
    /// groups (models a bounded cluster).
    MaxGroups(usize),
}

/// One subtask's share of the input sources.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceGroup {
    /// Group index (0-based; group 0 carries all constant sources).
    pub id: usize,
    /// Indices into the original source list.
    pub members: Vec<usize>,
    /// Union of the members' transition spots — this subtask's LTS.
    pub lts: SpotSet,
}

impl SourceGroup {
    /// `true` when the group has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// Result of grouping: the groups plus the global transition spots.
#[derive(Debug, Clone, PartialEq)]
pub struct Grouping {
    /// The subtask groups. Group 0 always exists and holds every source
    /// with no transitions (DC supplies, constant loads); it may be empty.
    pub groups: Vec<SourceGroup>,
    /// Global transition spots: union of all LTS.
    pub gts: SpotSet,
}

/// Partitions sources into groups under the given strategy.
///
/// `waveforms[i]` is the waveform of source `i`; spots are collected over
/// the window `[0, t_end]`. The groups are read off the sources'
/// [`TimingClasses`]: group 0 takes the classes with no spots in the
/// window, every other group is a union of whole classes, and its LTS is
/// the union of their spot sets. The GTS is the union of the groups' LTS.
///
/// # Example
///
/// ```
/// use matex_waveform::{group_sources, GroupingStrategy, Pulse, Waveform};
///
/// # fn main() -> Result<(), matex_waveform::WaveformError> {
/// let shape_a = Pulse::new(0.0, 1.0, 1e-10, 1e-11, 1e-11, 1e-11)?;
/// let shape_b = Pulse::new(0.0, 2.0, 3e-10, 1e-11, 1e-11, 1e-11)?;
/// let sources = vec![
///     Waveform::Dc(1.0),          // supply -> group 0
///     Waveform::Pulse(shape_a),   // group 1
///     Waveform::Pulse(shape_a),   // group 1 (same feature)
///     Waveform::Pulse(shape_b),   // group 2
/// ];
/// let g = group_sources(&sources, 1e-9, GroupingStrategy::ByBumpFeature);
/// assert_eq!(g.groups.len(), 3);
/// assert_eq!(g.groups[1].members, vec![1, 2]);
/// # Ok(())
/// # }
/// ```
pub fn group_sources(waveforms: &[Waveform], t_end: f64, strategy: GroupingStrategy) -> Grouping {
    let table = TimingClasses::new(waveforms.iter().enumerate(), t_end);
    let mut constant: Vec<usize> = Vec::new();
    let mut classes: Vec<Bin> = Vec::new();
    for (_, members, spots) in table.iter() {
        if spots.is_empty() {
            constant.extend_from_slice(members);
        } else {
            classes.push((members.to_vec(), vec![spots]));
        }
    }
    constant.sort_unstable();

    let mut bins: Vec<Bin> = match strategy {
        GroupingStrategy::Single if classes.is_empty() => Vec::new(),
        GroupingStrategy::Single => {
            let (members, spots): (Vec<Vec<usize>>, Vec<Vec<&SpotSet>>) =
                classes.into_iter().unzip();
            let mut members = members.concat();
            members.sort_unstable();
            vec![(members, spots.concat())]
        }
        GroupingStrategy::BySource => classes
            .into_iter()
            .flat_map(|(members, spots)| members.into_iter().map(move |i| (vec![i], spots.clone())))
            .collect(),
        GroupingStrategy::ByBumpFeature => classes,
        GroupingStrategy::MaxGroups(k) => merge_balanced(classes, k.max(1)),
    };

    // Deterministic order: by smallest member index.
    bins.sort_by_key(|(m, _)| m.first().copied().unwrap_or(usize::MAX));

    let mut groups = Vec::with_capacity(bins.len() + 1);
    groups.push(SourceGroup {
        id: 0,
        members: constant,
        lts: SpotSet::new(),
    });
    for (members, spots) in bins {
        groups.push(SourceGroup {
            id: groups.len(),
            members,
            lts: SpotSet::union(spots),
        });
    }
    let gts = SpotSet::union(groups.iter().map(|g| &g.lts));
    Grouping { groups, gts }
}

/// A group in the making: its members and its classes' spot sets.
type Bin<'a> = (Vec<usize>, Vec<&'a SpotSet>);

/// Greedy balanced merge of feature classes into at most `k` bins,
/// minimizing the largest per-bin LTS count (the quantity that drives each
/// node's Krylov-subspace generations).
fn merge_balanced(classes: Vec<Bin<'_>>, k: usize) -> Vec<Bin<'_>> {
    if classes.len() <= k {
        return classes;
    }
    // Weigh each class by its LTS count; largest first into the
    // currently lightest bin.
    let mut weighted: Vec<(usize, Bin)> = classes.into_iter().map(|c| (c.1[0].len(), c)).collect();
    weighted.sort_by_key(|&(w, _)| std::cmp::Reverse(w));
    let mut bins: Vec<(usize, Bin)> = vec![(0, (Vec::new(), Vec::new())); k];
    for (w, (mut members, spots)) in weighted {
        let lightest = bins
            .iter_mut()
            .min_by_key(|(bw, _)| *bw)
            .expect("k >= 1 bins");
        lightest.0 += w;
        lightest.1 .0.append(&mut members);
        lightest.1 .1.extend(spots);
    }
    bins.into_iter()
        .map(|(_, (mut members, spots))| {
            members.sort_unstable();
            (members, spots)
        })
        .filter(|(members, _)| !members.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pulse, Pwl};

    fn pulse(delay: f64) -> Waveform {
        Waveform::Pulse(Pulse::new(0.0, 1.0, delay, 1.0, 1.0, 1.0).unwrap())
    }

    #[test]
    fn feature_grouping_merges_identical_shapes() {
        let src = vec![pulse(1.0), pulse(2.0), pulse(1.0), Waveform::Dc(5.0)];
        let g = group_sources(&src, 100.0, GroupingStrategy::ByBumpFeature);
        // group 0 = constants, then {0, 2}, {1}
        assert_eq!(g.groups.len(), 3);
        assert_eq!(g.groups[0].members, vec![3]);
        assert_eq!(g.groups[1].members, vec![0, 2]);
        assert_eq!(g.groups[2].members, vec![1]);
        // Group 1 LTS = spots of the shared shape.
        assert_eq!(g.groups[1].lts.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        // GTS = union: {1,2,3,4} ∪ {2,3,4,5} = {1,2,3,4,5}.
        assert_eq!(g.gts.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn by_source_isolates_each() {
        let src = vec![pulse(1.0), pulse(1.0)];
        let g = group_sources(&src, 100.0, GroupingStrategy::BySource);
        assert_eq!(g.groups.len(), 3);
        assert_eq!(g.groups[1].members, vec![0]);
        assert_eq!(g.groups[2].members, vec![1]);
    }

    #[test]
    fn single_strategy_one_active_group() {
        let src = vec![pulse(1.0), pulse(5.0), Waveform::Dc(2.0)];
        let g = group_sources(&src, 100.0, GroupingStrategy::Single);
        assert_eq!(g.groups.len(), 2);
        assert_eq!(g.groups[1].members, vec![0, 1]);
        assert_eq!(g.groups[1].lts.len(), 8);
    }

    #[test]
    fn max_groups_caps_count() {
        let src: Vec<Waveform> = (0..10).map(|i| pulse(i as f64)).collect();
        let g = group_sources(&src, 100.0, GroupingStrategy::MaxGroups(3));
        assert!(g.groups.len() <= 4); // 3 active + constants
                                      // All sources still covered exactly once.
        let mut seen: Vec<usize> = g.groups.iter().flat_map(|g| g.members.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_constant_group_only() {
        let g = group_sources(&[], 1.0, GroupingStrategy::ByBumpFeature);
        assert_eq!(g.groups.len(), 1);
        assert!(g.groups[0].is_empty());
        assert!(g.gts.is_empty());
    }

    #[test]
    fn constant_pulses_and_one_point_pwls_join_group_0() {
        // A pulse scaled by 0 and a one-point PWL never change: no spots,
        // so no group (and no distributed node) of their own.
        let flat = pulse(3.0).scaled(0.0).unwrap();
        let point = Waveform::Pwl(Pwl::new(vec![(2.0, 1e-3)]).unwrap());
        let src = vec![pulse(1.0), flat, point, Waveform::Dc(1.8)];
        for strategy in [
            GroupingStrategy::ByBumpFeature,
            GroupingStrategy::BySource,
            GroupingStrategy::Single,
            GroupingStrategy::MaxGroups(1),
        ] {
            let g = group_sources(&src, 100.0, strategy);
            assert_eq!(g.groups.len(), 2, "{strategy:?}");
            assert_eq!(g.groups[0].members, vec![1, 2, 3], "{strategy:?}");
            assert_eq!(g.groups[1].members, vec![0], "{strategy:?}");
            assert_eq!(g.gts.as_slice(), &[1.0, 2.0, 3.0, 4.0], "{strategy:?}");
        }
    }

    #[test]
    fn spots_outside_window_ignored() {
        let src = vec![pulse(50.0)];
        let g = group_sources(&src, 10.0, GroupingStrategy::ByBumpFeature);
        // Pulse entirely after the window: treated as constant.
        assert_eq!(g.groups.len(), 1);
        assert_eq!(g.groups[0].members, vec![0]);
    }
}
