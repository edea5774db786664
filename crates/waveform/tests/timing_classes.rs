//! `TimingClasses` against the per-source derivations it replaced.
//!
//! The reference functions below are private copies of the five places
//! that worked out "which sources share timing, and what their spots
//! are" one source at a time: the solver's LTS, the input-column classes
//! of `IntervalTerms::new`, `group_sources`, admission's cost and TR's
//! breakpoints (the last two are the solver's LTS over every source).
//! On random source sets — DC, one-shot and periodic pulses, flat pulses,
//! PWLs with one point or several, spots clustered within `SpotSet`'s
//! 1e-9 relative tolerance — unsorted masks and windows starting after
//! 0, the table must give the same spots, groups and class order, bit
//! for bit.

use matex_waveform::{
    group_sources, FeatureKey, Grouping, GroupingStrategy, Pulse, Pwl, SourceGroup, SpotSet,
    TimingClasses, Waveform,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// The bits of a spot set, for exact comparison.
fn bits(s: &SpotSet) -> Vec<u64> {
    s.iter().map(|t| t.to_bits()).collect()
}

/// Reference: the union of the listed sources' spots, one set per
/// source, clipped (the solver, admission and TR derivations).
fn ref_lts(w: &[Waveform], columns: &[usize], t0: f64, t1: f64) -> SpotSet {
    let sets: Vec<SpotSet> = columns
        .iter()
        .map(|&c| SpotSet::from_times(w[c].transition_spots(t1)))
        .collect();
    SpotSet::union(&sets).clip(t0, t1)
}

/// Reference: `IntervalTerms::new`'s split of the listed sources into
/// constants, pulse classes (keyed in order of first appearance) and
/// the residual.
type Split = (Vec<usize>, Vec<(FeatureKey, Vec<usize>)>, Vec<usize>);

fn ref_split(w: &[Waveform], columns: &[usize]) -> Split {
    let (mut constant, mut classes, mut residual) = (Vec::new(), Vec::new(), Vec::new());
    let mut class_of: HashMap<FeatureKey, usize> = HashMap::new();
    for &c in columns {
        match &w[c] {
            wf if wf.is_constant() => constant.push(c),
            wf @ Waveform::Pulse(_) => {
                let key = FeatureKey::of(wf);
                let k = *class_of.entry(key.clone()).or_insert(classes.len());
                if k == classes.len() {
                    classes.push((key, Vec::new()));
                }
                classes[k].1.push(c);
            }
            _ => residual.push(c),
        }
    }
    (constant, classes, residual)
}

/// Reference: `group_sources` as it derived the groups per source.
fn ref_group_sources(w: &[Waveform], t_end: f64, strategy: GroupingStrategy) -> Grouping {
    let lts_of = |idx: &[usize]| -> SpotSet {
        SpotSet::union(
            &idx.iter()
                .map(|&i| SpotSet::from_times(w[i].transition_spots(t_end)))
                .collect::<Vec<_>>(),
        )
    };
    let by_feature = |active: &[usize]| -> Vec<Vec<usize>> {
        let mut map: HashMap<FeatureKey, Vec<usize>> = HashMap::new();
        for &i in active {
            map.entry(FeatureKey::of(&w[i])).or_default().push(i);
        }
        let mut sets: Vec<Vec<usize>> = map.into_values().collect();
        sets.sort_by_key(|m| m.first().copied().unwrap_or(usize::MAX));
        sets
    };
    let merge_balanced = |sets: Vec<Vec<usize>>, k: usize| -> Vec<Vec<usize>> {
        if sets.len() <= k {
            return sets;
        }
        let mut weighted: Vec<(usize, Vec<usize>)> =
            sets.into_iter().map(|m| (lts_of(&m).len(), m)).collect();
        weighted.sort_by_key(|&(w, _)| std::cmp::Reverse(w));
        let mut bins: Vec<(usize, Vec<usize>)> = vec![(0, Vec::new()); k];
        for (w, mut m) in weighted {
            let lightest = bins.iter_mut().min_by_key(|(bw, _)| *bw).unwrap();
            lightest.0 += w;
            lightest.1.append(&mut m);
        }
        bins.into_iter()
            .map(|(_, mut m)| {
                m.sort_unstable();
                m
            })
            .filter(|m| !m.is_empty())
            .collect()
    };
    let (constant, active): (Vec<usize>, Vec<usize>) =
        (0..w.len()).partition(|&i| w[i].transition_spots(t_end).is_empty());
    let mut member_sets = match strategy {
        GroupingStrategy::Single if active.is_empty() => Vec::new(),
        GroupingStrategy::Single => vec![active],
        GroupingStrategy::BySource => active.into_iter().map(|i| vec![i]).collect(),
        GroupingStrategy::ByBumpFeature => by_feature(&active),
        GroupingStrategy::MaxGroups(k) => merge_balanced(by_feature(&active), k.max(1)),
        _ => unreachable!("every strategy is listed"),
    };
    member_sets.sort_by_key(|m| m.first().copied().unwrap_or(usize::MAX));
    let mut groups = vec![SourceGroup {
        id: 0,
        members: constant,
        lts: SpotSet::new(),
    }];
    for members in member_sets {
        let lts = lts_of(&members);
        groups.push(SourceGroup {
            id: groups.len(),
            members,
            lts,
        });
    }
    let gts = SpotSet::union(&groups.iter().map(|g| g.lts.clone()).collect::<Vec<_>>());
    Grouping { groups, gts }
}

/// A random source set over `[0, t_end]` and its masks, from one seed.
struct Case {
    sources: Vec<Waveform>,
    t_start: f64,
    t_end: f64,
    masks: Vec<Vec<usize>>,
}

fn case(rng: &mut TestRng) -> Case {
    let t_end = 1e-8;
    let time = |rng: &mut TestRng, lo: f64, hi: f64| lo + (hi - lo) * rng.next_f64();
    // A few timing templates, so that sources share classes. Half of
    // them sit within 1e-9 relative of the previous one, so spots form
    // chains the greedy dedup of `SpotSet` cuts differently by grouping.
    let mut pulses: Vec<Pulse> = Vec::new();
    for _ in 0..1 + rng.below(6) {
        let delay = match pulses.last() {
            Some(p) if rng.below(2) == 0 => p.t_delay * (1.0 + time(rng, 3e-10, 9e-10)),
            _ => time(rng, 0.0, 6e-9),
        };
        let rise = match rng.below(4) {
            0 => (delay * 2e-10).max(1e-21), // within tolerance of the delay
            _ => time(rng, 1e-12, 1e-10),
        };
        let (width, fall) = (time(rng, 0.0, 1e-9), time(rng, 1e-12, 1e-10));
        let p = match rng.below(3) {
            0 => Pulse::periodic(0.0, 1.0, delay, rise, width, fall, time(rng, 2.5e-9, 4e-9)),
            _ => Pulse::new(0.0, 1.0, delay, rise, width, fall),
        };
        pulses.push(p.expect("valid template"));
    }
    // PWL breakpoint templates: one point or several, some past the
    // window, one perhaps within tolerance of a pulse's first spot.
    let mut pwls: Vec<Vec<f64>> = Vec::new();
    for _ in 0..1 + rng.below(3) {
        let mut times: Vec<f64> = (0..rng.below(5)).map(|_| time(rng, 0.0, 1.2e-8)).collect();
        if times.is_empty() || rng.below(3) == 0 {
            times.push(pulses[0].t_delay * (1.0 + 3e-10));
        }
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        times.dedup();
        pwls.push(times);
    }
    let n = 1 + rng.below(24);
    let mut sources = Vec::with_capacity(n);
    for _ in 0..n {
        let level = |rng: &mut TestRng| (rng.next_f64() - 0.5) * 2e-3;
        let w = match rng.below(6) {
            0 => Waveform::Dc(level(rng)),
            1 | 2 => {
                let p = pulses[rng.below(pulses.len())];
                let (v1, v2) = (level(rng), level(rng));
                // One pulse in four is flat (`v1 == v2`).
                let v2 = if rng.below(4) == 0 { v1 } else { v2 };
                Waveform::Pulse(Pulse { v1, v2, ..p })
            }
            3 => Waveform::Pulse(pulses[rng.below(pulses.len())])
                .scaled(0.0)
                .unwrap(),
            4 => {
                let times = &pwls[rng.below(pwls.len())];
                Waveform::Pwl(Pwl::new(times.iter().map(|&t| (t, level(rng))).collect()).unwrap())
            }
            _ => Waveform::Pwl(Pwl::new(vec![(time(rng, 0.0, t_end), level(rng))]).unwrap()),
        };
        sources.push(w);
    }
    let t_start = match rng.below(3) {
        0 => 0.0,
        1 => pulses[0].t_delay, // a window opening on a spot
        _ => time(rng, 0.0, 5e-9),
    };
    // The full ordered mask, then shuffled subsets.
    let mut masks = vec![(0..n).collect::<Vec<_>>()];
    for _ in 0..3 {
        let mut m: Vec<usize> = (0..n).filter(|_| rng.below(2) == 0).collect();
        for i in (1..m.len()).rev() {
            m.swap(i, rng.below(i + 1));
        }
        masks.push(m);
    }
    Case {
        sources,
        t_start,
        t_end,
        masks,
    }
}

fn strategies() -> Vec<GroupingStrategy> {
    let mut all = vec![
        GroupingStrategy::ByBumpFeature,
        GroupingStrategy::BySource,
        GroupingStrategy::Single,
    ];
    all.extend((0..5).map(GroupingStrategy::MaxGroups));
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_table_matches_every_per_source_derivation(seed in 0usize..1 << 40) {
        let mut rng = TestRng::seeded(&seed.to_string());
        let Case { sources, t_start, t_end, masks } = case(&mut rng);
        for mask in &masks {
            let table = TimingClasses::new(mask.iter().map(|&c| (c, &sources[c])), t_end);
            prop_assert_eq!(
                bits(&table.lts(t_start, t_end)),
                bits(&ref_lts(&sources, mask, t_start, t_end)),
                "LTS under mask {:?}", mask
            );
            let (constant, pulse_classes, residual) = ref_split(&sources, mask);
            let mut got = (Vec::new(), Vec::new(), Vec::new());
            for (key, members, spots) in table.iter() {
                match key {
                    FeatureKey::Constant => {
                        prop_assert!(spots.is_empty(), "a constant class has spots");
                        got.0.extend_from_slice(members);
                    }
                    FeatureKey::Bump(_) => got.1.push((key.clone(), members.to_vec())),
                    _ => got.2.extend_from_slice(members),
                }
            }
            prop_assert_eq!(&got.0, &constant, "constants under mask {:?}", mask);
            prop_assert_eq!(&got.1, &pulse_classes, "class order under mask {:?}", mask);
            // The residual is read by column, so only its content counts.
            let (mut want_residual, mut got_residual) = (residual, got.2);
            want_residual.sort_unstable();
            got_residual.sort_unstable();
            prop_assert_eq!(got_residual, want_residual);
        }
        for strategy in strategies() {
            let got = group_sources(&sources, t_end, strategy);
            let want = ref_group_sources(&sources, t_end, strategy);
            prop_assert_eq!(got.groups.len(), want.groups.len(), "{:?}", strategy);
            for (g, r) in got.groups.iter().zip(&want.groups) {
                prop_assert_eq!(g.id, r.id);
                prop_assert_eq!(&g.members, &r.members, "{:?}", strategy);
                prop_assert_eq!(bits(&g.lts), bits(&r.lts), "{:?} group {}", strategy, g.id);
            }
            prop_assert_eq!(bits(&got.gts), bits(&want.gts), "{:?} GTS", strategy);
        }
    }
}
