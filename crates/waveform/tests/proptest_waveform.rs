//! Property-based tests of waveforms and the decomposition machinery.

use matex_waveform::{group_sources, GroupingStrategy, Pulse, Pwl, SpotSet, Waveform};
use proptest::prelude::*;

fn arb_pulse() -> impl Strategy<Value = Pulse> {
    (
        -1e-3..1e-3_f64,  // v1
        -1e-3..1e-3_f64,  // v2
        0.0..5e-9_f64,    // delay
        1e-12..1e-10_f64, // rise
        0.0..1e-9_f64,    // width
        1e-12..1e-10_f64, // fall
    )
        .prop_map(|(v1, v2, d, r, w, f)| Pulse::new(v1, v2, d, r, w, f).expect("valid params"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pulse_is_piecewise_linear_between_spots(p in arb_pulse()) {
        // Between adjacent transition spots the value is exactly linear:
        // the midpoint equals the average of the endpoints.
        let t_end = 1e-8;
        let w = Waveform::Pulse(p);
        let mut spots = vec![0.0];
        spots.extend(w.transition_spots(t_end));
        spots.push(t_end);
        // Tolerance scales with amplitude: a 1-ulp slip across a
        // breakpoint evaluates on the neighbouring ramp.
        let amp = p.v1.abs().max(p.v2.abs()).max(1e-12);
        for seg in spots.windows(2) {
            let (a, b) = (seg[0], seg[1]);
            if b - a < 1e-15 {
                continue;
            }
            let mid = 0.5 * (a + b);
            let lin = 0.5 * (w.value(a) + w.value(b));
            prop_assert!(
                (w.value(mid) - lin).abs() < 1e-9 * amp,
                "nonlinear inside segment [{a}, {b}]"
            );
        }
    }

    #[test]
    fn pulse_bounded_by_levels(p in arb_pulse(), t in 0.0..1e-8_f64) {
        let lo = p.v1.min(p.v2) - 1e-15;
        let hi = p.v1.max(p.v2) + 1e-15;
        let v = p.value(t);
        prop_assert!(v >= lo && v <= hi, "value {v} outside [{lo}, {hi}]");
    }

    #[test]
    fn spot_set_union_is_superset(
        a in prop::collection::vec(0.0..1e-8_f64, 0..20),
        b in prop::collection::vec(0.0..1e-8_f64, 0..20),
    ) {
        let sa = SpotSet::from_times(a);
        let sb = SpotSet::from_times(b);
        let u = SpotSet::union(&[sa.clone(), sb.clone()]);
        for &t in sa.iter().chain(sb.iter()) {
            prop_assert!(u.contains(t), "union lost spot {t}");
        }
        // Difference is disjoint from the subtrahend.
        let d = u.difference(&sa);
        for &t in d.iter() {
            prop_assert!(!sa.contains(t));
        }
    }

    #[test]
    fn next_after_is_strictly_increasing_walk(
        times in prop::collection::vec(0.0..1e-8_f64, 1..30),
    ) {
        let s = SpotSet::from_times(times);
        let mut t = -1.0;
        let mut visited = 0;
        while let Some(next) = s.next_after(t) {
            prop_assert!(next > t);
            t = next;
            visited += 1;
            prop_assert!(visited <= s.len(), "walk exceeded set size");
        }
        prop_assert_eq!(visited, s.len(), "walk must visit every spot once");
    }

    #[test]
    fn grouping_partitions_sources(
        delays in prop::collection::vec(0.0..4e-9_f64, 1..12),
        strategy_pick in 0usize..3,
    ) {
        let sources: Vec<Waveform> = delays
            .iter()
            .map(|&d| {
                Waveform::Pulse(Pulse::new(0.0, 1e-3, d, 1e-11, 1e-10, 1e-11).expect("valid"))
            })
            .collect();
        let strategy = [
            GroupingStrategy::ByBumpFeature,
            GroupingStrategy::BySource,
            GroupingStrategy::MaxGroups(3),
        ][strategy_pick];
        let g = group_sources(&sources, 1e-8, strategy);
        // Partition: every source in exactly one group.
        let mut seen: Vec<usize> = g.groups.iter().flat_map(|gr| gr.members.clone()).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..sources.len()).collect::<Vec<_>>());
        // GTS covers every group's LTS.
        for gr in &g.groups {
            for &t in gr.lts.iter() {
                prop_assert!(g.gts.contains(t), "GTS missing {t}");
            }
        }
        // Snapshots are disjoint from the group's own LTS.
        for gr in &g.groups {
            let snap = g.gts.difference(&gr.lts);
            for &t in snap.iter() {
                prop_assert!(!gr.lts.contains(t));
            }
        }
    }

    #[test]
    fn pwl_value_between_breakpoint_values(
        pts in prop::collection::vec((-1.0..1.0_f64,), 2..12),
        q in 0.0..1.0_f64,
    ) {
        // Build strictly increasing times 0, 1, 2, ... with given values.
        let points: Vec<(f64, f64)> = pts
            .iter()
            .enumerate()
            .map(|(i, &(v,))| (i as f64, v))
            .collect();
        let lo = points.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let hi = points.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
        let w = Pwl::new(points.clone()).expect("valid pwl");
        let t = q * (points.len() as f64 - 1.0);
        let v = w.value(t);
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }
}
