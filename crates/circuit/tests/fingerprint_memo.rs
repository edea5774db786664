//! The memoized matrix fingerprints can never go stale.
//!
//! `MnaSystem` hashes its pattern and value fingerprints once and its
//! scenario copies inherit what they keep. A copy that inherited a value
//! fingerprint it had changed would key a cache entry with another
//! system's setup, so every copy along random edit sequences is checked
//! against a recomputation from its matrices, and the hash values
//! themselves are pinned.

use matex_circuit::{MnaSystem, PdnBuilder};
use matex_sparse::CsrMatrix;
use matex_waveform::{Fnv64, Waveform};
use proptest::prelude::*;

/// The pattern fingerprint recomputed from the matrices, without the
/// memo: dimensions, then each matrix's shape, row pointers and column
/// indices.
fn pattern_of(sys: &MnaSystem) -> u64 {
    let mut h = Fnv64::new();
    h.write_usize(sys.num_nodes());
    h.write_usize(sys.num_inductors());
    h.write_usize(sys.num_vsources());
    h.write_usize(sys.num_sources());
    for m in [sys.g(), sys.c(), sys.b()] {
        h.write_usize(m.nrows());
        h.write_usize(m.ncols());
        h.write_usizes(m.indptr());
        for r in 0..m.nrows() {
            h.write_usizes(m.row_indices(r));
        }
    }
    h.finish()
}

/// The value fingerprint recomputed from the matrices, without the memo.
fn value_of(sys: &MnaSystem) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(pattern_of(sys));
    for m in [sys.g(), sys.c(), sys.b()] {
        for r in 0..m.nrows() {
            h.write_f64s(m.row_values(r));
        }
    }
    h.finish()
}

fn assert_fresh(sys: &MnaSystem, what: &str) {
    assert_eq!(
        sys.pattern_fingerprint(),
        pattern_of(sys),
        "{what}: stale pattern fingerprint"
    );
    assert_eq!(
        sys.value_fingerprint(),
        value_of(sys),
        "{what}: stale value fingerprint"
    );
}

/// A node row with a stored capacitance and one of its `G` neighbours
/// among the node rows, both picked by `pick`.
fn neighbour(g: &CsrMatrix, nodes: usize, pick: usize) -> (usize, Option<usize>) {
    let a = pick % nodes;
    let others: Vec<usize> = g
        .row_indices(a)
        .iter()
        .copied()
        .filter(|&c| c != a && c < nodes)
        .collect();
    if others.is_empty() || pick.is_multiple_of(3) {
        (a, None)
    } else {
        (a, Some(others[(pick / 3) % others.len()]))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn memoized_fingerprints_match_a_recomputation_after_any_edit_sequence(
        nx in 3usize..7,
        loads in 1usize..6,
        seed in 0usize..1000,
        ops in prop::collection::vec((0usize..5, 0usize..10_000, 0.25..4.0_f64), 1..12),
        touch_first in 0usize..2,
    ) {
        let mut sys = PdnBuilder::new(nx, nx)
            .num_loads(loads)
            .seed(seed as u64)
            .build()
            .expect("small PDN builds");
        // Half the cases copy from a system whose memo is still empty.
        if touch_first == 1 {
            assert_fresh(&sys, "assembled");
        }
        let mut history = vec![sys.clone()];
        for (k, &(op, pick, factor)) in ops.iter().enumerate() {
            let next = match op {
                0 => sys.with_scaled_sources(factor).ok(),
                1 => {
                    let waveforms: Vec<Waveform> = (0..sys.num_sources())
                        .map(|i| Waveform::Dc(factor * (1 + (i + pick) % 7) as f64 * 1e-3))
                        .collect();
                    sys.with_source_waveforms(waveforms).ok()
                }
                2 => sys.with_cap_scaled(pick % sys.num_nodes(), factor).ok(),
                3 => {
                    let (a, b) = neighbour(sys.g(), sys.num_nodes(), pick);
                    sys.with_conductance_delta(Some(a), b, (factor - 2.0) * 1e-3).ok()
                }
                _ => Some(sys.clone()),
            };
            if let Some(next) = next {
                assert_fresh(&next, &format!("op {k} ({op})"));
                sys = next;
                history.push(sys.clone());
            }
        }
        // Every earlier system is untouched by the copies made from it.
        for (k, old) in history.iter().enumerate() {
            assert_fresh(old, &format!("history {k}"));
        }
    }
}

#[test]
fn scenario_copies_keep_or_change_exactly_the_right_keys() {
    let base = PdnBuilder::new(6, 6).num_loads(4).seed(77).build().unwrap();
    let scaled = base.with_scaled_sources(1.5).unwrap();
    assert_eq!(scaled.pattern_fingerprint(), base.pattern_fingerprint());
    assert_eq!(scaled.value_fingerprint(), base.value_fingerprint());
    assert_ne!(scaled.source_fingerprint(), base.source_fingerprint());
    let capped = base.with_cap_scaled(7, 3.0).unwrap();
    assert_eq!(capped.pattern_fingerprint(), base.pattern_fingerprint());
    assert_ne!(capped.value_fingerprint(), base.value_fingerprint());
    assert_eq!(capped.source_fingerprint(), base.source_fingerprint());
    // Scaling the edited copy keeps the edit's value fingerprint, not
    // the base's.
    let both = capped.with_scaled_sources(2.0).unwrap();
    assert_eq!(both.value_fingerprint(), capped.value_fingerprint());
    assert_fresh(&both, "capped then scaled");
}

#[test]
fn fingerprint_values_are_pinned() {
    // Store keys are these hashes: a change here orphans every record.
    let base = PdnBuilder::new(6, 6).num_loads(4).seed(77).build().unwrap();
    let capped = base.with_cap_scaled(7, 3.0).unwrap();
    let pins = [
        base.pattern_fingerprint(),
        base.value_fingerprint(),
        capped.value_fingerprint(),
    ];
    assert_eq!(pins, PINS, "{pins:#x?}");
}

/// The values every earlier build of the crate computes for these two
/// systems.
const PINS: [u64; 3] = [
    0x2125_e1ee_b754_53f5,
    0xcab0_d14b_7d49_fc0c,
    0xaa8e_a753_00d4_47d6,
];
