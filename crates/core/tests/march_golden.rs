//! Golden pins of the MATEX march: for every Krylov kind and for recipes
//! that between them reach the ways the march lands a point — a batch of
//! snapshots with its window advance, pure steady state, a pseudo-anchor
//! at a shorter ladder rung, and the best-effort value of an exhausted
//! sub-step budget — the waveform and the final state hash to the FNV-64
//! pinned below and the cost counters are exact. A run that fails pins
//! its error instead: MEXP on the starved recipes, whose best-effort
//! steps carry estimates 1e5× the tolerance and more, diverges. The
//! what-if recipes run an edited grid through a corrected setup of the
//! unedited one.
//!
//! The ladder's full-step rung is not reached by these recipes: it
//! passes only where the ladder's rounding puts an estimate under the
//! tolerance that the batch's own evaluation at the same step put over
//! it, and a scan of 1,440 starved-basis runs (two seeds, six `m_max`,
//! forty tolerances, three kinds) found no such step.

use matex_circuit::{parse_netlist, MnaSystem, PdnBuilder};
use matex_core::{
    KrylovKind, MatexOptions, MatexSetup, MatexSolver, SmwOptions, TransientEngine, TransientSpec,
};
use matex_waveform::SpotSet;
use std::sync::Arc;

/// The hash and the exact counts a run is pinned to.
#[derive(Debug, PartialEq)]
struct Pin {
    hash: u64,
    steps: usize,
    substeps: usize,
    expm_evals: usize,
    krylov_bases: usize,
    krylov_dim_sum: usize,
    substitution_pairs: usize,
    best_effort_steps: usize,
}

/// A run that succeeds with the waveform hash `hash` and the counts
/// `[steps, substeps, expm_evals, krylov_bases, krylov_dim_sum,
/// substitution_pairs, best_effort_steps]`.
fn ok(hash: u64, counts: [usize; 7]) -> Result<Pin, &'static str> {
    let [steps, substeps, expm_evals, krylov_bases, krylov_dim_sum, substitution_pairs, best_effort_steps] =
        counts;
    Ok(Pin {
        hash,
        steps,
        substeps,
        expm_evals,
        krylov_bases,
        krylov_dim_sum,
        substitution_pairs,
        best_effort_steps,
    })
}

const KINDS: [KrylovKind; 3] = [
    KrylovKind::Rational,
    KrylovKind::Inverted,
    KrylovKind::Standard,
];

/// Runs `solver` and reduces the outcome to its pin, or to the error's
/// message.
fn pin(solver: MatexSolver, sys: &MnaSystem, spec: &TransientSpec) -> Result<Pin, String> {
    let run = solver.run(sys, spec).map_err(|e| e.to_string())?;
    // FNV-1a over the bits of every sample of every row, then of the
    // final state.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let rows = run.series().iter().map(Vec::as_slice);
    for v in rows.chain([run.final_state()]).flatten() {
        for b in v.to_bits().to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let s = &run.stats;
    Ok(Pin {
        hash,
        steps: s.steps,
        substeps: s.substeps,
        expm_evals: s.expm_evals,
        krylov_bases: s.krylov_bases,
        krylov_dim_sum: s.krylov_dim_sum,
        substitution_pairs: s.substitution_pairs,
        best_effort_steps: s.best_effort_steps,
    })
}

/// Checks the runs of R-MATEX, I-MATEX and MEXP, in that order,
/// against their pins; the failure message prints the runs' own pins.
fn check(
    expected: [Result<Pin, &str>; 3],
    sys: &MnaSystem,
    spec: &TransientSpec,
    solver: impl Fn(KrylovKind) -> MatexSolver,
) {
    let got = KINDS.map(|kind| pin(solver(kind), sys, spec));
    assert_eq!(got, expected.map(|want| want.map_err(str::to_string)));
}

/// A pulsed 4×4 RLC grid (pad inductors), so the bases are deep enough
/// for any change in the march to show in the last bits.
fn pulsed_grid() -> MnaSystem {
    PdnBuilder::new(4, 4)
        .num_loads(6)
        .num_features(3)
        .window(5e-10)
        .pad_inductance(1e-11)
        .build()
        .unwrap()
}

/// A 10×10 RLC grid with a wide capacitance spread: with a starved
/// basis budget its rejections sub-step.
fn stiff_grid() -> MnaSystem {
    PdnBuilder::new(10, 10)
        .num_loads(25)
        .num_features(4)
        .window(1e-8)
        .cap_spread(30.0)
        .seed(1003)
        .pad_inductance(1e-11)
        .build()
        .unwrap()
}

/// `m_max` 6: too small a basis to reach the tolerance over a window.
fn starved(kind: KrylovKind) -> MatexOptions {
    let mut opts = MatexOptions::new(kind).tol(1e-8);
    opts.expm.m_max = 6;
    opts
}

#[test]
fn a_pulsed_grid_at_default_options_is_pinned() {
    let spec = TransientSpec::new(0.0, 5e-10, 2.5e-11).unwrap();
    check(
        [
            ok(0x8f87_fbe7_a346_2f9d, [26, 0, 22, 11, 22, 30, 0]),
            ok(0xc95c_0b03_7e6c_0162, [26, 0, 22, 11, 22, 30, 0]),
            ok(0xed62_b6a0_caf2_e329, [26, 0, 22, 11, 231, 239, 0]),
        ],
        &pulsed_grid(),
        &spec,
        |kind| MatexSolver::new(MatexOptions::new(kind)),
    );
}

#[test]
fn constant_sources_are_steady_state_from_dc() {
    let text = "v1 in 0 1.8\nr1 in a 0.5\nr2 a b 2\nr3 b 0 40\n\
                c1 a 0 1pF\nc2 b 0 3pF\nl1 b c 1nH\nr4 c 0 25\ni1 a 0 2m\n";
    let sys = MnaSystem::assemble(&parse_netlist(text).unwrap().netlist).unwrap();
    let spec = TransientSpec::new(0.0, 1e-9, 1e-10).unwrap();
    check(
        [
            ok(0x844c_7ce3_fe4b_7e85, [10, 0, 0, 0, 0, 2, 0]),
            ok(0x844c_7ce3_fe4b_7e85, [10, 0, 0, 0, 0, 2, 0]),
            ok(0x844c_7ce3_fe4b_7e85, [10, 0, 0, 0, 0, 2, 0]),
        ],
        &sys,
        &spec,
        |kind| MatexSolver::new(MatexOptions::new(kind)),
    );
}

#[test]
fn a_starved_basis_sub_steps_and_is_pinned() {
    let spec = TransientSpec::new(0.0, 1e-8, 1e-10).unwrap();
    check(
        [
            ok(0xfc85_7c8d_380b_cf71, [114, 20, 155, 19, 112, 122, 16]),
            ok(0xc832_c214_aaf8_4165, [114, 21, 144, 20, 117, 127, 12]),
            Err(
                "march diverged at t = 1.667e-9, step 2.000e-11, basis dimension 2: \
                 krylov expm did not converge: estimate 5.363e9 > tol 1.984e-10 at m = 2 \
                 (try a larger m_max or a smaller dt_out)",
            ),
        ],
        &stiff_grid(),
        &spec,
        |kind| MatexSolver::new(starved(kind)),
    );
}

#[test]
fn an_exhausted_sub_step_budget_accepts_best_effort_and_is_pinned() {
    let spec = TransientSpec::new(0.0, 1e-8, 1e-10).unwrap();
    check(
        [
            ok(0x4054_ee38_5efd_b060, [114, 1, 118, 17, 101, 111, 16]),
            ok(0x2347_93e8_4c0c_067d, [114, 0, 121, 16, 96, 106, 20]),
            Err(
                "march diverged at t = 1.667e-9, step 2.000e-11, basis dimension 2: \
                 krylov expm did not converge: estimate 5.363e9 > tol 1.984e-10 at m = 2 \
                 (try a larger m_max or a smaller dt_out)",
            ),
        ],
        &stiff_grid(),
        &spec,
        |kind| {
            let mut opts = starved(kind);
            opts.max_substeps = 1;
            MatexSolver::new(opts)
        },
    );
}

#[test]
fn a_masked_node_with_an_lts_override_is_pinned() {
    let sys = pulsed_grid();
    let spec = TransientSpec::new(0.0, 5e-10, 2.5e-11).unwrap();
    // Two loads, as a distributed node would hold them; their own spots
    // plus one off the sample grid that no source transitions at.
    let members: Vec<usize> = (0..sys.num_sources())
        .filter(|&c| !sys.sources()[c].waveform.transition_spots(5e-10).is_empty())
        .take(2)
        .collect();
    assert_eq!(members.len(), 2);
    let mut spots: Vec<f64> = members
        .iter()
        .flat_map(|&c| sys.sources()[c].waveform.transition_spots(5e-10))
        .collect();
    spots.push(1.37e-10);
    let lts = SpotSet::from_times(spots);
    check(
        [
            ok(0xfc51_2ec3_d4d3_da14, [27, 0, 23, 9, 18, 23, 0]),
            ok(0x534e_880a_d9f5_7811, [27, 0, 23, 9, 18, 23, 0]),
            ok(0x7548_496a_2500_acd0, [27, 0, 23, 9, 189, 194, 0]),
        ],
        &sys,
        &spec,
        |kind| {
            MatexSolver::new(MatexOptions::new(kind))
                .with_source_mask(members.clone())
                .with_lts(lts.clone())
        },
    );
}

/// Runs each kind on `edited` (the pulsed grid with one value edit)
/// through a what-if setup: the unedited grid's preparation, corrected
/// for the edit by `MatexSetup::correct`.
fn check_whatif(expected: [Result<Pin, &str>; 3], edited: &MnaSystem) {
    let base = pulsed_grid();
    let diff = edited
        .value_diff(&base)
        .expect("a value edit keeps the pattern");
    let spec = TransientSpec::new(0.0, 5e-10, 2.5e-11).unwrap();
    check(expected, edited, &spec, |kind| {
        let opts = MatexOptions::new(kind);
        let setup = Arc::new(MatexSetup::prepare(&base, &opts, None, false).unwrap());
        let corrected = MatexSetup::correct(setup, &diff, &SmwOptions::default()).unwrap();
        MatexSolver::new(opts).with_setup(Arc::new(corrected))
    });
}

#[test]
fn a_cap_edit_through_a_corrected_setup_is_pinned() {
    let edited = pulsed_grid().with_cap_scaled(5, 3.0).unwrap();
    assert_eq!(edited.value_diff(&pulsed_grid()).unwrap().rank_g(), 0);
    check_whatif(
        [
            ok(0x9019_93c4_02da_d9f2, [26, 0, 22, 11, 22, 30, 0]),
            ok(0x8167_6ffc_7d69_16d1, [26, 0, 22, 11, 22, 30, 0]),
            ok(0xaeb8_073a_0eff_5cf9, [26, 0, 22, 11, 231, 239, 0]),
        ],
        &edited,
    );
}

#[test]
fn a_conductance_edit_through_a_corrected_setup_is_pinned() {
    let base = pulsed_grid();
    let row = |x, y| base.node_row(&PdnBuilder::node_name(1, x, y)).unwrap();
    let edited = base
        .with_conductance_delta(Some(row(1, 1)), Some(row(1, 2)), 0.4)
        .unwrap();
    assert!(edited.value_diff(&base).unwrap().rank_g() > 0);
    check_whatif(
        [
            ok(0x7f01_c6b8_889f_a7b3, [26, 0, 22, 11, 22, 30, 0]),
            ok(0x252d_26cc_355c_9d2d, [26, 0, 22, 11, 22, 30, 0]),
            ok(0x65f2_b914_3dfa_1fd8, [26, 0, 22, 11, 231, 239, 0]),
        ],
        &edited,
    );
}
