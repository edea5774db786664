//! Metamorphic check of the march's input columns: a run whose loads are
//! `PULSE`s takes its input terms from per-shape columns solved once per
//! run, while the same circuit with every pulse rewritten as its
//! equivalent `PWL` solves them per window. Both must give the same
//! waveform to 1e-9 V and the same march (steps, Krylov bases, small
//! exponentials), for every Krylov kind, monolithic and distributed; and
//! the pulse side must spend exactly `Arnoldi + DC + 1 + 2·classes`
//! substitution pairs.

use matex_circuit::{MnaSystem, PdnBuilder};
use matex_core::{
    KrylovKind, MatexOptions, MatexSolver, SolveStats, TransientEngine, TransientResult,
    TransientSpec,
};
use matex_dist::{run_distributed, DistributedOptions};
use matex_waveform::{FeatureKey, Pulse, Pwl, Waveform};
use std::collections::HashSet;

const KINDS: [KrylovKind; 3] = [
    KrylovKind::Rational,
    KrylovKind::Inverted,
    KrylovKind::Standard,
];

/// A 5×5 RLC grid (pad inductors) with ten loads over three bump
/// features, every feature's edges inside `[0, 1 ns]`.
fn grid(seed: u64, features: usize) -> MnaSystem {
    PdnBuilder::new(5, 5)
        .num_loads(10)
        .num_features(features)
        .window(1e-9)
        .pad_inductance(1e-11)
        .seed(seed)
        .build()
        .unwrap()
}

/// The one-shot pulse `p` as a PWL with a breakpoint at each of its
/// transition spots, computed as [`Pulse::transition_spots`] does.
fn pwl_of(p: &Pulse) -> Pwl {
    assert!(p.t_period.is_none(), "one-shot pulses only");
    let edges = [
        (0.0, p.v1),
        (p.t_rise, p.v2),
        (p.t_rise + p.t_width, p.v2),
        (p.t_rise + p.t_width + p.t_fall, p.v1),
    ];
    let mut points: Vec<(f64, f64)> = Vec::new();
    for (dt, v) in edges {
        let t = p.t_delay + dt;
        if points.last().is_none_or(|&(last, _)| t > last) {
            points.push((t, v));
        }
    }
    Pwl::new(points).unwrap()
}

/// `sys` with every non-constant `PULSE` source rewritten as its PWL.
fn as_pwl(sys: &MnaSystem) -> MnaSystem {
    let waveforms = sys
        .source_waveforms()
        .into_iter()
        .map(|w| match &w {
            Waveform::Pulse(p) if !w.is_constant() => Waveform::Pwl(pwl_of(p)),
            _ => w,
        })
        .collect();
    sys.with_source_waveforms(waveforms).unwrap()
}

/// Distinct bump classes among the system's sources.
fn classes(sys: &MnaSystem) -> usize {
    sys.sources()
        .iter()
        .map(|s| FeatureKey::of(&s.waveform))
        .filter(|k| matches!(k, FeatureKey::Bump(_)))
        .collect::<HashSet<_>>()
        .len()
}

fn max_abs_diff(a: &TransientResult, b: &TransientResult) -> f64 {
    let rows = a.series().iter().flatten().zip(b.series().iter().flatten());
    let finals = a.final_state().iter().zip(b.final_state());
    rows.chain(finals)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// The march is the same: every count but the substitution pairs.
fn same_march(pulse: &SolveStats, pwl: &SolveStats, what: &str) {
    assert_eq!(pulse.steps, pwl.steps, "{what}: steps");
    assert_eq!(pulse.krylov_bases, pwl.krylov_bases, "{what}: bases");
    assert_eq!(pulse.expm_evals, pwl.expm_evals, "{what}: expm");
}

fn spec() -> TransientSpec {
    TransientSpec::new(0.0, 1e-9, 2.5e-11).unwrap()
}

#[test]
fn monolithic_columns_match_the_per_window_path() {
    for seed in [11, 29] {
        let sys = grid(seed, 3);
        let pwl = as_pwl(&sys);
        for kind in KINDS {
            let what = format!("seed {seed}, {kind:?}");
            let run = |sys: &MnaSystem| {
                MatexSolver::new(MatexOptions::new(kind))
                    .run(sys, &spec())
                    .unwrap()
            };
            let (a, b) = (run(&sys), run(&pwl));
            let d = max_abs_diff(&a, &b);
            assert!(d <= 1e-9, "{what}: max |Δv| {d:e}");
            same_march(&a.stats, &b.stats, &what);
            // Every basis converges at the dimension it stops at, so its
            // Arnoldi solves are its dimension. Then one DC solve, g₀,
            // and two columns per class.
            let arnoldi = a.stats.krylov_dim_sum;
            let k = classes(&sys);
            assert_eq!(k, 3, "{what}");
            assert_eq!(
                a.stats.substitution_pairs,
                arnoldi + 1 + 1 + 2 * k,
                "{what}"
            );
            // The PWL side solves per window instead.
            assert!(b.stats.substitution_pairs > a.stats.substitution_pairs);
        }
    }
}

#[test]
fn distributed_columns_match_the_per_window_path() {
    for seed in [11, 29] {
        let sys = grid(seed, 3);
        let pwl = as_pwl(&sys);
        for kind in KINDS {
            let what = format!("seed {seed}, {kind:?}");
            let opts = DistributedOptions {
                matex: MatexOptions::new(kind),
                workers: Some(2),
                ..DistributedOptions::default()
            };
            let a = run_distributed(&sys, &spec(), &opts).unwrap();
            let b = run_distributed(&pwl, &spec(), &opts).unwrap();
            let d = max_abs_diff(&a.result, &b.result);
            assert!(d <= 1e-9, "{what}: max |Δv| {d:e}");
            assert_eq!(a.nodes.len(), b.nodes.len(), "{what}");
            for (na, nb) in a.nodes.iter().zip(&b.nodes) {
                let node = format!("{what}, group {}", na.group);
                assert_eq!(na.group, nb.group, "{node}");
                same_march(&na.stats, &nb.stats, &node);
                // Group 0 holds the supplies: its constant column g₀.
                // A feature group holds one class, and its loads start
                // at zero, so its b₀ is zero and has no solve.
                let (g0, k) = if na.group == 0 { (1, 0) } else { (0, 1) };
                let arnoldi = na.stats.krylov_dim_sum;
                assert_eq!(
                    na.stats.substitution_pairs,
                    arnoldi + 1 + g0 + 2 * k,
                    "{node}"
                );
            }
        }
    }
}

#[test]
fn a_run_starting_on_a_plateau_builds_one_basis_from_rounding_noise() {
    // One feature: delay 1/3 ns, 20 ps edges, 100 ps wide, so the run
    // starts on the plateau and the fall lies inside it. The per-window
    // path's `q0` is the DC solve itself, so its first window is steady
    // state (`x + F = 0`). The columns' `q0 = g₀ + g_k` rounds
    // differently from that solve of the sum, so the pulse side builds a
    // basis from the difference, and still lands within 1e-9 V.
    let sys = grid(11, 1);
    let pwl = as_pwl(&sys);
    let spec = TransientSpec::new(4e-10, 1e-9, 2.5e-11).unwrap();
    for kind in KINDS {
        let run = |sys: &MnaSystem| {
            MatexSolver::new(MatexOptions::new(kind))
                .run(sys, &spec)
                .unwrap()
        };
        let (a, b) = (run(&sys), run(&pwl));
        let d = max_abs_diff(&a, &b);
        assert!(d <= 1e-9, "{kind:?}: max |Δv| {d:e}");
        assert_eq!(a.stats.steps, b.stats.steps, "{kind:?}");
        assert_eq!(
            (a.stats.krylov_bases, b.stats.krylov_bases),
            (3, 2),
            "{kind:?}"
        );
    }
}
