//! The output grid: one rule in `TransientSpec`, and every engine
//! filling every sample of it.
//!
//! The grid checks march nothing. The engine checks run all six engines
//! (three Krylov kinds, fixed-step TR and BE, adaptive TR) on specs whose
//! grids once held a near-duplicate last sample.

use matex_circuit::{MnaSystem, Netlist, PdnBuilder};
use matex_core::{
    reference_solution, BackwardEuler, KrylovKind, MatexOptions, MatexSolver, ReferenceMethod,
    TransientEngine, TransientSpec, Trapezoidal, TrapezoidalAdaptive,
};
use matex_waveform::{Pulse, Waveform};
use proptest::prelude::*;

/// The grid rule before the integer count, kept as the oracle: step from
/// `t_start` while short of `t_stop` by more than `1e-12·dt_out`, then
/// append `t_stop`.
fn legacy_sample_times(t_start: f64, t_stop: f64, dt_out: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut k = 0usize;
    loop {
        let t = t_start + k as f64 * dt_out;
        if t >= t_stop - 1e-12 * dt_out {
            break;
        }
        out.push(t);
        k += 1;
    }
    out.push(t_stop);
    out
}

/// Checks the grid of one spec: it starts at `t_start`, ends at `t_stop`,
/// every gap is at least `1e-9·dt_out` (so it strictly increases), and
/// wherever the oracle's last interval is at least `1e-6·dt_out` the two
/// grids are bitwise equal. Returns the sample count.
fn check_grid(t_start: f64, t_stop: f64, dt_out: f64) -> usize {
    let case = format!("[{t_start:e}, {t_stop:e}] at {dt_out:e}");
    let grid = TransientSpec::new(t_start, t_stop, dt_out)
        .unwrap_or_else(|e| panic!("{case}: {e}"))
        .sample_times();
    assert!(grid.len() >= 2, "{case}");
    assert_eq!(grid[0].to_bits(), t_start.to_bits(), "{case}");
    assert_eq!(grid[grid.len() - 1].to_bits(), t_stop.to_bits(), "{case}");
    for (k, w) in grid.windows(2).enumerate() {
        assert!(
            w[1] - w[0] >= 1e-9 * dt_out,
            "{case}: gap {:e} after sample {k}",
            w[1] - w[0]
        );
    }
    let legacy = legacy_sample_times(t_start, t_stop, dt_out);
    let n = legacy.len();
    if n < 2 || legacy[n - 1] - legacy[n - 2] >= 1e-6 * dt_out {
        assert_eq!(grid.len(), n, "{case}: sample count moved");
        for (k, (a, b)) in grid.iter().zip(&legacy).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{case}: sample {k} moved");
        }
    }
    grid.len()
}

/// Parses a decimal literal, the way a spec arrives in text.
fn dec(s: String) -> f64 {
    s.parse().expect("decimal literal")
}

#[test]
fn named_grids_count_their_samples() {
    // Each of these once held a near-duplicate last sample.
    assert_eq!(check_grid(3e-8, 3.0015e-8, 3e-12), 6);
    assert_eq!(check_grid(1e-9, 2e-8, 1e-12), 19_001);
    assert_eq!(check_grid(0.0, 1e-5, 1e-11), 1_000_001);
    // The benchmark's solver and serve grids.
    assert_eq!(check_grid(0.0, 1e-8, 1e-8 / 100.0), 101);
    assert_eq!(check_grid(0.0, 1e-8, 1e-8 / 2000.0), 2001);
    for samples in [40, 100, 400] {
        let dt: f64 = dec(format!("{:e}", 2e-9 / samples as f64));
        assert_eq!(check_grid(0.0, dec(format!("{:e}", 2e-9)), dt), samples + 1);
    }
    // `t_start + 539·dt_out` rounds onto `t_stop`: a sliver, absorbed.
    assert_eq!(check_grid(5.291e-6, 5.29103773e-6, 7e-14), 540);
    // A ragged last interval stays; a sliver of it is absorbed.
    assert_eq!(check_grid(0.0, 0.9, 0.4), 4);
    assert_eq!(check_grid(0.0, 1.0 + 1e-10, 0.25), 5);
}

const MANTISSAS: [f64; 6] = [1.0, 2.0, 2.5, 3.0, 5.0, 7.0];

/// One random grid: a non-zero start (unless `shape` is 0), about
/// `10^log_count` intervals of `dt`, and a stop of the given shape.
#[allow(clippy::too_many_arguments)]
fn check_random_grid(
    shape: usize,
    dt_mantissa: usize,
    dt_exp: usize,
    log_count: f64,
    start_mantissa: f64,
    start_exp: usize,
    frac: f64,
) {
    let dt = dec(format!("{}e-{dt_exp}", MANTISSAS[dt_mantissa]));
    let count = 10f64.powf(log_count).floor();
    let t_start = match shape {
        0 => 0.0,
        _ => dec(format!("{start_mantissa:.3}e-{start_exp}")),
    };
    let t_stop = match shape {
        // Power-of-ten ratio, both ends decimal: [0, 10^a·dt].
        0 => dec(format!(
            "{}e-{}",
            MANTISSAS[dt_mantissa],
            dt_exp - log_count as usize
        )),
        // A whole number of intervals, summed in floating point.
        1 => t_start + count * dt,
        // A ragged last interval.
        2 => t_start + (count + frac) * dt,
        // A decimal stop with five significant digits.
        _ => dec(format!("{:.4e}", t_start + (count + frac) * dt)),
    };
    if t_stop > t_start {
        check_grid(t_start, t_stop, dt);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Counts up to 10⁴.
    #[test]
    fn small_grids_increase_end_on_t_stop_and_keep_the_old_samples(
        shape in 0usize..4,
        dt_mantissa in 0usize..6,
        dt_exp in 9usize..15,
        log_count in 0.0..4.0_f64,
        start_mantissa in 1.0..10.0_f64,
        start_exp in 6usize..14,
        frac in 0.0..1.0_f64,
    ) {
        check_random_grid(shape, dt_mantissa, dt_exp, log_count, start_mantissa, start_exp, frac);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Counts from 10⁴ up to 10⁷.
    #[test]
    fn large_grids_increase_end_on_t_stop_and_keep_the_old_samples(
        shape in 0usize..4,
        dt_mantissa in 0usize..6,
        dt_exp in 9usize..15,
        log_count in 4.0..7.0_f64,
        start_mantissa in 1.0..10.0_f64,
        start_exp in 6usize..14,
        frac in 0.0..1.0_f64,
    ) {
        check_random_grid(shape, dt_mantissa, dt_exp, log_count, start_mantissa, start_exp, frac);
    }
}

/// A 2-node RC driven by a current pulse that starts rising at `delay`,
/// with rise, width and fall all `ramp` long.
fn pulsed_rc(delay: f64, ramp: f64) -> MnaSystem {
    let mut nl = Netlist::new();
    let a = nl.node("a");
    let b = nl.node("b");
    let p = Pulse::new(0.0, 1e-3, delay, ramp, ramp, ramp).unwrap();
    nl.add_isource("i", Netlist::ground(), a, Waveform::Pulse(p))
        .unwrap();
    nl.add_resistor("r1", a, b, 500.0).unwrap();
    nl.add_resistor("r2", b, Netlist::ground(), 500.0).unwrap();
    nl.add_capacitor("ca", a, Netlist::ground(), 1e-15).unwrap();
    nl.add_capacitor("cb", b, Netlist::ground(), 2e-15).unwrap();
    MnaSystem::assemble(&nl).unwrap()
}

/// The six engines; the fixed-step ones take `steps_per_sample` steps
/// per output sample.
fn six_engines(spec: &TransientSpec, steps_per_sample: f64) -> Vec<Box<dyn TransientEngine>> {
    let h = spec.dt_out() / steps_per_sample;
    vec![
        Box::new(MatexSolver::new(MatexOptions::new(KrylovKind::Rational))),
        Box::new(MatexSolver::new(MatexOptions::new(KrylovKind::Inverted))),
        Box::new(MatexSolver::new(MatexOptions::new(KrylovKind::Standard))),
        Box::new(Trapezoidal::new(h)),
        Box::new(BackwardEuler::new(h)),
        Box::new(TrapezoidalAdaptive::new(1e-6, h)),
    ]
}

/// Runs every engine and checks it returns `Ok` on the spec's own grid.
fn every_engine_fills(
    sys: &MnaSystem,
    spec: &TransientSpec,
    steps_per_sample: f64,
    samples: usize,
) {
    let grid = spec.sample_times();
    assert_eq!(grid.len(), samples);
    for engine in six_engines(spec, steps_per_sample) {
        let r = engine
            .run(sys, spec)
            .unwrap_or_else(|e| panic!("{}: {e}", engine.name()));
        assert_eq!(r.num_time_points(), samples, "{}", engine.name());
        assert_eq!(r.times(), &grid[..], "{}", engine.name());
        for s in r.series() {
            assert!(s.iter().all(|v| v.is_finite()), "{}", engine.name());
        }
    }
}

#[test]
fn seven_sample_spec_gives_six_samples_on_every_engine() {
    // Edges at 3.0003e-8 (on sample 1) and between samples after it.
    let sys = pulsed_rc(3.0003e-8, 2e-13);
    let spec = TransientSpec::new(3e-8, 3.0015e-8, 3e-12).unwrap();
    every_engine_fills(&sys, &spec, 4.0, 6);
}

#[test]
fn nineteen_thousand_sample_spec_fills_on_every_engine() {
    let sys = pulsed_rc(5e-9, 1e-10);
    let spec = TransientSpec::new(1e-9, 2e-8, 1e-12)
        .unwrap()
        .observing(vec![0]);
    every_engine_fills(&sys, &spec, 4.0, 19_001);
}

#[test]
fn reference_trapezoidal_on_the_dense_grid_takes_no_sliver_step() {
    // `march_dense`'s grid and reference: 2,000 samples over 10 ns at
    // four TR steps per sample. The accumulated time ends a hair short
    // of `t_stop`; that hair is not a step of its own, so there is no
    // refactorization at a sliver-sized h.
    let sys = pulsed_rc(2e-9, 1e-10);
    let spec = TransientSpec::new(0.0, 1e-8, 1e-8 / 2000.0).unwrap();
    let r = reference_solution(&sys, &spec, ReferenceMethod::Trapezoidal, 4).unwrap();
    assert_eq!(r.num_time_points(), 2001);
    assert_eq!(r.stats.steps, 8000);
    assert_eq!(r.stats.factorizations, 2);
}

#[test]
fn ragged_last_step_refactors_once() {
    let sys = pulsed_rc(2e-10, 1e-10);
    let spec = TransientSpec::new(0.0, 1.055e-9, 1e-10).unwrap();
    for r in [
        Trapezoidal::new(1e-11).run(&sys, &spec).unwrap(),
        BackwardEuler::new(1e-11).run(&sys, &spec).unwrap(),
    ] {
        assert_eq!(r.num_time_points(), 12);
        assert_eq!(r.stats.steps, 106);
        assert_eq!(r.stats.factorizations, 3);
    }
}

/// The million-sample grid on a 12×12 PDN: 1,000,001 samples on every
/// engine. Slow in a debug build; run it with `--release -- --ignored`.
#[test]
#[ignore]
fn million_sample_pdn_fills_on_every_engine() {
    let sys = PdnBuilder::new(12, 12)
        .num_loads(18)
        .num_features(3)
        .window(1e-5)
        .seed(1)
        .build()
        .unwrap();
    let spec = TransientSpec::new(0.0, 1e-5, 1e-11)
        .unwrap()
        .observing(vec![0, sys.dim() / 2]);
    every_engine_fills(&sys, &spec, 1.0, 1_000_001);
}
