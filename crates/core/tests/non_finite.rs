//! A MATEX run never returns `Ok` with a non-finite sample.
//!
//! The circuit is an ideal 1.8 V source feeding a 10 pF node through a
//! resistor, with a 10 ps-edge current pulse on that node. The source's
//! algebraic rows leave rounding noise in the null space of `C` in the
//! Krylov start vector; on I-MATEX and R-MATEX the resulting spurious
//! Ritz value can blow the projected exponential up. Whatever the
//! numerics do, a run must either fail with a typed error or return
//! finite waveforms. MEXP has no such Ritz value and stays finite.

use matex_circuit::{parse_netlist, MnaSystem};
use matex_core::{
    CoreError, KrylovKind, MatexOptions, MatexSolver, TransientEngine, TransientSpec,
};

fn circuit(r1: &str, load_node: &str) -> MnaSystem {
    let text = format!(
        "v1 in 0 1.8\nr1 in out {r1}\nc1 out 0 10pF\ni1 {load_node} 0 PULSE(0 1m 0.1n 10p 10p 20p)\n"
    );
    MnaSystem::assemble(&parse_netlist(&text).unwrap().netlist).unwrap()
}

fn run(sys: &MnaSystem, kind: KrylovKind, dt_out: f64) -> Result<usize, CoreError> {
    let spec = TransientSpec::new(0.0, 2e-9, dt_out).unwrap();
    let result = MatexSolver::new(MatexOptions::new(kind)).run(sys, &spec)?;
    Ok(result
        .series()
        .iter()
        .flatten()
        .filter(|v| !v.is_finite())
        .count())
}

#[test]
fn ideal_source_with_fast_edges_never_returns_nan() {
    let cases = [
        circuit("1k", "out"),
        circuit("1", "out"),
        circuit("1k", "in"),
    ];
    for sys in &cases {
        for kind in [
            KrylovKind::Rational,
            KrylovKind::Inverted,
            KrylovKind::Standard,
        ] {
            for dt_out in [2e-11, 1e-11, 7e-12] {
                if let Ok(bad) = run(sys, kind, dt_out) {
                    assert_eq!(bad, 0, "{kind:?} at dt_out {dt_out:e} returned NaN samples");
                }
            }
        }
    }
}

#[test]
fn blown_up_state_is_a_typed_error() {
    let sys = circuit("1k", "out");
    for kind in [KrylovKind::Rational, KrylovKind::Inverted] {
        match run(&sys, kind, 2e-11) {
            Ok(bad) => assert_eq!(bad, 0),
            Err(e) => assert!(matches!(e, CoreError::NotFinite { .. }), "{kind:?}: {e}"),
        }
    }
    // MEXP works on a regularized `C` and stays finite on every grid.
    for dt_out in [2e-11, 1e-11, 7e-12] {
        assert_eq!(run(&sys, KrylovKind::Standard, dt_out).unwrap(), 0);
    }
}
