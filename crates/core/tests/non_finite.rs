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

/// Every recipe (load on `out` behind 1 kΩ or 1 Ω, or on the source
/// node itself), kind and output step, with the run's outcome.
fn outcomes() -> Vec<(String, Result<usize, CoreError>)> {
    let mut out = Vec::new();
    for (r1, node) in [("1k", "out"), ("1", "out"), ("1k", "in")] {
        let sys = circuit(r1, node);
        for kind in [
            KrylovKind::Rational,
            KrylovKind::Inverted,
            KrylovKind::Standard,
        ] {
            for dt_out in [2e-11, 1e-11, 7e-12] {
                let case = format!("r1 = {r1}, load on {node}, {kind:?} at dt_out {dt_out:e}");
                out.push((case, run(&sys, kind, dt_out)));
            }
        }
    }
    out
}

#[test]
fn ideal_source_with_fast_edges_never_returns_nan() {
    for (case, outcome) in outcomes() {
        if let Ok(bad) = outcome {
            assert_eq!(bad, 0, "{case} returned NaN samples");
        }
    }
}

#[test]
fn blown_up_state_is_a_typed_error() {
    // A run that blows up says so — non-finite state, or a divergence
    // naming t, the step and the basis — never a bare kernel error.
    for (case, outcome) in outcomes() {
        if let Err(e) = outcome {
            let typed = matches!(e, CoreError::NotFinite { .. } | CoreError::Diverged { .. });
            assert!(typed, "{case}: {e}");
        }
    }
    // MEXP works on a regularized `C` and stays finite on every grid.
    let sys = circuit("1k", "out");
    for dt_out in [2e-11, 1e-11, 7e-12] {
        assert_eq!(run(&sys, KrylovKind::Standard, dt_out).unwrap(), 0);
    }
}
