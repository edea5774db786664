//! DC operating-point analysis.

use crate::{CircuitError, MnaSystem};
use matex_sparse::{LuOptions, SparseError, SparseLu};

/// Computes the DC operating point `x(0)`: the solution of
/// `G x = B u(0)` (capacitors open, inductors short).
///
/// The result is the initial condition for every transient engine, and the
/// `DC(s)` column of the paper's Table 2.
///
/// # Errors
///
/// * [`CircuitError::SingularSystem`] when `G` is singular (a node with no
///   DC path to ground, or a loop of voltage sources).
/// * Propagates other solver failures as [`CircuitError::Solver`].
///
/// # Example
///
/// ```
/// use matex_circuit::{dc_operating_point, MnaSystem, Netlist};
/// use matex_waveform::Waveform;
///
/// # fn main() -> Result<(), matex_circuit::CircuitError> {
/// let mut nl = Netlist::new();
/// let a = nl.node("a");
/// nl.add_isource("i", Netlist::ground(), a, Waveform::Dc(2.0))?;
/// nl.add_resistor("r", a, Netlist::ground(), 3.0)?;
/// let sys = MnaSystem::assemble(&nl)?;
/// let x0 = dc_operating_point(&sys)?;
/// assert!((x0[0] - 6.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn dc_operating_point(sys: &MnaSystem) -> Result<Vec<f64>, CircuitError> {
    let lu = SparseLu::factor(sys.g(), &LuOptions::default()).map_err(|e| match e {
        SparseError::Singular { column } => CircuitError::SingularSystem(format!(
            "G is singular at pivot column {column}; check for nodes with no DC path to ground"
        )),
        other => CircuitError::Solver(other),
    })?;
    Ok(lu.solve(&sys.bu_at(0.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Netlist;
    use matex_waveform::Waveform;

    #[test]
    fn series_resistors_with_vsource() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.add_vsource("v", a, Netlist::ground(), Waveform::Dc(10.0))
            .unwrap();
        nl.add_resistor("r1", a, b, 6.0).unwrap();
        nl.add_resistor("r2", b, Netlist::ground(), 4.0).unwrap();
        let sys = MnaSystem::assemble(&nl).unwrap();
        let x = dc_operating_point(&sys).unwrap();
        assert!((x[sys.node_row("b").unwrap()] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn floating_node_is_singular() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.add_resistor("r1", a, Netlist::ground(), 1.0).unwrap();
        // b connects only via a capacitor: no DC path.
        nl.add_capacitor("c", b, Netlist::ground(), 1e-12).unwrap();
        nl.add_isource("i", Netlist::ground(), a, Waveform::Dc(1.0))
            .unwrap();
        let sys = MnaSystem::assemble(&nl).unwrap();
        match dc_operating_point(&sys) {
            Err(CircuitError::SingularSystem(_)) => {}
            other => panic!("expected singular system, got {other:?}"),
        }
    }

    #[test]
    fn pulse_source_uses_initial_value() {
        use matex_waveform::Pulse;
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let p = Pulse::new(0.5, 2.0, 1.0, 0.1, 1.0, 0.1).unwrap();
        nl.add_isource("i", Netlist::ground(), a, Waveform::Pulse(p))
            .unwrap();
        nl.add_resistor("r", a, Netlist::ground(), 2.0).unwrap();
        let sys = MnaSystem::assemble(&nl).unwrap();
        let x = dc_operating_point(&sys).unwrap();
        // At t=0 the pulse still sits at v1 = 0.5 A -> 1.0 V.
        assert!((x[0] - 1.0).abs() < 1e-12);
    }
}
