//! Netlist container and builder API.

use crate::{CircuitError, Element, Node, SourceKind};
use matex_waveform::Waveform;
use std::collections::HashMap;

/// A linear circuit netlist: named nodes plus R/C/L/V/I elements.
///
/// # Example
///
/// ```
/// use matex_circuit::Netlist;
/// use matex_waveform::Waveform;
///
/// # fn main() -> Result<(), matex_circuit::CircuitError> {
/// let mut nl = Netlist::new();
/// let vdd = nl.node("vdd");
/// let out = nl.node("out");
/// nl.add_vsource("vs", vdd, Netlist::ground(), Waveform::Dc(1.8))?;
/// nl.add_resistor("r1", vdd, out, 100.0)?;
/// nl.add_resistor("r2", out, Netlist::ground(), 100.0)?;
/// assert_eq!(nl.num_nodes(), 2);
/// assert_eq!(nl.num_elements(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    node_names: Vec<String>, // index 0 unused (ground)
    node_index: HashMap<String, Node>,
    elements: Vec<Element>,
}

impl Netlist {
    /// An empty netlist.
    pub fn new() -> Self {
        Netlist {
            node_names: vec!["0".to_string()],
            node_index: HashMap::new(),
            elements: Vec::new(),
        }
    }

    /// The ground (reference) node.
    pub fn ground() -> Node {
        Node::GROUND
    }

    /// Returns the node with the given name, creating it if needed.
    ///
    /// The names `"0"`, `"gnd"` and `"gnd!"` (case-insensitive) alias
    /// ground.
    pub fn node(&mut self, name: &str) -> Node {
        let lower = name.to_ascii_lowercase();
        if lower == "0" || lower == "gnd" || lower == "gnd!" {
            return Node::GROUND;
        }
        if let Some(&n) = self.node_index.get(&lower) {
            return n;
        }
        let n = Node(self.node_names.len() as u32);
        self.node_names.push(lower.clone());
        self.node_index.insert(lower, n);
        n
    }

    /// Name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to this netlist.
    pub fn node_name(&self, n: Node) -> &str {
        &self.node_names[n.0 as usize]
    }

    /// Number of non-ground nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_names.len() - 1
    }

    /// Number of elements.
    pub fn num_elements(&self) -> usize {
        self.elements.len()
    }

    /// The elements in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Iterator over `(column, kind, waveform)` of every independent
    /// source, in B-matrix column order.
    pub fn sources(&self) -> impl Iterator<Item = (usize, SourceKind, &Waveform)> {
        self.elements
            .iter()
            .filter_map(|e| match e {
                Element::VSource { waveform, .. } => Some((SourceKind::Voltage, waveform)),
                Element::ISource { waveform, .. } => Some((SourceKind::Current, waveform)),
                _ => None,
            })
            .enumerate()
            .map(|(i, (k, w))| (i, k, w))
    }

    /// Number of independent sources.
    pub fn num_sources(&self) -> usize {
        self.elements.iter().filter(|e| e.is_source()).count()
    }

    fn check_node(&self, n: Node) -> Result<(), CircuitError> {
        if (n.0 as usize) < self.node_names.len() {
            Ok(())
        } else {
            Err(CircuitError::InvalidNetlist(format!(
                "node handle {} does not belong to this netlist",
                n.0
            )))
        }
    }

    fn check_value(name: &str, what: &str, v: f64) -> Result<(), CircuitError> {
        if !v.is_finite() || v <= 0.0 {
            return Err(CircuitError::InvalidElement(format!(
                "{name}: {what} must be positive and finite, got {v}"
            )));
        }
        Ok(())
    }

    /// Adds a resistor.
    ///
    /// # Errors
    ///
    /// Rejects non-positive/non-finite resistance, foreign node handles,
    /// and elements with both terminals on the same node.
    pub fn add_resistor(
        &mut self,
        name: &str,
        a: Node,
        b: Node,
        ohms: f64,
    ) -> Result<(), CircuitError> {
        self.check_node(a)?;
        self.check_node(b)?;
        Self::check_value(name, "resistance", ohms)?;
        if a == b {
            return Err(CircuitError::InvalidElement(format!(
                "{name}: both terminals on the same node"
            )));
        }
        self.elements.push(Element::Resistor {
            name: name.to_string(),
            a,
            b,
            ohms,
        });
        Ok(())
    }

    /// Adds a capacitor.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Netlist::add_resistor`].
    pub fn add_capacitor(
        &mut self,
        name: &str,
        a: Node,
        b: Node,
        farads: f64,
    ) -> Result<(), CircuitError> {
        self.check_node(a)?;
        self.check_node(b)?;
        Self::check_value(name, "capacitance", farads)?;
        if a == b {
            return Err(CircuitError::InvalidElement(format!(
                "{name}: both terminals on the same node"
            )));
        }
        self.elements.push(Element::Capacitor {
            name: name.to_string(),
            a,
            b,
            farads,
        });
        Ok(())
    }

    /// Adds an inductor (introduces one branch-current unknown).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Netlist::add_resistor`].
    pub fn add_inductor(
        &mut self,
        name: &str,
        a: Node,
        b: Node,
        henries: f64,
    ) -> Result<(), CircuitError> {
        self.check_node(a)?;
        self.check_node(b)?;
        Self::check_value(name, "inductance", henries)?;
        if a == b {
            return Err(CircuitError::InvalidElement(format!(
                "{name}: both terminals on the same node"
            )));
        }
        self.elements.push(Element::Inductor {
            name: name.to_string(),
            a,
            b,
            henries,
        });
        Ok(())
    }

    /// Adds an independent voltage source (introduces one branch-current
    /// unknown).
    ///
    /// # Errors
    ///
    /// Rejects foreign node handles and shorted terminals.
    pub fn add_vsource(
        &mut self,
        name: &str,
        pos: Node,
        neg: Node,
        waveform: Waveform,
    ) -> Result<(), CircuitError> {
        self.check_node(pos)?;
        self.check_node(neg)?;
        if pos == neg {
            return Err(CircuitError::InvalidElement(format!(
                "{name}: both terminals on the same node"
            )));
        }
        self.elements.push(Element::VSource {
            name: name.to_string(),
            pos,
            neg,
            waveform,
        });
        Ok(())
    }

    /// Adds an independent current source driving conventional current
    /// from `from` through the source into `to`.
    ///
    /// # Errors
    ///
    /// Rejects foreign node handles and shorted terminals.
    pub fn add_isource(
        &mut self,
        name: &str,
        from: Node,
        to: Node,
        waveform: Waveform,
    ) -> Result<(), CircuitError> {
        self.check_node(from)?;
        self.check_node(to)?;
        if from == to {
            return Err(CircuitError::InvalidElement(format!(
                "{name}: both terminals on the same node"
            )));
        }
        self.elements.push(Element::ISource {
            name: name.to_string(),
            from,
            to,
            waveform,
        });
        Ok(())
    }

    /// All node names except ground, in index order.
    pub fn node_names(&self) -> impl Iterator<Item = &str> {
        self.node_names.iter().skip(1).map(|s| s.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_interning_and_aliases() {
        let mut nl = Netlist::new();
        let a = nl.node("A");
        let a2 = nl.node("a");
        assert_eq!(a, a2);
        assert_eq!(nl.node("GND"), Node::GROUND);
        assert_eq!(nl.node("0"), Node::GROUND);
        assert_eq!(nl.num_nodes(), 1);
        assert_eq!(nl.node_name(a), "a");
    }

    #[test]
    fn rejects_bad_values() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        assert!(nl.add_resistor("r", a, Node::GROUND, 0.0).is_err());
        assert!(nl.add_capacitor("c", a, Node::GROUND, -1e-12).is_err());
        assert!(nl.add_inductor("l", a, Node::GROUND, f64::NAN).is_err());
        assert!(nl.add_resistor("r", a, a, 1.0).is_err());
        assert_eq!(nl.num_elements(), 0);
    }

    #[test]
    fn rejects_foreign_node() {
        let mut nl = Netlist::new();
        let _ = nl.node("a");
        let foreign = Node(42);
        assert!(nl.add_resistor("r", foreign, Node::GROUND, 1.0).is_err());
    }

    #[test]
    fn sources_enumerated_in_order() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.add_isource("i1", a, Node::GROUND, Waveform::Dc(1.0))
            .unwrap();
        nl.add_resistor("r", a, b, 5.0).unwrap();
        nl.add_vsource("v1", b, Node::GROUND, Waveform::Dc(2.0))
            .unwrap();
        let kinds: Vec<SourceKind> = nl.sources().map(|(_, k, _)| k).collect();
        assert_eq!(kinds, vec![SourceKind::Current, SourceKind::Voltage]);
        assert_eq!(nl.num_sources(), 2);
    }
}
