//! Synthetic power-distribution-network generators.
//!
//! The IBM power grid benchmarks used in the paper are not redistributable,
//! so this module generates structurally equivalent workloads (see
//! DESIGN.md §2 for the substitution argument):
//!
//! * [`RcMeshBuilder`] — the stiff RC meshes of Table 1, with a prescribed
//!   spread of node time constants,
//! * [`PdnBuilder`] — IBM-like two-layer power grids for Tables 2–3: a fine
//!   mesh with decap and thousands of pulse loads sharing a small library
//!   of bump features, coarse straps, vias, and VDD pads.

use crate::{CircuitError, MnaSystem, Netlist};
use matex_waveform::{Pulse, Waveform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every `FAST_PERIOD`-th node of an [`RcMeshBuilder`] mesh (a quarter of
/// them) gets the fast (small) capacitance.
const FAST_PERIOD: usize = 4;

/// Every `DECAP_EVERY`-th fine-grid node of a [`PdnBuilder`] grid receives
/// a 30× decap cluster.
const DECAP_EVERY: usize = 23;

/// The [`PdnBuilder`] strap pitch: a layer-2 node every `STRAP_EVERY`
/// fine-grid points.
const STRAP_EVERY: usize = 4;

/// Builder for the stiff RC meshes of the paper's Table 1.
///
/// An `nx × ny` grid of nodes with resistors between neighbours, a
/// capacitor per node, and pad resistors to ground at the corners (so `G`
/// is nonsingular). Stiffness — the paper defines it as
/// `Re(λ_min)/Re(λ_max)` of `−C⁻¹G` — is injected by making a fraction of
/// the node capacitances smaller by `stiffness_ratio`: the mesh then mixes
/// fast and slow time constants exactly like the paper's "changing the
/// entries of C, G".
///
/// # Example
///
/// ```
/// use matex_circuit::RcMeshBuilder;
///
/// # fn main() -> Result<(), matex_circuit::CircuitError> {
/// let sys = RcMeshBuilder::new(4, 4).stiffness_ratio(1e8).build()?;
/// assert_eq!(sys.num_nodes(), 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RcMeshBuilder {
    nx: usize,
    ny: usize,
    r_ohms: f64,
    c_farads: f64,
    stiffness_ratio: f64,
    pad_ohms: f64,
}

impl RcMeshBuilder {
    /// A mesh with `nx × ny` nodes and default PDN-scale parameters
    /// (1 Ω segments, 1 fF node caps, 10 mΩ pads).
    pub fn new(nx: usize, ny: usize) -> Self {
        RcMeshBuilder {
            nx: nx.max(1),
            ny: ny.max(1),
            r_ohms: 1.0,
            c_farads: 1e-15,
            stiffness_ratio: 1.0,
            pad_ohms: 0.01,
        }
    }

    /// Sets the mesh segment resistance (ohms).
    pub fn segment_resistance(mut self, ohms: f64) -> Self {
        self.r_ohms = ohms;
        self
    }

    /// Sets the base node capacitance (farads).
    pub fn node_capacitance(mut self, farads: f64) -> Self {
        self.c_farads = farads;
        self
    }

    /// Sets the ratio between slow and fast node time constants
    /// (≥ 1; 1 = uniform mesh). The achieved stiffness of `−C⁻¹G` scales
    /// with this ratio times the mesh's intrinsic eigenvalue spread.
    pub fn stiffness_ratio(mut self, ratio: f64) -> Self {
        self.stiffness_ratio = ratio.max(1.0);
        self
    }

    /// Builds the netlist.
    ///
    /// # Errors
    ///
    /// Propagates element-construction failures (cannot occur for valid
    /// builder parameters).
    pub fn build_netlist(&self) -> Result<Netlist, CircuitError> {
        let mut nl = Netlist::new();
        let name = |x: usize, y: usize| format!("n1_{x}_{y}");
        // Nodes and caps. Deterministic fast/slow assignment.
        let ratio = self.stiffness_ratio.sqrt();
        for y in 0..self.ny {
            for x in 0..self.nx {
                let n = nl.node(&name(x, y));
                let fast = (x + y * self.nx) % FAST_PERIOD == FAST_PERIOD - 1;
                let c = if fast {
                    self.c_farads / ratio
                } else {
                    self.c_farads * ratio
                };
                nl.add_capacitor(&format!("c_{x}_{y}"), n, Netlist::ground(), c)?;
            }
        }
        // Mesh resistors.
        for y in 0..self.ny {
            for x in 0..self.nx {
                let n = nl.node(&name(x, y));
                if x + 1 < self.nx {
                    let e = nl.node(&name(x + 1, y));
                    nl.add_resistor(&format!("rh_{x}_{y}"), n, e, self.r_ohms)?;
                }
                if y + 1 < self.ny {
                    let s = nl.node(&name(x, y + 1));
                    nl.add_resistor(&format!("rv_{x}_{y}"), n, s, self.r_ohms)?;
                }
            }
        }
        // Pad resistors to ground at the corners keep G nonsingular.
        let corners = [
            (0, 0),
            (self.nx - 1, 0),
            (0, self.ny - 1),
            (self.nx - 1, self.ny - 1),
        ];
        for (i, &(x, y)) in corners.iter().enumerate() {
            let n = nl.node(&name(x, y));
            nl.add_resistor(&format!("rpad_{i}"), n, Netlist::ground(), self.pad_ohms)?;
        }
        // One pulse load at the center node.
        let n = nl.node(&name(self.nx / 2, self.ny / 2));
        let pulse = Pulse::new(0.0, 1e-3, 1e-11, 1e-11, 5e-11, 1e-11)?;
        nl.add_isource("iload_center", n, Netlist::ground(), Waveform::Pulse(pulse))?;
        Ok(nl)
    }

    /// Builds the assembled MNA system.
    ///
    /// # Errors
    ///
    /// As [`RcMeshBuilder::build_netlist`].
    pub fn build(&self) -> Result<MnaSystem, CircuitError> {
        MnaSystem::assemble(&self.build_netlist()?)
    }
}

/// Builder for IBM-like two-layer power grids (Tables 2–3 workloads).
///
/// Geometry:
///
/// * layer 1 (`n1_x_y`): fine `nx × ny` mesh, segment resistance
///   `r_wire`, per-node decap `c_node`, current-source loads,
/// * layer 2 (`n2_x_y`): straps every four grid points with a
///   quarter of the wire resistance, connected by `r_via` vias,
/// * VDD pads: voltage sources behind `r_pad` at the strap corners.
///
/// Loads are pulse sources whose timing parameters are drawn from a small
/// library of `num_features` bump shapes — the structure MATEX's grouping
/// exploits (paper Fig. 3, Table 3 "Group #").
#[derive(Debug, Clone)]
pub struct PdnBuilder {
    nx: usize,
    ny: usize,
    r_wire: f64,
    r_via: f64,
    r_pad: f64,
    c_node: f64,
    vdd: f64,
    num_loads: usize,
    num_features: usize,
    peak_range: (f64, f64),
    window: f64,
    seed: u64,
    cap_spread: f64,
    pad_inductance: Option<f64>,
}

impl PdnBuilder {
    /// A grid with `nx × ny` fine-mesh nodes and PDN-typical defaults
    /// (20 mΩ wires, 50 mΩ vias, 1.8 V, 10 fF decap, 10 ns window).
    pub fn new(nx: usize, ny: usize) -> Self {
        PdnBuilder {
            nx: nx.max(2),
            ny: ny.max(2),
            r_wire: 0.02,
            r_via: 0.05,
            r_pad: 0.005,
            c_node: 1e-14,
            vdd: 1.8,
            num_loads: (nx * ny / 16).max(1),
            num_features: 8,
            peak_range: (1e-4, 2e-3),
            window: 1e-8,
            seed: 42,
            cap_spread: 6.0,
            pad_inductance: None,
        }
    }

    /// Sets the log-uniform node-capacitance spread (≥ 1; 1 = uniform).
    /// Real grids mix thin-wire parasitics with decap cells across orders
    /// of magnitude — this is what makes them stiff.
    pub fn cap_spread(mut self, spread: f64) -> Self {
        self.cap_spread = spread.max(1.0);
        self
    }

    /// Adds package inductance in series with every VDD pad (makes `C`
    /// singular via the branch rows — the regularization-free path of
    /// Sec. 3.3.3 then matters).
    pub fn pad_inductance(mut self, henries: f64) -> Self {
        self.pad_inductance = Some(henries);
        self
    }

    /// Sets the number of current-source loads.
    pub fn num_loads(mut self, n: usize) -> Self {
        self.num_loads = n.max(1);
        self
    }

    /// Sets the number of distinct bump features (≈ MATEX groups).
    pub fn num_features(mut self, n: usize) -> Self {
        self.num_features = n.max(1);
        self
    }

    /// Sets the simulation window the load timings are spread over.
    pub fn window(mut self, seconds: f64) -> Self {
        self.window = seconds;
        self
    }

    /// Sets the supply voltage.
    pub fn vdd(mut self, volts: f64) -> Self {
        self.vdd = volts;
        self
    }

    /// Sets the per-node decap.
    pub fn node_capacitance(mut self, farads: f64) -> Self {
        self.c_node = farads;
        self
    }

    /// Sets the RNG seed for load placement and amplitudes.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The distinct bump-feature library this builder will use.
    ///
    /// Feature `j` has delay `(j+1)·window/(features+2)`, with rise/fall
    /// and width cycling over a few typical switching-event durations. All
    /// loads assigned to feature `j` share these exact parameter bits.
    pub fn feature_library(&self) -> Vec<Pulse> {
        let rises = [2e-11, 3e-11, 5e-11];
        let widths = [1e-10, 2e-10, 4e-10];
        (0..self.num_features)
            .map(|j| {
                let delay = (j as f64 + 1.0) * self.window / (self.num_features as f64 + 2.0);
                let rise = rises[j % rises.len()];
                let width = widths[(j / rises.len()) % widths.len()];
                Pulse::new(0.0, 1.0, delay, rise, width, rise)
                    .expect("library parameters are valid")
            })
            .collect()
    }

    /// Builds the netlist.
    ///
    /// # Errors
    ///
    /// Cannot fail for valid builder parameters; propagates element errors
    /// otherwise.
    pub fn build_netlist(&self) -> Result<Netlist, CircuitError> {
        let mut nl = Netlist::new();
        let n1 = |x: usize, y: usize| format!("n1_{x}_{y}");
        let n2 = |x: usize, y: usize| format!("n2_{x}_{y}");
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Layer 1 mesh. Node caps spread log-uniformly; decap clusters
        // periodically — the heterogeneity that makes real grids stiff.
        for y in 0..self.ny {
            for x in 0..self.nx {
                let n = nl.node(&n1(x, y));
                let spread = if self.cap_spread > 1.0 {
                    let lo = -self.cap_spread.ln();
                    let hi = self.cap_spread.ln();
                    rng.gen_range(lo..hi).exp()
                } else {
                    1.0
                };
                let decap = if (x + y * self.nx) % DECAP_EVERY == DECAP_EVERY - 1 {
                    30.0
                } else {
                    1.0
                };
                nl.add_capacitor(
                    &format!("c1_{x}_{y}"),
                    n,
                    Netlist::ground(),
                    self.c_node * spread * decap,
                )?;
                if x + 1 < self.nx {
                    let e = nl.node(&n1(x + 1, y));
                    nl.add_resistor(&format!("r1h_{x}_{y}"), n, e, self.r_wire)?;
                }
                if y + 1 < self.ny {
                    let s = nl.node(&n1(x, y + 1));
                    nl.add_resistor(&format!("r1v_{x}_{y}"), n, s, self.r_wire)?;
                }
            }
        }
        // Layer 2 straps + vias.
        let sxs: Vec<usize> = (0..self.nx).step_by(STRAP_EVERY).collect();
        let sys_: Vec<usize> = (0..self.ny).step_by(STRAP_EVERY).collect();
        let r_strap = self.r_wire * 0.25 * STRAP_EVERY as f64;
        for (yi, &y) in sys_.iter().enumerate() {
            for (xi, &x) in sxs.iter().enumerate() {
                let top = nl.node(&n2(x, y));
                let bottom = nl.node(&n1(x, y));
                nl.add_resistor(&format!("rvia_{x}_{y}"), top, bottom, self.r_via)?;
                nl.add_capacitor(&format!("c2_{x}_{y}"), top, Netlist::ground(), self.c_node)?;
                if xi + 1 < sxs.len() {
                    let e = nl.node(&n2(sxs[xi + 1], y));
                    nl.add_resistor(&format!("r2h_{x}_{y}"), top, e, r_strap)?;
                }
                if yi + 1 < sys_.len() {
                    let s = nl.node(&n2(x, sys_[yi + 1]));
                    nl.add_resistor(&format!("r2v_{x}_{y}"), top, s, r_strap)?;
                }
            }
        }
        // Pads at the four strap corners.
        let corners = [
            (sxs[0], sys_[0]),
            (*sxs.last().expect("nonempty"), sys_[0]),
            (sxs[0], *sys_.last().expect("nonempty")),
            (
                *sxs.last().expect("nonempty"),
                *sys_.last().expect("nonempty"),
            ),
        ];
        let mut seen: Vec<(usize, usize)> = Vec::new();
        for (i, &(x, y)) in corners.iter().enumerate() {
            if seen.contains(&(x, y)) {
                continue;
            }
            seen.push((x, y));
            let pad = nl.node(&format!("vddpad_{i}"));
            nl.add_vsource(
                &format!("vdd_{i}"),
                pad,
                Netlist::ground(),
                Waveform::Dc(self.vdd),
            )?;
            let strap = nl.node(&n2(x, y));
            match self.pad_inductance {
                Some(l) => {
                    let mid = nl.node(&format!("padl_{i}"));
                    nl.add_inductor(&format!("lpad_{i}"), pad, mid, l)?;
                    nl.add_resistor(&format!("rpad_{i}"), mid, strap, self.r_pad)?;
                }
                None => {
                    nl.add_resistor(&format!("rpad_{i}"), pad, strap, self.r_pad)?;
                }
            }
        }
        // Loads: random layer-1 nodes, feature library shapes, random
        // amplitudes (exact-bits timing shared within a feature).
        let features = self.feature_library();
        for i in 0..self.num_loads {
            let x = rng.gen_range(0..self.nx);
            let y = rng.gen_range(0..self.ny);
            let f = &features[i % features.len()];
            let peak = rng.gen_range(self.peak_range.0..self.peak_range.1);
            let pulse = Pulse { v2: peak, ..*f };
            let n = nl.node(&n1(x, y));
            nl.add_isource(
                &format!("iload_{i}"),
                n,
                Netlist::ground(),
                Waveform::Pulse(pulse),
            )?;
        }
        Ok(nl)
    }

    /// Builds the assembled MNA system.
    ///
    /// # Errors
    ///
    /// As [`PdnBuilder::build_netlist`].
    pub fn build(&self) -> Result<MnaSystem, CircuitError> {
        MnaSystem::assemble(&self.build_netlist()?)
    }

    /// Grid node by layer and position, if it exists after building.
    pub fn node_name(layer: usize, x: usize, y: usize) -> String {
        format!("n{layer}_{x}_{y}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rc_mesh_counts() {
        let nl = RcMeshBuilder::new(4, 3).build_netlist().unwrap();
        assert_eq!(nl.num_nodes(), 12);
        // caps: 12, R horizontal: 3*3=9, vertical: 4*2=8, pads: 4, load: 1
        assert_eq!(nl.num_elements(), 12 + 9 + 8 + 4 + 1);
        let sys = MnaSystem::assemble(&nl).unwrap();
        assert_eq!(sys.dim(), 12);
        assert_eq!(sys.num_sources(), 1);
    }

    #[test]
    fn rc_mesh_stiffness_spreads_caps() {
        let nl = RcMeshBuilder::new(4, 4)
            .stiffness_ratio(1e8)
            .build_netlist()
            .unwrap();
        let sys = MnaSystem::assemble(&nl).unwrap();
        let caps: Vec<f64> = (0..sys.dim()).map(|i| sys.c().get(i, i)).collect();
        let cmax = caps.iter().cloned().fold(0.0_f64, f64::max);
        let cmin = caps.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(cmax / cmin > 1e7, "cap ratio {} too small", cmax / cmin);
    }

    #[test]
    fn rc_mesh_gives_every_fourth_node_the_fast_cap() {
        let sys = RcMeshBuilder::new(4, 4)
            .stiffness_ratio(1e8)
            .build()
            .unwrap();
        for r in 0..sys.num_nodes() {
            let name = sys.row_name(r);
            let (x, y) = grid_coords(name);
            let fast = (x + 4 * y) % 4 == 3;
            let expected = if fast { 1e-15 / 1e4 } else { 1e-15 * 1e4 };
            assert_eq!(sys.c().get(r, r), expected, "{name}");
        }
    }

    /// `(x, y)` of a grid node named `n<layer>_<x>_<y>`.
    fn grid_coords(name: &str) -> (usize, usize) {
        let mut parts = name.split('_').skip(1).map(|p| p.parse().unwrap());
        (parts.next().unwrap(), parts.next().unwrap())
    }

    #[test]
    fn pdn_decaps_every_23rd_node_and_straps_every_4th() {
        let sys = PdnBuilder::new(9, 9).cap_spread(1.0).build().unwrap();
        let mut straps = Vec::new();
        for r in 0..sys.num_nodes() {
            let name = sys.row_name(r);
            if name.starts_with("n1_") {
                let (x, y) = grid_coords(name);
                let decap = if (x + 9 * y) % 23 == 22 { 30.0 } else { 1.0 };
                assert_eq!(sys.c().get(r, r), 1e-14 * decap, "{name}");
            } else if name.starts_with("n2_") {
                straps.push(grid_coords(name));
            }
        }
        straps.sort_unstable();
        let pitch = [0, 4, 8];
        let expected: Vec<(usize, usize)> = pitch
            .iter()
            .flat_map(|&x| pitch.iter().map(move |&y| (x, y)))
            .collect();
        assert_eq!(straps, expected);
    }

    #[test]
    fn rc_mesh_g_nonsingular() {
        let sys = RcMeshBuilder::new(5, 5).build().unwrap();
        assert!(crate::dc_operating_point(&sys).is_ok());
    }

    #[test]
    fn pdn_structure() {
        let sys = PdnBuilder::new(8, 8)
            .num_loads(10)
            .num_features(3)
            .build()
            .unwrap();
        // 64 fine nodes + 9 strap nodes (every 4) + pads.
        assert!(sys.num_nodes() > 64);
        assert!(sys.num_vsources() >= 1);
        assert_eq!(sys.num_sources(), sys.num_vsources() + 10);
        // DC must be solvable and sit near VDD everywhere.
        let x = crate::dc_operating_point(&sys).unwrap();
        for (r, &v) in x[..sys.num_nodes()].iter().enumerate() {
            assert!(
                v > 1.0 && v < 1.9,
                "node {} = {v} V out of range",
                sys.row_name(r),
            );
        }
    }

    #[test]
    fn pdn_features_shared_bitwise() {
        use matex_waveform::FeatureKey;
        let sys = PdnBuilder::new(8, 8)
            .num_loads(20)
            .num_features(4)
            .build()
            .unwrap();
        let mut keys: Vec<FeatureKey> = sys
            .sources()
            .iter()
            .filter(|s| matches!(s.kind, crate::SourceKind::Current))
            .map(|s| FeatureKey::of(&s.waveform))
            .collect();
        keys.sort_by_key(|k| format!("{k:?}"));
        keys.dedup();
        assert_eq!(keys.len(), 4, "loads must share exactly 4 timing shapes");
    }

    #[test]
    fn pdn_deterministic_for_seed() {
        let a = PdnBuilder::new(6, 6).seed(7).build_netlist().unwrap();
        let b = PdnBuilder::new(6, 6).seed(7).build_netlist().unwrap();
        assert_eq!(a.num_elements(), b.num_elements());
        let c = PdnBuilder::new(6, 6).seed(8).build_netlist().unwrap();
        // Different seed: loads move (element count equal, placement not).
        let names_a: Vec<&str> = a.elements().iter().map(|e| e.name()).collect();
        let names_c: Vec<&str> = c.elements().iter().map(|e| e.name()).collect();
        assert_eq!(names_a.len(), names_c.len());
    }
}
