//! Input generation. Everything the program is fed — grid seeds,
//! source-scale factors, cap-edit rows — derives from the one `--seed`;
//! the program itself only ever sees the generated circuits and jobs.

use matex_circuit::{parse_netlist, Element, MnaSystem, Netlist, PdnBuilder};
use matex_waveform::Waveform;
use std::fmt::Write as _;

/// A 64-bit value derived from the run seed, a purpose tag and an index
/// (SplitMix64 over an FNV-folded tag), so that unrelated draws never
/// share a stream.
pub fn derive(seed: u64, tag: &str, index: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in tag.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = seed
        .wrapping_add(h)
        .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A derived value in `[0, 1)`.
pub fn derive_unit(seed: u64, tag: &str, index: u64) -> f64 {
    (derive(seed, tag, index) >> 11) as f64 / (1u64 << 53) as f64
}

/// A grid seed small enough to cross the wire's `f64` number fields
/// without loss (`pdn_seed` is parsed as a JSON number).
pub fn grid_seed(seed: u64, tag: &str, index: u64) -> u64 {
    derive(seed, tag, index) % (1 << 40)
}

/// The RLC power grid of the solver workloads: the `pg4t`–`pg6t` recipe
/// of `crates/bench` (30x cap spread, package inductance on every pad,
/// hence a singular `C`) over a 10 ns window.
pub fn rlc_grid(n: usize, loads: usize, features: usize, seed: u64) -> PdnBuilder {
    PdnBuilder::new(n, n)
        .num_loads(loads)
        .num_features(features)
        .window(1e-8)
        .cap_spread(30.0)
        .pad_inductance(1e-11)
        .seed(seed)
}

/// A circuit the TCP service can be asked for by parameters alone
/// (`pdn_*` submit fields). [`WirePdn::builder`] mirrors what the
/// service builds from them, so the harness can run the same circuit
/// in-process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WirePdn {
    /// Grid side (`pdn_nx` = `pdn_ny`).
    pub n: usize,
    /// `pdn_loads`.
    pub loads: usize,
    /// `pdn_features`.
    pub features: usize,
    /// `pdn_seed`.
    pub seed: u64,
    /// `pdn_window`, seconds.
    pub window: f64,
}

impl WirePdn {
    /// The builder `matex_serve`'s `submit` handler constructs.
    pub fn builder(&self) -> PdnBuilder {
        PdnBuilder::new(self.n, self.n)
            .num_loads(self.loads)
            .num_features(self.features)
            .seed(self.seed)
            .window(self.window)
    }

    /// The `pdn_*` fields of a submit line.
    pub fn submit_fields(&self) -> String {
        format!(
            "\"pdn_nx\": {n}, \"pdn_ny\": {n}, \"pdn_loads\": {}, \"pdn_features\": {}, \
             \"pdn_seed\": {}, \"pdn_window\": {:e}",
            self.loads,
            self.features,
            self.seed,
            self.window,
            n = self.n
        )
    }
}

/// `count` node rows spread evenly over the first `nodes` rows.
pub fn spread_rows(nodes: usize, count: usize) -> Vec<usize> {
    (0..count).map(|k| k * nodes / count).collect()
}

/// Writes a netlist as SPICE text the repo's own parser reads back to
/// the identical circuit: one element per line in insertion order (so
/// nodes are met, and numbered, in the same order), every value with
/// full round-trip precision.
///
/// # Errors
///
/// Names the element or waveform kind this emitter does not know.
pub fn emit_spice(nl: &Netlist) -> Result<String, String> {
    let mut out = String::with_capacity(nl.num_elements() * 40);
    out.push_str("* emitted by matex-benchmark\n");
    for e in nl.elements() {
        match e {
            Element::Resistor { name, a, b, ohms } => {
                two_terminal(&mut out, nl, name, *a, *b);
                let _ = writeln!(out, "{ohms:e}");
            }
            Element::Capacitor { name, a, b, farads } => {
                two_terminal(&mut out, nl, name, *a, *b);
                let _ = writeln!(out, "{farads:e}");
            }
            Element::Inductor {
                name,
                a,
                b,
                henries,
            } => {
                two_terminal(&mut out, nl, name, *a, *b);
                let _ = writeln!(out, "{henries:e}");
            }
            Element::VSource {
                name,
                pos,
                neg,
                waveform,
            } => {
                two_terminal(&mut out, nl, name, *pos, *neg);
                emit_waveform(&mut out, waveform)?;
            }
            Element::ISource {
                name,
                from,
                to,
                waveform,
            } => {
                two_terminal(&mut out, nl, name, *from, *to);
                emit_waveform(&mut out, waveform)?;
            }
            other => return Err(format!("emitter does not know element {other:?}")),
        }
    }
    out.push_str(".end\n");
    Ok(out)
}

fn two_terminal(
    out: &mut String,
    nl: &Netlist,
    name: &str,
    a: matex_circuit::Node,
    b: matex_circuit::Node,
) {
    let _ = write!(out, "{name} {} {} ", nl.node_name(a), nl.node_name(b));
}

fn emit_waveform(out: &mut String, w: &Waveform) -> Result<(), String> {
    match w {
        Waveform::Dc(v) => {
            let _ = writeln!(out, "{v:e}");
        }
        // SPICE order is V1 V2 TD TR TF PW [PER]: fall before width.
        Waveform::Pulse(p) => {
            let _ = write!(
                out,
                "PULSE({:e} {:e} {:e} {:e} {:e} {:e}",
                p.v1, p.v2, p.t_delay, p.t_rise, p.t_fall, p.t_width
            );
            if let Some(per) = p.t_period {
                let _ = write!(out, " {per:e}");
            }
            out.push_str(")\n");
        }
        Waveform::Pwl(pwl) => {
            out.push_str("PWL(");
            for (i, (t, v)) in pwl.points().iter().enumerate() {
                let _ = write!(out, "{}{t:e} {v:e}", if i > 0 { " " } else { "" });
            }
            out.push_str(")\n");
        }
        other => return Err(format!("emitter does not know waveform {other:?}")),
    }
    Ok(())
}

/// Parses and assembles `text` and checks that it is, fingerprint for
/// fingerprint, the system `built` was assembled into.
///
/// # Errors
///
/// Reports the parse/assembly failure or the fingerprint that differs.
pub fn check_fixture(built: &MnaSystem, text: &str) -> Result<MnaSystem, String> {
    let parsed = parse_netlist(text).map_err(|e| format!("emitted netlist: {e}"))?;
    let sys = MnaSystem::assemble(&parsed.netlist).map_err(|e| format!("emitted netlist: {e}"))?;
    for (what, a, b) in [
        (
            "pattern",
            sys.pattern_fingerprint(),
            built.pattern_fingerprint(),
        ),
        ("value", sys.value_fingerprint(), built.value_fingerprint()),
        (
            "source",
            sys.source_fingerprint(),
            built.source_fingerprint(),
        ),
    ] {
        if a != b {
            return Err(format!(
                "{what} fingerprint of the parsed netlist {a:016x} != built system {b:016x}"
            ));
        }
    }
    Ok(sys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use matex_waveform::{Pulse, Pwl};

    #[test]
    fn derived_streams_are_stable_and_distinct() {
        assert_eq!(derive(1, "grid", 0), derive(1, "grid", 0));
        assert_ne!(derive(1, "grid", 0), derive(1, "grid", 1));
        assert_ne!(derive(1, "grid", 0), derive(2, "grid", 0));
        assert_ne!(derive(1, "grid", 0), derive(1, "scale", 0));
        let u = derive_unit(9, "scale", 3);
        assert!((0.0..1.0).contains(&u));
        let s = grid_seed(u64::MAX, "grid", 5);
        assert_eq!(s as f64 as u64, s, "seed survives the wire's f64");
    }

    #[test]
    fn emitter_round_trips_an_rlc_grid_bitwise() {
        let b = rlc_grid(8, 12, 3, 77);
        let nl = b.build_netlist().unwrap();
        let built = MnaSystem::assemble(&nl).unwrap();
        let text = emit_spice(&nl).unwrap();
        let parsed = check_fixture(&built, &text).unwrap();
        assert_eq!(parsed.dim(), built.dim());
        assert!(built.num_inductors() > 0, "RLC grid carries pad inductors");
        // A corrupted value must be caught by the value fingerprint.
        let first_r = text.find("r1h_0_0").unwrap();
        let line_end = first_r + text[first_r..].find('\n').unwrap();
        let mut bad = text.clone();
        bad.replace_range(first_r..line_end, "r1h_0_0 n1_0_0 n1_1_0 3e-2");
        let err = check_fixture(&built, &bad).unwrap_err();
        assert!(err.starts_with("value fingerprint"), "{err}");
    }

    #[test]
    fn emitter_covers_every_waveform_kind() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.add_vsource("v1", a, Netlist::ground(), Waveform::Dc(1.8))
            .unwrap();
        nl.add_resistor("r1", a, b, 0.1).unwrap();
        nl.add_capacitor("c1", b, Netlist::ground(), 1e-13).unwrap();
        let train = Pulse::periodic(0.0, 1e-3, 1e-10, 2e-11, 1e-10, 3e-11, 1e-9).unwrap();
        nl.add_isource("i1", b, Netlist::ground(), Waveform::Pulse(train))
            .unwrap();
        let pwl = Pwl::new(vec![(0.0, 0.0), (1e-10, 2e-3), (3e-10, 0.0)]).unwrap();
        nl.add_isource("i2", b, Netlist::ground(), Waveform::Pwl(pwl))
            .unwrap();
        let built = MnaSystem::assemble(&nl).unwrap();
        check_fixture(&built, &emit_spice(&nl).unwrap()).unwrap();
    }

    #[test]
    fn wire_pdn_mirrors_the_service_builder() {
        let w = WirePdn {
            n: 6,
            loads: 8,
            features: 3,
            seed: 5,
            window: 2e-9,
        };
        assert!(w.submit_fields().contains("\"pdn_window\": 2e-9"));
        assert_eq!(spread_rows(100, 4), vec![0, 25, 50, 75]);
        assert!(w.builder().build().is_ok());
    }
}
