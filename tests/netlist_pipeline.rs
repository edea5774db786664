//! End-to-end pipeline: SPICE text → parser → MNA → engines → solution
//! file, in the IBM power-grid dialect.

use matex::circuit::ibmpg::{PgNodeName, Solution};
use matex::circuit::{parse_netlist, MnaSystem};
use matex::core::{MatexOptions, MatexSolver, TransientEngine, TransientSpec, Trapezoidal};

const RAIL: &str = "\
* three-segment rail with two switching loads (IBM PG dialect)
v0 n2_0_0 0 1.8
r_pad n2_0_0 n1_0_0 0.01
r1 n1_0_0 n1_1_0 0.04
r2 n1_1_0 n1_2_0 0.04
r3 n1_2_0 n1_3_0 0.04
c1 n1_1_0 0 50p
c2 n1_2_0 0 50p
c3 n1_3_0 0 30p
i1 n1_1_0 0 PULSE(0 2m 0.5n 0.05n 0.05n 1n)
i2 n1_3_0 0 PULSE(0 1m 2.5n 0.05n 0.05n 0.5n)
.tran 20p 5n
.end
";

#[test]
fn parse_assemble_simulate_export() {
    let parsed = parse_netlist(RAIL).expect("parses");
    assert_eq!(parsed.netlist.num_nodes(), 5);
    let tran = parsed.tran.expect(".tran present");
    let sys = MnaSystem::assemble(&parsed.netlist).expect("assembles");
    let spec = TransientSpec::new(0.0, tran.stop, tran.step).expect("valid spec");

    let matex = MatexSolver::new(MatexOptions::default().tol(1e-9))
        .run(&sys, &spec)
        .expect("MATEX run");
    let tr = Trapezoidal::new(tran.step / 10.0)
        .run(&sys, &spec)
        .expect("TR run");
    let (max_err, _) = matex.error_vs(&tr).expect("comparable");
    assert!(max_err < 1e-4, "engines disagree: {max_err:.3e}");

    // Droop sanity: the far node dips when its load fires.
    let far = sys.node_row("n1_3_0").expect("node exists");
    let wave = matex.waveform(far).expect("recorded");
    let vmin = wave.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(vmin < 1.8 - 1e-5, "no droop observed (min {vmin})");
    assert!(vmin > 1.0, "implausible droop (min {vmin})");

    // Export, re-import, compare — the reference-solution workflow.
    let names: Vec<String> = (0..sys.num_nodes())
        .map(|r| sys.row_name(r).to_string())
        .collect();
    let data: Vec<Vec<f64>> = (0..sys.num_nodes())
        .map(|r| matex.waveform(r).expect("recorded").to_vec())
        .collect();
    let sol = Solution::new(matex.times().to_vec(), names, data).expect("valid shape");
    let tsv = sol.to_tsv();
    let back = Solution::from_tsv(&tsv).expect("round-trips");
    let (max_rt, _) = sol.error_vs(&back).expect("same axes");
    assert!(
        max_rt < 1e-12,
        "TSV round-trip lost precision: {max_rt:.3e}"
    );
}

#[test]
fn geometric_node_names_survive_pipeline() {
    let parsed = parse_netlist(RAIL).expect("parses");
    let sys = MnaSystem::assemble(&parsed.netlist).expect("assembles");
    let mut geo = 0;
    for r in 0..sys.num_nodes() {
        if let Some(g) = PgNodeName::parse(sys.row_name(r)) {
            assert!(g.layer == 1 || g.layer == 2);
            geo += 1;
        }
    }
    assert_eq!(geo, 5, "all five nodes follow the IBM naming convention");
}

#[test]
fn netlist_file_roundtrip_via_fs() {
    // load_ibmpg_netlist reads from disk — exercise the file path.
    let dir = std::env::temp_dir().join("matex_test_netlists");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("rail.sp");
    std::fs::write(&path, RAIL).expect("write netlist");
    let parsed = matex::circuit::ibmpg::load_ibmpg_netlist(&path).expect("loads");
    assert_eq!(parsed.netlist.num_elements(), 10);
    std::fs::remove_file(&path).ok();
}

/// Parses and assembles `bytes` (lossily decoded, as a reader of an
/// untrusted file would). Any panic fails the test: there is no
/// `catch_unwind`, so the only acceptable outcomes are `Ok` and a typed
/// error.
fn parse_and_assemble(bytes: &[u8]) -> bool {
    let text = String::from_utf8_lossy(bytes);
    match parse_netlist(&text) {
        Ok(parsed) => MnaSystem::assemble(&parsed.netlist).is_ok(),
        Err(e) => {
            assert!(!e.to_string().is_empty());
            false
        }
    }
}

#[test]
fn every_mutation_of_the_rail_is_ok_or_a_typed_error() {
    let rail = RAIL.as_bytes();
    assert!(parse_and_assemble(rail));
    let mut outcomes = [0usize; 2];
    // Every truncation.
    for len in 0..rail.len() {
        outcomes[usize::from(parse_and_assemble(&rail[..len]))] += 1;
    }
    // Every single-bit flip.
    let mut mutant = rail.to_vec();
    for i in 0..rail.len() {
        for bit in 0..8 {
            mutant[i] ^= 1 << bit;
            outcomes[usize::from(parse_and_assemble(&mutant))] += 1;
            mutant[i] = rail[i];
        }
    }
    // Every byte replaced by each token-shaping byte: digits, signs,
    // separators, unit letters, parentheses, comment and continuation
    // markers, and bytes that are not valid UTF-8 on their own.
    for i in 0..rail.len() {
        for &b in b"0 19-+.eEgGmMpP()*\n\t=,;xX\x00\x7f\xc3\xff" {
            mutant[i] = b;
            outcomes[usize::from(parse_and_assemble(&mutant))] += 1;
        }
        mutant[i] = rail[i];
    }
    // The sweep reaches both outcomes: it is not all rejected at line 1.
    assert!(outcomes[0] > 0 && outcomes[1] > 0, "{outcomes:?}");
}
