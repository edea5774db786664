//! **Table 3** — distributed MATEX (R-MATEX nodes) vs fixed-step TR.
//!
//! Paper columns per design: the TR transient time `t1000` (1000 pairs of
//! substitutions at h = 10 ps) and total `tt_total`; MATEX's group count,
//! max-node transient `trmatex` and total `tr_total` (one factorization
//! per machine: the run's one preparation + the slowest node's DC +
//! march); Max./Avg. error
//! against a reference solution; Spdp4 = t1000/trmatex and Spdp5 =
//! tt_total/tr_total.
//!
//! Expected shape (paper): Spdp4 ≈ 11–15X, Spdp5 ≈ 5.6–7.9X, errors
//! ≈ 1e-4 and below.

use matex_bench::{pg_suite, secs, timed, Scale, Table};
use matex_core::{
    reference_solution, MatexOptions, ReferenceMethod, TransientEngine, TransientSpec, Trapezoidal,
};
use matex_dist::{run_distributed, DistributedOptions};
use matex_waveform::GroupingStrategy;

/// One emitted row of `BENCH_table3.json`.
struct JsonRow {
    design: String,
    t1000_s: f64,
    tt_total_s: f64,
    groups: usize,
    trmatex_s: f64,
    tr_total_s: f64,
    max_err: f64,
    avg_err: f64,
    spdp4: f64,
    spdp5: f64,
}

/// Writes the perf-trajectory artifact (hand-rolled JSON: the workspace
/// builds offline, without serde).
fn write_json(scale: Scale, rows: &[JsonRow]) {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"bench\": \"table3_distributed\",\n  \"scale\": \"{}\",\n  \"rows\": [\n",
        match scale {
            Scale::Ci => "ci",
            Scale::Paper => "paper",
        }
    ));
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"design\": \"{}\", \"t1000_s\": {:.6}, \"tt_total_s\": {:.6}, \
             \"groups\": {}, \"trmatex_s\": {:.6}, \"tr_total_s\": {:.6}, \
             \"max_err\": {:.3e}, \"avg_err\": {:.3e}, \"spdp4\": {:.2}, \"spdp5\": {:.2}}}{}\n",
            r.design,
            r.t1000_s,
            r.tt_total_s,
            r.groups,
            r.trmatex_s,
            r.tr_total_s,
            r.max_err,
            r.avg_err,
            r.spdp4,
            r.spdp5,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    // Anchor at the workspace root regardless of cargo's bench CWD.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_table3.json");
    match std::fs::write(path, &out) {
        Ok(()) => println!("\nwrote BENCH_table3.json ({} designs)", rows.len()),
        Err(e) => eprintln!("\ncould not write BENCH_table3.json: {e}"),
    }
}

fn main() {
    let scale = Scale::from_env();
    println!("\n=== Table 3: distributed MATEX vs TR (h = 10ps) ===\n");
    let mut json_rows: Vec<JsonRow> = Vec::new();
    let mut table = Table::new(&[
        "Design",
        "t1000(s)",
        "tt_total(s)",
        "Group#",
        "trmatex(s)",
        "tr_total(s)",
        "Max.Err",
        "Avg.Err",
        "Spdp4",
        "Spdp5",
    ]);
    for case in pg_suite(scale) {
        let sys = case.build().expect("grid builds");
        let rows: Vec<usize> = (0..sys.num_nodes()).step_by(11).collect();
        // Output on 100 samples; TR *steps* at 10 ps (1000 pairs = t1000).
        let spec = TransientSpec::new(0.0, case.window, case.window / 100.0)
            .expect("valid spec")
            .observing(rows);

        let (tr, _) = timed(|| Trapezoidal::new(1e-11).run(&sys, &spec).expect("TR run"));
        let t1000 = tr.stats.transient_time;
        let tt_total = tr.stats.total_time();

        // Distributed MATEX; workers=1 gives uncontended per-node wall
        // times (the paper's dedicated-node emulation); the makespan is
        // the max over nodes either way.
        let opts = DistributedOptions {
            matex: MatexOptions::default(),
            strategy: GroupingStrategy::ByBumpFeature,
            workers: Some(1),
            ..DistributedOptions::default()
        };
        let run = run_distributed(&sys, &spec, &opts).expect("distributed run");

        // Reference: fine TR (the IBM `.solution` stand-in; DESIGN.md §2).
        let reference = reference_solution(&sys, &spec, ReferenceMethod::Trapezoidal, 20)
            .expect("reference run");
        let (max_err, avg_err) = run.result.error_vs(&reference).expect("comparable");

        let spdp4 = t1000.as_secs_f64() / run.emulated_transient.as_secs_f64().max(1e-9);
        let spdp5 = tt_total.as_secs_f64() / run.emulated_total.as_secs_f64().max(1e-9);
        table.row(vec![
            case.name.clone(),
            secs(t1000),
            secs(tt_total),
            format!("{}", run.num_groups()),
            secs(run.emulated_transient),
            secs(run.emulated_total),
            format!("{max_err:.1e}"),
            format!("{avg_err:.1e}"),
            format!("{spdp4:.1}X"),
            format!("{spdp5:.1}X"),
        ]);
        json_rows.push(JsonRow {
            design: case.name.clone(),
            t1000_s: t1000.as_secs_f64(),
            tt_total_s: tt_total.as_secs_f64(),
            groups: run.num_groups(),
            trmatex_s: run.emulated_transient.as_secs_f64(),
            tr_total_s: run.emulated_total.as_secs_f64(),
            max_err,
            avg_err,
            spdp4,
            spdp5,
        });
        eprintln!(
            "  [{}] GTS {} points; substitution pairs: TR {} vs max-node {}",
            case.name,
            run.gts.len(),
            tr.stats.substitution_pairs,
            run.nodes
                .iter()
                .map(|n| n.stats.substitution_pairs)
                .max()
                .unwrap_or(0),
        );
        // Fig. 13-style per-node decomposition: the snapshot phase's
        // T_H (small expm) vs T_e (basis combination) split, straight
        // from each node's solver stats.
        let (th_sum, te_sum, th_max, te_max) = run.nodes.iter().fold(
            (0.0_f64, 0.0_f64, 0.0_f64, 0.0_f64),
            |(ts, es, tm, em), n| {
                let (th, te) = (
                    n.stats.expm_time.as_secs_f64(),
                    n.stats.combine_time.as_secs_f64(),
                );
                (ts + th, es + te, tm.max(th), em.max(te))
            },
        );
        eprintln!(
            "  [{}] snapshot split: T_H {:.3}ms / T_e {:.3}ms summed over nodes \
             (max node {:.3} / {:.3}ms)",
            case.name,
            th_sum * 1e3,
            te_sum * 1e3,
            th_max * 1e3,
            te_max * 1e3,
        );
    }
    table.print();
    write_json(scale, &json_rows);
    println!("\nshape check: Spdp4 ≈ 10X+ (paper 11.5–14.7X), Spdp5 > 1 and growing");
    println!("with design size (paper 5.6–7.9X); errors at the 1e-4 level or below.");
}
