//! **Figures 1–3** — input-transition decomposition, illustrated.
//!
//! Reconstructs the paper's running example: three input sources whose
//! local transition spots (LTS) union into the global transition spots
//! (GTS); snapshots are where a subtask reuses its Krylov subspace
//! (Fig. 1); grouping by "bump" feature yields the four groups of Fig. 3
//! (two bumps of source #1 share timing with source #3's bump, etc. — we
//! model the paper's group structure with one waveform per group shape).

use matex_bench::Table;
use matex_waveform::{group_sources, GroupingStrategy, Pulse, Waveform};

fn main() {
    println!("\n=== Figs. 1-3: LTS / GTS / snapshots and bump grouping ===\n");
    // Fig. 3's cast: four distinct bump shapes across three "sources";
    // sources #1.2 and #3 share a shape (-> same group).
    let shape = |delay: f64| Pulse::new(0.0, 1e-3, delay, 1e-10, 2e-10, 1e-10).expect("valid");
    let late_shared = shape(3.0e-9);
    let sources = vec![
        Waveform::Pulse(shape(0.5e-9)), // #1.1 -> group 1
        Waveform::Pulse(shape(1.4e-9)), // #2.1 -> group 2
        Waveform::Pulse(shape(2.2e-9)), // #2.2 -> group 3
        Waveform::Pulse(late_shared),   // #1.2 -> group 4
        Waveform::Pulse(late_shared),   // #3   -> group 4 (shared shape)
    ];
    let t_end = 5e-9;
    let grouping = group_sources(&sources, t_end, GroupingStrategy::ByBumpFeature);

    println!("GTS ({} points):", grouping.gts.len());
    let fmt_spots = |spots: &[f64]| {
        spots
            .iter()
            .map(|t| format!("{:.2}ns", t * 1e9))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("  {}\n", fmt_spots(grouping.gts.as_slice()));

    let mut table = Table::new(&["Group", "Sources", "LTS", "Snapshots(reused)"]);
    for g in &grouping.groups {
        if g.members.is_empty() {
            continue;
        }
        let snap = grouping.gts.difference(&g.lts);
        table.row(vec![
            format!("{}", g.id),
            format!("{:?}", g.members),
            format!("{}", g.lts.len()),
            format!("{}", snap.len()),
        ]);
    }
    table.print();

    let active_groups = grouping
        .groups
        .iter()
        .filter(|g| !g.members.is_empty())
        .count();
    println!(
        "\nshape check: {} groups from 5 bump instances (paper Fig. 3: 4 groups",
        active_groups
    );
    println!("from 5 bumps, because two bumps share a feature); every group's");
    println!("snapshot count = GTS - LTS, i.e. the evaluations that reuse a subspace.");
    assert_eq!(active_groups, 4, "expected exactly the paper's 4 groups");
}
