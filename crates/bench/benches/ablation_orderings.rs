//! **Ablation** — fill-reducing ordering choice for the sparse LU.
//!
//! Every speedup in the paper is denominated in forward/backward
//! substitution pairs (`T_bs`), whose cost is set by the LU fill. This
//! ablation factors the MATEX matrices (`G` and `C + γG`) of a grid case
//! under AMD / RCM / natural orderings and reports fill, factor time and
//! solve time — and exits non-zero when the default (AMD, as in UMFPACK's
//! stack) leaves more fill than either alternative: `nnz(L+U)` is a
//! count and repeats exactly, so CI can hold the default to it.

use matex_bench::{pg_suite, Scale, Table};
use matex_sparse::{CsrMatrix, LuOptions, OrderingKind, SparseLu};
use std::time::Instant;

fn main() {
    let scale = Scale::from_env();
    println!("\n=== Ablation: ordering choice for the direct solver ===\n");
    let case = pg_suite(scale).into_iter().nth(3).expect("suite case");
    let sys = case.build().expect("grid builds");
    let gamma = 1e-10;
    let shifted = CsrMatrix::linear_combination(1.0, sys.c(), gamma, sys.g()).expect("same shape");

    let mut table = Table::new(&[
        "Matrix",
        "Ordering",
        "nnz(A)",
        "nnz(L+U)",
        "fill",
        "factor(ms)",
        "solve(µs)",
    ]);
    let mut beaten = Vec::new();
    for (label, mat) in [("G", sys.g().clone()), ("C+γG", shifted)] {
        let mut amd_fill = 0;
        for ordering in [OrderingKind::Amd, OrderingKind::Rcm, OrderingKind::Natural] {
            let opts = LuOptions {
                ordering,
                ..LuOptions::default()
            };
            let t0 = Instant::now();
            let lu = SparseLu::factor(&mat, &opts).expect("factorable");
            let t_factor = t0.elapsed();
            // Average solve over repeated RHS.
            let b: Vec<f64> = (0..mat.nrows()).map(|i| (i as f64).sin()).collect();
            let reps = 50;
            let t1 = Instant::now();
            let mut x = vec![0.0; mat.nrows()];
            let mut w = vec![0.0; mat.nrows()];
            for _ in 0..reps {
                lu.solve_into(&b, &mut x, &mut w);
            }
            let t_solve = t1.elapsed() / reps;
            let fill = lu.nnz_l() + lu.nnz_u();
            if ordering == OrderingKind::Amd {
                amd_fill = fill;
            } else if amd_fill > fill {
                beaten.push(format!(
                    "{label}: AMD nnz(L+U) {amd_fill} > {ordering:?} {fill}"
                ));
            }
            table.row(vec![
                label.to_string(),
                format!("{ordering:?}"),
                format!("{}", mat.nnz()),
                format!("{fill}"),
                format!("{:.1}", lu.fill_factor(mat.nnz())),
                format!("{:.2}", t_factor.as_secs_f64() * 1e3),
                format!("{:.1}", t_solve.as_secs_f64() * 1e6),
            ]);
        }
    }
    table.print();
    println!("\nshape check: AMD fill << natural fill on mesh-like PDN matrices;");
    println!("solve time tracks fill — this is the T_bs every table depends on.");
    if !beaten.is_empty() {
        for line in &beaten {
            eprintln!("default ordering beaten on fill — {line}");
        }
        std::process::exit(1);
    }
}
