//! **Figure 5** — rational-Krylov error `|e^{hA}v − ‖v‖·V_m e^{hH_m}e₁|`
//! versus time step `h` and subspace dimension `m`.
//!
//! The paper's observation: with the shift-and-invert basis, the error
//! *decreases* as the step grows (large steps weight the small-magnitude
//! eigenvalues that the rational subspace captures best) — the property
//! that lets MATEX take huge reuse steps safely.
//!
//! The ground truth `e^{hA}v` uses the dense Padé `expm` on a small mesh
//! (the paper used MATLAB's `expm` the same way).

use matex_bench::Table;
use matex_circuit::RcMeshBuilder;
use matex_dense::{expm, DenseLu};
use matex_krylov::{Arnoldi, ArnoldiSpace, KrylovKind, RationalOp};
use matex_sparse::{CsrMatrix, LuOptions, SparseLu};

fn main() {
    println!("\n=== Fig. 5: |e^(hA)v - bVm e^(hHm) e1| vs h and m (R-MATEX) ===\n");
    let sys = RcMeshBuilder::new(6, 6)
        .stiffness_ratio(1e6)
        .build()
        .expect("mesh builds");
    let n = sys.dim();
    let gamma = 1e-10;

    // Dense ground truth: A = -C^{-1} G.
    let cd = sys.c().to_dense();
    let gd = sys.g().to_dense();
    let a = DenseLu::factor(&cd)
        .and_then(|lu| lu.solve_mat(&gd))
        .expect("C nonsingular")
        .scaled(-1.0);

    // Rational operator and a fixed Arnoldi run (extend once, slice m).
    let shifted = CsrMatrix::linear_combination(1.0, sys.c(), gamma, sys.g()).expect("shapes");
    let lu_s = SparseLu::factor(&shifted, &LuOptions::default()).expect("factorable");
    let op = RationalOp::new(&lu_s, sys.c(), gamma);
    let v: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 7 % 13) as f64) / 13.0).collect();
    let beta = matex_dense::norm2(&v);
    let m_max = 10usize;
    let mut space = ArnoldiSpace::new();
    let mut arnoldi = Arnoldi::new(&op, &v, &mut space).expect("nonzero start");
    for _ in 0..m_max {
        arnoldi.step().expect("arnoldi step");
    }

    let hs: Vec<f64> = (0..=10)
        .map(|k| 1e-13 * 10f64.powf(k as f64 * 0.5))
        .collect();
    let mut header: Vec<String> = vec!["m\\h".to_string()];
    header.extend(hs.iter().map(|h| format!("{h:.0e}")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);

    let mut shrinks = 0usize;
    let mut total = 0usize;
    for m in [2usize, 4, 6, 8, 10] {
        let m = m.min(arnoldi.m());
        let h_hat = arnoldi.h_hat(m);
        let hm = match KrylovKind::Rational.map_hessenberg(&h_hat, gamma) {
            Ok(hm) => hm,
            Err(e) => {
                eprintln!("m = {m}: Hessenberg mapping failed ({e}); skipping row");
                continue;
            }
        };
        let basis = arnoldi.basis(m);
        let mut row = vec![format!("{m}")];
        let mut prev: Option<f64> = None;
        for &h in &hs {
            // Krylov approximation. A sign-flipped tiny Ritz value (an
            // inversion artifact at low m) can overflow the projected
            // exponential — render such cells as "of".
            let w = match expm(&hm.scaled(h)) {
                Ok(e) => e.col(0),
                Err(_) => {
                    row.push("of".to_string());
                    prev = None;
                    continue;
                }
            };
            let mut approx = vec![0.0; n];
            for (wi, vi) in w.iter().zip(basis) {
                for (ak, vk) in approx.iter_mut().zip(vi) {
                    *ak += beta * wi * vk;
                }
            }
            // Dense truth.
            let truth = expm(&a.scaled(h)).expect("dense expm").matvec(&v);
            let err = approx
                .iter()
                .zip(&truth)
                .fold(0.0_f64, |mx, (p, q)| mx.max((p - q).abs()));
            row.push(format!("{err:.1e}"));
            if let Some(p) = prev {
                total += 1;
                if err <= p * 1.001 {
                    shrinks += 1;
                }
            }
            prev = Some(err);
        }
        table.row(row);
    }
    table.print();
    println!("\nshape check: error is non-increasing in h for {shrinks}/{total} adjacent steps");
    println!("(paper Fig. 5: error reduces when h increases, for every m).");
}
