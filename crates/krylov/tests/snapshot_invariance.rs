//! Property-based proof of the batched snapshot-evaluation contract:
//! `eval_many_into` over a window is **bitwise** the same snapshots
//! evaluated one at a time, every batch column is bitwise the
//! full-`expm` per-call reference, and the batch is bitwise-invariant
//! across pool widths {inline, 1, 2, 4, 7}. The ladder is *not*
//! required to match the standalone evaluation bitwise (it pins the
//! degree-13 Padé kernel); waveform-level accuracy is asserted in
//! `matex-core` against the Trapezoidal reference instead.

use matex_dense::expm;
use matex_krylov::{build_basis_multi, ExpmParams, KrylovBasis, RationalOp, SnapshotEvaluator};
use matex_par::ParPool;
use matex_sparse::{CsrMatrix, LuOptions, SparseLu};
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 7];

/// RC-ladder style system scaled O(1); returns a converged multi-step
/// basis for the drawn snapshot window.
fn window_basis(n: usize, cap_spread: f64, coupling: f64, hs: &[f64]) -> KrylovBasis {
    capped_basis(n, cap_spread, coupling, hs, ExpmParams::default().m_max)
}

/// [`window_basis`] with the dimension capped at `m_max`: best effort
/// when the cap binds, so snapshots beyond `hs` may reject.
fn capped_basis(n: usize, cap_spread: f64, coupling: f64, hs: &[f64], m_max: usize) -> KrylovBasis {
    let mut ct = Vec::new();
    let mut gt = Vec::new();
    for i in 0..n {
        ct.push((i, i, 1.0 + cap_spread * ((i * 13 % 17) as f64) / 17.0));
        gt.push((i, i, 2.0 + 0.03 * i as f64));
        if i + 1 < n {
            gt.push((i, i + 1, -coupling));
            gt.push((i + 1, i, -coupling));
        }
    }
    let c = CsrMatrix::from_triplets(n, n, &ct);
    let g = CsrMatrix::from_triplets(n, n, &gt);
    let gamma = 0.05;
    let shifted = CsrMatrix::linear_combination(1.0, &c, gamma, &g).unwrap();
    let lu = SparseLu::factor(&shifted, &LuOptions::default()).unwrap();
    let op = RationalOp::new(&lu, &c, gamma);
    let v: Vec<f64> = (0..n).map(|i| ((i * 11 % 23) as f64) - 11.0).collect();
    let params = ExpmParams {
        tol: 1e-8,
        m_max,
        ..ExpmParams::default()
    };
    build_basis_multi(&op, &v, hs, &params).unwrap().basis
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The per-call reference: the first column of one allocating full
/// `expm(h·Hm)`, combined as `x += (β·cᵢ)·vᵢ` in basis order.
fn per_call_combination(basis: &KrylovBasis, col: &[f64]) -> Vec<f64> {
    let mut x = vec![0.0; basis.dim()];
    for (c, v) in col.iter().zip(basis.vectors()) {
        let w = basis.beta() * c;
        if w == 0.0 {
            continue;
        }
        for (xk, vk) in x.iter_mut().zip(v) {
            *xk += w * vk;
        }
    }
    x
}

/// One snapshot through a fresh evaluator, on the inline pool.
fn eval_one(basis: &KrylovBasis, h: f64) -> Vec<f64> {
    let mut x = vec![0.0; basis.dim()];
    SnapshotEvaluator::new()
        .eval_many_into(basis, &[h], None, &mut x)
        .unwrap();
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `eval_many_into` ≡ one snapshot at a time, bitwise, and the
    /// batch is bitwise-invariant in the pool width.
    #[test]
    fn eval_many_is_bitwise_one_at_a_time_and_pool_invariant(
        n in 60usize..200,
        cap_spread in 1.0f64..40.0,
        coupling in 0.2f64..1.5,
        h_max in 0.05f64..0.4,
        k in 2usize..7,
    ) {
        let hs: Vec<f64> = (1..=k).map(|j| h_max * j as f64 / k as f64).collect();
        let basis = window_basis(n, cap_spread, coupling, &hs);
        let mut ev = SnapshotEvaluator::new();
        let mut batch = vec![0.0; n * k];
        ev.eval_many_into(&basis, &hs, None, &mut batch).unwrap();

        // Bitwise ≡ one snapshot at a time.
        for (j, &h) in hs.iter().enumerate() {
            let single = eval_one(&basis, h);
            prop_assert_eq!(
                bits(&single),
                bits(&batch[j * n..(j + 1) * n]),
                "one-snapshot eval diverged at h = {}",
                h
            );
        }

        // Bitwise-invariant across pool widths.
        let reference = bits(&batch);
        for threads in THREADS {
            let pool = ParPool::new(threads);
            let mut pooled = vec![f64::NAN; n * k];
            ev.eval_many_into(&basis, &hs, Some(&pool), &mut pooled).unwrap();
            prop_assert_eq!(
                &reference,
                &bits(&pooled),
                "batch diverged at {} threads (n = {})",
                threads,
                n
            );
        }
    }

    /// Every batch column — accepted or rejected — is bitwise the
    /// per-call full-`expm` reference, with a bitwise-equal estimate,
    /// so the batch accepts exactly what per-call evaluation accepts.
    /// The basis is built for the window's first snapshot under a
    /// capped dimension, so the far end of the window rejects.
    #[test]
    fn batch_columns_are_bitwise_the_full_expm_reference(
        n in 60usize..200,
        cap_spread in 1.0f64..40.0,
        coupling in 0.2f64..1.5,
        h_max in 0.2f64..2.0,
        m_max in 4usize..16,
        k in 4usize..12,
    ) {
        let hs: Vec<f64> = (1..=k).map(|j| h_max * j as f64 / k as f64).collect();
        let basis = capped_basis(n, cap_spread, coupling, &hs[..1], m_max);
        let mut ev = SnapshotEvaluator::new();
        ev.weights_many(&basis, &hs).unwrap();
        let mut x = vec![0.0; n];
        for (j, &h) in hs.iter().enumerate() {
            match expm(&basis.hm().scaled(h)) {
                Ok(full) => {
                    let col = full.col(0);
                    prop_assert_eq!(
                        ev.estimates()[j].to_bits(),
                        basis.residual_estimate(&col).to_bits(),
                        "estimate diverged at h = {}",
                        h
                    );
                    ev.combine_one(&basis, j, None, &mut x);
                    prop_assert_eq!(
                        bits(&x),
                        bits(&per_call_combination(&basis, &col)),
                        "snapshot diverged from the full-expm reference at h = {}",
                        h
                    );
                }
                // An overflowing projected exponential is a rejection.
                Err(_) => prop_assert!(ev.estimates()[j].is_infinite()),
            }
        }
    }

    /// Ladder rungs agree with the standalone evaluation to rounding
    /// and the rung combination is pool-width bitwise-invariant.
    #[test]
    fn ladder_is_accurate_and_rung_combination_pool_invariant(
        n in 60usize..160,
        cap_spread in 1.0f64..30.0,
        h in 0.1f64..0.5,
        s_max in 1usize..6,
    ) {
        let basis = window_basis(n, cap_spread, 0.8, &[h]);
        let mut ev = SnapshotEvaluator::new();
        ev.eval_ladder(&basis, h, s_max, f64::INFINITY).unwrap();
        let mut serial = vec![0.0; n];
        for s in 0..=s_max {
            ev.combine_rung(&basis, s, None, &mut serial);
            let reference = eval_one(&basis, h * 0.5f64.powi(s as i32));
            let scale = reference.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            for (p, q) in serial.iter().zip(&reference) {
                prop_assert!(
                    (p - q).abs() <= 1e-10 * scale,
                    "rung {} deviates: {} vs {}",
                    s, p, q
                );
            }
            for threads in THREADS {
                let pool = ParPool::new(threads);
                let mut pooled = vec![f64::NAN; n];
                ev.combine_rung(&basis, s, Some(&pool), &mut pooled);
                prop_assert_eq!(bits(&serial), bits(&pooled));
            }
        }
    }
}
