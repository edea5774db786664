//! Property-based proof of the thread-count-invariance contract:
//! `MATEX_THREADS ∈ {unset, 1, 2, 4, 7}` (expressed through the
//! equivalent `ParOptions` API, since tests cannot safely mutate the
//! environment) must produce **bitwise-equal** results — for a raw
//! Krylov `expmv` evaluation and for a full `run_distributed` waveform —
//! because every tiled kernel reduces over fixed tile boundaries in a
//! deterministic order.

use matex_circuit::PdnBuilder;
use matex_core::TransientSpec;
use matex_dist::{run_distributed, DistributedOptions};
use matex_krylov::{build_basis, ExpmParams, RationalOp, SnapshotEvaluator};
use matex_par::{ParOptions, ParPool};
use matex_sparse::{CsrMatrix, LuOptions, SparseLu};
use proptest::prelude::*;

/// The thread counts the ISSUE's invariance criterion names.
const THREADS: [usize; 4] = [1, 2, 4, 7];

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `expmv` outputs are bitwise-equal at every pool width.
    #[test]
    fn expmv_is_thread_count_invariant(
        n in 60usize..220,
        cap_spread in 1.0f64..50.0,
        coupling in 0.2f64..1.5,
        h in 0.01f64..0.4,
    ) {
        // RC-ladder style C (diagonal) and G (tridiagonal, dominant),
        // scaled O(1) so the shifted mapping stays well conditioned for
        // every drawn (n, spread, coupling, h).
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
        let v: Vec<f64> = (0..n).map(|i| ((i * 11 % 23) as f64) - 11.0).collect();
        let params = ExpmParams { tol: 1e-8, ..ExpmParams::default() };

        let expmv = |pool: &ParPool| {
            let op = RationalOp::new(&lu, &c, gamma).with_parallelism(pool);
            let out = build_basis(&op, &v, h, &params).unwrap();
            let mut x = vec![0.0; n];
            SnapshotEvaluator::new()
                .eval_many_into(&out.basis, &[h], Some(pool), &mut x)
                .unwrap();
            bits(&x)
        };
        let reference = expmv(ParPool::inline());
        for threads in THREADS {
            prop_assert_eq!(
                &reference,
                &expmv(&ParPool::new(threads)),
                "expmv diverged at {} threads (n = {})",
                threads,
                n
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The batched `Vᵀ·W` combination kernel is bitwise-equal at every
    /// pool width and to the naive per-column loop.
    #[test]
    fn combine_columns_is_thread_count_invariant(
        n in 1usize..40_000,
        m in 1usize..9,
        k in 1usize..6,
        zero_every in 2usize..8,
        seed in 0usize..1000,
    ) {
        let vs: Vec<Vec<f64>> = (0..m)
            .map(|s| {
                (0..n)
                    .map(|i| (((i * (s + 2) + seed) % 211) as f64) * 0.03 - 3.0)
                    .collect()
            })
            .collect();
        let weights: Vec<f64> = (0..k * m)
            .map(|j| {
                if j % zero_every == 0 {
                    0.0 // exercise the zero-weight skip
                } else {
                    (((j * 17 + seed) % 23) as f64) - 11.0
                }
            })
            .collect();
        let mut reference = vec![0.0; k * n];
        for j in 0..k {
            let x = &mut reference[j * n..(j + 1) * n];
            for (i, v) in vs.iter().enumerate() {
                let wi = weights[j * m + i];
                if wi == 0.0 {
                    continue;
                }
                for (xe, ve) in x.iter_mut().zip(v) {
                    *xe += wi * ve;
                }
            }
        }
        for threads in THREADS {
            let pool = ParPool::new(threads);
            let mut out = vec![f64::NAN; k * n];
            matex_par::combine_columns(&pool, &vs, &weights, k, &mut out);
            prop_assert_eq!(
                bits(&reference),
                bits(&out),
                "combine_columns diverged at {} threads (n = {}, k = {})",
                threads,
                n,
                k
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Full distributed waveforms are bitwise-equal at every kernel
    /// thread budget, unset included.
    #[test]
    fn run_distributed_is_thread_count_invariant(
        dim in 4usize..7,
        loads in 4usize..10,
        features in 2usize..4,
        seed in 0usize..1000,
    ) {
        let sys = PdnBuilder::new(dim, dim)
            .num_loads(loads)
            .num_features(features)
            .window(1e-9)
            .seed(seed as u64)
            .build()
            .unwrap();
        let spec = TransientSpec::new(0.0, 1e-9, 5e-11).unwrap();
        let run_with = |threads: Option<usize>| {
            let opts = DistributedOptions {
                par: ParOptions { threads },
                workers: Some(2),
                ..DistributedOptions::default()
            };
            run_distributed(&sys, &spec, &opts).unwrap().result.series().to_vec()
        };
        let reference = run_with(None);
        for threads in THREADS {
            prop_assert_eq!(
                &reference,
                &run_with(Some(threads)),
                "distributed waveform diverged at {} kernel threads (seed {})",
                threads,
                seed
            );
        }
    }
}
