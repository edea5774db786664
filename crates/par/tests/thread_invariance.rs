//! Property-based proof of the kernel determinism contract: the batched
//! `Vᵀ·W` combination must produce **bitwise-equal** results at every
//! pool width, because every tiled kernel reduces over fixed tile
//! boundaries in a deterministic order.

use matex_par::ParPool;
use proptest::prelude::*;

/// The pool widths the invariance check covers.
const THREADS: [usize; 4] = [1, 2, 4, 7];

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
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
