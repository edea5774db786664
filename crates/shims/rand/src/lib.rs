//! Minimal, fully offline stand-in for the `rand` crate.
//!
//! The container this workspace builds in has no crates.io access. The
//! only consumer is `matex-circuit`'s synthetic-grid builders, which need
//! a seedable deterministic generator with `gen_range` over half-open
//! `f64`/integer ranges — exactly what this shim provides (splitmix64
//! core). The streams differ from upstream `rand`; nothing in the
//! workspace depends on upstream's exact values, only on determinism per
//! seed.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

use std::ops::Range;

/// Sources of randomness: the core 64-bit generator.
pub trait RngCore {
    /// Next raw 64-bit value.
    fn next_u64(&mut self) -> u64;
}

/// Sampling helpers over any [`RngCore`] (the `rand::Rng` surface used by
/// this workspace).
pub trait Rng: RngCore {
    /// Uniform sample from a half-open range.
    ///
    /// # Panics
    ///
    /// Panics on an empty range.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample(self)
    }
}

impl<T: RngCore> Rng for T {}

/// Types that can be sampled uniformly from by a generator.
pub trait SampleRange<T> {
    /// Draws one value.
    fn sample<R: RngCore>(self, rng: &mut R) -> T;
}

impl SampleRange<f64> for Range<f64> {
    fn sample<R: RngCore>(self, rng: &mut R) -> f64 {
        assert!(self.end > self.start, "gen_range: empty f64 range");
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + (self.end - self.start) * unit
    }
}

macro_rules! impl_int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.end > self.start, "gen_range: empty integer range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

impl_int_sample_range!(usize, u64, u32);

/// Generators constructible from a seed.
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Generator namespace mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic splitmix64 generator (stand-in for rand's `StdRng`).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng {
                state: seed ^ 0x9e37_79b9_7f4a_7c15,
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(
                a.gen_range(0usize..1_000_000),
                b.gen_range(0usize..1_000_000)
            );
        }
    }

    #[test]
    fn ranges_respected() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let f = rng.gen_range(-2.5..1.5_f64);
            assert!((-2.5..1.5).contains(&f));
            let i = rng.gen_range(3usize..9);
            assert!((3..9).contains(&i));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<usize> = (0..8).map(|_| a.gen_range(0usize..1 << 30)).collect();
        let vb: Vec<usize> = (0..8).map(|_| b.gen_range(0usize..1 << 30)).collect();
        assert_ne!(va, vb);
    }
}
