//! Minimal, fully offline stand-in for the `proptest` crate.
//!
//! The container this workspace builds in has no crates.io access, so the
//! real proptest cannot be vendored. This shim implements exactly the
//! surface the workspace's property tests use:
//!
//! * the [`proptest!`] macro with an optional
//!   `#![proptest_config(ProptestConfig::with_cases(n))]` header,
//! * `x in strategy` bindings over ranges, tuples, mapped strategies, and
//!   `prop::collection::vec`,
//! * [`prop_assert!`] / [`prop_assert_eq!`].
//!
//! Generation is deterministic (seeded per test from the test name), so
//! failures reproduce exactly. There is no shrinking: a failing case
//! reports its case index and panics with the assertion message.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

use std::ops::Range;

/// Runner configuration. Only the case count is honoured.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` generated inputs per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 32 }
    }
}

/// Deterministic splitmix64 generator.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds from a test name (FNV-1a over the bytes).
    pub fn seeded(name: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng { state: h | 1 }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A value generator. The shim equivalent of proptest's `Strategy`.
pub trait Strategy: Sized {
    /// The generated value type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f` (proptest's `prop_map`).
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F> {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + (self.end - self.start) * rng.next_f64()
    }
}

impl Strategy for Range<usize> {
    type Value = usize;

    fn generate(&self, rng: &mut TestRng) -> usize {
        assert!(self.end > self.start, "empty usize range");
        self.start + rng.below(self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A: 0);
impl_tuple_strategy!(A: 0, B: 1);
impl_tuple_strategy!(A: 0, B: 1, C: 2);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// Strategy modules mirroring proptest's `prop::` namespace.
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRng};
        use std::ops::Range;

        /// Length specification: a fixed `usize` or a `Range<usize>`.
        pub trait SizeRange {
            /// Draws a length.
            fn draw(&self, rng: &mut TestRng) -> usize;
        }

        impl SizeRange for usize {
            fn draw(&self, _rng: &mut TestRng) -> usize {
                *self
            }
        }

        impl SizeRange for Range<usize> {
            fn draw(&self, rng: &mut TestRng) -> usize {
                Strategy::generate(self, rng)
            }
        }

        /// The strategy returned by [`vec()`].
        #[derive(Debug, Clone)]
        pub struct VecStrategy<S, L> {
            element: S,
            len: L,
        }

        impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let n = self.len.draw(rng);
                (0..n).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// `Vec` of values drawn from `element`, with length from `len`.
        pub fn vec<S: Strategy, L: SizeRange>(element: S, len: L) -> VecStrategy<S, L> {
            VecStrategy { element, len }
        }
    }
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::prop;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
    pub use crate::{ProptestConfig, Strategy, TestRng};
}

/// Asserts a condition inside a property test (panics on failure; the
/// shim performs no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)+) => {
        assert!($cond, $($fmt)+);
    };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_eq!($a, $b, $($fmt)+);
    };
}

/// Declares property tests.
///
/// Each `fn name(arg in strategy, ...) { body }` item becomes a `#[test]`
/// that draws `cases` inputs deterministically and runs the body on each.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@with_cfg ($cfg); $($rest)*);
    };
    (
        @with_cfg ($cfg:expr);
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::seeded(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..config.cases {
                    let run = |rng: &mut $crate::TestRng| {
                        $(let $arg = $crate::Strategy::generate(&($strat), rng);)*
                        $body
                    };
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run(&mut rng)
                    }));
                    if let Err(payload) = result {
                        eprintln!(
                            "proptest shim: {} failed on case {}/{}",
                            stringify!($name), case + 1, config.cases
                        );
                        std::panic::resume_unwind(payload);
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@with_cfg ($crate::ProptestConfig::default()); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn deterministic_per_name() {
        let mut a = TestRng::seeded("x");
        let mut b = TestRng::seeded("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::seeded("bounds");
        for _ in 0..1000 {
            let v = Strategy::generate(&(1.5..2.5_f64), &mut rng);
            assert!((1.5..2.5).contains(&v));
            let k = Strategy::generate(&(3usize..7), &mut rng);
            assert!((3..7).contains(&k));
        }
    }

    #[test]
    fn vec_lengths_respect_spec() {
        let mut rng = TestRng::seeded("lens");
        for _ in 0..100 {
            let fixed = Strategy::generate(&prop::collection::vec(0.0..1.0_f64, 3usize), &mut rng);
            assert_eq!(fixed.len(), 3);
            let ranged = Strategy::generate(&prop::collection::vec(0usize..5, 0usize..4), &mut rng);
            assert!(ranged.len() < 4);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_end_to_end(
            n in 1usize..5,
            xs in prop::collection::vec(-1.0..1.0_f64, 2),
            pair in (0usize..10, 0.0..1.0_f64),
        ) {
            prop_assert!((1..5).contains(&n));
            prop_assert_eq!(xs.len(), 2);
            prop_assert!(pair.0 < 10);
            prop_assert!(pair.1 >= 0.0 && pair.1 < 1.0);
        }
    }
}
