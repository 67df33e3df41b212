//! Minimal offline stand-in for [proptest](https://crates.io/crates/proptest).
//!
//! The build environment has no network access, so this shim supplies the
//! subset the workspace's property tests use: the `proptest!` macro with an
//! optional `#![proptest_config(ProptestConfig::with_cases(N))]` header,
//! integer-range strategies (`1usize..80`), and `prop_assert!` /
//! `prop_assert_eq!`. Each property runs over `N` deterministic
//! xorshift-sampled cases (default 64) — no shrinking, no persistence, but
//! the same "run the body over many sampled inputs" semantics.
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_types))]

/// Run-count configuration (mirrors `proptest::test_runner::ProptestConfig`).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of sampled cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config running `cases` samples per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Deterministic xorshift64* sampler seeded from the test name.
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from an arbitrary string (the property's name).
    pub fn new(seed_str: &str) -> Self {
        let mut h = 0xcbf29ce484222325u64;
        for b in seed_str.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng { state: h | 1 }
    }

    /// Next raw 64-bit sample.
    pub fn next_u64(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

/// A sampleable input domain (integer ranges only — all this workspace uses).
pub trait Strategy {
    /// The sampled value type.
    type Value;
    /// Draw one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

int_range_strategy!(usize, u64, u32, u16, u8);

/// Everything the `proptest!` macro body needs in scope.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy, TestRng};
}

/// Assert inside a property (no early-return Result plumbing in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Define property tests: each `fn name(arg in strategy, ...)` becomes a
/// `#[test]` running its body over sampled inputs.
#[macro_export]
macro_rules! proptest {
    (@items ($cfg:expr)) => {};
    (@items ($cfg:expr)
        #[test]
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        #[test]
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::new(concat!(module_path!(), "::", stringify!($name)));
            for _case in 0..cfg.cases {
                $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                $body
            }
        }
        $crate::proptest!{ @items ($cfg) $($rest)* }
    };
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!{ @items ($cfg) $($rest)* }
    };
    (#[test] $($rest:tt)*) => {
        $crate::proptest!{ @items ($crate::ProptestConfig::default()) #[test] $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        #[test]
        fn samples_stay_in_range(n in 3usize..10, seed in 0u64..100) {
            prop_assert!((3..10).contains(&n));
            prop_assert!(seed < 100);
        }

        #[test]
        fn arithmetic_property(a in 0u32..1000, b in 0u32..1000) {
            prop_assert_eq!(a as u64 + b as u64, b as u64 + a as u64);
        }
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::new("x");
        let mut b = TestRng::new("x");
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
