//! Offline, API-compatible subset of the [`proptest`] crate.
//!
//! The build environment for this workspace has no network access and no
//! vendored registry, so the real `proptest` cannot be fetched. This shim
//! implements the slice of its API the workspace's property suites use —
//! [`Strategy`] with `prop_map`, range/tuple/`Just`/`any` strategies,
//! `proptest::collection::vec`, the [`proptest!`] / [`prop_assert!`]
//! family and a per-block [`ProptestConfig`] case count — on top of a
//! small deterministic xorshift RNG.
//!
//! Differences from the real crate, by design:
//!
//! * **No shrinking.** A failing case reports its inputs (via the
//!   assertion message) but is not minimised.
//! * **Deterministic seeding.** Each test derives its seed from its own
//!   name, so runs are reproducible; set `PROPTEST_CASES` to change the
//!   number of cases per test (default 32). A block that states its own
//!   count (`#![proptest_config(ProptestConfig::with_cases(n))]`) keeps
//!   it, as in the real crate.
//!
//! To switch to the real crate, repoint the `proptest` entry in the
//! workspace `[workspace.dependencies]` at a registry version.
//!
//! [`proptest`]: https://crates.io/crates/proptest

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Range, RangeFrom};

/// Deterministic xorshift64* generator driving all strategies.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Creates a generator from a seed (zero is remapped).
    pub fn new(seed: u64) -> Self {
        TestRng(seed | 1)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a over a test's name: the per-test base seed.
pub fn seed_from_name(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Error produced by a failing `prop_assert*` inside a [`proptest!`] body.
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// A failed assertion with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Result type of a [`proptest!`] case body.
pub type TestCaseResult = Result<(), TestCaseError>;

/// A generator of values of type [`Strategy::Value`].
pub trait Strategy {
    /// The type of values this strategy produces.
    type Value;

    /// Draws one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Erases the concrete strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// Object-safe view of [`Strategy`] used by [`BoxedStrategy`].
trait DynStrategy<T> {
    fn dyn_new_value(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn dyn_new_value(&self, rng: &mut TestRng) -> S::Value {
        self.new_value(rng)
    }
}

/// A type-erased [`Strategy`].
pub struct BoxedStrategy<T>(Box<dyn DynStrategy<T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        self.0.dyn_new_value(rng)
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn new_value(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.new_value(rng))
    }
}

/// Strategy that always yields a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between several boxed strategies ([`prop_oneof!`]).
pub struct Union<T>(Vec<BoxedStrategy<T>>);

impl<T> Union<T> {
    /// Builds a union over non-empty `options`.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union(options)
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.0.len() as u64) as usize;
        self.0[i].new_value(rng)
    }
}

/// Types with a canonical full-range strategy, via [`any`].
pub trait Arbitrary {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The full-range strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i128) - (self.start as i128);
                assert!(span > 0, "empty range strategy");
                let off = rng.below(span as u64) as i128;
                ((self.start as i128) + off) as $t
            }
        }
        impl Strategy for RangeFrom<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                let span = (<$t>::MAX as i128) - (self.start as i128) + 1;
                // A span covering the whole 64-bit domain cannot be stored
                // in a u64 modulus; one missing topmost value is acceptable.
                let modulus = if span > u64::MAX as i128 { u64::MAX } else { span as u64 };
                let off = rng.below(modulus) as i128;
                ((self.start as i128) + off) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident $i:tt),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.new_value(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy! {
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy producing vectors with lengths drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// Vectors of `element` values with length in `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = Strategy::new_value(&self.len, rng);
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Number of cases each test runs (`PROPTEST_CASES`, default 32).
pub fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

/// A [`proptest!`] block's configuration, set with
/// `#![proptest_config(...)]` as the block's first item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Cases each test of the block runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Glob-import surface mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError, TestCaseResult,
    };
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over generated inputs. An optional
/// leading `#![proptest_config(config)]` sets the block's case count.
#[macro_export]
macro_rules! proptest {
    (@with $config:expr; $(
        $(#[$attr:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )+) => {$(
        $(#[$attr])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let mut rng = $crate::TestRng::new($crate::seed_from_name(stringify!($name)));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::new_value(&$strat, &mut rng);)+
                let result: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(e) = result {
                    panic!("proptest {} failed at case {case}: {e}", stringify!($name));
                }
            }
        }
    )+};
    (#![proptest_config($config:expr)] $($tests:tt)+) => {
        $crate::proptest!(@with $config; $($tests)+);
    };
    ($($tests:tt)+) => {
        $crate::proptest!(@with $crate::ProptestConfig::with_cases($crate::cases()); $($tests)+);
    };
}

/// Uniformly chooses between the listed strategies each draw.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($s)),+])
    };
}

/// `assert!` that fails the current case instead of panicking directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// `assert_eq!` flavour of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a == *b, "{:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a == *b, "{:?} != {:?}: {}", a, b, format!($($fmt)+));
    }};
}

/// `assert_ne!` flavour of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a != *b, "{:?} == {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a != *b, "{:?} == {:?}: {}", a, b, format!($($fmt)+));
    }};
}

/// Skips the rest of the case when the assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Ok(());
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(7);
        for _ in 0..1000 {
            let v = (3u8..9).new_value(&mut rng);
            assert!((3..9).contains(&v));
            let w = (-5i32..5).new_value(&mut rng);
            assert!((-5..5).contains(&w));
            let x = (1u64..).new_value(&mut rng);
            assert!(x >= 1);
        }
    }

    #[test]
    fn vec_lengths_respect_range() {
        let mut rng = TestRng::new(11);
        for _ in 0..200 {
            let v = collection::vec(0u8..4, 2..6).new_value(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&b| b < 4));
        }
    }

    #[test]
    fn oneof_draws_every_option() {
        let mut rng = TestRng::new(13);
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[s.new_value(&mut rng) as usize] = true;
        }
        assert_eq!(seen, [false, true, true, true]);
    }

    static CONFIGURED_CASES: AtomicU32 = AtomicU32::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]
        /// Not a `#[test]` itself: the test below calls it and counts.
        fn a_block_config_sets_the_case_count(x in 0u32..10) {
            prop_assert!(x < 10);
            CONFIGURED_CASES.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn configured_block_runs_its_own_count() {
        CONFIGURED_CASES.store(0, Ordering::Relaxed);
        a_block_config_sets_the_case_count();
        assert_eq!(CONFIGURED_CASES.load(Ordering::Relaxed), 5);
    }

    proptest! {
        #[test]
        fn shim_macro_smoke(x in 0u32..10, flip in any::<bool>()) {
            prop_assert!(x < 10);
            if flip {
                return Ok(());
            }
            prop_assert_eq!(x, x);
            prop_assert_ne!(x, x + 1);
        }
    }
}
