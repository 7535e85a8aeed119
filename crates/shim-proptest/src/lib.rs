//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset this workspace's property tests use: the
//! [`Strategy`] trait with `prop_map` / `boxed`, range and tuple
//! strategies, [`collection::vec`], [`bool::ANY`], `Just`, `prop_oneof!`,
//! the `proptest!` macro with `#![proptest_config(...)]` headers, and the
//! `prop_assert*` / `prop_assume!` macros.
//!
//! Semantics differ from real proptest in two deliberate ways: inputs are
//! drawn from a fixed deterministic seed (so test runs are reproducible
//! without regression files), and there is no shrinking — a failing case
//! panics with the drawn values in the assertion message instead.

#![forbid(unsafe_code)]

use rand::{Rng, RngCore, SeedableRng, Xoshiro256};
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

/// The deterministic source of test inputs.
pub struct TestRng(Xoshiro256);

impl TestRng {
    /// Creates the canonical deterministic generator for one test.
    pub fn deterministic(salt: u64) -> Self {
        TestRng(Xoshiro256::seed_from_u64(0x70726f70 ^ salt))
    }

    /// Draws 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Draws one value uniformly from a half-open u64 range.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.0.gen_range(0..bound.max(1))
    }

    /// Draws one f64 in [0, 1).
    pub fn unit_f64(&mut self) -> f64 {
        (self.0.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        let inner = Rc::new(self);
        BoxedStrategy(Rc::new(move |rng| inner.sample(rng)))
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T>(Rc<dyn Fn(&mut TestRng) -> T>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// The `prop_map` combinator.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// A strategy producing one fixed value.
#[derive(Clone, Copy, Debug)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                lo.wrapping_add((rng.next_u64() % span.max(1)) as $t)
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}
tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);

/// Boolean strategies (subset of `proptest::bool`).
pub mod bool {
    use super::{Strategy, TestRng};

    /// A uniform boolean strategy.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    impl Strategy for Any {
        type Value = bool;
        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Draws `true` and `false` with equal probability.
    pub const ANY: Any = Any;
}

/// Collection strategies (subset of `proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Sizes accepted by [`vec()`]: an exact length or a half-open range.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi: r.end }
        }
    }

    /// A strategy for `Vec<T>` with element strategy `S`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Generates vectors whose length is drawn from `size` and whose
    /// elements are drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

/// A uniform choice among boxed alternatives — the engine behind
/// `prop_oneof!`.
pub struct Union<T>(pub Vec<BoxedStrategy<T>>);

impl<T> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        assert!(!self.0.is_empty(), "empty prop_oneof");
        let idx = rng.below(self.0.len() as u64) as usize;
        self.0[idx].sample(rng)
    }
}

/// Run-count configuration for `proptest!` blocks.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
    /// Accepted for API compatibility; unused (no persistence here).
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256, max_shrink_iters: 0 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases, ..ProptestConfig::default() }
    }
}

/// Outcome of a single generated case: `Continue` keeps iterating,
/// `Reject` (from `prop_assume!`) discards the case without counting it
/// as a failure.
pub enum CaseResult {
    /// The case ran to completion.
    Continue,
    /// The case was rejected by `prop_assume!`.
    Reject,
}

/// The commonly used names, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        BoxedStrategy, Just, ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a `proptest!` case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a `proptest!` case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts inequality inside a `proptest!` case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Discards the current case when the precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return $crate::CaseResult::Reject;
        }
    };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that draws `cases` random inputs and runs the body
/// on each.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!{ ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!{ ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ( ($config:expr); $( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strategy:expr),* $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let mut salt: u64 = 0;
                for b in stringify!($name).bytes() {
                    salt = salt.wrapping_mul(31).wrapping_add(b as u64);
                }
                let mut rng = $crate::TestRng::deterministic(salt);
                let mut ran: u32 = 0;
                let mut attempts: u32 = 0;
                while ran < config.cases {
                    attempts += 1;
                    assert!(
                        attempts < config.cases.saturating_mul(20).max(1024),
                        "too many prop_assume rejections in {}",
                        stringify!($name),
                    );
                    $(let $arg = $crate::Strategy::sample(&$strategy, &mut rng);)*
                    // Whether the closure needs `mut` depends on `$body`.
                    #[allow(unused_mut)]
                    let mut case = || -> $crate::CaseResult {
                        $body
                        #[allow(unreachable_code)]
                        $crate::CaseResult::Continue
                    };
                    match case() {
                        $crate::CaseResult::Continue => ran += 1,
                        $crate::CaseResult::Reject => {}
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_even() -> impl Strategy<Value = u64> {
        (0u64..100).prop_map(|x| x * 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3usize..17, y in 1u64..=4) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((1..=4).contains(&y));
        }

        #[test]
        fn maps_and_oneof_compose(
            e in arb_even(),
            pick in prop_oneof![Just(1u8), Just(2u8), 5u8..7],
            v in crate::collection::vec((0usize..3, crate::bool::ANY), 0..5),
            b in crate::bool::ANY,
        ) {
            prop_assert_eq!(e % 2, 0);
            prop_assert!(pick == 1 || pick == 2 || (5..7).contains(&pick));
            prop_assert!(v.len() < 5);
            prop_assume!(usize::from(b) < 2);
        }

        #[test]
        fn exact_size_vec(v in crate::collection::vec(0u8..3, 3)) {
            prop_assert_eq!(v.len(), 3);
        }
    }

    #[test]
    fn assume_rejects_without_failing() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            fn inner(x in 0u32..10) {
                prop_assume!(x < 5);
                prop_assert!(x < 5);
            }
        }
        inner();
    }
}
