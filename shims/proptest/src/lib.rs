//! Offline shim for the `proptest` crate: enough of the API for this
//! workspace's property tests to run without registry access. Supports the
//! `proptest!` macro (both `pat in strategy` and `ident: Type` parameters,
//! plus `#![proptest_config(..)]`), range/tuple/vec/option strategies,
//! `prop_map`, `prop_oneof!`, `any::<T>()`, and the `prop_assert*` /
//! `prop_assume!` family. Cases are generated from a deterministic RNG
//! seeded by the test's module path and name, so runs are reproducible.
//! There is no shrinking: a failing case reports its assertion message only.

#![warn(missing_docs)]

/// Test-runner plumbing: config, RNG, and case-level error type.
pub mod test_runner {
    /// Per-`proptest!` block configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of accepted (non-rejected) cases to run per test.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases per test.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// An assertion failed; the test as a whole fails.
        Fail(String),
        /// The case was rejected by `prop_assume!`; the runner draws another.
        Reject(String),
    }

    impl TestCaseError {
        /// A failing case with message `m`.
        pub fn fail(m: impl Into<String>) -> Self {
            TestCaseError::Fail(m.into())
        }

        /// A rejected case with reason `m`.
        pub fn reject(m: impl Into<String>) -> Self {
            TestCaseError::Reject(m.into())
        }
    }

    /// Deterministic xorshift64* generator used to drive all strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seed from a test's fully qualified name (FNV-1a hash), so every
        /// test gets a distinct but stable stream.
        pub fn from_name(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in name.as_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            Self { state: h.max(1) }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        /// Uniform draw in `[0, span)`; `span` must be nonzero.
        pub fn below(&mut self, span: u64) -> u64 {
            debug_assert!(span > 0);
            self.next_u64() % span
        }

        /// Uniform draw in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

/// The [`Strategy`](strategy::Strategy) trait and combinators.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A generator of values of type `Self::Value`.
    ///
    /// Object-safe core is [`Strategy::sample`]; combinators are provided
    /// methods gated on `Sized` so `Box<dyn Strategy<Value = T>>` works.
    pub trait Strategy {
        /// The type of value this strategy generates.
        type Value;

        /// Draw one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Erase the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            (**self).sample(rng)
        }
    }

    /// Always produces a clone of the wrapped value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// [`Strategy::prop_map`] adapter.
    #[derive(Debug, Clone)]
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

    /// Uniform choice between strategies (backs `prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// A union over `arms`; sampling picks one arm uniformly.
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Self { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].sample(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start() <= self.end(), "empty range strategy");
                    let span = (*self.end() as i128 - *self.start() as i128) as u64;
                    // span + 1 can only overflow for a full u64/i64 domain,
                    // which no test here uses.
                    (*self.start() as i128 + rng.below(span + 1) as i128) as $t
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.next_f64() * (self.end - self.start)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($s:ident/$idx:tt),+) => {
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A / 0);
    impl_tuple_strategy!(A / 0, B / 1);
    impl_tuple_strategy!(A / 0, B / 1, C / 2);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5, G / 6);
    impl_tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5, G / 6, H / 7);
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Length bound for collection strategies: `[lo, hi)`.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            Self {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// Strategy for `Vec`s whose elements come from an inner strategy.
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// A strategy producing `Vec`s of `elem` values with a length in `size`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.elem.sample(rng)).collect()
        }
    }
}

/// Option strategies (`prop::option::of`).
pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for `Option`s over an inner strategy.
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// A strategy producing `None` about a quarter of the time and
    /// `Some(inner)` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.sample(rng))
            }
        }
    }
}

/// `any::<T>()` and the [`Arbitrary`](arbitrary::Arbitrary) trait.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy.
    pub trait Arbitrary {
        /// Draw an arbitrary value of this type.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    /// The canonical strategy generating any value of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
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

    impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
        fn arbitrary(rng: &mut TestRng) -> [T; N] {
            std::array::from_fn(|_| T::arbitrary(rng))
        }
    }
}

/// Everything a test file needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// Namespace facade matching `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::collection;
        pub use crate::option;
    }
}

/// Define property tests. Supports an optional leading
/// `#![proptest_config(expr)]` and any number of test functions whose
/// parameters are either `pattern in strategy` or `ident: Type` (the latter
/// sampled via `any::<Type>()`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!(($cfg); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!(($crate::test_runner::ProptestConfig::default()); $($rest)*);
    };
}

/// Internal: expand each `fn` item inside `proptest!` into a test running
/// `cfg.cases` sampled cases. Not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr); ) => {};
    (($cfg:expr); $(#[$meta:meta])* fn $name:ident($($params:tt)*) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __pt_cfg = $cfg;
            let mut __pt_rng = $crate::test_runner::TestRng::from_name(
                concat!(module_path!(), "::", stringify!($name)),
            );
            let mut __pt_accepted: u32 = 0;
            let mut __pt_attempts: u32 = 0;
            while __pt_accepted < __pt_cfg.cases {
                __pt_attempts += 1;
                if __pt_attempts > __pt_cfg.cases.saturating_mul(20).max(1000) {
                    panic!(
                        "proptest shim: too many cases rejected by prop_assume! in {}",
                        stringify!($name)
                    );
                }
                match $crate::__proptest_case!(__pt_rng; ($($params)*) $body) {
                    Ok(()) => __pt_accepted += 1,
                    Err($crate::test_runner::TestCaseError::Reject(_)) => continue,
                    Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest case {} of {} failed: {}",
                            __pt_accepted + 1,
                            stringify!($name),
                            msg
                        );
                    }
                }
            }
        }
        $crate::__proptest_items!(($cfg); $($rest)*);
    };
}

/// Internal: sample each parameter, then run the body as a fallible case.
/// Not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_case {
    ($rng:ident; () $body:block) => {
        (move || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
            $body;
            Ok(())
        })()
    };
    ($rng:ident; (,) $body:block) => {
        $crate::__proptest_case!($rng; () $body)
    };
    ($rng:ident; ($pat:pat_param in $strat:expr, $($rest:tt)*) $body:block) => {{
        let $pat = $crate::strategy::Strategy::sample(&($strat), &mut $rng);
        $crate::__proptest_case!($rng; ($($rest)*) $body)
    }};
    ($rng:ident; ($pat:pat_param in $strat:expr) $body:block) => {{
        let $pat = $crate::strategy::Strategy::sample(&($strat), &mut $rng);
        $crate::__proptest_case!($rng; () $body)
    }};
    ($rng:ident; ($id:ident : $ty:ty, $($rest:tt)*) $body:block) => {{
        let $id: $ty =
            $crate::strategy::Strategy::sample(&$crate::arbitrary::any::<$ty>(), &mut $rng);
        $crate::__proptest_case!($rng; ($($rest)*) $body)
    }};
    ($rng:ident; ($id:ident : $ty:ty) $body:block) => {{
        let $id: $ty =
            $crate::strategy::Strategy::sample(&$crate::arbitrary::any::<$ty>(), &mut $rng);
        $crate::__proptest_case!($rng; () $body)
    }};
}

/// Assert a condition inside a `proptest!` body; on failure the current
/// case fails with the stringified condition (or a formatted message).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Assert two values are equal inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (__pt_a, __pt_b) = (&$a, &$b);
        if !(*__pt_a == *__pt_b) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($a),
                stringify!($b),
                __pt_a,
                __pt_b
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (__pt_a, __pt_b) = (&$a, &$b);
        if !(*__pt_a == *__pt_b) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)*),
                __pt_a,
                __pt_b
            )));
        }
    }};
}

/// Assert two values are unequal inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (__pt_a, __pt_b) = (&$a, &$b);
        if *__pt_a == *__pt_b {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($a),
                stringify!($b),
                __pt_a
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (__pt_a, __pt_b) = (&$a, &$b);
        if *__pt_a == *__pt_b {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "{}\n  both: {:?}",
                format!($($fmt)*),
                __pt_a
            )));
        }
    }};
}

/// Reject the current case unless the condition holds; the runner draws a
/// replacement case (bounded, so a near-always-false assumption still fails
/// loudly instead of looping).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

/// Uniform choice among several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::from_name("ranges");
        for _ in 0..1000 {
            let v = Strategy::sample(&(2usize..5), &mut rng);
            assert!((2..5).contains(&v));
            let w = Strategy::sample(&(40usize..=1500), &mut rng);
            assert!((40..=1500).contains(&w));
            let f = Strategy::sample(&(0.05f64..0.8), &mut rng);
            assert!((0.05..0.8).contains(&f));
            let i = Strategy::sample(&(1i64..1 << 40), &mut rng);
            assert!((1..1 << 40).contains(&i));
        }
    }

    #[test]
    fn vec_and_option_strategies() {
        let mut rng = TestRng::from_name("vec");
        let exact = prop::collection::vec(any::<bool>(), 400);
        assert_eq!(Strategy::sample(&exact, &mut rng).len(), 400);
        let ranged = prop::collection::vec(0usize..5, 1..500);
        for _ in 0..100 {
            let v = Strategy::sample(&ranged, &mut rng);
            assert!((1..500).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
        let opt = prop::option::of(0u32..u32::MAX);
        let mut nones = 0;
        for _ in 0..1000 {
            if Strategy::sample(&opt, &mut rng).is_none() {
                nones += 1;
            }
        }
        assert!(nones > 100 && nones < 500, "{nones}");
    }

    #[test]
    fn oneof_and_map_compose() {
        let s = prop_oneof![
            (0u8..10).prop_map(|v| v as u32),
            any::<u32>(),
            (100u32..200).prop_map(|v| v + 1),
        ];
        let mut rng = TestRng::from_name("oneof");
        for _ in 0..100 {
            let _ = Strategy::sample(&s, &mut rng);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Both parameter forms in one signature, plus assume + asserts.
        #[test]
        fn macro_end_to_end(xs in prop::collection::vec(1usize..100, 1..20), seed: u64, b in any::<bool>()) {
            prop_assume!(!xs.is_empty());
            let sum: usize = xs.iter().sum();
            prop_assert!(sum >= xs.len(), "sum {sum} too small");
            let mut ys = xs.clone();
            ys.reverse();
            ys.reverse();
            prop_assert_eq!(&ys, &xs);
            prop_assert_ne!(sum + 1, 0);
            let _ = (seed, b);
        }
    }
}
