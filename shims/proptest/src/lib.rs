//! Minimal stand-in for `proptest`: random-input property testing with
//! the `proptest!` macro, composable strategies, and `prop_assert*`
//! macros. Failing inputs are reported with the case's seed but are
//! **not shrunk** — a deliberate simplification for a vendored shim.

/// Strategy combinators: how arbitrary values are described and sampled.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A recipe for generating values of `Self::Value`.
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
            Map { base: self, f }
        }

        /// Builds a dependent strategy from each generated value.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { base: self, f }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            (**self).sample(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn sample(&self, rng: &mut TestRng) -> S::Value {
            (**self).sample(rng)
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        base: S,
        f: F,
    }

    impl<S, U, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;

        fn sample(&self, rng: &mut TestRng) -> U {
            (self.f)(self.base.sample(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        base: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;

        fn sample(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.base.sample(rng)).sample(rng)
        }
    }

    /// Uniform choice between type-erased alternatives (`prop_oneof!`).
    pub struct Union<T> {
        options: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// A union over `options`; must be non-empty.
        pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Self { options }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.options.len() as u64) as usize;
            self.options[idx].sample(rng)
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "cannot sample empty range");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (S0 0)
        (S0 0, S1 1)
        (S0 0, S1 1, S2 2)
        (S0 0, S1 1, S2 2, S3 3)
        (S0 0, S1 1, S2 2, S3 3, S4 4)
    }
}

/// Strategies for collections.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A `Vec` whose length is drawn from `size` and whose elements come
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "cannot sample empty size range");
        VecStrategy { element, size }
    }

    /// See [`vec`](fn@vec).
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// The runner: configuration, RNG, and case-loop machinery.
pub mod test_runner {
    use crate::strategy::Strategy;
    use std::fmt;

    /// Deterministic generator behind all sampling (SplitMix64).
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A generator for the given seed.
        pub fn new(seed: u64) -> Self {
            Self { state: seed }
        }

        /// The next 64 uniformly random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; 0 when `bound` is 0.
        pub fn below(&mut self, bound: u64) -> u64 {
            if bound == 0 {
                return 0;
            }
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }
    }

    /// Runner configuration.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases each property is checked against.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    /// A failed (or rejected) test case.
    #[derive(Clone, PartialEq, Eq)]
    pub enum TestCaseError {
        /// The property does not hold; the message explains why.
        Fail(String),
        /// The input was rejected: the runner resamples a replacement so
        /// the configured case count is still met in full (a bounded
        /// reject budget guards against strategies that reject forever).
        Reject(String),
    }

    impl TestCaseError {
        /// A failure with the given reason.
        pub fn fail<S: Into<String>>(reason: S) -> Self {
            Self::Fail(reason.into())
        }

        /// A rejection with the given reason.
        pub fn reject<S: Into<String>>(reason: S) -> Self {
            Self::Reject(reason.into())
        }
    }

    impl fmt::Debug for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                Self::Fail(m) => write!(f, "Fail: {m}"),
                Self::Reject(m) => write!(f, "Reject: {m}"),
            }
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt::Debug::fmt(self, f)
        }
    }

    /// A property falsified after some number of passing cases.
    pub struct TestError {
        /// Explanation from the failing case.
        pub message: String,
        /// Per-case RNG seed; rerunning with it reproduces the input.
        pub seed: u64,
        /// Index of the failing case.
        pub case: u32,
    }

    impl fmt::Debug for TestError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(
                f,
                "property failed at case {} (seed {:#x}): {}",
                self.case, self.seed, self.message
            )
        }
    }

    /// Drives a strategy and a property through `config.cases` cases.
    pub struct TestRunner {
        config: ProptestConfig,
    }

    impl TestRunner {
        /// A runner with the given config.
        pub fn new(config: ProptestConfig) -> Self {
            Self { config }
        }

        /// Checks `test` against freshly sampled inputs; stops at the
        /// first failure. Deterministic: attempt `i` always uses a seed
        /// derived from `i`, so with no rejections case `i` samples the
        /// same input it always has.
        ///
        /// Rejected inputs do **not** consume the case budget — the
        /// runner draws a replacement from the next attempt seed until
        /// `config.cases` cases have actually passed. A strategy that
        /// rejects more than 16× the case budget is reported as an error
        /// rather than silently under-running the property.
        pub fn run<S, F>(&mut self, strategy: &S, test: F) -> Result<(), TestError>
        where
            S: Strategy,
            F: Fn(S::Value) -> Result<(), TestCaseError>,
        {
            let max_rejects = self.config.cases.saturating_mul(16).max(16);
            let mut passed: u32 = 0;
            let mut rejects: u32 = 0;
            let mut attempt: u64 = 0;
            while passed < self.config.cases {
                let seed = 0x5EED_0000u64 ^ attempt.wrapping_mul(0x2545_F491_4F6C_DD1D);
                attempt += 1;
                let mut rng = TestRng::new(seed);
                let value = strategy.sample(&mut rng);
                match test(value) {
                    Ok(()) => passed += 1,
                    Err(TestCaseError::Reject(reason)) => {
                        rejects += 1;
                        if rejects > max_rejects {
                            return Err(TestError {
                                message: format!(
                                    "strategy rejected {rejects} inputs before {} cases \
                                     passed (last rejection: {reason})",
                                    self.config.cases
                                ),
                                seed,
                                case: passed,
                            });
                        }
                    }
                    Err(TestCaseError::Fail(message)) => {
                        return Err(TestError {
                            message,
                            seed,
                            case: passed,
                        })
                    }
                }
            }
            Ok(())
        }
    }
}

/// The names property tests import, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Fails the current case (early-returns `Err`) unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "{}\nassertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
                format!($($fmt)*),
                left,
                right
            )));
        }
    }};
}

/// Fails the current case unless the two expressions differ.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left != right,
            "assertion failed: `(left != right)`\n  both: `{:?}`",
            left
        );
    }};
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Declares property tests: each `fn name(pat in strategy) { body }`
/// becomes a `#[test]` running the body against sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            cfg = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let strategy = ($($strat,)+);
            let mut runner = $crate::test_runner::TestRunner::new($cfg);
            let outcome = runner.run(&strategy, |($($pat,)+)| {
                $body
                ::core::result::Result::Ok(())
            });
            if let ::core::result::Result::Err(e) = outcome {
                panic!("{:?}", e);
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_pair() -> impl Strategy<Value = (usize, Vec<u32>)> {
        (1usize..20).prop_flat_map(|n| (Just(n), crate::collection::vec(0u32..n as u32, 0..50)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn vec_elements_in_range((n, items) in arb_pair()) {
            for &x in &items {
                prop_assert!((x as usize) < n, "{} out of range {}", x, n);
            }
            prop_assert!(items.len() < 50);
        }

        #[test]
        fn oneof_and_map((tag, v) in (prop_oneof![Just(0u32), Just(1u32)], (0u32..10).prop_map(|x| x * 2))) {
            prop_assert!(tag <= 1);
            prop_assert_eq!(v % 2, 0);
            prop_assert_ne!(v, 19);
        }
    }

    #[test]
    fn failing_property_reports_failure() {
        let mut runner = crate::test_runner::TestRunner::new(ProptestConfig::with_cases(32));
        let out = runner.run(&(0u32..100), |x| {
            if x < 1000 {
                Err(TestCaseError::fail("always fails"))
            } else {
                Ok(())
            }
        });
        assert!(out.is_err());
    }

    #[test]
    fn rejected_inputs_do_not_consume_the_case_budget() {
        use std::cell::Cell;
        let executed = Cell::new(0u32);
        let mut runner = crate::test_runner::TestRunner::new(ProptestConfig::with_cases(64));
        let out = runner.run(&(0u32..100), |x| {
            // Reject roughly half the inputs; the runner must still run
            // 64 *passing* cases, not 64 attempts.
            if x % 2 == 0 {
                return Err(TestCaseError::reject("even input"));
            }
            executed.set(executed.get() + 1);
            Ok(())
        });
        assert!(out.is_ok());
        assert_eq!(executed.get(), 64);
    }

    #[test]
    fn always_rejecting_strategy_errors_instead_of_passing_vacuously() {
        let mut runner = crate::test_runner::TestRunner::new(ProptestConfig::with_cases(8));
        let out = runner.run(&(0u32..100), |_x| Err(TestCaseError::reject("never")));
        let err = out.unwrap_err();
        assert!(format!("{err:?}").contains("rejected"), "{err:?}");
    }

    #[test]
    fn question_mark_and_fail_compose() {
        let mut runner = crate::test_runner::TestRunner::new(ProptestConfig::with_cases(8));
        let out = runner.run(&(0u32..100), |_x| {
            let r: Result<(), String> = Ok(());
            r.map_err(TestCaseError::fail)?;
            Ok(())
        });
        assert!(out.is_ok());
    }

    #[test]
    fn deterministic_sampling() {
        use crate::strategy::Strategy;
        let s = (0u64..1_000_000).prop_map(|x| x + 1);
        let mut a = crate::test_runner::TestRng::new(7);
        let mut b = crate::test_runner::TestRng::new(7);
        let xs: Vec<u64> = (0..16).map(|_| s.sample(&mut a)).collect();
        let ys: Vec<u64> = (0..16).map(|_| s.sample(&mut b)).collect();
        assert_eq!(xs, ys);
    }
}
