//! # odlb-testkit — deterministic randomized property testing
//!
//! A minimal property-test runner over the workspace's own
//! [`odlb_sim::SimRng`], used by the workspace-level property suites.
//! It exists because the build must work fully offline: the usual
//! `proptest` dependency is not available in this environment, and the
//! invariants it guarded are too valuable to drop.
//!
//! Differences from proptest, deliberately accepted:
//!
//! * **No generic shrinking.** On failure the base runner reports the
//!   property name, the failing case index and the case seed; re-running
//!   is fully deterministic, so the failing case can be replayed (and
//!   minimised by hand or committed as an explicit regression test — see
//!   the `*_regression` tests in `tests/`). Trace-valued properties get
//!   real delta-debug shrinking via [`trace::check_traces`], which
//!   operates on the concrete reference stream.
//! * **Derived, not sampled, seeds.** Every case's generator is seeded
//!   from FNV-1a over the property name plus the case index, so cases are
//!   independent, reproducible and stable across runs and platforms.
//!
//! ```
//! use odlb_testkit::{check, Gen};
//!
//! check("addition_commutes", 256, |g: &mut Gen| {
//!     let a = g.u64_in(0, 1 << 20);
//!     let b = g.u64_in(0, 1 << 20);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

pub mod matrix;
pub mod trace;

use odlb_sim::hash::fnv1a64;
use odlb_sim::SimRng;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Per-case random value source, wrapping the deterministic simulation
/// PRNG with range-oriented helpers shaped like proptest strategies.
pub struct Gen {
    rng: SimRng,
}

impl Gen {
    /// Creates a generator from an explicit seed (for replaying a case).
    pub fn from_seed(seed: u64) -> Self {
        Gen {
            rng: SimRng::new(seed),
        }
    }

    /// A uniform `u64` in `[lo, hi)`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        self.rng.range(lo, hi)
    }

    /// A uniform `u32` in `[lo, hi)`.
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        self.rng.range(lo as u64, hi as u64) as u32
    }

    /// A uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.rng.range(lo as u64, hi as u64) as usize
    }

    /// A uniform `f64` in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.rng.f64() * (hi - lo)
    }

    /// A Bernoulli draw with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.chance(p)
    }

    /// Samples an index from explicit (unnormalised) weights — the
    /// equivalent of a weighted `prop_oneof!`.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        self.rng.weighted(weights)
    }

    /// A vector of `len_range`-many values produced by `f`.
    pub fn vec_of<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut f: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let len = self.usize_in(min_len, max_len);
        (0..len).map(|_| f(self)).collect()
    }
}

/// The seed used for case `case` of property `name` (exposed so a
/// failing case can be replayed with [`Gen::from_seed`]).
pub fn case_seed(name: &str, case: u64) -> u64 {
    fnv1a64(name.as_bytes()) ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs `property` against `cases` independent random cases.
///
/// Set `ODLB_PROP_CASES` to scale the case count globally (e.g. `=10`
/// for a quick smoke run, `=10000` for a soak).
pub fn check(name: &str, cases: u64, property: impl Fn(&mut Gen)) {
    let cases = std::env::var("ODLB_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(cases);
    for case in 0..cases {
        let seed = case_seed(name, case);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut gen = Gen::from_seed(seed);
            property(&mut gen);
        }));
        if let Err(panic) = result {
            eprintln!(
                "property '{name}' failed at case {case}/{cases} \
                 (replay with Gen::from_seed({seed:#x}))"
            );
            resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_reproducible() {
        let mut a = Gen::from_seed(case_seed("p", 3));
        let mut b = Gen::from_seed(case_seed("p", 3));
        for _ in 0..100 {
            assert_eq!(a.u64_in(0, 1_000_000), b.u64_in(0, 1_000_000));
        }
    }

    #[test]
    fn distinct_properties_get_distinct_streams() {
        let mut a = Gen::from_seed(case_seed("alpha", 0));
        let mut b = Gen::from_seed(case_seed("beta", 0));
        let same = (0..64)
            .filter(|_| a.u64_in(0, u64::MAX) == b.u64_in(0, u64::MAX))
            .count();
        assert!(same < 2);
    }

    #[test]
    fn ranges_are_respected() {
        let mut g = Gen::from_seed(1);
        for _ in 0..10_000 {
            let x = g.f64_in(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
            let n = g.usize_in(1, 7);
            assert!((1..7).contains(&n));
        }
    }

    #[test]
    fn vec_of_respects_length_bounds() {
        let mut g = Gen::from_seed(2);
        for _ in 0..1_000 {
            let v = g.vec_of(1, 40, |g| g.u32_in(0, 10));
            assert!((1..40).contains(&v.len()));
        }
    }

    #[test]
    fn failing_case_is_reported() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            check("always_fails", 5, |_g| panic!("boom"));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn case_seeds_are_pinned() {
        // A recorded failing seed must keep replaying the same case.
        let seeds: Vec<u64> = ["alpha", "beta"]
            .iter()
            .flat_map(|name| (0..3).map(move |case| case_seed(name, case)))
            .collect();
        assert_eq!(
            seeds,
            [
                0x8ac6_25bb_85ed_202b,
                0x14f1_5c02_faa7_5c3e,
                0xb6a8_d6c9_7b79_d801,
                0x7627_619b_9546_20a7,
                0xe810_1822_ea0c_5cb2,
                0x4a49_92e9_6bd2_d88d,
            ]
        );
    }
}
