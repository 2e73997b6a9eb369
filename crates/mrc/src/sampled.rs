//! SHARDS-style spatially-sampled stack-distance tracking.
//!
//! The exact tracker pays `O(log n)` (Fenwick update + hash-map probe)
//! for *every* reference, which is the cost wall between per-class MRC
//! maintenance for a handful of classes and the thousands of tenant
//! classes a consolidated cluster carries. Spatial hash sampling (Waldspurger
//! et al., *SHARDS*, FAST'15) filters the reference stream down to a fixed
//! fraction `R` of the *key space*: a page survives iff a pure hash of its
//! key falls under `R · 2^64`. Because the filter is per-key (not per
//! reference), every reference to a sampled page is kept, so reuse
//! behaviour inside the sampled key population is preserved exactly and
//! the sampled stack distance of a survivor is an unbiased `R`-scaled
//! estimate of its true stack distance. Unsampled references cost one
//! multiply-shift hash and nothing else.
//!
//! At recording time each survivor's distance `d` is re-expanded to
//! `round(d / R)` and its histogram weight rescaled by `1/R`, so the
//! finished [`MissRatioCurve`] is directly comparable (same size axis,
//! approximately the same totals) with the exact tracker's.
//!
//! Determinism: the filter is splitmix64-style bit mixing over an FNV-1a
//! fold of the key bytes — no ambient randomness, no seeded state — so
//! the same reference stream always yields byte-identical curves and the
//! run digests of exact-mode figures are untouched (`clippy.toml` bans
//! `RandomState`, and this file carries no `#[expect]` lifting a ban).

use crate::curve::MissRatioCurve;
use crate::mattson::MattsonTracker;
use std::hash::{Hash, Hasher};

/// Which tracker the MRC recomputation path instantiates.
///
/// Threaded from the controller configuration down through the cluster
/// driver and engine into the per-class access-window replay, so the
/// whole stack switches tracker with one knob. `Exact` is the default
/// and is byte-for-byte the historical behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum MrcMode {
    /// Exact Mattson stack distances ([`MattsonTracker`]).
    #[default]
    Exact,
    /// SHARDS-style spatial sampling ([`SampledTracker`]) keeping a
    /// `rate` fraction of the key space.
    Sampled {
        /// Sampling rate `R` in `(0, 1]`.
        rate: f64,
    },
}

/// FNV-1a over the key's `Hash` byte stream. Deterministic across runs
/// and platforms (unlike `RandomState`), cheap for the small keys
/// (`u64`, page ids) the trackers see.
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// splitmix64 finalizer: full-avalanche bit mixing so that dense key
/// ranges (sequential page numbers) still sample uniformly.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The pure sampling hash: FNV-1a fold of the key, splitmix64-mixed.
fn sample_hash<K: Hash>(key: &K) -> u64 {
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    key.hash(&mut h);
    mix64(h.finish())
}

/// Spatially-sampled stack-distance tracker producing a rescaled
/// [`MissRatioCurve`], implementing the [`MattsonTracker`] access/curve
/// API surface.
#[derive(Clone, Debug)]
pub struct SampledTracker<K> {
    /// Keys whose mixed hash is `<= threshold` survive the filter.
    threshold: u64,
    /// Sampling rate `R`.
    rate: f64,
    /// Histogram weight per survivor event, `round(1/R)`.
    scale: u64,
    /// Exact stack over the sampled key population only. Its own curve
    /// is vestigial (cap 1); only the returned distances are used.
    inner: MattsonTracker<K>,
    /// The rescaled curve under construction (cap = full `cap_pages`).
    curve: MissRatioCurve,
    /// References that survived the filter.
    sampled: u64,
}

impl<K: Copy + Eq + Hash> SampledTracker<K> {
    /// Creates a tracker recording (rescaled) distances up to `cap_pages`
    /// with spatial sampling rate `rate` in `(0, 1]`.
    pub fn new(cap_pages: usize, rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate <= 1.0,
            "sampling rate must be in (0, 1], got {rate}"
        );
        // `rate * 2^64` saturates to u64::MAX at rate 1.0 (sample all).
        let threshold = if rate >= 1.0 {
            u64::MAX
        } else {
            (rate * (u64::MAX as f64)) as u64
        };
        SampledTracker {
            threshold,
            rate,
            scale: (1.0 / rate).round().max(1.0) as u64,
            inner: MattsonTracker::new(1),
            curve: MissRatioCurve::new(cap_pages),
            sampled: 0,
        }
    }

    /// Observes one reference. Returns the *rescaled* (estimated
    /// full-trace) LRU stack distance for a sampled re-access; `None`
    /// for a first access of a sampled key or any unsampled reference.
    pub fn access(&mut self, key: K) -> Option<u64> {
        if sample_hash(&key) > self.threshold {
            return None;
        }
        self.sampled += 1;
        match self.inner.access(key) {
            Some(d) => {
                // E[sampled distance] = R · true distance, so the
                // unbiased re-expansion is d / R (at least d: sampling
                // can only remove intervening keys).
                let est = ((d as f64 / self.rate).round() as u64).max(d);
                self.curve.record_hits_at(est, self.scale);
                Some(est)
            }
            None => {
                self.curve.record_cold_misses(self.scale);
                None
            }
        }
    }

    /// The rescaled curve accumulated so far. Its `total_accesses` is
    /// `scale ×` the survivor count — an estimate of the true reference
    /// count, not the exact number of references observed.
    pub fn curve(&self) -> &MissRatioCurve {
        &self.curve
    }

    /// Consumes the tracker, yielding its rescaled curve.
    pub fn into_curve(self) -> MissRatioCurve {
        self.curve
    }

    /// References that survived the hash filter.
    pub fn sampled_refs(&self) -> u64 {
        self.sampled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_trace(n: usize, footprint: u64, seed: u64) -> Vec<u64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x % footprint
            })
            .collect()
    }

    #[test]
    fn rate_one_is_exact() {
        let trace = lcg_trace(5_000, 700, 0xA1);
        let mut exact = MattsonTracker::new(2048);
        let mut sampled = SampledTracker::new(2048, 1.0);
        for &k in &trace {
            assert_eq!(exact.access(k), sampled.access(k));
        }
        assert_eq!(sampled.sampled_refs(), trace.len() as u64);
        for m in (1..=2048).step_by(97) {
            assert!((exact.curve().miss_ratio(m) - sampled.curve().miss_ratio(m)).abs() < 1e-12);
        }
    }

    #[test]
    fn filter_keeps_roughly_rate_fraction_of_keys() {
        let mut t = SampledTracker::new(1024, 0.1);
        for k in 0..100_000u64 {
            t.access(k);
        }
        // Every key is referenced once, so surviving references are
        // surviving keys.
        let kept = t.sampled_refs() as f64 / 100_000.0;
        assert!(
            (0.08..=0.12).contains(&kept),
            "hash filter badly biased: kept {kept}"
        );
    }

    #[test]
    fn filter_is_per_key_not_per_reference() {
        let mut t = SampledTracker::new(1024, 0.3);
        // Every reference to a sampled key must be kept: replay one key
        // many times; the survivor count is 0 or all.
        for _ in 0..50 {
            t.access(42u64);
        }
        assert!(t.sampled_refs() == 0 || t.sampled_refs() == 50);
    }

    #[test]
    fn loop_pattern_estimate_lands_near_true_distance() {
        // Cyclic scan of 1000 pages: every re-access has true distance
        // 1000; the rescaled estimates must cluster around it.
        let mut t = SampledTracker::new(4096, 0.1);
        let mut estimates = Vec::new();
        for i in 0..30_000u64 {
            if let Some(d) = t.access(i % 1000) {
                estimates.push(d);
            }
        }
        assert!(!estimates.is_empty());
        let mean = estimates.iter().sum::<u64>() as f64 / estimates.len() as f64;
        assert!(
            (800.0..=1200.0).contains(&mean),
            "rescaled loop distance should be ~1000, got {mean}"
        );
    }

    #[test]
    fn curve_totals_are_rescaled() {
        let trace = lcg_trace(40_000, 5_000, 0xB2);
        let mut t = SampledTracker::new(4096, 0.25);
        for &k in &trace {
            t.access(k);
        }
        assert_eq!(t.curve().total_accesses(), t.sampled_refs() * 4);
        // The rescaled total estimates the observed total.
        let ratio = t.curve().total_accesses() as f64 / trace.len() as f64;
        assert!((0.9..=1.1).contains(&ratio), "total estimate off: {ratio}");
    }

    #[test]
    fn deterministic_across_runs() {
        let trace = lcg_trace(10_000, 2_000, 0xC3);
        let run = || {
            let mut t = SampledTracker::new(2048, 0.1);
            for &k in &trace {
                t.access(k);
            }
            format!("{:?}", t.into_curve())
        };
        assert_eq!(run(), run(), "same trace must give identical curve bytes");
    }

    #[test]
    fn survivors_replay_exactly_like_a_filtered_naive_stack() {
        // The inner stack must agree with a naive LRU stack fed only the
        // survivors, and the rescaled estimate can never fall below the
        // sampled distance (sampling removes intervening keys, never
        // adds them).
        let trace = lcg_trace(3_000, 400, 0xD4);
        let mut t = SampledTracker::new(1024, 0.4);
        let mut naive = crate::mattson::NaiveStack::new();
        for &k in &trace {
            let est = t.access(k);
            if sample_hash(&k) <= t.threshold {
                match (est, naive.access(k)) {
                    (Some(e), Some(d)) => assert!(e >= d, "estimate {e} < sampled {d}"),
                    (None, None) => {}
                    (e, d) => panic!("survivor disagreement: {e:?} vs {d:?}"),
                }
            } else {
                assert_eq!(est, None, "filtered key must not be tracked");
            }
        }
    }

    #[test]
    #[should_panic(expected = "sampling rate must be in (0, 1]")]
    fn zero_rate_rejected() {
        SampledTracker::<u64>::new(100, 0.0);
    }

    #[test]
    #[should_panic(expected = "sampling rate must be in (0, 1]")]
    fn oversized_rate_rejected() {
        SampledTracker::<u64>::new(100, 1.5);
    }
}
