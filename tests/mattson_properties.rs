//! Property tests for the MRC substrate: every stack-distance tracker
//! must agree with the naive LRU stack through one shared differential
//! harness, and the curve must obey the inclusion property that makes
//! the paper's §2 math valid.

use odlb::bufferpool::LruList;
use odlb::mrc::mattson::NaiveStack;
use odlb::mrc::{compute_curve, MattsonTracker, MissRatioCurve, MrcMode, SampledTracker};
use odlb::storage::{PageId, SpaceId};
use odlb_testkit::trace::{check_traces, TraceFamily};
use odlb_testkit::{check, Gen};

fn small_trace(g: &mut Gen) -> Vec<u64> {
    g.vec_of(1, 600, |g| g.u64_in(0, 64))
}

fn skewed_trace(g: &mut Gen) -> Vec<u64> {
    // Mixture of a hot set and a long tail, closer to real workloads.
    g.vec_of(1, 600, |g| {
        if g.weighted(&[3.0, 1.0]) == 0 {
            g.u64_in(0, 16)
        } else {
            g.u64_in(0, 4096)
        }
    })
}

/// The shared differential harness: replays `trace` through `access`
/// and the [`NaiveStack`] oracle side by side, asserting identical
/// stack distances on every reference. Any tracker claiming the exact
/// Mattson contract (including [`SampledTracker`] at rate 1.0, whose
/// filter passes everything) plugs in as a closure.
fn assert_tracks_like_naive(
    trace: &[u64],
    label: &str,
    mut access: impl FnMut(u64) -> Option<u64>,
) {
    let mut naive = NaiveStack::new();
    for (i, &k) in trace.iter().enumerate() {
        let got = access(k);
        let want = naive.access(k);
        assert_eq!(got, want, "{label}: reference {i} (key {k}) diverged");
    }
}

/// Both exact trackers — and the sampled tracker with the filter wide
/// open — must produce exactly the naive stack's distances on every
/// trace family the testkit generates.
#[test]
fn trackers_match_naive_oracle() {
    check_traces("trackers_match_naive_oracle", 128, 600, |trace| {
        let mut fast = MattsonTracker::new(4096);
        assert_tracks_like_naive(trace, "mattson", |k| fast.access(k));
        let mut sampled = SampledTracker::new(4096, 1.0);
        assert_tracks_like_naive(trace, "sampled@1.0", |k| sampled.access(k));
    });
}

/// Outgrowing the initial Fenwick tree (and the 4096-slot rebuild
/// floor) must rebuild with ≥2× headroom over the live key count while
/// distances keep matching the oracle exactly.
#[test]
fn slot_capacity_grows_past_fenwick_floor() {
    let mut fast = MattsonTracker::new(64);
    let initial_slots = fast.slot_capacity();
    let mut naive = NaiveStack::new();
    // 6000 distinct keys, each visited twice with a stride so re-access
    // distances are non-trivial, pushes live keys past the 4096 floor.
    let keys = 6_000u64;
    let trace: Vec<u64> = (0..keys)
        .chain((0..keys).map(|i| (i + 17) % keys))
        .chain(0..keys)
        .collect();
    for &k in &trace {
        assert_eq!(fast.access(k), naive.access(k), "diverged at key {k}");
    }
    assert_eq!(fast.distinct_keys(), keys as usize);
    assert!(
        fast.slot_capacity() > initial_slots && fast.slot_capacity() >= 4096,
        "tracker must have rebuilt past its initial {initial_slots} slots, \
         got {}",
        fast.slot_capacity()
    );
    assert!(
        fast.slot_capacity() >= 2 * fast.distinct_keys(),
        "rebuild keeps ≥2x headroom: {} slots for {} keys",
        fast.slot_capacity(),
        fast.distinct_keys()
    );
}

/// Miss ratio must be monotone non-increasing in memory size — the
/// inclusion property of LRU.
#[test]
fn miss_ratio_is_monotone() {
    check("miss_ratio_is_monotone", 256, |g| {
        let trace = skewed_trace(g);
        let mut tracker = MattsonTracker::new(4096);
        for &k in &trace {
            tracker.access(k);
        }
        let curve = tracker.curve();
        let mut prev = 1.0 + 1e-12;
        for m in (1..=4096).step_by(37) {
            let mr = curve.miss_ratio(m);
            assert!(mr <= prev + 1e-12, "MR({m}) = {mr} > {prev}");
            assert!((0.0..=1.0).contains(&mr));
            prev = mr;
        }
    });
}

/// The MRC must *predict* an actual LRU pool: for any capacity, a
/// touch hits iff the tracked stack distance is within capacity, so
/// the measured miss count equals the curve's prediction exactly.
#[test]
fn curve_predicts_real_lru_pool() {
    check("curve_predicts_real_lru_pool", 256, |g| {
        let trace = skewed_trace(g);
        let cap = g.usize_in(1, 128);
        let mut tracker = MattsonTracker::new(4096);
        let mut lru = LruList::new(cap);
        let mut real_misses = 0u64;
        for &k in &trace {
            let page = PageId::new(SpaceId(0), k);
            if !lru.touch(page) {
                real_misses += 1;
                lru.insert(page);
            }
            tracker.access(k);
        }
        let predicted = tracker.curve().miss_ratio(cap);
        let actual = real_misses as f64 / trace.len() as f64;
        assert!(
            (predicted - actual).abs() < 1e-9,
            "cap {cap}: predicted {predicted} vs actual {actual}"
        );
    });
}

/// Params extraction invariants: acceptable ≤ total ≤ cap, ratios
/// ordered, and the acceptable ratio within threshold of ideal.
#[test]
fn params_invariants() {
    check("params_invariants", 256, |g| {
        let trace = skewed_trace(g);
        let threshold = g.f64_in(0.0, 0.5);
        let mut tracker = MattsonTracker::new(2048);
        for &k in &trace {
            tracker.access(k);
        }
        let p = tracker.curve().params(2048, threshold);
        assert!(p.acceptable_memory_needed <= 2048);
        assert!(p.total_memory_needed <= 2048);
        assert!(p.acceptable_memory_needed >= 1);
        assert!(p.acceptable_miss_ratio + 1e-12 >= p.ideal_miss_ratio);
        assert!(p.acceptable_miss_ratio <= p.ideal_miss_ratio + threshold + 1e-12);
    });
}

/// Merging two curves equals tracking the concatenated counts.
#[test]
fn curve_merge_is_additive() {
    check("curve_merge_is_additive", 256, |g| {
        let a = small_trace(g);
        let b = small_trace(g);
        let run = |t: &[u64]| {
            let mut tr = MattsonTracker::new(256);
            for &k in t {
                tr.access(k);
            }
            tr.into_curve()
        };
        let mut merged: MissRatioCurve = run(&a);
        merged.merge(&run(&b));
        assert_eq!(merged.total_accesses() as usize, a.len() + b.len());
    });
}

/// The testkit's named families behave as documented when replayed
/// through the exact tracker: a loop's re-accesses all land at distance
/// `keys`, and a one-pass scan is all cold misses.
#[test]
fn named_families_have_their_signature_distances() {
    let mut g = Gen::from_seed(41);
    let keys = 32u64;
    let t = TraceFamily::Loop { keys }.generate(&mut g, 96);
    let mut tracker = MattsonTracker::new(4096);
    for (i, &k) in t.iter().enumerate() {
        let d = tracker.access(k);
        if i < keys as usize {
            assert_eq!(d, None, "first pass is cold");
        } else {
            assert_eq!(d, Some(keys), "loop re-access distance is the loop length");
        }
    }

    let scan = TraceFamily::SequentialScan { keys: 8192 }.generate(&mut g, 4096);
    let mut tracker = MattsonTracker::new(8192);
    assert!(
        scan.iter().all(|&k| tracker.access(k).is_none()),
        "a one-pass scan never re-references"
    );
}

/// A window over several tablespaces, from the three bands the paper's
/// schemas and the extremes use: 0-7, 16-21 and 40 on. `footprint`
/// distinct pages, with a hot tenth drawn three times in four.
fn multi_space_window(g: &mut Gen, len: usize, footprint: u64) -> Vec<PageId> {
    let spaces: Vec<u32> = (0..g.usize_in(1, 6))
        .map(|_| match g.weighted(&[2.0, 1.0, 1.0]) {
            0 => g.u32_in(0, 8),
            1 => g.u32_in(16, 22),
            _ => g.u32_in(40, u32::MAX),
        })
        .collect();
    let base = g.u64_in(0, 1 << 31);
    (0..len)
        .map(|_| {
            let k = if g.chance(0.75) {
                g.u64_in(0, footprint.div_ceil(10))
            } else {
                g.u64_in(0, footprint)
            };
            let space = spaces[(k % spaces.len() as u64) as usize];
            PageId::new(SpaceId(space), base + k / spaces.len() as u64)
        })
        .collect()
}

/// The replay behind `compute_curve(MrcMode::Exact, …)` equals the curve
/// the naive stack derives and the online `access` loop, on windows of
/// 1-20k accesses whose distinct pages fall under and over the cap; and
/// a replay of `n` accesses sizes its slots from `n`, never compacting.
#[test]
fn exact_replay_equals_naive_curve_and_online_loop() {
    check("exact_replay_equals_naive_and_online", 24, |g| {
        let cap = g.usize_in(16, 1_024);
        let footprint = if g.chance(0.5) {
            g.u64_in(1, cap as u64)
        } else {
            g.u64_in(cap as u64 + 1, 4 * cap as u64)
        };
        let len = g.usize_in(1, 20_001);
        let window = multi_space_window(g, len, footprint);

        let mut naive = NaiveStack::new();
        let mut from_naive = MissRatioCurve::new(cap);
        let mut online = MattsonTracker::new(cap);
        for &page in &window {
            let d = naive.access(page);
            match d {
                Some(d) => from_naive.record_hit_at(d),
                None => from_naive.record_cold_miss(),
            }
            assert_eq!(online.access(page), d);
        }
        let replayed = compute_curve(MrcMode::Exact, cap, window.iter().copied());
        assert_eq!(replayed, from_naive, "cap {cap}, footprint {footprint}");
        assert_eq!(online.into_curve(), from_naive);

        let replay = MattsonTracker::replay(cap, window.iter().copied());
        assert_eq!(replay.slot_capacity(), window.len().div_ceil(64) * 64);
    });
}
