//! Differential property tests for the SHARDS-style sampled MRC tracker.
//!
//! The sampled tracker trades exactness for speed; these tests pin the
//! trade precisely:
//!
//! * the sampled curve's mean absolute miss-ratio error against the
//!   exact Mattson curve stays under a per-rate bound across every
//!   workload family the testkit generates;
//! * the sampled curve keeps the structural MRC invariants (monotone
//!   non-increasing miss ratio);
//! * the whole pipeline is deterministic: same seed, same curve bytes;
//! * and — the controller-facing contract — driving the fig. 5
//!   BestSeller experiment at `Sampled { rate: 0.1 }` yields the *same
//!   controller actions* as exact mode, with byte-identical run digests
//!   when exact mode is replayed.

use std::cell::Cell;

// Quotas are meaningful at the granularity of the controller's quota
// floor, so decision parity is defined over quota *units*, not raw pages.
use odlb::core::memory::{mrc_changed, MIN_QUOTA_PAGES, MRC_THRESHOLD};
use odlb::mrc::{
    compute_curve, fit_quotas, MissRatioCurve, MrcMode, MrcParams, QuotaRequest, SampledTracker,
};
use odlb::sim::SimRng;
use odlb::trace::{ActionKind, DigestSink, RingBufferSink, TraceEvent, Tracer};
use odlb::workload::tpcw::{tpcw_workload, TpcwConfig, BESTSELLER};
use odlb_testkit::trace::{check_traces, TraceFamily};
use odlb_testkit::{check, Gen};

/// Pool size used throughout (the fig. 5 configuration).
const CAP: usize = 8192;

/// Mean absolute miss-ratio difference over a uniform memory-size grid.
fn mean_abs_error(exact: &MissRatioCurve, sampled: &MissRatioCurve) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u32;
    let mut m = 1;
    while m <= CAP {
        sum += (exact.miss_ratio(m) - sampled.miss_ratio(m)).abs();
        n += 1;
        m += 128;
    }
    sum / n as f64
}

/// Draws a family sized so the filter keeps a meaningful key population
/// (SHARDS' error guarantee is statistical: at rate R it needs on the
/// order of tens of sampled keys, i.e. `keys ≳ 64/R`).
fn family_with_min_keys(g: &mut Gen, min_keys: u64) -> TraceFamily {
    match g.weighted(&[3.0, 1.0, 1.0, 2.0]) {
        0 => TraceFamily::Zipf {
            keys: g.u64_in(min_keys, 8192),
            exponent: g.f64_in(0.6, 1.2),
        },
        1 => TraceFamily::SequentialScan {
            keys: g.u64_in(min_keys.max(2048), 8192),
        },
        2 => TraceFamily::Loop {
            keys: g.u64_in(min_keys, 4096),
        },
        _ => TraceFamily::PhaseShift {
            keys: g.u64_in(min_keys, 2048),
            phase_len: g.usize_in(200, 800),
        },
    }
}

/// Sampled-vs-exact mean absolute MRC error stays under a per-rate
/// bound on every generated workload family. The bounds were measured
/// empirically over the deterministic case streams (worst observed:
/// 0.059 at R=0.5, 0.119 at R=0.2, 0.094 at R=0.1) and carry ~2x
/// headroom; they double as a regression fence — an estimator change
/// that degrades accuracy trips them.
#[test]
fn sampled_error_is_bounded_across_families_and_rates() {
    for (rate, bound) in [(0.5, 0.12), (0.2, 0.24), (0.1, 0.20)] {
        let worst = Cell::new(0.0f64);
        let name = format!("sampled_error_r{rate}");
        check(&name, 32, |g| {
            let min_keys = (64.0 / rate) as u64;
            let family = family_with_min_keys(g, min_keys);
            let trace = family.generate(g, 4000);
            let exact = compute_curve(MrcMode::Exact, CAP, trace.iter().copied());
            let sampled = compute_curve(MrcMode::Sampled { rate }, CAP, trace.iter().copied());
            let mae = mean_abs_error(&exact, &sampled);
            worst.set(worst.get().max(mae));
            assert!(
                mae <= bound,
                "family {} rate {rate}: MAE {mae:.4} > bound {bound}",
                family.label()
            );
        });
        eprintln!("rate {rate}: worst MAE {:.4} (bound {bound})", worst.get());
    }
}

/// The sampled curve is a genuine MRC: miss ratio is monotone
/// non-increasing in memory, whatever the trace and rate.
#[test]
fn sampled_curve_is_monotone() {
    check_traces("sampled_curve_is_monotone", 96, 2000, |trace| {
        let rates = [0.5, 0.2, 0.1, 0.05];
        let rate = rates[trace.len() % rates.len()];
        let mut tracker = SampledTracker::new(CAP, rate);
        for &k in trace {
            tracker.access(k);
        }
        let curve = tracker.curve();
        let mut prev = 1.0 + 1e-12;
        for m in (1..=CAP).step_by(97) {
            let mr = curve.miss_ratio(m);
            assert!(mr <= prev + 1e-12, "rate {rate}: MR({m}) = {mr} > {prev}");
            assert!((0.0..=1.0).contains(&mr));
            prev = mr;
        }
    });
}

/// Same seed ⇒ identical curve bytes, both through the tracker and
/// through the `compute_curve` dispatch the controller uses.
#[test]
fn sampled_curve_is_deterministic() {
    check_traces("sampled_curve_is_deterministic", 64, 2000, |trace| {
        let run = || {
            let mut tracker = SampledTracker::new(CAP, 0.1);
            for &k in trace {
                tracker.access(k);
            }
            format!("{:?}", tracker.into_curve())
        };
        let first = run();
        assert_eq!(first, run(), "two replays must agree byte-for-byte");
        let dispatched = format!(
            "{:?}",
            compute_curve(MrcMode::Sampled { rate: 0.1 }, CAP, trace.iter().copied())
        );
        assert_eq!(first, dispatched, "dispatch must match the tracker");
    });
}

// ---------------------------------------------------------------------
// Controller-decision parity on fig. 5 (ISSUE satellite 3).
// ---------------------------------------------------------------------

/// The fig. 5 reference trace: 120 BestSeller executions, seed 2007 —
/// byte-identical to `odlb_bench::experiments::fig5::run(120)`.
fn fig5_trace() -> Vec<odlb::storage::PageId> {
    let workload = tpcw_workload(TpcwConfig::default());
    let mut rng = SimRng::new(2007);
    let mut pages = Vec::new();
    for _ in 0..120 {
        pages.extend(workload.query_of_class(BESTSELLER, &mut rng).pages);
    }
    pages
}

/// Replays the fig. 5 diagnosis under `mode` and emits the resulting
/// controller actions through a digesting tracer: the problem-class
/// verdict and the quota the real `fit_quotas` solver grants, rounded
/// up to whole quota units. Returns the run digest and the event bytes.
fn fig5_controller_actions(mode: MrcMode) -> (u64, String, MrcParams) {
    let trace = fig5_trace();
    let curve = compute_curve(mode, CAP, trace.iter().copied());
    let params = curve.params(CAP, MRC_THRESHOLD);

    // Stable reference: the class used to be far cheaper (the fig. 4
    // index-drop narrative), so diagnosis must flag it as changed.
    let stable = MrcParams {
        total_memory_needed: 3000,
        ideal_miss_ratio: 0.01,
        acceptable_memory_needed: 2500,
        acceptable_miss_ratio: 0.03,
    };
    let changed = mrc_changed(&params, &stable);

    let requests = [QuotaRequest {
        id: BESTSELLER as u64,
        curve: &curve,
        acceptable_pages: params.acceptable_memory_needed,
    }];
    let budget = CAP - 1;
    let granted = fit_quotas(budget, &requests).expect("fig5 fits its own pool")[0].pages;
    let quota_units = granted.div_ceil(MIN_QUOTA_PAGES);

    let tracer = Tracer::new();
    let digest = tracer.attach(DigestSink::new());
    let ring = tracer.attach(RingBufferSink::new(16));
    tracer.emit(TraceEvent::ActionApplied {
        end_us: 0,
        kind: ActionKind::SetQuota,
        app: Some(0),
        instance: Some(0),
        template: Some(BESTSELLER as u32),
        pages: Some((quota_units * MIN_QUOTA_PAGES) as u64),
        detail: format!("changed={changed} quota_units={quota_units}"),
    });
    let bytes = ring
        .borrow()
        .events()
        .iter()
        .map(|e| e.to_json())
        .collect::<Vec<_>>()
        .join("\n");
    let d = digest.borrow().digest();
    (d, bytes, params)
}

/// Exact mode replayed twice is byte-identical, and `Sampled { 0.1 }`
/// reaches the *same controller actions* (same digest over the action
/// stream) even though its curve is an estimate.
#[test]
fn fig5_sampled_controller_actions_match_exact() {
    let (exact_digest, exact_bytes, exact_params) = fig5_controller_actions(MrcMode::Exact);
    let (replay_digest, replay_bytes, _) = fig5_controller_actions(MrcMode::Exact);
    assert_eq!(exact_bytes, replay_bytes, "exact action stream drifted");
    assert_eq!(exact_digest, replay_digest, "exact run digest drifted");

    let (sampled_digest, sampled_bytes, sampled_params) =
        fig5_controller_actions(MrcMode::Sampled { rate: 0.1 });
    assert_eq!(
        exact_bytes, sampled_bytes,
        "sampling changed a controller action:\nexact   {exact_bytes}\nsampled {sampled_bytes}"
    );
    assert_eq!(exact_digest, sampled_digest, "action digests diverged");

    // The parity is not bucketing luck: the sampled estimate lands
    // within 5% of the exact acceptable memory (paper-scale: 6976
    // exact vs 6850 sampled at R = 0.1).
    let exact_acc = exact_params.acceptable_memory_needed as f64;
    let sampled_acc = sampled_params.acceptable_memory_needed as f64;
    assert!(
        (exact_acc - sampled_acc).abs() / exact_acc < 0.05,
        "acceptable memory drifted: exact {exact_acc} vs sampled {sampled_acc}"
    );
}
