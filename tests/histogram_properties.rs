//! Property tests for the telemetry histogram: the quantile estimate must
//! stay within the advertised relative rank error of the exact
//! nearest-rank answer, and merge must conserve counts, commute and
//! associate — the invariants that make per-class × per-replica series
//! aggregatable across instances. A reset histogram must equal a fresh one.

use odlb::telemetry::LogLinearHistogram;
use odlb_testkit::{check, Gen};

/// A latency-like sample: mixture of exact small values, mid-range and a
/// heavy tail spanning many octaves.
fn sample(g: &mut Gen) -> u64 {
    match g.weighted(&[2.0, 3.0, 1.0]) {
        0 => g.u64_in(0, 127),
        1 => g.u64_in(128, 100_000),
        _ => g.u64_in(100_000, 10_000_000_000),
    }
}

fn samples(g: &mut Gen) -> Vec<u64> {
    g.vec_of(1, 800, sample)
}

/// Exact nearest-rank quantile by full sort, the reference the histogram's
/// error bound is stated against.
fn exact_quantile(values: &[u64], q: f64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Everything an exporter or quantile query can observe about a
/// histogram: count, sum, extrema, cumulative buckets.
type Fingerprint = (u64, u64, Option<u64>, Option<u64>, Vec<(u64, u64)>);

/// Fingerprint for histogram equality: merge order must not be visible in
/// anything an exporter or quantile query can observe.
fn fingerprint(h: &LogLinearHistogram) -> Fingerprint {
    (h.count(), h.sum(), h.min(), h.max(), h.cumulative_buckets())
}

#[test]
fn quantile_within_advertised_error_of_exact_sort() {
    check("quantile_within_advertised_error_of_exact_sort", 128, |g| {
        let values = samples(g);
        let mut h = LogLinearHistogram::default();
        for &v in &values {
            h.record(v);
        }
        let err = h.relative_error();
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let exact = exact_quantile(&values, q);
            let est = h.quantile(q).expect("non-empty");
            assert!(
                est >= exact,
                "estimate must never undershoot: q={q} est={est} exact={exact}"
            );
            assert!(
                est as f64 <= exact as f64 * (1.0 + err),
                "estimate beyond advertised error: q={q} est={est} exact={exact} err={err}"
            );
        }
        // The extrema are exact, not merely within the bound.
        assert_eq!(h.quantile(0.0), Some(*values.iter().min().unwrap()));
        assert_eq!(h.quantile(1.0), Some(*values.iter().max().unwrap()));
    });
}

#[test]
fn merge_conserves_counts_and_sums() {
    check("merge_conserves_counts_and_sums", 128, |g| {
        let a_vals = samples(g);
        let b_vals = samples(g);
        let mut a = LogLinearHistogram::default();
        let mut b = LogLinearHistogram::default();
        for &v in &a_vals {
            a.record(v);
        }
        for &v in &b_vals {
            b.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), a.count() + b.count());
        assert_eq!(merged.sum(), a.sum() + b.sum());
        let total: u64 = merged.cumulative_buckets().last().map(|&(_, c)| c).unwrap();
        assert_eq!(total, merged.count(), "buckets must sum to the count");
        // Merging is equivalent to recording both streams into one.
        let mut direct = LogLinearHistogram::default();
        for &v in a_vals.iter().chain(&b_vals) {
            direct.record(v);
        }
        assert_eq!(fingerprint(&merged), fingerprint(&direct));
    });
}

#[test]
fn merge_commutes_and_associates() {
    check("merge_commutes_and_associates", 128, |g| {
        let mut parts = Vec::new();
        for _ in 0..3 {
            let mut h = LogLinearHistogram::default();
            for &v in &samples(g) {
                h.record(v);
            }
            parts.push(h);
        }
        let [a, b, c] = &parts[..] else {
            unreachable!()
        };
        // a + b == b + a
        let mut ab = a.clone();
        ab.merge(b);
        let mut ba = b.clone();
        ba.merge(a);
        assert_eq!(fingerprint(&ab), fingerprint(&ba), "merge must commute");
        // (a + b) + c == a + (b + c)
        let mut ab_c = ab.clone();
        ab_c.merge(c);
        let mut bc = b.clone();
        bc.merge(c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(
            fingerprint(&ab_c),
            fingerprint(&a_bc),
            "merge must associate"
        );
    });
}

#[test]
fn record_n_matches_repeated_record() {
    check("record_n_matches_repeated_record", 64, |g| {
        let v = sample(g);
        let n = g.u64_in(1, 50);
        let mut bulk = LogLinearHistogram::default();
        bulk.record_n(v, n);
        let mut one_by_one = LogLinearHistogram::default();
        for _ in 0..n {
            one_by_one.record(v);
        }
        assert_eq!(fingerprint(&bulk), fingerprint(&one_by_one));
    });
}

/// A histogram reset in place and refilled is indistinguishable from a
/// fresh one given the same values — the exporter's interval histograms
/// rely on it, reusing their bucket buffers across intervals.
#[test]
fn reset_then_record_equals_a_fresh_histogram() {
    check("reset_then_record_equals_a_fresh_histogram", 128, |g| {
        // Either fill may saturate the sum, so the flag is compared both ways.
        let fill = |g: &mut Gen| {
            let mut values = samples(g);
            if g.chance(0.2) {
                values.extend([u64::MAX, u64::MAX]);
            }
            values
        };
        let before = fill(g);
        let after = fill(g);
        let mut reused = LogLinearHistogram::default();
        for &v in &before {
            reused.record(v);
        }
        reused.reset();
        let mut fresh = LogLinearHistogram::default();
        for &v in &after {
            reused.record(v);
            fresh.record(v);
        }
        assert_eq!(fingerprint(&reused), fingerprint(&fresh));
        assert_eq!(reused.saturated(), fresh.saturated());
        for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(reused.quantile(q), fresh.quantile(q), "q={q}");
        }
    });
}
