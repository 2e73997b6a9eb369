//! Log-linear (HDR-style) latency histograms with bounded memory, exact
//! count conservation, a guaranteed relative rank error for quantiles and
//! O(buckets) merge.
//!
//! Values are non-negative integers (the workspace records latencies in
//! integer microseconds, matching the simulation clock). The value range
//! is split into powers of two, each power subdivided into `2^p` linear
//! sub-buckets (`p` = [`LogLinearHistogram::grouping_power`]). Values
//! below `2^p` get one bucket each and are therefore exact; larger values
//! land in a bucket whose width is at most `2^-p` of its lower bound, so
//! any quantile estimate is off by at most a factor of `1 + 2^-p` from
//! the exact nearest-rank answer over the same sample.
//!
//! Compared with retaining and sorting every sample (O(n log n) per
//! query, unbounded memory), recording here is O(1), memory is bounded by
//! the bucket count regardless of sample size, and two histograms merge
//! by adding bucket counts — which is what makes per-class × per-replica
//! series aggregatable across instances.

use odlb_sim::stats::nearest_rank;

/// Default linear sub-buckets per power of two (`2^7 = 128`), giving a
/// guaranteed relative rank error of `2^-7 < 0.8%`.
pub const DEFAULT_GROUPING_POWER: u32 = 7;

/// A mergeable log-linear histogram over `u64` values.
#[derive(Clone, Debug)]
pub struct LogLinearHistogram {
    /// Linear sub-buckets per octave = `2^grouping_power`.
    grouping_power: u32,
    /// Bucket counts, grown lazily up to the highest observed index.
    buckets: Vec<u64>,
    /// Total recorded values (always the sum of `buckets`).
    count: u64,
    /// Sum of recorded values; pinned at `u64::MAX` once it overflows
    /// (with `saturated` raised, so the collapse is never silent).
    sum: u64,
    /// True once `sum` has overflowed. Sticky; merging a saturated histogram taints the destination. Surfaced
    /// in the Prometheus/CSV exposition as the `_saturated` sample so a
    /// quietly meaningless mean is visible downstream.
    saturated: bool,
    /// Exact extrema (quantile(0.0) / quantile(1.0) are exact).
    min: u64,
    max: u64,
}

impl Default for LogLinearHistogram {
    fn default() -> Self {
        LogLinearHistogram::new(DEFAULT_GROUPING_POWER)
    }
}

impl LogLinearHistogram {
    /// Creates an empty histogram with `2^grouping_power` sub-buckets per
    /// power of two. `grouping_power` must be in `1..=16`.
    pub fn new(grouping_power: u32) -> Self {
        assert!(
            (1..=16).contains(&grouping_power),
            "grouping power out of range"
        );
        LogLinearHistogram {
            grouping_power,
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            saturated: false,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The configured grouping power.
    pub fn grouping_power(&self) -> u32 {
        self.grouping_power
    }

    /// The guaranteed relative rank error: any quantile estimate `e` for
    /// exact nearest-rank answer `x` satisfies `x <= e <= x * (1 + err)`.
    pub fn relative_error(&self) -> f64 {
        1.0 / (1u64 << self.grouping_power) as f64
    }

    /// Bucket index of `value`: identity below `2^p`, log-linear above.
    fn index_of(&self, value: u64) -> usize {
        let p = self.grouping_power;
        if value < (1 << p) {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros(); // floor(log2), value >= 2^p
        let shift = exp - p;
        ((shift as usize) << p) + (value >> shift) as usize
    }

    /// Largest value mapping to bucket `index` (the bucket's inclusive
    /// upper bound — the representative quantiles report, so estimates
    /// never undershoot the exact answer).
    fn upper_bound_of(&self, index: usize) -> u64 {
        let p = self.grouping_power;
        if index < (1 << p) {
            return index as u64;
        }
        let shift = (index >> p) as u64 - 1;
        let m = (index - ((shift as usize) << p)) as u64;
        // Widen: for the topmost buckets `(m + 1) << shift` is exactly
        // 2^64 and wrapped to 0 in u64, underflowing the `- 1` (a panic
        // in debug, a bogus u64::MAX-wide bucket in release).
        ((((m as u128 + 1) << shift) - 1).min(u64::MAX as u128)) as u64
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` occurrences of `value` in O(1).
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.index_of(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
        self.count += n;
        // Checked, not saturating: the old silent saturation let the
        // mean collapse near u64::MAX with no trace.
        match value
            .checked_mul(n)
            .and_then(|add| self.sum.checked_add(add))
        {
            Some(sum) => self.sum = sum,
            None => {
                self.sum = u64::MAX;
                self.saturated = true;
            }
        }
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (`u64::MAX` once saturated — check
    /// [`Self::saturated`] before trusting it or the mean).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// True once the sum has overflowed `u64` (here or in a merged-in
    /// histogram). The count and bucket quantiles stay exact; only the
    /// sum and mean are floored.
    pub fn saturated(&self) -> bool {
        self.saturated
    }

    /// Exact minimum (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) by the nearest-rank method over
    /// bucket counts, or `None` when empty. Exact at `q = 0` and `q = 1`
    /// (tracked extrema); elsewhere within [`Self::relative_error`] of the
    /// exact nearest-rank answer.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return None;
        }
        if q == 0.0 {
            return Some(self.min);
        }
        let rank = nearest_rank(q, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report past the tracked extrema: the last bucket's
                // upper bound can overshoot the true maximum.
                return Some(self.upper_bound_of(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merges another histogram into this one by adding bucket counts —
    /// O(buckets), count-conserving, commutative and associative. Both
    /// histograms must share a grouping power.
    pub fn merge(&mut self, other: &LogLinearHistogram) {
        assert_eq!(
            self.grouping_power, other.grouping_power,
            "cannot merge histograms with different grouping powers"
        );
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        match self.sum.checked_add(other.sum) {
            Some(sum) => self.sum = sum,
            None => {
                self.sum = u64::MAX;
                self.saturated = true;
            }
        }
        self.saturated |= other.saturated;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(inclusive upper bound, cumulative count)`,
    /// upper bounds strictly increasing — exactly the Prometheus
    /// `_bucket{le="..."}` series (the `+Inf` bucket is the total count
    /// and is appended by the exporter).
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                cum += c;
                out.push((self.upper_bound_of(idx), cum));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogLinearHistogram::new(7);
        for v in 0..128 {
            h.record(v);
        }
        assert_eq!(h.count(), 128);
        // Nearest rank: ceil(0.5 * 128) = 64th smallest of 0..=127 is 63.
        assert_eq!(h.quantile(0.5), Some(63));
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(127));
    }

    #[test]
    fn index_and_upper_bound_are_consistent() {
        let h = LogLinearHistogram::new(3);
        // Every value maps to a bucket whose upper bound is >= the value
        // and within the advertised relative width.
        let mut prev_idx = 0;
        for v in 0..100_000u64 {
            let idx = h.index_of(v);
            assert!(idx >= prev_idx, "indices must be monotone at v={v}");
            prev_idx = idx;
            let ub = h.upper_bound_of(idx);
            assert!(ub >= v, "upper bound {ub} < value {v}");
            assert!(
                (ub - v) as f64 <= h.relative_error() * v as f64 + 1.0,
                "bucket too wide at v={v}: ub={ub}"
            );
        }
    }

    #[test]
    fn quantile_error_bound_holds() {
        let mut h = LogLinearHistogram::new(7);
        let mut exact: Vec<u64> = (0..5_000).map(|i| (i * i) % 700_001).collect();
        for &v in &exact {
            h.record(v);
        }
        exact.sort_unstable();
        for q in [0.01, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let truth = exact[rank - 1];
            let est = h.quantile(q).unwrap();
            assert!(est >= truth, "q={q}: est {est} < exact {truth}");
            assert!(
                est as f64 <= truth as f64 * (1.0 + h.relative_error()) + 1.0,
                "q={q}: est {est} too far above exact {truth}"
            );
        }
    }

    #[test]
    fn merge_conserves_counts_and_matches_combined() {
        let mut a = LogLinearHistogram::new(7);
        let mut b = LogLinearHistogram::new(7);
        let mut all = LogLinearHistogram::new(7);
        for i in 0..1_000u64 {
            let v = i * 37 % 90_000;
            all.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum(), all.sum());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LogLinearHistogram::default();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn cumulative_buckets_are_monotone() {
        let mut h = LogLinearHistogram::new(4);
        for v in [3u64, 3, 900, 17, 17, 17, 1_000_000] {
            h.record(v);
        }
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.last().unwrap().1, h.count());
        for w in buckets.windows(2) {
            assert!(w[0].0 < w[1].0, "upper bounds strictly increase");
            assert!(w[0].1 < w[1].1, "cumulative counts strictly increase");
        }
    }

    /// Regression for the float-fragile rank (see
    /// `odlb_sim::stats::nearest_rank`): values below `2^p` are bucketed
    /// exactly, so p7 of 1..=100 must be exactly 7 — the pre-fix
    /// `(q * count).ceil()` computed `7.000000000000001` and picked rank 8.
    #[test]
    fn quantile_rank_is_exact_on_integer_boundaries() {
        let mut h = LogLinearHistogram::new(7);
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.07), Some(7));
        assert_eq!(h.quantile(0.55), Some(55));
    }

    /// Regression at the sum boundary: the pre-fix `saturating_add`
    /// collapsed the mean silently; saturation must now raise the sticky
    /// flag while counts and quantiles stay exact.
    #[test]
    fn sum_saturation_raises_the_flag() {
        let mut h = LogLinearHistogram::default();
        h.record(u64::MAX - 10);
        assert!(!h.saturated(), "one large value fits exactly");
        assert_eq!(h.sum(), u64::MAX - 10);
        h.record(11);
        assert!(h.saturated(), "crossing u64::MAX must be flagged");
        assert_eq!(h.sum(), u64::MAX, "sum pins at the ceiling");
        assert_eq!(h.count(), 2, "count stays exact");
        assert_eq!(h.max(), Some(u64::MAX - 10));
        // Sticky.
        h.record(1);
        assert!(h.saturated());
    }

    #[test]
    fn record_n_saturates_on_the_multiply() {
        let mut h = LogLinearHistogram::default();
        // value * n overflows even though each fits individually.
        h.record_n(u64::MAX / 2, 3);
        assert!(h.saturated());
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn merge_saturation_taints_and_detects_overflow() {
        // Case 1: merging two unsaturated histograms whose sums overflow
        // together.
        let mut a = LogLinearHistogram::default();
        let mut b = LogLinearHistogram::default();
        a.record(u64::MAX - 5);
        b.record(u64::MAX - 5);
        assert!(!a.saturated() && !b.saturated());
        a.merge(&b);
        assert!(a.saturated(), "merge overflow must be flagged");
        assert_eq!(a.sum(), u64::MAX);
        // Case 2: merging an already-saturated histogram taints even
        // when the checked add itself fits (0 + u64::MAX is exact).
        let mut d = LogLinearHistogram::default();
        d.record(u64::MAX);
        d.record(u64::MAX);
        assert!(d.saturated());
        let mut empty = LogLinearHistogram::default();
        empty.merge(&d);
        assert!(empty.saturated(), "saturation propagates through merge");
        assert_eq!(empty.sum(), u64::MAX);
    }

    /// Regression: the topmost bucket's upper bound is mathematically
    /// `2^64 - 1`; computing it in u64 wrapped `(m+1) << shift` to zero
    /// and panicked on the `- 1` in debug builds (bogus bound in
    /// release), so any histogram holding a value near `u64::MAX` blew
    /// up on export.
    #[test]
    fn top_bucket_upper_bound_does_not_overflow() {
        let mut h = LogLinearHistogram::default();
        h.record(u64::MAX);
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets, vec![(u64::MAX, 1)]);
        assert_eq!(h.quantile(0.5), Some(u64::MAX));
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut a = LogLinearHistogram::default();
        let mut b = LogLinearHistogram::default();
        a.record_n(700, 5);
        for _ in 0..5 {
            b.record(700);
        }
        assert_eq!(a.count(), b.count());
        assert_eq!(a.sum(), b.sum());
        assert_eq!(a.quantile(0.5), b.quantile(0.5));
    }
}
