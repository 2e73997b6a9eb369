//! The miss ratio curve and the parameters the controller extracts from it.

/// Hit-count histogram over stack distances, queryable as `MR(m)` for any
/// cache size `m` up to the tracking cap.
#[derive(Clone, Debug, PartialEq)]
pub struct MissRatioCurve {
    /// `hits[d-1]` = number of references with stack distance exactly `d`.
    hits: Vec<u64>,
    /// Every reference recorded; those beyond the cap or cold (first
    /// touch) count here and in no `hits` bucket.
    total: u64,
}

impl MissRatioCurve {
    /// Creates an empty curve tracking sizes `1..=cap_pages` exactly.
    pub fn new(cap_pages: usize) -> Self {
        assert!(cap_pages >= 1, "curve needs at least one tracked size");
        MissRatioCurve {
            hits: vec![0; cap_pages],
            total: 0,
        }
    }

    /// Records a re-access with 1-based stack distance `d`.
    pub fn record_hit_at(&mut self, d: u64) {
        self.record_hits_at(d, 1);
    }

    /// Records `n` re-accesses at the same 1-based stack distance `d` in
    /// one histogram update. The sampled tracker uses this to rescale a
    /// survivor's contribution by `1/R` without paying `1/R` increments.
    pub fn record_hits_at(&mut self, d: u64, n: u64) {
        self.total += n;
        if d as usize <= self.hits.len() {
            self.hits[d as usize - 1] += n;
        }
    }

    /// Records a first-touch (infinite-distance) miss.
    pub fn record_cold_miss(&mut self) {
        self.record_cold_misses(1);
    }

    /// Records `n` first-touch misses in one update (the bulk form used
    /// by the sampled tracker's `1/R` rescaling).
    pub fn record_cold_misses(&mut self, n: u64) {
        self.total += n;
    }

    /// Largest tracked cache size.
    pub fn cap(&self) -> usize {
        self.hits.len()
    }

    /// Total references recorded.
    pub fn total_accesses(&self) -> u64 {
        self.total
    }

    /// Miss ratio at cache size `m` pages (paper Eq. 1). `m` of zero means
    /// no cache: ratio 1. Sizes beyond the cap return the cap's value.
    pub fn miss_ratio(&self, m: usize) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        let m = m.min(self.hits.len());
        let hits: u64 = self.hits[..m].iter().sum();
        1.0 - hits as f64 / self.total as f64
    }

    /// The whole curve as `(size, miss_ratio)` sampled at `points` evenly
    /// spaced sizes (for rendering Fig. 5 / Fig. 6).
    pub fn sampled(&self, points: usize) -> Vec<(usize, f64)> {
        let points = points.max(2);
        let cap = self.hits.len();
        // Cumulative pass: O(cap) once instead of O(cap·points).
        let mut out = Vec::with_capacity(points);
        let mut cum = 0u64;
        let mut next = 0usize;
        for (i, &h) in self.hits.iter().enumerate() {
            cum += h;
            let size = i + 1;
            while next < points && size > next * (cap - 1) / (points - 1) {
                let target = 1 + next * (cap - 1) / (points - 1);
                if size == target {
                    let mr = if self.total == 0 {
                        1.0
                    } else {
                        1.0 - cum as f64 / self.total as f64
                    };
                    out.push((size, mr));
                }
                next += 1;
            }
        }
        out
    }

    /// Extracts the controller parameters (§3.3) over every tracked size
    /// (a curve is built at its server's memory) for the given
    /// acceptability threshold (absolute miss-ratio slack above ideal,
    /// e.g. 0.02).
    pub fn params(&self, threshold: f64) -> MrcParams {
        let cap = self.hits.len();
        // Ideal: the miss ratio with all the memory we could ever give it.
        let ideal = self.miss_ratio(cap);
        // Total memory needed: smallest size achieving (within epsilon of)
        // the ideal ratio — the knee where more memory stops helping.
        // Acceptable: smallest size within `threshold` of ideal.
        let mut total_needed = cap;
        let mut acceptable_needed = cap;
        let mut cum = 0u64;
        let mut found_total = false;
        let mut found_acceptable = false;
        for (i, &h) in self.hits.iter().enumerate() {
            cum += h;
            let mr = if self.total == 0 {
                1.0
            } else {
                1.0 - cum as f64 / self.total as f64
            };
            if !found_acceptable && mr <= ideal + threshold {
                acceptable_needed = i + 1;
                found_acceptable = true;
            }
            if !found_total && mr <= ideal + 1e-9 {
                total_needed = i + 1;
                found_total = true;
            }
            if found_total && found_acceptable {
                break;
            }
        }
        MrcParams {
            total_memory_needed: total_needed,
            ideal_miss_ratio: ideal,
            acceptable_memory_needed: acceptable_needed,
            acceptable_miss_ratio: self.miss_ratio(acceptable_needed),
        }
    }

    /// Merges another curve into this one (same cap required).
    pub fn merge(&mut self, other: &MissRatioCurve) {
        assert_eq!(self.cap(), other.cap(), "curve caps must match to merge");
        for (a, b) in self.hits.iter_mut().zip(&other.hits) {
            *a += b;
        }
        self.total += other.total;
    }
}

/// The per-query-class memory parameters the paper's controller stores in
/// the stable-state record and re-derives during diagnosis (§3.3).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MrcParams {
    /// Smallest memory (pages) at which the miss ratio stops improving,
    /// capped at the server's physical memory.
    pub total_memory_needed: usize,
    /// Miss ratio at `total_memory_needed`.
    pub ideal_miss_ratio: f64,
    /// Smallest memory whose miss ratio is within the threshold of ideal.
    pub acceptable_memory_needed: usize,
    /// Miss ratio at `acceptable_memory_needed`.
    pub acceptable_miss_ratio: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve_from_distances(distances: &[Option<u64>], cap: usize) -> MissRatioCurve {
        let mut c = MissRatioCurve::new(cap);
        for d in distances {
            match d {
                Some(d) => c.record_hit_at(*d),
                None => c.record_cold_miss(),
            }
        }
        c
    }

    #[test]
    fn miss_ratio_is_monotone_non_increasing() {
        let c = curve_from_distances(
            &[None, Some(1), Some(3), Some(2), Some(10), None, Some(5)],
            16,
        );
        let mut prev = 1.0 + 1e-12;
        for m in 0..=16 {
            let mr = c.miss_ratio(m);
            assert!(mr <= prev + 1e-12, "MR must not increase with memory");
            prev = mr;
        }
    }

    #[test]
    fn empty_curve_has_ratio_one() {
        let c = MissRatioCurve::new(8);
        assert_eq!(c.miss_ratio(0), 1.0);
        assert_eq!(c.miss_ratio(8), 1.0);
    }

    #[test]
    fn paper_formula_example() {
        // 10 accesses: 2 cold, 5 at distance 2, 3 at distance 6.
        let mut c = MissRatioCurve::new(10);
        c.record_cold_miss();
        c.record_cold_miss();
        for _ in 0..5 {
            c.record_hit_at(2);
        }
        for _ in 0..3 {
            c.record_hit_at(6);
        }
        assert!((c.miss_ratio(1) - 1.0).abs() < 1e-12);
        assert!((c.miss_ratio(2) - 0.5).abs() < 1e-12);
        assert!((c.miss_ratio(5) - 0.5).abs() < 1e-12);
        assert!((c.miss_ratio(6) - 0.2).abs() < 1e-12);
        assert!((c.miss_ratio(10) - 0.2).abs() < 1e-12, "cold misses remain");
    }

    #[test]
    fn params_find_knee() {
        // Working set of 100 pages: all re-accesses at distance <= 100.
        let mut c = MissRatioCurve::new(1000);
        for _ in 0..900 {
            c.record_hit_at(100);
        }
        for _ in 0..100 {
            c.record_hit_at(20);
        }
        let p = c.params(0.05);
        assert_eq!(p.total_memory_needed, 100);
        assert_eq!(p.ideal_miss_ratio, 0.0);
        // 5% slack: can lose up to 50 of 1000 accesses; distance-100 hits
        // are 900 strong so we still need all 100 pages.
        assert_eq!(p.acceptable_memory_needed, 100);
    }

    #[test]
    fn acceptable_memory_is_below_total_for_long_tail() {
        // 9000 hits at distance 10; a 1% tail at distance 5000.
        let mut c = MissRatioCurve::new(8192);
        for _ in 0..9000 {
            c.record_hit_at(10);
        }
        for _ in 0..90 {
            c.record_hit_at(5000);
        }
        let p = c.params(0.02);
        assert_eq!(p.total_memory_needed, 5000);
        assert_eq!(p.acceptable_memory_needed, 10, "tail within threshold");
        assert!(p.acceptable_miss_ratio <= p.ideal_miss_ratio + 0.02);
    }

    #[test]
    fn total_needed_when_server_memory_cannot_help() {
        // Working set far beyond the server's memory: the best reachable
        // ratio is 1.0 and it is reached with a single page — a class whose
        // footprint exceeds the server "needs" no quota because no quota
        // under the cap improves it (the scan case).
        let mut c = MissRatioCurve::new(4_096);
        for _ in 0..100 {
            c.record_hit_at(9_000);
        }
        let p = c.params(0.0);
        assert_eq!(p.total_memory_needed, 1);
        assert!((p.ideal_miss_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_returns_requested_points() {
        let mut c = MissRatioCurve::new(1000);
        for d in 1..=500u64 {
            c.record_hit_at(d);
        }
        let pts = c.sampled(11);
        assert!(!pts.is_empty());
        assert_eq!(pts.first().unwrap().0, 1);
        assert_eq!(pts.last().unwrap().0, 1000);
        for w in pts.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 >= w[1].1 - 1e-12, "sampled curve monotone");
        }
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = curve_from_distances(&[None, Some(1)], 4);
        let b = curve_from_distances(&[Some(2), Some(2)], 4);
        a.merge(&b);
        assert_eq!(a.total_accesses(), 4);
        assert!((a.miss_ratio(2) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "caps must match")]
    fn merge_rejects_mismatched_caps() {
        let mut a = MissRatioCurve::new(4);
        a.merge(&MissRatioCurve::new(8));
    }
}
