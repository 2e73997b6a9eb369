//! Approximate stack-distance tracking with geometric distance buckets.
//!
//! Distances are recorded at the *upper edge* of a geometric bucket,
//! which makes the resulting curve a conservative (pessimistic)
//! approximation — it never under-states memory need. Not an
//! [`odlb_mrc::MrcMode`]: the tracker exists as the subject of ablation
//! A5 ([`crate::experiments::ablations`], its only caller), which
//! quantifies its deviation from [`MattsonTracker`].

use odlb_mrc::{MattsonTracker, MissRatioCurve, PageKey};

/// Wraps the exact distance computation but coarsens histogram recording
/// into geometric buckets of the given growth ratio.
#[derive(Clone, Debug)]
pub struct BucketedTracker {
    inner: MattsonTracker,
    /// Pre-computed bucket upper edges, ascending.
    edges: Vec<u64>,
    curve: MissRatioCurve,
}

impl BucketedTracker {
    /// Creates a tracker with buckets growing by `ratio` (> 1.0) up to
    /// `cap_pages`.
    pub fn new(cap_pages: usize, ratio: f64) -> Self {
        assert!(ratio > 1.0, "bucket ratio must exceed 1");
        let mut edges = Vec::new();
        let mut edge = 1f64;
        loop {
            let e = edge.round() as u64;
            if edges.last() != Some(&e) {
                edges.push(e);
            }
            if e >= cap_pages as u64 {
                break;
            }
            edge *= ratio;
        }
        BucketedTracker {
            inner: MattsonTracker::new(cap_pages),
            edges,
            curve: MissRatioCurve::new(cap_pages),
        }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.edges.len()
    }

    /// Observes one reference.
    pub fn access(&mut self, key: impl PageKey) {
        match self.inner.access(key) {
            Some(d) => {
                // Round the distance up to its bucket edge: pessimistic.
                let idx = self.edges.partition_point(|&e| e < d);
                let rounded = self.edges.get(idx).copied().unwrap_or(u64::MAX);
                self.curve.record_hit_at(rounded);
            }
            None => self.curve.record_cold_miss(),
        }
    }

    /// The (approximate, pessimistic) curve.
    pub fn curve(&self) -> &MissRatioCurve {
        &self.curve
    }

    /// The exact curve computed alongside (for ablation comparisons).
    pub fn exact_curve(&self) -> &MissRatioCurve {
        self.inner.curve()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approximation_is_pessimistic() {
        let mut t = BucketedTracker::new(4096, 1.5);
        let mut x: u64 = 99;
        for _ in 0..50_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            t.access(x % 1500);
        }
        for m in [16usize, 64, 256, 1024, 4096] {
            let approx = t.curve().miss_ratio(m);
            let exact = t.exact_curve().miss_ratio(m);
            assert!(
                approx >= exact - 1e-12,
                "bucketed must not understate miss ratio at m={m}: {approx} < {exact}"
            );
        }
    }

    #[test]
    fn approximation_is_tight_at_bucket_edges() {
        let mut t = BucketedTracker::new(1024, 2.0);
        for i in 0..10_000u64 {
            t.access(i % 100);
        }
        // Distance 100 rounds to edge 128; at m=128 both agree.
        let approx = t.curve().miss_ratio(128);
        let exact = t.exact_curve().miss_ratio(128);
        assert!((approx - exact).abs() < 1e-12);
    }

    #[test]
    fn bucket_count_is_logarithmic() {
        let t = BucketedTracker::new(1 << 20, 2.0);
        assert!(t.buckets() <= 22, "got {}", t.buckets());
    }

    #[test]
    #[should_panic(expected = "ratio must exceed 1")]
    fn ratio_must_exceed_one() {
        BucketedTracker::new(100, 1.0);
    }
}
