//! Fig. 5 — the miss ratio curve of BestSeller under the normal (indexed)
//! configuration.
//!
//! Paper: a descending curve with a knee; acceptable memory 6982 pages.
//! Ours is calibrated to the same shape (acceptable ≈ 6850 pages under a
//! 5% threshold in an 8192-page pool).

use crate::experiments::mrc_common::{class_mrc, MrcResult};
use odlb_workload::tpcw::{tpcw_workload, TpcwConfig, BESTSELLER};

/// Runs the Fig. 5 experiment: `queries` BestSeller executions traced
/// through Mattson's algorithm.
pub fn run(queries: usize) -> MrcResult {
    let workload = tpcw_workload(TpcwConfig::default());
    class_mrc(&workload, BESTSELLER, queries, 8192)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_shape() {
        let r = run(60);
        // Large but cacheable working set, near the paper's 6982 pages.
        assert!(
            (5_500..=8_192).contains(&r.params.acceptable_memory_needed),
            "acceptable {}",
            r.params.acceptable_memory_needed
        );
        // The curve actually descends: memory helps.
        let first = r.curve.first().unwrap().1;
        let last = r.curve.last().unwrap().1;
        assert!(first > last + 0.3, "knee exists: {first:.2} -> {last:.2}");
    }
}
