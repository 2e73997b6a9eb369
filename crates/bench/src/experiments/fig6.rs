//! Fig. 6 — the miss ratio curve of RUBiS SearchItemsByRegion.
//!
//! Paper: acceptable memory ≈ 7906 pages — the class cannot co-locate with
//! TPC-W in a shared 8192-page pool ("only the BestSeller of TPC-W needs
//! at least 6982 pages"), which drives the Table 2 re-placement.

use crate::experiments::mrc_common::{class_mrc, MrcResult};
use odlb_workload::rubis::{rubis_workload, RubisConfig, SEARCH_ITEMS_BY_REGION};

/// Runs the Fig. 6 experiment.
pub fn run(queries: usize) -> MrcResult {
    let workload = rubis_workload(RubisConfig::default());
    class_mrc(&workload, SEARCH_ITEMS_BY_REGION, queries, 10_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_shape() {
        let r = run(150);
        assert!(
            (6_500..=9_500).contains(&r.params.acceptable_memory_needed),
            "acceptable {} (paper: 7906)",
            r.params.acceptable_memory_needed
        );
        // Cannot co-locate with BestSeller's ~7k in an 8192-page pool.
        assert!(r.params.acceptable_memory_needed + 6_000 > 8_192);
    }
}
