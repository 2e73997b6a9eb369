//! Table 1 — hit ratio of different buffer pool management algorithms.
//!
//! The paper's own methodology: "We use a simulator of buffer pool
//! management driven by traces of page accesses per query class." Here
//! that simulator is the engine itself: each sampled query of the trace
//! executes on a [`DbEngine`], whose page loop plays it through the pool
//! and read-ahead (the throwaway CPU station and disk path's timing is
//! ignored). Under the index-dropped configuration the table compares,
//! for BestSeller and for all other TPC-W queries, the hit ratio when:
//!
//! * **Shared** — everyone shares the 8192-page pool.
//! * **Partitioned** — BestSeller is confined to a quota derived from its
//!   recomputed MRC (paper: 3695 pages); the rest share the remainder.
//! * **Exclusive** — each side gets the whole pool to itself (the ideal,
//!   equivalent to isolating BestSeller on a separate replica).
//!
//! Read-ahead is part of the replay, as in InnoDB: the index-less
//! BestSeller is a linear scan whose pages are prefetched ahead of the
//! accesses, so *its own* hit ratio stays high (~95%) in every
//! configuration — the paper's seemingly paradoxical first row. The harm
//! is the prefetched pages flooding the shared pool and evicting
//! everyone else's working set; a quota confines that flood, which is why
//! the non-BestSeller row improves sharply under partitioning while
//! BestSeller barely moves.

use odlb_core::memory::{MIN_QUOTA_PAGES, MRC_THRESHOLD};
use odlb_engine::{DbEngine, EngineConfig, QuerySpec};
use odlb_metrics::ClassId;
use odlb_mrc::MattsonTracker;
use odlb_sim::{SimRng, SimTime, Station};
use odlb_storage::{DiskModel, DomainId, SharedIoPath};
use odlb_workload::tpcw::{tpcw_workload, TpcwConfig, BESTSELLER};
use odlb_workload::WorkloadSpec;

/// The table's measurements.
#[derive(Clone, Copy, Debug)]
pub struct Table1Result {
    /// BestSeller hit ratio under shared / partitioned / exclusive.
    pub bestseller: [f64; 3],
    /// Non-BestSeller hit ratio under shared / partitioned / exclusive.
    pub rest: [f64; 3],
    /// The quota (pages) the partitioned configuration granted BestSeller.
    pub quota_pages: usize,
}

/// Configuration labels, in column order.
pub const CONFIGS: [&str; 3] = ["Shared Buffer", "Partitioned Buffer", "Exclusive Buffer"];

const POOL_PAGES: usize = 8192;

/// `queries` sampled queries of `workload`: collected once so every
/// configuration replays identical accesses (the paper's trace-driven
/// methodology).
fn sample_trace(workload: &WorkloadSpec, queries: usize) -> Vec<QuerySpec> {
    let mut rng = SimRng::new(1_2007);
    (0..queries)
        .map(|_| workload.sample_query(&mut rng))
        .collect()
}

/// Runs the trace-driven comparison over `queries` sampled TPC-W queries
/// (index dropped), executing the trace on a fresh [`DbEngine`] per
/// column and ignoring its timing. A fifth of the trace warms each pool
/// before counting.
pub fn run(queries: usize) -> Table1Result {
    let workload = tpcw_workload(TpcwConfig {
        odate_index: false,
        ..Default::default()
    });
    let bs_class = workload.class_id(BESTSELLER);

    let trace = sample_trace(&workload, queries);
    let warmup = queries / 5;

    // The quota is what the controller would grant: the acceptable memory
    // of the recomputed (index-less) BestSeller curve.
    let mut tracker = MattsonTracker::new(POOL_PAGES);
    for q in trace.iter().filter(|q| q.class == bs_class) {
        for &p in &q.pages {
            tracker.access(p);
        }
    }
    // Same floor the controller applies: a flat-MRC scan still needs room
    // for its in-flight read-ahead extents (acceptable memory alone can
    // degenerate to a single page).
    let quota_pages = tracker
        .curve()
        .params(MRC_THRESHOLD)
        .acceptable_memory_needed
        .clamp(MIN_QUOTA_PAGES, POOL_PAGES - 1);

    // Hit ratios of BestSeller and of everyone else after warm-up, on an
    // engine that executes the queries `keep` admits and, given a quota,
    // confines BestSeller to it.
    let hit_ratios = |quota: Option<usize>, keep: &dyn Fn(ClassId) -> bool| -> (f64, f64) {
        let config = EngineConfig {
            pool_pages: POOL_PAGES,
            ..Default::default()
        };
        let mut engine = DbEngine::new(config, SimTime::ZERO);
        if let Some(pages) = quota {
            engine.set_quota(bs_class, pages).expect("quota fits");
        }
        let (mut cpu, mut io) = (Station::new(4), SharedIoPath::new(DiskModel::default()));
        let mut sides = [(0u64, 0u64); 2];
        for (i, q) in trace.iter().enumerate().filter(|(_, q)| keep(q.class)) {
            let r = engine.execute(SimTime::ZERO, q, &mut cpu, &mut io, DomainId(1));
            if i >= warmup {
                let side = &mut sides[(q.class != bs_class) as usize];
                side.0 += r.record.page_accesses;
                side.1 += r.record.buffer_misses;
            }
        }
        let ratio = |(accesses, misses): (u64, u64)| (accesses - misses) as f64 / accesses as f64;
        (ratio(sides[0]), ratio(sides[1]))
    };

    let (bs_shared, rest_shared) = hit_ratios(None, &|_| true);
    // Partitioned: BestSeller gets its quota.
    let (bs_part, rest_part) = hit_ratios(Some(quota_pages), &|_| true);
    // Exclusive: each side alone in the full pool.
    let (bs_excl, _) = hit_ratios(None, &|c| c == bs_class);
    let (_, rest_excl) = hit_ratios(None, &|c| c != bs_class);

    Table1Result {
        bestseller: [bs_shared, bs_part, bs_excl],
        rest: [rest_shared, rest_part, rest_excl],
        quota_pages,
    }
}

/// Renders the table in the paper's layout.
pub fn render(r: &Table1Result) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Table 1: Hit Ratio of Different Buffer Pool Management Algorithms\n\
         (BestSeller quota in partitioned configuration: {} pages)\n\n",
        r.quota_pages
    ));
    out.push_str(&format!(
        "{:<16}{:>16}{:>20}{:>18}\n",
        "Hit Ratio (%)", CONFIGS[0], CONFIGS[1], CONFIGS[2]
    ));
    out.push_str(&format!(
        "{:<16}{:>16.1}{:>20.1}{:>18.1}\n",
        "BestSeller",
        r.bestseller[0] * 100.0,
        r.bestseller[1] * 100.0,
        r.bestseller[2] * 100.0
    ));
    out.push_str(&format!(
        "{:<16}{:>16.1}{:>20.1}{:>18.1}\n",
        "Non-BestSeller",
        r.rest[0] * 100.0,
        r.rest[1] * 100.0,
        r.rest[2] * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioning_recovers_rest_without_hurting_bestseller() {
        let r = run(800);
        let [bs_shared, bs_part, bs_excl] = r.bestseller;
        let [rest_shared, rest_part, rest_excl] = r.rest;
        // The paper's headline: partitioned ≈ exclusive for the rest,
        // clearly better than shared.
        assert!(
            rest_part > rest_shared + 0.02,
            "partitioning must improve the rest: {rest_shared:.3} -> {rest_part:.3}"
        );
        assert!(
            rest_excl >= rest_part - 0.02,
            "exclusive is the ceiling: part {rest_part:.3} vs excl {rest_excl:.3}"
        );
        // BestSeller's scan is hidden by read-ahead everywhere: high and
        // roughly unchanged across configurations.
        assert!(
            bs_shared > 0.8,
            "prefetch keeps BestSeller high: {bs_shared:.3}"
        );
        assert!(
            (bs_part - bs_excl).abs() < 0.10,
            "quota ≈ isolation for BestSeller: {bs_part:.3} vs {bs_excl:.3}"
        );
    }
}
