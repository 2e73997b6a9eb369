//! Table 1 — hit ratio of different buffer pool management algorithms.
//!
//! The paper's own methodology: "We use a simulator of buffer pool
//! management driven by traces of page accesses per query class." Under
//! the index-dropped configuration it compares, for BestSeller and for
//! all other TPC-W queries, the hit ratio when:
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

use odlb_bufferpool::PartitionedPool;
use odlb_core::memory::{MIN_QUOTA_PAGES, MRC_THRESHOLD};
use odlb_engine::QuerySpec;
use odlb_metrics::ClassId;
use odlb_mrc::MattsonTracker;
use odlb_sim::SimRng;
use odlb_storage::{ReadAheadDetector, EXTENT_PAGES};
use odlb_workload::tpcw::{tpcw_workload, TpcwConfig, BESTSELLER};
use odlb_workload::WorkloadSpec;
use std::collections::BTreeMap;

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

/// Replays the queries of `trace` that `keep` admits through `pool` the
/// way `DbEngine::execute` plays a query's pages: InnoDB-style read-ahead
/// prefetches the next extent of a sequential run on behalf of (and,
/// under a quota, into the partition of) the class. Returns each class's
/// `(accesses, misses)` over the queries from index `from` on.
fn replay(
    pool: &mut PartitionedPool,
    trace: &[QuerySpec],
    from: usize,
    keep: &dyn Fn(ClassId) -> bool,
) -> BTreeMap<ClassId, (u64, u64)> {
    let mut readahead = ReadAheadDetector::default();
    let mut tally = BTreeMap::new();
    for (i, q) in trace.iter().enumerate().filter(|(_, q)| keep(q.class)) {
        let mut misses = 0;
        for &p in &q.pages {
            misses += pool.access(q.class, p).is_miss() as u64;
            if let Some(start) = readahead.observe(q.class.as_u64(), p) {
                pool.prefetch(q.class, start, EXTENT_PAGES);
            }
        }
        if i >= from {
            let t: &mut (u64, u64) = tally.entry(q.class).or_default();
            t.0 += q.pages.len() as u64;
            t.1 += misses;
        }
    }
    tally
}

/// Runs the trace-driven comparison over `queries` sampled TPC-W queries
/// (index dropped). A fifth of the trace warms each pool before counting.
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

    // Hit ratios of BestSeller and of everyone else after warm-up.
    let hit_ratios = |pool: &mut PartitionedPool, keep: &dyn Fn(ClassId) -> bool| -> (f64, f64) {
        let mut sides = [(0u64, 0u64); 2];
        for (class, (accesses, misses)) in replay(pool, &trace, warmup, keep) {
            let side = &mut sides[(class != bs_class) as usize];
            side.0 += accesses;
            side.1 += misses;
        }
        let ratio = |(accesses, misses): (u64, u64)| (accesses - misses) as f64 / accesses as f64;
        (ratio(sides[0]), ratio(sides[1]))
    };

    // Shared.
    let mut shared = PartitionedPool::new(POOL_PAGES);
    let (bs_shared, rest_shared) = hit_ratios(&mut shared, &|_| true);

    // Partitioned: BestSeller gets its quota.
    let mut partitioned = PartitionedPool::new(POOL_PAGES);
    partitioned
        .set_quota(bs_class, quota_pages)
        .expect("quota fits");
    let (bs_part, rest_part) = hit_ratios(&mut partitioned, &|_| true);

    // Exclusive: each side alone in the full pool.
    let mut bs_only = PartitionedPool::new(POOL_PAGES);
    let (bs_excl, _) = hit_ratios(&mut bs_only, &|c| c == bs_class);
    let mut rest_only = PartitionedPool::new(POOL_PAGES);
    let (_, rest_excl) = hit_ratios(&mut rest_only, &|c| c != bs_class);

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
    use odlb_engine::{DbEngine, EngineConfig};
    use odlb_sim::{SimTime, Station};
    use odlb_storage::{DiskModel, DomainId, SharedIoPath};

    /// Table 1 is a trace-driven simulator of the engine's page loop: its
    /// shared-pool replay counts, per class, exactly the accesses and
    /// misses the engine's log records report for the same trace.
    #[test]
    fn replay_equals_the_engine_page_loop() {
        let workload = tpcw_workload(TpcwConfig {
            odate_index: false,
            ..Default::default()
        });
        let trace = sample_trace(&workload, 300);
        let mut pool = PartitionedPool::new(POOL_PAGES);
        let replayed = replay(&mut pool, &trace, 0, &|_| true);
        let config = EngineConfig::default();
        assert_eq!(config.pool_pages, POOL_PAGES);
        let mut engine = DbEngine::new(config, SimTime::ZERO);
        let (mut cpu, mut io) = (Station::new(4), SharedIoPath::new(DiskModel::default()));
        let mut executed = BTreeMap::new();
        for q in &trace {
            let r = engine.execute(SimTime::ZERO, q, &mut cpu, &mut io, DomainId(1));
            let t: &mut (u64, u64) = executed.entry(q.class).or_default();
            t.0 += r.record.page_accesses;
            t.1 += r.record.buffer_misses;
        }
        assert_eq!(replayed, executed);
        assert!(
            replayed.values().map(|t| t.1).sum::<u64>() > 0,
            "the pool must miss"
        );
        assert!(replayed.len() > 5, "the trace must span the mix");
    }

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
