//! Synthetic single-resource workloads for controlled experiments.
//!
//! The TPC-W/RUBiS models exercise every resource at once; ablations and
//! unit scenarios often need a workload that is bottlenecked on exactly
//! one resource. [`cpu_bound_workload`] keeps its whole footprint inside a
//! small hot set (no steady-state I/O) and puts its weight in CPU time, so
//! overload manifests purely as CPU saturation — the clean trigger for the
//! paper's reactive provisioning path (Fig. 3).

use crate::pattern::AccessPattern;
use crate::spec::{QueryClassSpec, WorkloadSpec};
use odlb_metrics::AppId;
use odlb_sim::SimDuration;
use odlb_storage::SpaceId;

/// A cache-resident, CPU-heavy workload: three read classes and one light
/// write class, all confined to `hot_pages` pages of one table.
pub fn cpu_bound_workload(app: AppId, hot_pages: u64, cpu_millis: u64) -> WorkloadSpec {
    let space = SpaceId(40 + app.0);
    let hot = |count: u32| AccessPattern::HotSet {
        space,
        hot_pages,
        count,
    };
    let ms = SimDuration::from_millis;
    WorkloadSpec {
        name: "cpu-bound".into(),
        app,
        classes: vec![
            QueryClassSpec {
                name: "Compute",
                sql: "SELECT SUM(v) FROM t WHERE k = 1",
                weight: 5.0,
                pattern: hot(4),
                cpu_base: ms(cpu_millis),
                cpu_per_page: SimDuration::from_micros(20),
                is_write: false,
            },
            QueryClassSpec {
                name: "ComputeHeavy",
                sql: "SELECT COUNT(*) FROM t GROUP BY g HAVING COUNT(*) > 2",
                weight: 2.0,
                pattern: hot(8),
                cpu_base: ms(cpu_millis * 3),
                cpu_per_page: SimDuration::from_micros(20),
                is_write: false,
            },
            QueryClassSpec {
                name: "Point",
                sql: "SELECT v FROM t WHERE id = 3",
                weight: 2.0,
                pattern: hot(1),
                cpu_base: SimDuration::from_micros(200),
                cpu_per_page: SimDuration::from_micros(10),
                is_write: false,
            },
            QueryClassSpec {
                name: "Update",
                sql: "UPDATE t SET v = 4 WHERE id = 5",
                weight: 1.0,
                pattern: hot(2),
                cpu_base: SimDuration::from_micros(300),
                cpu_per_page: SimDuration::from_micros(10),
                is_write: true,
            },
        ],
    }
}

/// A workload with a write hotspot: most classes are light cache-resident
/// reads, plus one write class whose update target is a single hot page
/// (an auction counter, a sequence row). Raising its rate or execution
/// time serialises the writers — the lock-contention anomaly the paper's
/// §7 proposes detecting with the same outlier machinery.
pub fn hotspot_write_workload(app: AppId, write_ms: u64) -> WorkloadSpec {
    let space = SpaceId(80 + app.0);
    let ms = SimDuration::from_millis;
    // A population of light read classes (IQR detection needs one; real
    // applications have 10+ classes) around the two write classes.
    let read = |name: &'static str, sql: &'static str, count: u32, base_us: u64| QueryClassSpec {
        name,
        sql,
        weight: 2.0,
        pattern: AccessPattern::HotSet {
            space,
            hot_pages: 256,
            count,
        },
        cpu_base: SimDuration::from_micros(base_us),
        cpu_per_page: SimDuration::from_micros(10),
        is_write: false,
    };
    WorkloadSpec {
        name: "hotspot-write".into(),
        app,
        classes: vec![
            read("Read", "SELECT v FROM t WHERE id = 1", 3, 300),
            read(
                "ReadJoin",
                "SELECT * FROM t, u WHERE t.id = u.t_id AND t.id = 2",
                5,
                500,
            ),
            read(
                "ReadRange",
                "SELECT * FROM t WHERE k BETWEEN 1 AND 2",
                8,
                450,
            ),
            read("ReadAgg", "SELECT COUNT(*) FROM t WHERE g = 3", 6, 600),
            read("ReadPoint", "SELECT n FROM counters WHERE id = 4", 1, 200),
            read(
                "ReadTop",
                "SELECT * FROM t ORDER BY v DESC LIMIT 10",
                4,
                400,
            ),
            read("ReadUser", "SELECT * FROM u WHERE id = 5", 2, 250),
            QueryClassSpec {
                name: "CounterUpdate",
                sql: "UPDATE counters SET n = n + 1 WHERE id = 1",
                weight: 3.0,
                // Composite: the single-page update target first (it is
                // what gets locked), then a couple of reads.
                pattern: AccessPattern::Composite(vec![
                    AccessPattern::HotSet {
                        space,
                        hot_pages: 1,
                        count: 1,
                    },
                    AccessPattern::HotSet {
                        space,
                        hot_pages: 256,
                        count: 2,
                    },
                ]),
                cpu_base: ms(write_ms),
                cpu_per_page: SimDuration::from_micros(10),
                is_write: true,
            },
            QueryClassSpec {
                name: "WideUpdate",
                sql: "UPDATE t SET v = 2 WHERE id = 7",
                weight: 1.0,
                pattern: AccessPattern::Composite(vec![
                    AccessPattern::UniformLookup {
                        space,
                        table_pages: 4_096,
                        count: 1,
                    },
                    AccessPattern::HotSet {
                        space,
                        hot_pages: 256,
                        count: 1,
                    },
                ]),
                cpu_base: SimDuration::from_micros(400),
                cpu_per_page: SimDuration::from_micros(10),
                is_write: true,
            },
        ],
    }
}

/// A generation-heavy mix: each query models a nested-loop index join of
/// 128 Zipf probes (16 for a write), one rejection-inversion draw per
/// generated page, while execution replays hot hits against a small
/// resident table. The sweep's `zipf` workload, and the regime where its
/// shared-schedule memoization pays most (`bench.sweep_memo_speedup` in
/// `benchmark/`).
pub fn zipf_heavy_workload() -> WorkloadSpec {
    let us = SimDuration::from_micros;
    let probes = |n: usize| {
        let probe = AccessPattern::zipf_lookup(SpaceId(0), 512, 1.9, 1);
        AccessPattern::Composite(vec![probe; n])
    };
    WorkloadSpec {
        name: "zipf-heavy".to_string(),
        app: AppId(0),
        classes: vec![
            QueryClassSpec {
                name: "ZipfJoinRead",
                sql: "SELECT … FROM f JOIN d1 … JOIN d48 WHERE f.k = ?",
                weight: 0.97,
                pattern: probes(128),
                cpu_base: us(40),
                cpu_per_page: us(1),
                is_write: false,
            },
            QueryClassSpec {
                name: "ZipfWrite",
                sql: "UPDATE kv SET v = ? WHERE k = ?",
                weight: 0.03,
                pattern: probes(16),
                cpu_base: us(60),
                cpu_per_page: us(1),
                is_write: true,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odlb_sim::SimRng;

    #[test]
    fn cpu_bound_stays_in_hot_set() {
        let w = cpu_bound_workload(AppId(3), 64, 5);
        let mut rng = SimRng::new(1);
        for _ in 0..500 {
            for page in w.sample_query(&mut rng).pages {
                assert!(page.page_no() < 64);
            }
        }
    }

    #[test]
    fn cpu_bound_demand_is_dominated_by_base() {
        let w = cpu_bound_workload(AppId(3), 64, 5);
        let mut rng = SimRng::new(2);
        let q = w.query_of_class(0, &mut rng);
        assert!(q.cpu_demand() >= SimDuration::from_millis(5));
        assert!(q.pages.len() <= 8);
    }

    #[test]
    fn hotspot_write_locks_one_page() {
        let w = hotspot_write_workload(AppId(5), 5);
        let mut rng = SimRng::new(9);
        let idx = w.class_index_by_name("CounterUpdate").unwrap();
        for _ in 0..50 {
            let q = w.query_of_class(idx, &mut rng);
            assert_eq!(q.locked_pages().len(), 1, "locks exactly the counter");
            assert_eq!(q.locked_pages()[0].page_no(), 0);
        }
    }

    #[test]
    fn apps_get_disjoint_spaces() {
        let a = cpu_bound_workload(AppId(1), 10, 1);
        let b = cpu_bound_workload(AppId(2), 10, 1);
        let mut rng = SimRng::new(4);
        let pa = a.sample_query(&mut rng).pages[0].space;
        let pb = b.sample_query(&mut rng).pages[0].space;
        assert_ne!(pa, pb);
    }
}
