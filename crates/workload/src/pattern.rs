//! Page-access-pattern generators.
//!
//! Each query class's execution is characterised by the sequence of buffer
//! pool pages it touches. The generators here compose into per-class
//! patterns: an index-backed query is a hot set of index pages plus a few
//! skewed data-page lookups; a reporting query is a recency-skewed range
//! scan; an index-less query degenerates into a long sequential scan.

use odlb_sim::rng::Zipf;
use odlb_sim::SimRng;
use odlb_storage::{PageId, SpaceId};

/// A generator of page-access sequences.
#[derive(Clone, Debug)]
pub enum AccessPattern {
    /// `count` Zipf-skewed point lookups over the first pages of `space`
    /// (rank 1 = page 0), built by [`AccessPattern::zipf_lookup`]. Models
    /// primary-key/index lookups with popularity skew.
    ZipfLookup {
        /// Tablespace to read.
        space: SpaceId,
        /// The page-rank sampler, built once per pattern: its set-up costs
        /// about ten transcendentals, more than a draw.
        zipf: Zipf,
        /// Pages touched per query.
        count: u32,
    },
    /// `count` uniform point lookups over `table_pages` pages.
    UniformLookup {
        /// Tablespace to read.
        space: SpaceId,
        /// Table size in pages.
        table_pages: u64,
        /// Pages touched per query.
        count: u32,
    },
    /// A contiguous scan of `scan_pages`, whose start position is skewed
    /// towards the *end* of the table by `recency` (0 = uniform start,
    /// larger = more concentrated on recent pages). Models index range
    /// scans over recency-ordered data (recent orders, newest items).
    RecencyScan {
        /// Tablespace to read.
        space: SpaceId,
        /// Table size in pages.
        table_pages: u64,
        /// Length of the scan in pages.
        scan_pages: u64,
        /// Recency skew exponent; start offset from the end is distributed
        /// as `u^recency · window`.
        recency: f64,
        /// Size of the window (from the end of the table) in which scans
        /// start.
        window_pages: u64,
    },
    /// A sequential scan of pages `0..scan_pages` of `space` — the
    /// degenerate full-scan plan of a query that lost its index.
    SequentialScan {
        /// Tablespace to read.
        space: SpaceId,
        /// Pages scanned per query.
        scan_pages: u64,
    },
    /// A cyclic scan: each execution continues where the previous one
    /// left off, wrapping at `table_pages` — successive executions of a
    /// full-table-scan plan walking a table much larger than the pool.
    /// Re-access distances equal the table size, the LRU-hostile worst
    /// case, so the class's MRC is flat below `table_pages` (the paper's
    /// index-less BestSeller).
    CyclicScan {
        /// Tablespace to read.
        space: SpaceId,
        /// Table size in pages (the wrap point).
        table_pages: u64,
        /// Pages scanned per execution.
        scan_pages: u64,
        /// Scan cursor: where the next execution starts.
        cursor: std::cell::Cell<u64>,
    },
    /// `count` accesses confined to a hot set of `hot_pages` pages
    /// (index roots, small dimension tables), uniformly.
    HotSet {
        /// Tablespace to read.
        space: SpaceId,
        /// Size of the hot set in pages.
        hot_pages: u64,
        /// Pages touched per query.
        count: u32,
    },
    /// Concatenation of sub-patterns in order.
    Composite(Vec<AccessPattern>),
}

impl AccessPattern {
    /// `count` lookups over the first `table_pages` pages of `space`,
    /// Zipf-skewed with `exponent` (≈0.8–1.2 for web workloads).
    pub fn zipf_lookup(space: SpaceId, table_pages: u64, exponent: f64, count: u32) -> Self {
        AccessPattern::ZipfLookup {
            space,
            zipf: Zipf::new(table_pages.max(1), exponent),
            count,
        }
    }

    /// Generates one query's page-access sequence.
    pub fn generate(&self, rng: &mut SimRng) -> Vec<PageId> {
        let mut out = Vec::new();
        self.generate_into(rng, &mut out);
        out
    }

    /// Appends one query's accesses to `out`.
    pub fn generate_into(&self, rng: &mut SimRng, out: &mut Vec<PageId>) {
        match self {
            AccessPattern::ZipfLookup { space, zipf, count } => {
                for _ in 0..*count {
                    let rank = zipf.sample(rng) - 1;
                    out.push(PageId::new(*space, rank));
                }
            }
            AccessPattern::UniformLookup {
                space,
                table_pages,
                count,
            } => {
                for _ in 0..*count {
                    out.push(PageId::new(*space, rng.below((*table_pages).max(1))));
                }
            }
            AccessPattern::RecencyScan {
                space,
                table_pages,
                scan_pages,
                recency,
                window_pages,
            } => {
                // Offset back from the end of the table: u^recency spreads
                // starts within the window, concentrated near the end for
                // large `recency`.
                let window = (*window_pages).min(*table_pages).max(1);
                let u = rng.f64();
                let back = (u.powf(*recency) * window as f64) as u64;
                let end = table_pages.saturating_sub(back);
                let start = end.saturating_sub(*scan_pages);
                for p in start..end {
                    out.push(PageId::new(*space, p));
                }
            }
            AccessPattern::SequentialScan { space, scan_pages } => {
                for p in 0..*scan_pages {
                    out.push(PageId::new(*space, p));
                }
            }
            AccessPattern::CyclicScan {
                space,
                table_pages,
                scan_pages,
                cursor,
            } => {
                let start = cursor.get();
                for i in 0..*scan_pages {
                    out.push(PageId::new(*space, (start + i) % table_pages));
                }
                cursor.set((start + scan_pages) % table_pages);
            }
            AccessPattern::HotSet {
                space,
                hot_pages,
                count,
            } => {
                for _ in 0..*count {
                    out.push(PageId::new(*space, rng.below((*hot_pages).max(1))));
                }
            }
            AccessPattern::Composite(parts) => {
                for p in parts {
                    p.generate_into(rng, out);
                }
            }
        }
    }

    /// Appends one query's accesses to `out` and returns the length of
    /// the *first component's* contribution. For a write query this
    /// prefix is the update target (workload models list the written
    /// table first in their composites), which the engine locks
    /// exclusively. `out` is not cleared — the driver's hot path recycles
    /// page buffers through here, so steady-state generation allocates
    /// nothing.
    pub fn generate_with_prefix_into(&self, rng: &mut SimRng, out: &mut Vec<PageId>) -> usize {
        let base = out.len();
        match self {
            AccessPattern::Composite(parts) => {
                if let Some(first) = parts.first() {
                    first.generate_into(rng, out);
                }
                let prefix = out.len() - base;
                for p in parts.iter().skip(1) {
                    p.generate_into(rng, out);
                }
                prefix
            }
            _ => {
                self.generate_into(rng, out);
                out.len() - base
            }
        }
    }

    /// Expected pages per query (upper bound for scans), used for CPU
    /// demand estimates and sanity checks.
    pub fn pages_per_query(&self) -> u64 {
        match self {
            AccessPattern::ZipfLookup { count, .. }
            | AccessPattern::UniformLookup { count, .. }
            | AccessPattern::HotSet { count, .. } => *count as u64,
            AccessPattern::RecencyScan { scan_pages, .. }
            | AccessPattern::SequentialScan { scan_pages, .. }
            | AccessPattern::CyclicScan { scan_pages, .. } => *scan_pages,
            AccessPattern::Composite(parts) => parts.iter().map(|p| p.pages_per_query()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(42)
    }

    #[test]
    fn zipf_lookup_prefers_low_pages() {
        let p = AccessPattern::zipf_lookup(SpaceId(0), 1000, 1.0, 1);
        let mut r = rng();
        let mut low = 0;
        let n = 10_000;
        for _ in 0..n {
            let pages = p.generate(&mut r);
            assert_eq!(pages.len(), 1);
            assert!(pages[0].page_no() < 1000);
            if pages[0].page_no() < 10 {
                low += 1;
            }
        }
        // Under Zipf(1.0, n=1000), pages 0..10 carry ~39% of mass.
        assert!(low > n / 4, "low-page mass {low}/{n}");
    }

    #[test]
    fn uniform_lookup_stays_in_range() {
        let p = AccessPattern::UniformLookup {
            space: SpaceId(3),
            table_pages: 50,
            count: 8,
        };
        let mut r = rng();
        for _ in 0..100 {
            for page in p.generate(&mut r) {
                assert_eq!(page.space, SpaceId(3));
                assert!(page.page_no() < 50);
            }
        }
    }

    #[test]
    fn recency_scan_is_contiguous_and_recent() {
        let p = AccessPattern::RecencyScan {
            space: SpaceId(1),
            table_pages: 10_000,
            scan_pages: 100,
            recency: 3.0,
            window_pages: 2_000,
        };
        let mut r = rng();
        let mut starts = Vec::new();
        for _ in 0..200 {
            let pages = p.generate(&mut r);
            assert_eq!(pages.len(), 100);
            for w in pages.windows(2) {
                assert!(w[1].is_successor_of(w[0]), "scan must be contiguous");
            }
            starts.push(pages[0].page_no());
        }
        // Strong recency: most starts land in the last fifth of the window.
        let recent = starts.iter().filter(|&&s| s >= 10_000 - 500).count();
        // Uniform starts would land ~40/200 here; recency skew should
        // roughly triple that.
        assert!(recent > 100, "recent starts {recent}/200");
    }

    #[test]
    fn sequential_scan_from_zero() {
        let p = AccessPattern::SequentialScan {
            space: SpaceId(2),
            scan_pages: 10,
        };
        let pages = p.generate(&mut rng());
        let nos: Vec<u64> = pages.iter().map(|p| p.page_no()).collect();
        assert_eq!(nos, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cyclic_scan_advances_and_wraps() {
        let p = AccessPattern::CyclicScan {
            space: SpaceId(3),
            table_pages: 10,
            scan_pages: 4,
            cursor: std::cell::Cell::new(0),
        };
        let mut r = rng();
        let a: Vec<u64> = p.generate(&mut r).iter().map(|x| x.page_no()).collect();
        let b: Vec<u64> = p.generate(&mut r).iter().map(|x| x.page_no()).collect();
        let c: Vec<u64> = p.generate(&mut r).iter().map(|x| x.page_no()).collect();
        assert_eq!(a, vec![0, 1, 2, 3]);
        assert_eq!(b, vec![4, 5, 6, 7]);
        assert_eq!(c, vec![8, 9, 0, 1], "wraps at the table size");
        assert_eq!(p.pages_per_query(), 4);
    }

    #[test]
    fn cyclic_scan_clones_do_not_share_cursors() {
        let p = AccessPattern::CyclicScan {
            space: SpaceId(3),
            table_pages: 10,
            scan_pages: 4,
            cursor: std::cell::Cell::new(0),
        };
        let q = p.clone();
        let mut r = rng();
        p.generate(&mut r);
        let from_clone: Vec<u64> = q.generate(&mut r).iter().map(|x| x.page_no()).collect();
        assert_eq!(
            from_clone,
            vec![0, 1, 2, 3],
            "clone starts at its own cursor"
        );
    }

    #[test]
    fn hot_set_confined() {
        let p = AccessPattern::HotSet {
            space: SpaceId(0),
            hot_pages: 16,
            count: 100,
        };
        for page in p.generate(&mut rng()) {
            assert!(page.page_no() < 16);
        }
    }

    #[test]
    fn composite_concatenates_in_order() {
        let p = AccessPattern::Composite(vec![
            AccessPattern::SequentialScan {
                space: SpaceId(0),
                scan_pages: 3,
            },
            AccessPattern::SequentialScan {
                space: SpaceId(1),
                scan_pages: 2,
            },
        ]);
        let pages = p.generate(&mut rng());
        assert_eq!(pages.len(), 5);
        assert_eq!(pages[0].space, SpaceId(0));
        assert_eq!(pages[3].space, SpaceId(1));
        assert_eq!(p.pages_per_query(), 5);
    }

    #[test]
    fn prefix_covers_first_component() {
        let p = AccessPattern::Composite(vec![
            AccessPattern::SequentialScan {
                space: SpaceId(0),
                scan_pages: 3,
            },
            AccessPattern::SequentialScan {
                space: SpaceId(1),
                scan_pages: 5,
            },
        ]);
        let mut pages = Vec::new();
        let prefix = p.generate_with_prefix_into(&mut rng(), &mut pages);
        assert_eq!(pages.len(), 8);
        assert_eq!(prefix, 3);
        assert!(pages[..prefix].iter().all(|x| x.space == SpaceId(0)));
    }

    #[test]
    fn prefix_of_non_composite_is_everything() {
        let p = AccessPattern::HotSet {
            space: SpaceId(0),
            hot_pages: 4,
            count: 6,
        };
        let mut pages = Vec::new();
        let prefix = p.generate_with_prefix_into(&mut rng(), &mut pages);
        assert_eq!(prefix, pages.len());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let p = AccessPattern::UniformLookup {
            space: SpaceId(0),
            table_pages: 1000,
            count: 20,
        };
        let a = p.generate(&mut SimRng::new(7));
        let b = p.generate(&mut SimRng::new(7));
        assert_eq!(a, b);
    }
}
