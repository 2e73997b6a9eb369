//! The RUBiS model: an eBay-style auction site under the bidding mix.
//!
//! 11 query classes. The load-bearing calibration target is
//! **SearchItemsByRegion** (the paper's problem class in Tables 2–3 and
//! Fig. 6): a region×category listing whose scans range over almost the
//! whole items table — acceptable memory ≈ 7.9k pages (paper: 7906), so it
//! *cannot* co-locate with TPC-W's BestSeller in one 8192-page pool, and
//! it contributes the large majority of the application's I/O (paper: 87%
//! of I/O accesses).
//!
//! The bidding mix is ~15% writes ("the most representative of an auction
//! site workload").

use crate::pattern::AccessPattern;
use crate::spec::{QueryClassSpec, WorkloadSpec};
use odlb_metrics::AppId;
use odlb_sim::SimDuration;

/// RUBiS tablespaces (offset so TPC-W and RUBiS can share one engine).
pub mod spaces {
    use odlb_storage::SpaceId;
    /// Active auction items.
    pub const ITEMS: SpaceId = SpaceId(16);
    /// Registered users.
    pub const USERS: SpaceId = SpaceId(17);
    /// Bids.
    pub const BIDS: SpaceId = SpaceId(18);
    /// User comments.
    pub const COMMENTS: SpaceId = SpaceId(19);
    /// Categories (small, hot).
    pub const CATEGORIES: SpaceId = SpaceId(20);
    /// Regions (small, hot).
    pub const REGIONS: SpaceId = SpaceId(21);
}

/// Table sizes in pages.
pub mod sizing {
    /// `items` pages.
    pub const ITEMS_PAGES: u64 = 9_000;
    /// `users` pages.
    pub const USERS_PAGES: u64 = 6_000;
    /// `bids` pages.
    pub const BIDS_PAGES: u64 = 8_000;
    /// `comments` pages.
    pub const COMMENTS_PAGES: u64 = 2_000;
    /// `categories` pages (RUBiS has 20 categories).
    pub const CATEGORIES_PAGES: u64 = 20;
    /// `regions` pages (RUBiS has 62 regions).
    pub const REGIONS_PAGES: u64 = 62;
}

/// Class index of SearchItemsByRegion, the paper's problem class.
pub const SEARCH_ITEMS_BY_REGION: usize = 3;

/// RUBiS configuration knobs.
#[derive(Clone, Copy, Debug)]
pub struct RubisConfig {
    /// Application identity in the cluster.
    pub app: AppId,
}

impl Default for RubisConfig {
    fn default() -> Self {
        RubisConfig { app: AppId(1) }
    }
}

/// Builds the RUBiS workload under the bidding mix.
pub fn rubis_workload(config: RubisConfig) -> WorkloadSpec {
    use sizing::*;
    use spaces::*;
    let us = SimDuration::from_micros;
    let classes = vec![
        QueryClassSpec {
            name: "BrowseCategories",
            sql: "SELECT * FROM categories",
            weight: 8.0,
            pattern: AccessPattern::HotSet { space: CATEGORIES, hot_pages: CATEGORIES_PAGES, count: 2 },
            cpu_base: us(200),
            cpu_per_page: us(12),
            is_write: false,
        },
        QueryClassSpec {
            name: "BrowseRegions",
            sql: "SELECT * FROM regions",
            weight: 6.0,
            pattern: AccessPattern::HotSet { space: REGIONS, hot_pages: REGIONS_PAGES, count: 2 },
            cpu_base: us(200),
            cpu_per_page: us(12),
            is_write: false,
        },
        QueryClassSpec {
            name: "SearchItemsByCategory",
            sql: "SELECT * FROM items WHERE category = 5 AND end_date >= 1 ORDER BY end_date ASC",
            weight: 12.0,
            pattern: AccessPattern::zipf_lookup(ITEMS, ITEMS_PAGES, 1.0, 15),
            cpu_base: us(600),
            cpu_per_page: us(15),
            is_write: false,
        },
        QueryClassSpec {
            name: "SearchItemsByRegion",
            sql: "SELECT * FROM items, users WHERE items.seller = users.id AND users.region = 3 AND category = 5",
            weight: 10.0,
            pattern: AccessPattern::Composite(vec![
                AccessPattern::HotSet { space: REGIONS, hot_pages: REGIONS_PAGES, count: 2 },
                // Region-restricted listings have no covering index: each
                // execution walks a long contiguous stretch of the items
                // table at a near-uniform position, so the class's working
                // set approaches the whole table.
                AccessPattern::RecencyScan {
                    space: ITEMS,
                    table_pages: ITEMS_PAGES,
                    scan_pages: 450,
                    recency: 0.9,
                    window_pages: 8_200,
                },
            ]),
            cpu_base: us(1_500),
            cpu_per_page: us(18),
            is_write: false,
        },
        QueryClassSpec {
            name: "ViewItem",
            sql: "SELECT * FROM items WHERE id = 9",
            weight: 18.0,
            pattern: AccessPattern::zipf_lookup(ITEMS, ITEMS_PAGES, 1.1, 3),
            cpu_base: us(250),
            cpu_per_page: us(12),
            is_write: false,
        },
        QueryClassSpec {
            name: "ViewUserInfo",
            sql: "SELECT * FROM users, comments WHERE users.id = 4 AND comments.to_user_id = users.id",
            weight: 8.0,
            pattern: AccessPattern::Composite(vec![
                AccessPattern::zipf_lookup(USERS, USERS_PAGES, 1.0, 2),
                AccessPattern::zipf_lookup(COMMENTS, COMMENTS_PAGES, 0.9, 3),
            ]),
            cpu_base: us(300),
            cpu_per_page: us(12),
            is_write: false,
        },
        QueryClassSpec {
            name: "ViewBidHistory",
            sql: "SELECT * FROM bids, users WHERE bids.item_id = 2 AND bids.user_id = users.id ORDER BY bids.date DESC",
            weight: 8.0,
            pattern: AccessPattern::zipf_lookup(BIDS, BIDS_PAGES, 1.0, 6),
            cpu_base: us(400),
            cpu_per_page: us(14),
            is_write: false,
        },
        QueryClassSpec {
            name: "AboutMe",
            sql: "SELECT * FROM users, bids, items WHERE users.id = 1 AND bids.user_id = 1 AND bids.item_id = items.id",
            weight: 5.0,
            pattern: AccessPattern::Composite(vec![
                AccessPattern::zipf_lookup(USERS, USERS_PAGES, 1.0, 4),
                AccessPattern::zipf_lookup(BIDS, BIDS_PAGES, 1.0, 5),
            ]),
            cpu_base: us(500),
            cpu_per_page: us(14),
            is_write: false,
        },
        QueryClassSpec {
            name: "PlaceBid",
            sql: "INSERT INTO bids (user_id, item_id, bid) VALUES (1, 2, 3)",
            weight: 9.0,
            pattern: AccessPattern::Composite(vec![
                AccessPattern::zipf_lookup(ITEMS, ITEMS_PAGES, 1.1, 2),
                AccessPattern::HotSet { space: BIDS, hot_pages: 300, count: 3 },
            ]),
            cpu_base: us(400),
            cpu_per_page: us(14),
            is_write: true,
        },
        QueryClassSpec {
            name: "RegisterItem",
            sql: "INSERT INTO items (name, seller, category) VALUES ('x', 1, 2)",
            weight: 3.0,
            pattern: AccessPattern::HotSet { space: ITEMS, hot_pages: 300, count: 3 },
            cpu_base: us(450),
            cpu_per_page: us(14),
            is_write: true,
        },
        QueryClassSpec {
            name: "BuyNow",
            sql: "UPDATE items SET quantity = 0 WHERE id = 8",
            weight: 3.0,
            pattern: AccessPattern::Composite(vec![
                AccessPattern::zipf_lookup(ITEMS, ITEMS_PAGES, 1.1, 2),
                AccessPattern::HotSet { space: USERS, hot_pages: 200, count: 2 },
            ]),
            cpu_base: us(400),
            cpu_per_page: us(14),
            is_write: true,
        },
    ];
    WorkloadSpec {
        name: "RUBiS".into(),
        app: config.app,
        classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odlb_mrc::MattsonTracker;
    use odlb_sim::SimRng;
    use odlb_storage::SpaceId;

    #[test]
    fn eleven_classes_and_mix() {
        let w = rubis_workload(RubisConfig::default());
        assert_eq!(w.classes.len(), 11);
        assert_eq!(
            w.classes[SEARCH_ITEMS_BY_REGION].name,
            "SearchItemsByRegion"
        );
        let frac = w.write_fraction();
        assert!((0.10..=0.20).contains(&frac), "write fraction {frac}");
    }

    #[test]
    fn search_items_by_region_mrc_spans_most_of_items_table() {
        // Fig. 6: acceptable memory ≈ 7906 pages — too big to share an
        // 8192-page pool with anything that matters.
        let w = rubis_workload(RubisConfig::default());
        let mut rng = SimRng::new(101);
        let mut tracker = MattsonTracker::new(10_000);
        for _ in 0..200 {
            for page in w.query_of_class(SEARCH_ITEMS_BY_REGION, &mut rng).pages {
                tracker.access(page);
            }
        }
        let params = tracker.curve().params(0.05);
        assert!(
            (6_500..=9_500).contains(&params.acceptable_memory_needed),
            "acceptable memory {}",
            params.acceptable_memory_needed
        );
    }

    #[test]
    fn search_items_by_region_dominates_page_traffic() {
        // §5.5: SearchItemsByRegion contributes "a large majority (87%)"
        // of the I/O. Page traffic share in the mix is the driver.
        let w = rubis_workload(RubisConfig::default());
        let total_weighted: f64 = w
            .classes
            .iter()
            .map(|c| c.weight * c.pattern.pages_per_query() as f64)
            .sum();
        let heavy = &w.classes[SEARCH_ITEMS_BY_REGION];
        let share = heavy.weight * heavy.pattern.pages_per_query() as f64 / total_weighted;
        assert!(share > 0.75, "page-traffic share {share:.2}");
    }

    #[test]
    fn excluded_class_never_sampled() {
        // Table 3 removes the class from the mix at run time.
        let mut w = rubis_workload(RubisConfig::default());
        w.classes[SEARCH_ITEMS_BY_REGION].weight = 0.0;
        let mut rng = SimRng::new(5);
        for _ in 0..5_000 {
            let q = w.sample_query(&mut rng);
            assert_ne!(
                q.class.template as usize, SEARCH_ITEMS_BY_REGION,
                "weight 0 class must never be drawn"
            );
        }
    }

    #[test]
    fn spaces_disjoint_from_tpcw() {
        let tpcw = crate::tpcw::tpcw_workload(crate::tpcw::TpcwConfig::default());
        let rubis = rubis_workload(RubisConfig::default());
        let mut rng = SimRng::new(9);
        let mut tpcw_spaces: Vec<SpaceId> = Vec::new();
        for _ in 0..200 {
            for p in tpcw.sample_query(&mut rng).pages {
                tpcw_spaces.push(p.space);
            }
        }
        for _ in 0..200 {
            for p in rubis.sample_query(&mut rng).pages {
                assert!(
                    !tpcw_spaces.contains(&p.space),
                    "RUBiS space {:?} collides with TPC-W",
                    p.space
                );
            }
        }
    }
}
