//! Property tests for the partitioned buffer pool: the capacity invariant
//! must hold under arbitrary interleavings of quota grants, clears,
//! accesses and prefetches, and a quota must bound its class's residency.
//! Under them, one `LruList` must equal a plain `VecDeque` LRU.

use odlb::bufferpool::{LruList, PartitionedPool, QuotaError, Reference};
use odlb::metrics::{AppId, ClassId};
use odlb::storage::page::MAX_PAGES_PER_SPACE;
use odlb::storage::page_table::LEAF_PAGES;
use odlb::storage::{PageId, SpaceId};
use odlb_testkit::{check, Gen};
use std::collections::VecDeque;

const LAST_PAGE: u64 = MAX_PAGES_PER_SPACE - 1;

#[derive(Clone, Debug)]
enum Op {
    Access { class: u32, page: u64 },
    Prefetch { class: u32, start: u64, len: u64 },
    SetQuota { class: u32, pages: usize },
    ClearQuota { class: u32 },
}

fn ops(g: &mut Gen) -> Vec<Op> {
    g.vec_of(1, 400, |g| match g.weighted(&[6.0, 2.0, 1.0, 1.0]) {
        0 => Op::Access {
            class: g.u32_in(0, 6),
            page: g.u64_in(0, 2_000),
        },
        1 => Op::Prefetch {
            class: g.u32_in(0, 6),
            start: g.u64_in(0, 2_000),
            len: g.u64_in(1, 64),
        },
        2 => Op::SetQuota {
            class: g.u32_in(0, 6),
            pages: g.usize_in(1, 600),
        },
        _ => Op::ClearQuota {
            class: g.u32_in(0, 6),
        },
    })
}

fn apply(pool: &mut PartitionedPool, op: &Op) {
    let cid = |t: u32| ClassId::new(AppId(0), t);
    match *op {
        Op::Access { class, page } => {
            pool.access(cid(class), PageId::new(SpaceId(0), page));
        }
        Op::Prefetch { class, start, len } => {
            pool.prefetch(cid(class), PageId::new(SpaceId(0), start), len);
        }
        Op::SetQuota { class, pages } => match pool.set_quota(cid(class), pages) {
            Ok(())
            | Err(QuotaError::AlreadyQuotaed)
            | Err(QuotaError::InsufficientGeneral { .. })
            | Err(QuotaError::ZeroQuota) => {}
        },
        Op::ClearQuota { class } => {
            pool.clear_quota(cid(class));
        }
    }
}

#[test]
fn capacity_invariant_under_arbitrary_ops() {
    check("capacity_invariant_under_arbitrary_ops", 256, |g| {
        let mut pool = PartitionedPool::new(1024);
        for op in ops(g) {
            apply(&mut pool, &op);
            let capacities: usize = pool.partitions().iter().map(|&(_, c, _)| c).sum();
            assert_eq!(capacities, pool.total_pages());
            assert_eq!(pool.total_pages(), 1024);
            assert!(
                pool.general_pages() >= 1,
                "general partition never vanishes"
            );
        }
    });
}

/// A class with a quota can never consume more distinct resident
/// pages than its quota.
#[test]
fn quota_bounds_residency() {
    check("quota_bounds_residency", 256, |g| {
        let pages = g.vec_of(1, 500, |g| g.u64_in(0, 10_000));
        let mut pool = PartitionedPool::new(1024);
        let class = ClassId::new(AppId(0), 8);
        pool.set_quota(class, 64).unwrap();
        for &p in &pages {
            pool.access(class, PageId::new(SpaceId(0), p));
        }
        // Re-touch the last 64 distinct pages: at most 64 can hit, and
        // anything beyond the quota must have been evicted.
        let mut distinct: Vec<u64> = Vec::new();
        for &p in pages.iter().rev() {
            if !distinct.contains(&p) {
                distinct.push(p);
            }
        }
        if distinct.len() > 64 {
            let victim = distinct[distinct.len() - 1];
            // The oldest distinct page cannot still be resident unless it
            // was re-touched into the recent 64.
            let recent: Vec<u64> = distinct.iter().take(64).copied().collect();
            if !recent.contains(&victim) {
                let outcome = pool.access(class, PageId::new(SpaceId(0), victim));
                assert!(outcome.is_miss(), "evicted page must miss");
            }
        }
    });
}

/// The simplest LRU: pages MRU first, evicting from the back.
struct ModelLru {
    pages: VecDeque<PageId>,
    capacity: usize,
    evictions: u64,
}

impl ModelLru {
    fn reference(&mut self, page: PageId, promote: bool) -> Reference {
        if let Some(i) = self.pages.iter().position(|&p| p == page) {
            if promote {
                self.pages.remove(i);
                self.pages.push_front(page);
            }
            return Reference::Resident;
        }
        let evicted = if self.pages.len() >= self.capacity {
            self.evictions += 1;
            self.pages.pop_back()
        } else {
            None
        };
        self.pages.push_front(page);
        Reference::Installed { evicted }
    }
}

/// `LruList` equals the model under random references (promoting or
/// not), extent prefetches, and capacity shrinks and grows, over pages in
/// several tablespaces. Pages cluster around the page table's leaf and
/// directory boundaries and the last page of a space, so the list's links
/// cross leaves and directories.
#[test]
fn lru_list_equals_a_reference_model() {
    check("lru_list_equals_a_reference_model", 256, |g| {
        let capacity = g.usize_in(1, 48);
        let mut lru = LruList::new(capacity);
        let mut model = ModelLru {
            pages: VecDeque::new(),
            capacity,
            evictions: 0,
        };
        let page = |g: &mut Gen| {
            let space = [0, 3, 17, 40, u32::MAX][g.usize_in(0, 5)];
            // A leaf spans 128 pages and a directory 2^17.
            let edge = [0, LEAF_PAGES as u64, 1 << 17, LAST_PAGE][g.usize_in(0, 4)];
            let low = edge.saturating_sub(24).min(LAST_PAGE - 47);
            PageId::new(SpaceId(space), low + g.u64_in(0, 48))
        };
        for _ in 0..g.usize_in(1, 400) {
            match g.weighted(&[8.0, 1.0, 1.0]) {
                0 => {
                    let (p, promote) = (page(g), g.chance(0.7));
                    assert_eq!(lru.reference(p, promote), model.reference(p, promote));
                }
                1 => {
                    let start = page(g);
                    let n = g.u64_in(0, 70).min(LAST_PAGE + 1 - start.page_no());
                    let want = (0..n)
                        .filter(|&i| model.reference(start.offset(i), false) != Reference::Resident)
                        .count() as u64;
                    assert_eq!(lru.prefetch(start, n), want);
                }
                _ => {
                    let capacity = g.usize_in(1, 48);
                    lru.set_capacity(capacity);
                    model.capacity = capacity;
                    model.pages.truncate(capacity);
                }
            }
            assert_eq!(lru.pages_mru_to_lru(), Vec::from(model.pages.clone()));
            assert_eq!(lru.len(), model.pages.len());
            assert_eq!(lru.evictions(), model.evictions);
        }
    });
}
