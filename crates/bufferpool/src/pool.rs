//! A single-partition buffer pool. Per-class hits and misses are not
//! kept here: they ride each query's log record (`QueryLogRecord`).

use crate::lru::{LruList, Reference};
use odlb_storage::PageId;
use odlb_telemetry::{enter_span, span_units, SharedSpanProfiler};

/// The result of one page access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The page was resident.
    Hit,
    /// The page was not resident and has been installed (the caller
    /// charges the disk read).
    Miss,
}

impl AccessOutcome {
    /// Convenience predicate.
    pub fn is_miss(self) -> bool {
        matches!(self, AccessOutcome::Miss)
    }
}

/// A single LRU pool shared by all classes routed to it.
#[derive(Clone, Debug)]
pub struct BufferPool {
    lru: LruList,
    /// Lifetime pages evicted by capacity pressure (monotone, so it can
    /// back a telemetry counter).
    evictions: u64,
}

/// One class's view of a pool for a run of page references: the LRU
/// list and the eviction counter of the partition that serves it,
/// resolved once (per query) instead of once per page.
#[derive(Debug)]
pub struct ClassAccess<'a> {
    lru: &'a mut LruList,
    evictions: &'a mut u64,
    profiler: &'a Option<SharedSpanProfiler>,
}

impl ClassAccess<'_> {
    /// Accesses one page. On a miss the page is installed at MRU (the
    /// caller performs the disk read).
    pub fn access(&mut self, page: PageId) -> AccessOutcome {
        match self.lru.reference(page, true) {
            Reference::Resident => AccessOutcome::Hit,
            Reference::Installed { evicted } => {
                *self.evictions += evicted.is_some() as u64;
                AccessOutcome::Miss
            }
        }
    }

    /// Installs prefetched pages (read-ahead) without counting them as
    /// accesses. Already-resident pages are skipped *without* promotion
    /// (prefetch must not distort recency). Returns how many pages were
    /// actually installed.
    pub fn prefetch(&mut self, pages: impl IntoIterator<Item = PageId>) -> u64 {
        let _span = enter_span(self.profiler, "bufferpool_prefetch");
        let mut installed = 0;
        for page in pages {
            if let Reference::Installed { evicted } = self.lru.reference(page, false) {
                *self.evictions += evicted.is_some() as u64;
                installed += 1;
            }
        }
        span_units(self.profiler, installed);
        installed
    }
}

impl BufferPool {
    /// Creates a pool of `capacity_pages` pages.
    pub fn new(capacity_pages: usize) -> Self {
        BufferPool {
            lru: LruList::new(capacity_pages),
            evictions: 0,
        }
    }

    /// Capacity in pages.
    pub fn capacity(&self) -> usize {
        self.lru.capacity()
    }

    /// Resident pages.
    pub fn resident(&self) -> usize {
        self.lru.len()
    }

    /// A view for a run of page references (one query's page list).
    /// `profiler`, when present, receives a `bufferpool_prefetch` span
    /// per prefetch batch.
    pub fn class_access<'a>(
        &'a mut self,
        profiler: &'a Option<SharedSpanProfiler>,
    ) -> ClassAccess<'a> {
        ClassAccess {
            lru: &mut self.lru,
            evictions: &mut self.evictions,
            profiler,
        }
    }

    /// Accesses one page. On a miss the page is installed at MRU (the
    /// caller performs the disk read).
    pub fn access(&mut self, page: PageId) -> AccessOutcome {
        self.class_access(&None).access(page)
    }

    /// Installs prefetched pages (read-ahead) without counting them as
    /// accesses; see [`ClassAccess::prefetch`].
    pub fn prefetch(&mut self, pages: impl IntoIterator<Item = PageId>) -> u64 {
        self.class_access(&None).prefetch(pages)
    }

    /// True when `page` is resident (no recency update).
    pub fn contains(&self, page: PageId) -> bool {
        self.lru.contains(page)
    }

    /// Resizes the pool; shrinking evicts LRU pages.
    pub fn resize(&mut self, capacity_pages: usize) {
        self.lru.set_capacity(capacity_pages);
    }

    /// Resident pages in LRU→MRU order (suitable for re-insertion into
    /// another pool while preserving recency).
    pub fn resident_pages(&self) -> Vec<PageId> {
        let mut pages = self.lru.pages_mru_to_lru();
        pages.reverse();
        pages
    }

    /// Installs pages without any accounting — pool warm-up during
    /// replica provisioning ("warming up the buffer pool", §3.3.2).
    pub fn preload(&mut self, pages: impl IntoIterator<Item = PageId>) {
        for page in pages {
            if self.lru.insert(page).is_some() {
                self.evictions += 1;
            }
        }
    }

    /// Lifetime pages evicted by capacity pressure (monotone).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PartitionedPool;
    use odlb_metrics::{AppId, ClassId};
    use odlb_storage::SpaceId;

    fn pid(no: u64) -> PageId {
        PageId::new(SpaceId(0), no)
    }

    #[test]
    fn miss_then_hit() {
        let mut p = BufferPool::new(10);
        assert_eq!(p.access(pid(5)), AccessOutcome::Miss);
        assert_eq!(p.access(pid(5)), AccessOutcome::Hit);
    }

    #[test]
    fn classes_share_residency_but_not_counters() {
        // Outcomes are returned, not tallied: each query's record keeps
        // its own class's hits and misses.
        let class = |t| ClassId::new(AppId(0), t);
        let mut p = PartitionedPool::new(10);
        assert_eq!(p.access(class(1), pid(5)), AccessOutcome::Miss);
        // Class 2 benefits from class 1's page: shared pool.
        assert_eq!(p.access(class(2), pid(5)), AccessOutcome::Hit);
    }

    #[test]
    fn capacity_evictions_cause_remises() {
        let mut p = BufferPool::new(2);
        p.access(pid(1));
        p.access(pid(2));
        p.access(pid(3)); // evicts 1
        assert_eq!(p.access(pid(1)), AccessOutcome::Miss);
        assert_eq!(p.resident(), 2);
    }

    #[test]
    fn prefetch_installs_without_access_counting() {
        let mut p = BufferPool::new(10);
        let installed = p.prefetch((0..4).map(pid));
        assert_eq!(installed, 4);
        assert_eq!(p.resident(), 4);
        assert_eq!(p.access(pid(2)), AccessOutcome::Hit);
    }

    #[test]
    fn prefetch_skips_resident_without_promotion() {
        let mut p = BufferPool::new(2);
        p.access(pid(1));
        p.access(pid(2)); // MRU order: 2, 1
        let installed = p.prefetch([pid(1)]);
        assert_eq!(installed, 0, "already resident");
        // Page 1 must still be the LRU: next insert evicts it.
        p.access(pid(3));
        assert!(!p.contains(pid(1)));
        assert!(p.contains(pid(2)));
    }

    #[test]
    fn evictions_counter_survives_drain() {
        let mut p = BufferPool::new(2);
        p.access(pid(1));
        p.access(pid(2));
        assert_eq!(p.evictions(), 0);
        p.access(pid(3)); // evicts 1
        p.prefetch([pid(4)]); // evicts 2
        assert_eq!(p.evictions(), 2);
    }

    #[test]
    fn shrink_evicts() {
        let mut p = BufferPool::new(8);
        for i in 0..8 {
            p.access(pid(i));
        }
        p.resize(3);
        assert_eq!(p.resident(), 3);
        assert!(p.contains(pid(7)));
        assert!(!p.contains(pid(0)));
    }
}
