//! A single-partition buffer pool with per-class accounting.

use crate::lru::{LruList, Reference};
use odlb_metrics::ClassId;
use odlb_sim::FastMap;
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

/// Per-class hit/miss accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassCounters {
    /// Page accesses (hits + misses).
    pub accesses: u64,
    /// Accesses served from memory.
    pub hits: u64,
    /// Accesses that required a disk read.
    pub misses: u64,
    /// Pages installed by read-ahead on this class's behalf.
    pub prefetched: u64,
}

impl ClassCounters {
    /// Hit ratio over all accesses (1.0 when no accesses, so an idle class
    /// reads as unproblematic).
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// A single LRU pool shared by all classes routed to it.
#[derive(Clone, Debug)]
pub struct BufferPool {
    lru: LruList,
    counters: FastMap<ClassId, ClassCounters>,
    /// Lifetime pages evicted by capacity pressure. Unlike the per-class
    /// counters this is never drained or moved, so it can back a monotone
    /// telemetry counter.
    evictions: u64,
}

/// One class's view of a pool for a run of page references: the LRU
/// list, the class's counter slot and the eviction counter, resolved
/// once (per query) instead of once per page.
#[derive(Debug)]
pub struct ClassAccess<'a> {
    lru: &'a mut LruList,
    counters: &'a mut ClassCounters,
    evictions: &'a mut u64,
    profiler: &'a Option<SharedSpanProfiler>,
}

impl ClassAccess<'_> {
    /// Accesses one page. On a miss the page is installed at MRU (the
    /// caller performs the disk read).
    pub fn access(&mut self, page: PageId) -> AccessOutcome {
        self.counters.accesses += 1;
        match self.lru.reference(page, true) {
            Reference::Resident => {
                self.counters.hits += 1;
                AccessOutcome::Hit
            }
            Reference::Installed { evicted } => {
                self.counters.misses += 1;
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
        self.counters.prefetched += installed;
        span_units(self.profiler, installed);
        installed
    }
}

impl BufferPool {
    /// Creates a pool of `capacity_pages` pages.
    pub fn new(capacity_pages: usize) -> Self {
        BufferPool {
            lru: LruList::new(capacity_pages),
            counters: FastMap::default(),
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

    /// Resolves `class` once — its counter slot in this pool — for a run
    /// of page references (one query's page list). `profiler`, when
    /// present, receives a `bufferpool_prefetch` span per prefetch batch.
    pub fn class_access<'a>(
        &'a mut self,
        class: ClassId,
        profiler: &'a Option<SharedSpanProfiler>,
    ) -> ClassAccess<'a> {
        ClassAccess {
            lru: &mut self.lru,
            counters: self.counters.entry(class).or_default(),
            evictions: &mut self.evictions,
            profiler,
        }
    }

    /// Accesses one page on behalf of `class`. On a miss the page is
    /// installed at MRU (the caller performs the disk read).
    pub fn access(&mut self, class: ClassId, page: PageId) -> AccessOutcome {
        self.class_access(class, &None).access(page)
    }

    /// Installs prefetched pages (read-ahead) on behalf of `class` without
    /// counting them as accesses. Already-resident pages are skipped
    /// *without* promotion (prefetch must not distort recency). Returns
    /// how many pages were actually installed.
    pub fn prefetch(&mut self, class: ClassId, pages: impl IntoIterator<Item = PageId>) -> u64 {
        self.class_access(class, &None).prefetch(pages)
    }

    /// True when `page` is resident (no recency update).
    pub fn contains(&self, page: PageId) -> bool {
        self.lru.contains(page)
    }

    /// Counters for one class.
    pub fn class_counters(&self, class: ClassId) -> ClassCounters {
        self.counters.get(&class).copied().unwrap_or_default()
    }

    /// Forgets all class counters, keeping resident pages untouched.
    pub fn drain_counters(&mut self) {
        self.counters.clear();
    }

    /// Forgets one class's counters (its accounting moves elsewhere).
    pub fn clear_class_counters(&mut self, class: ClassId) {
        self.counters.remove(&class);
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

    /// Lifetime pages evicted by capacity pressure (monotone; survives
    /// counter drains and resets).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odlb_metrics::AppId;
    use odlb_storage::SpaceId;

    fn class(t: u32) -> ClassId {
        ClassId::new(AppId(0), t)
    }
    fn pid(no: u64) -> PageId {
        PageId::new(SpaceId(0), no)
    }

    #[test]
    fn miss_then_hit() {
        let mut p = BufferPool::new(10);
        assert_eq!(p.access(class(1), pid(5)), AccessOutcome::Miss);
        assert_eq!(p.access(class(1), pid(5)), AccessOutcome::Hit);
        let c = p.class_counters(class(1));
        assert_eq!((c.accesses, c.hits, c.misses), (2, 1, 1));
        assert_eq!(c.hit_ratio(), 0.5);
    }

    #[test]
    fn classes_share_residency_but_not_counters() {
        let mut p = BufferPool::new(10);
        p.access(class(1), pid(5));
        // Class 2 benefits from class 1's page: shared pool.
        assert_eq!(p.access(class(2), pid(5)), AccessOutcome::Hit);
        assert_eq!(p.class_counters(class(1)).misses, 1);
        assert_eq!(p.class_counters(class(2)).hits, 1);
    }

    #[test]
    fn capacity_evictions_cause_remises() {
        let mut p = BufferPool::new(2);
        p.access(class(1), pid(1));
        p.access(class(1), pid(2));
        p.access(class(1), pid(3)); // evicts 1
        assert_eq!(p.access(class(1), pid(1)), AccessOutcome::Miss);
        assert_eq!(p.resident(), 2);
    }

    #[test]
    fn prefetch_installs_without_access_counting() {
        let mut p = BufferPool::new(10);
        let installed = p.prefetch(class(1), (0..4).map(pid));
        assert_eq!(installed, 4);
        assert_eq!(p.class_counters(class(1)).accesses, 0);
        assert_eq!(p.class_counters(class(1)).prefetched, 4);
        assert_eq!(p.access(class(1), pid(2)), AccessOutcome::Hit);
    }

    #[test]
    fn prefetch_skips_resident_without_promotion() {
        let mut p = BufferPool::new(2);
        p.access(class(1), pid(1));
        p.access(class(1), pid(2)); // MRU order: 2, 1
        let installed = p.prefetch(class(1), [pid(1)]);
        assert_eq!(installed, 0, "already resident");
        // Page 1 must still be the LRU: next insert evicts it.
        p.access(class(1), pid(3));
        assert!(!p.contains(pid(1)));
        assert!(p.contains(pid(2)));
    }

    #[test]
    fn idle_class_reads_perfect_ratio() {
        let p = BufferPool::new(4);
        assert_eq!(p.class_counters(class(9)).hit_ratio(), 1.0);
    }

    #[test]
    fn drain_counters_resets_accounting_only() {
        let mut p = BufferPool::new(4);
        p.access(class(1), pid(1));
        assert_eq!(p.class_counters(class(1)).misses, 1);
        p.drain_counters();
        assert_eq!(p.class_counters(class(1)), ClassCounters::default());
        assert!(p.contains(pid(1)), "pages survive interval close");
    }

    #[test]
    fn evictions_counter_survives_drain() {
        let mut p = BufferPool::new(2);
        p.access(class(1), pid(1));
        p.access(class(1), pid(2));
        assert_eq!(p.evictions(), 0);
        p.access(class(1), pid(3)); // evicts 1
        p.prefetch(class(1), [pid(4)]); // evicts 2
        assert_eq!(p.evictions(), 2);
        p.drain_counters();
        assert_eq!(p.evictions(), 2, "lifetime counter is never drained");
    }

    #[test]
    fn shrink_evicts() {
        let mut p = BufferPool::new(8);
        for i in 0..8 {
            p.access(class(1), pid(i));
        }
        p.resize(3);
        assert_eq!(p.resident(), 3);
        assert!(p.contains(pid(7)));
        assert!(!p.contains(pid(0)));
    }
}
