//! The quota mechanism: a general partition plus dedicated per-class
//! partitions (paper §3.3.2, Table 1).
//!
//! "The second option is to limit the amount of buffer pool that the
//! problem query class is allocated, by enforcing a fixed quota allocation
//! for the respective query class, while maintaining the placement of the
//! query on the same replica as before." The pool is "divided into two
//! dedicated partitions: one partition for servicing the BestSeller query
//! class and the other partition for all other queries of the application".
//!
//! Capacity invariant: the general partition plus all quota partitions
//! always sum to the configured total. Each partition is one [`LruList`].

use crate::lru::{LruList, Reference};
use odlb_metrics::ClassId;
use odlb_storage::PageId;
use std::collections::BTreeMap;

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

/// A buffer pool with optional per-class quota partitions.
#[derive(Clone, Debug)]
pub struct PartitionedPool {
    total_pages: usize,
    general: LruList,
    quotas: BTreeMap<ClassId, LruList>,
}

/// One class's view of the pool for a run of page references: the
/// partition that serves it, resolved once (per query) instead of once
/// per page.
#[derive(Debug)]
pub struct ClassAccess<'a> {
    lru: &'a mut LruList,
}

impl ClassAccess<'_> {
    /// Accesses one page. On a miss the page is installed at MRU (the
    /// caller performs the disk read).
    pub fn access(&mut self, page: PageId) -> AccessOutcome {
        match self.lru.reference(page, true) {
            Reference::Resident => AccessOutcome::Hit,
            Reference::Installed { .. } => AccessOutcome::Miss,
        }
    }

    /// Installs the prefetched pages `start .. start + pages`
    /// (read-ahead) without counting them as accesses. Already-resident
    /// pages are skipped *without* promotion (prefetch must not distort
    /// recency). Returns how many pages were actually installed.
    pub fn prefetch(&mut self, start: PageId, pages: u64) -> u64 {
        self.lru.prefetch(start, pages)
    }
}

/// Errors from quota manipulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuotaError {
    /// Granting the quota would leave the general partition under one page.
    InsufficientGeneral {
        /// Pages available for new quotas.
        available: usize,
        /// Pages requested.
        requested: usize,
    },
    /// The class already has a quota (clear it first).
    AlreadyQuotaed,
    /// Quota must be at least one page.
    ZeroQuota,
}

impl PartitionedPool {
    /// Creates a pool of `total_pages` pages, all in the general partition.
    pub fn new(total_pages: usize) -> Self {
        PartitionedPool {
            total_pages,
            general: LruList::new(total_pages),
            quotas: BTreeMap::new(),
        }
    }

    /// Total configured pages across all partitions.
    pub fn total_pages(&self) -> usize {
        self.total_pages
    }

    /// Pages currently assigned to the general partition.
    pub fn general_pages(&self) -> usize {
        self.general.capacity()
    }

    /// The quota (pages) of `class`, if it has a dedicated partition.
    pub fn quota_of(&self, class: ClassId) -> Option<usize> {
        self.quotas.get(&class).map(|p| p.capacity())
    }

    /// Carves a dedicated partition of `pages` for `class` out of the
    /// general partition (shrinking it and evicting its LRU pages).
    pub fn set_quota(&mut self, class: ClassId, pages: usize) -> Result<(), QuotaError> {
        if pages == 0 {
            return Err(QuotaError::ZeroQuota);
        }
        if self.quotas.contains_key(&class) {
            return Err(QuotaError::AlreadyQuotaed);
        }
        let available = self.general.capacity().saturating_sub(1);
        if pages > available {
            return Err(QuotaError::InsufficientGeneral {
                available,
                requested: pages,
            });
        }
        self.general.set_capacity(self.general.capacity() - pages);
        self.quotas.insert(class, LruList::new(pages));
        Ok(())
    }

    /// Dissolves `class`'s partition, returning its pages to the general
    /// partition. The partition's contents are dropped cold (the general
    /// partition does not inherit them — matching the cost asymmetry the
    /// paper discusses). Returns whether a quota existed.
    pub fn clear_quota(&mut self, class: ClassId) -> bool {
        match self.quotas.remove(&class) {
            Some(p) => {
                self.general
                    .set_capacity(self.general.capacity() + p.capacity());
                true
            }
            None => false,
        }
    }

    /// Resolves `class` once for a run of page references: the partition
    /// that serves it (its dedicated one if it has a quota, else the
    /// general one). The engine takes one per query;
    /// [`PartitionedPool::access`] and
    /// [`PartitionedPool::prefetch`] resolve it per call.
    pub fn class_access(&mut self, class: ClassId) -> ClassAccess<'_> {
        let lru = match self.quotas.get_mut(&class) {
            Some(p) => p,
            None => &mut self.general,
        };
        ClassAccess { lru }
    }

    /// Accesses one page: routed to the class's dedicated partition if it
    /// has one, otherwise to the general partition.
    pub fn access(&mut self, class: ClassId, page: PageId) -> AccessOutcome {
        self.class_access(class).access(page)
    }

    /// Prefetches the pages `start .. start + pages` on behalf of `class`
    /// into its routed partition.
    pub fn prefetch(&mut self, class: ClassId, start: PageId, pages: u64) -> u64 {
        self.class_access(class).prefetch(start, pages)
    }

    /// Resident pages of the general partition, LRU→MRU order (suitable
    /// for re-insertion into another pool while preserving recency).
    pub fn general_resident_pages(&self) -> Vec<PageId> {
        self.general.pages_mru_to_lru().into_iter().rev().collect()
    }

    /// Installs pages into the general partition without access
    /// accounting — pool warm-up during replica provisioning ("warming up
    /// the buffer pool", §3.3.2). Pages it evicts still count.
    pub fn preload(&mut self, pages: impl IntoIterator<Item = PageId>) {
        for page in pages {
            self.general.insert(page);
        }
    }

    /// Lifetime evictions across the live partitions (a cleared quota
    /// takes its share with it).
    pub fn evictions(&self) -> u64 {
        let quotaed: u64 = self.quotas.values().map(LruList::evictions).sum();
        self.general.evictions() + quotaed
    }

    /// Every partition as `(class, capacity, resident)` in pages: the
    /// general partition (`None`) first, then the quota partitions in
    /// class order.
    pub fn partitions(&self) -> Vec<(Option<ClassId>, usize, usize)> {
        let mut out = vec![(None, self.general.capacity(), self.general.len())];
        let quotaed = self.quotas.iter();
        out.extend(quotaed.map(|(class, p)| (Some(*class), p.capacity(), p.len())));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odlb_metrics::AppId;
    use odlb_storage::SpaceId;

    /// Pages over all partitions: always the pool's total.
    fn capacity_sum(p: &PartitionedPool) -> usize {
        p.partitions().iter().map(|&(_, cap, _)| cap).sum()
    }

    fn class(t: u32) -> ClassId {
        ClassId::new(AppId(0), t)
    }
    fn pid(no: u64) -> PageId {
        PageId::new(SpaceId(0), no)
    }

    #[test]
    fn miss_then_hit() {
        let mut p = PartitionedPool::new(10);
        assert_eq!(p.access(class(1), pid(5)), AccessOutcome::Miss);
        assert_eq!(p.access(class(1), pid(5)), AccessOutcome::Hit);
    }

    #[test]
    fn classes_share_residency_but_not_counters() {
        // Outcomes are returned, not tallied: each query's record keeps
        // its own class's hits and misses.
        let mut p = PartitionedPool::new(10);
        assert_eq!(p.access(class(1), pid(5)), AccessOutcome::Miss);
        // Class 2 benefits from class 1's page: shared pool.
        assert_eq!(p.access(class(2), pid(5)), AccessOutcome::Hit);
    }

    #[test]
    fn capacity_evictions_cause_remises() {
        let mut p = PartitionedPool::new(2);
        p.access(class(1), pid(1));
        p.access(class(1), pid(2));
        p.access(class(1), pid(3)); // evicts 1
        assert_eq!(p.access(class(1), pid(1)), AccessOutcome::Miss);
        assert_eq!(p.general_resident_pages().len(), 2);
    }

    #[test]
    fn prefetch_installs_without_access_counting() {
        let mut p = PartitionedPool::new(10);
        assert_eq!(p.prefetch(class(1), pid(0), 4), 4);
        assert_eq!(p.general_resident_pages().len(), 4);
        assert_eq!(p.access(class(1), pid(2)), AccessOutcome::Hit);
    }

    #[test]
    fn prefetch_skips_resident_without_promotion() {
        let mut p = PartitionedPool::new(2);
        p.access(class(1), pid(1));
        p.access(class(1), pid(2)); // MRU order: 2, 1
        assert_eq!(p.prefetch(class(1), pid(1), 1), 0, "already resident");
        // Page 1 must still be the LRU: next insert evicts it.
        p.access(class(1), pid(3));
        assert_eq!(p.general_resident_pages(), [pid(2), pid(3)]);
    }

    #[test]
    fn evictions_counter_survives_drain() {
        let mut p = PartitionedPool::new(2);
        p.access(class(1), pid(1));
        p.access(class(1), pid(2));
        assert_eq!(p.evictions(), 0);
        p.access(class(1), pid(3)); // evicts 1
        p.prefetch(class(1), pid(4), 1); // evicts 2
        assert_eq!(p.evictions(), 2);
    }

    #[test]
    fn shrink_evicts() {
        let mut p = PartitionedPool::new(8);
        for i in 0..8 {
            p.access(class(1), pid(i));
        }
        // A 5-page quota shrinks the general partition to 3 pages.
        p.set_quota(class(2), 5).unwrap();
        assert_eq!(p.general_resident_pages(), [pid(5), pid(6), pid(7)]);
    }

    /// Capacity pressure in any partition evicts and counts (access,
    /// prefetch, preload); a quota shrinking the general partition does not.
    #[test]
    fn evictions_count_capacity_pressure_not_quota_shrink() {
        let mut p = PartitionedPool::new(4);
        p.preload((0..6).map(pid)); // evicts 0 and 1
        assert_eq!(p.evictions(), 2);
        p.access(class(1), pid(6)); // evicts 2
        assert_eq!(p.prefetch(class(1), pid(7), 1), 1); // evicts 3
        assert_eq!(p.evictions(), 4);
        p.set_quota(class(2), 3).unwrap(); // drops 4, 5 and 6
        assert_eq!(p.general_resident_pages(), [pid(7)]);
        assert_eq!(p.evictions(), 4, "a quota shrink is not an eviction");
        for i in 10..14 {
            p.access(class(2), pid(i)); // the fourth evicts 10
        }
        assert_eq!(p.evictions(), 5);
    }

    #[test]
    fn quota_isolates_class_from_general_pollution() {
        let mut p = PartitionedPool::new(100);
        p.set_quota(class(8), 10).unwrap();
        // Class 8 works in its 10 pages.
        for i in 0..10 {
            p.access(class(8), pid(i));
        }
        // Another class floods the general partition with 90+ pages.
        for i in 1000..1200 {
            p.access(class(1), pid(i));
        }
        // Class 8's working set survived: all hits now.
        for i in 0..10 {
            assert_eq!(p.access(class(8), pid(i)), AccessOutcome::Hit);
        }
        assert_eq!(capacity_sum(&p), p.total_pages());
    }

    #[test]
    fn quota_confines_scanning_class() {
        let mut p = PartitionedPool::new(100);
        p.set_quota(class(8), 10).unwrap();
        // General classes establish a working set.
        for i in 0..80 {
            p.access(class(1), pid(i));
        }
        // Class 8 scans 500 pages — inside its own partition.
        for i in 10_000..10_500 {
            p.access(class(8), pid(i));
        }
        // The general working set is untouched.
        for i in 0..80 {
            assert_eq!(p.access(class(1), pid(i)), AccessOutcome::Hit);
        }
    }

    #[test]
    fn without_quota_scan_pollutes_shared_pool() {
        // The contrast case justifying Table 1's partitioning.
        let mut p = PartitionedPool::new(100);
        for i in 0..80 {
            p.access(class(1), pid(i));
        }
        for i in 10_000..10_500 {
            p.access(class(8), pid(i));
        }
        let mut hits = 0;
        for i in 0..80 {
            if p.access(class(1), pid(i)) == AccessOutcome::Hit {
                hits += 1;
            }
        }
        assert!(hits < 10, "scan evicted the working set ({hits} hits left)");
    }

    #[test]
    fn quota_errors() {
        let mut p = PartitionedPool::new(10);
        assert_eq!(p.set_quota(class(1), 0), Err(QuotaError::ZeroQuota));
        assert_eq!(
            p.set_quota(class(1), 10),
            Err(QuotaError::InsufficientGeneral {
                available: 9,
                requested: 10
            })
        );
        p.set_quota(class(1), 5).unwrap();
        assert_eq!(p.set_quota(class(1), 2), Err(QuotaError::AlreadyQuotaed));
        assert_eq!(capacity_sum(&p), p.total_pages());
    }

    #[test]
    fn clear_quota_returns_capacity() {
        let mut p = PartitionedPool::new(100);
        p.set_quota(class(8), 40).unwrap();
        assert_eq!(p.general_pages(), 60);
        assert!(p.clear_quota(class(8)));
        assert_eq!(p.general_pages(), 100);
        assert!(!p.clear_quota(class(8)), "second clear is a no-op");
        assert_eq!(capacity_sum(&p), p.total_pages());
    }

    #[test]
    fn clear_quota_drops_partition_contents_cold() {
        let mut p = PartitionedPool::new(100);
        p.set_quota(class(8), 10).unwrap();
        for i in 0..10 {
            p.access(class(8), pid(i));
        }
        p.clear_quota(class(8));
        assert_eq!(
            p.access(class(8), pid(0)),
            AccessOutcome::Miss,
            "pages were dropped, not migrated"
        );
    }

    #[test]
    fn multiple_quotas_coexist() {
        let mut p = PartitionedPool::new(100);
        p.set_quota(class(1), 20).unwrap();
        p.set_quota(class(2), 30).unwrap();
        assert_eq!(p.general_pages(), 50);
        assert_eq!(p.quota_of(class(1)), Some(20));
        assert_eq!(p.quota_of(class(2)), Some(30));
        let order: Vec<_> = p.partitions().into_iter().map(|(c, ..)| c).collect();
        assert_eq!(order, [None, Some(class(1)), Some(class(2))]);
        assert_eq!(capacity_sum(&p), p.total_pages());
    }

    #[test]
    fn prefetch_routes_to_quota_partition() {
        let mut p = PartitionedPool::new(100);
        p.set_quota(class(8), 10).unwrap();
        assert_eq!(p.prefetch(class(8), pid(0), 5), 5);
        assert_eq!(p.access(class(8), pid(3)), AccessOutcome::Hit);
        // General partition never saw those pages.
        assert_eq!(p.access(class(1), pid(3)), AccessOutcome::Miss);
    }
}
