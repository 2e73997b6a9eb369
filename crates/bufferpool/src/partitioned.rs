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
//! always sum to the configured total.

use crate::pool::{AccessOutcome, BufferPool, ClassAccess};
use odlb_metrics::ClassId;
use odlb_sim::FastMap;
use odlb_storage::PageId;
use odlb_telemetry::SharedSpanProfiler;

/// A buffer pool with optional per-class quota partitions.
#[derive(Clone, Debug)]
pub struct PartitionedPool {
    total_pages: usize,
    general: BufferPool,
    quotas: FastMap<ClassId, BufferPool>,
    profiler: Option<SharedSpanProfiler>,
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
            general: BufferPool::new(total_pages),
            quotas: FastMap::default(),
            profiler: None,
        }
    }

    /// Installs a span profiler: each prefetch batch records a
    /// `bufferpool_prefetch` span whose sim units are the pages actually
    /// inserted. Observation-only.
    pub fn set_profiler(&mut self, profiler: SharedSpanProfiler) {
        self.profiler = Some(profiler);
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
        self.general.resize(self.general.capacity() - pages);
        self.quotas.insert(class, BufferPool::new(pages));
        Ok(())
    }

    /// Dissolves `class`'s partition, returning its pages to the general
    /// partition. The partition's contents are dropped cold (the general
    /// partition does not inherit them — matching the cost asymmetry the
    /// paper discusses). Returns whether a quota existed.
    pub fn clear_quota(&mut self, class: ClassId) -> bool {
        match self.quotas.remove(&class) {
            Some(p) => {
                self.general.resize(self.general.capacity() + p.capacity());
                true
            }
            None => false,
        }
    }

    /// Resolves `class` once for a run of page references: the partition
    /// that serves it (its dedicated one if it has a quota, else the
    /// general one). The engine takes one per query;
    /// [`PartitionedPool::access`] and
    /// [`PartitionedPool::prefetch`] are the per-page forms.
    pub fn class_access(&mut self, class: ClassId) -> ClassAccess<'_> {
        let partition = match self.quotas.get_mut(&class) {
            Some(p) => p,
            None => &mut self.general,
        };
        partition.class_access(&self.profiler)
    }

    /// Accesses one page: routed to the class's dedicated partition if it
    /// has one, otherwise to the general partition.
    pub fn access(&mut self, class: ClassId, page: PageId) -> AccessOutcome {
        self.class_access(class).access(page)
    }

    /// Prefetches pages on behalf of `class` into its routed partition.
    pub fn prefetch(&mut self, class: ClassId, pages: impl IntoIterator<Item = PageId>) -> u64 {
        self.class_access(class).prefetch(pages)
    }

    /// Resident pages of the general partition, LRU→MRU order.
    pub fn general_resident_pages(&self) -> Vec<PageId> {
        self.general.resident_pages()
    }

    /// Installs pages into the general partition without accounting
    /// (replica warm-up).
    pub fn preload(&mut self, pages: impl IntoIterator<Item = PageId>) {
        self.general.preload(pages);
    }

    /// Lifetime evictions across all partitions (monotone).
    pub fn evictions(&self) -> u64 {
        let quotaed: u64 = self.quotas.iter_sorted().map(|(_, p)| p.evictions()).sum();
        self.general.evictions() + quotaed
    }

    /// Every partition as `(class, capacity, resident)` in pages: the
    /// general partition (`None`) first, then the quota partitions in
    /// class order.
    pub fn partitions(&self) -> Vec<(Option<ClassId>, usize, usize)> {
        let mut out = vec![(None, self.general.capacity(), self.general.resident())];
        let quotaed = self.quotas.iter_sorted();
        out.extend(quotaed.map(|(class, p)| (Some(*class), p.capacity(), p.resident())));
        out
    }

    /// Verifies the capacity invariant (for tests and debug assertions).
    pub fn capacity_invariant_holds(&self) -> bool {
        let quota_sum: usize = self.quotas.iter_sorted().map(|(_, p)| p.capacity()).sum();
        self.general.capacity() + quota_sum == self.total_pages
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
        assert!(p.capacity_invariant_holds());
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
        assert!(p.capacity_invariant_holds());
    }

    #[test]
    fn clear_quota_returns_capacity() {
        let mut p = PartitionedPool::new(100);
        p.set_quota(class(8), 40).unwrap();
        assert_eq!(p.general_pages(), 60);
        assert!(p.clear_quota(class(8)));
        assert_eq!(p.general_pages(), 100);
        assert!(!p.clear_quota(class(8)), "second clear is a no-op");
        assert!(p.capacity_invariant_holds());
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
        assert!(p.capacity_invariant_holds());
    }

    #[test]
    fn prefetch_routes_to_quota_partition() {
        let mut p = PartitionedPool::new(100);
        p.set_quota(class(8), 10).unwrap();
        assert_eq!(p.prefetch(class(8), (0..5).map(pid)), 5);
        assert_eq!(p.access(class(8), pid(3)), AccessOutcome::Hit);
        // General partition never saw those pages.
        assert_eq!(p.access(class(1), pid(3)), AccessOutcome::Miss);
    }
}
