//! The unit of work the engine executes.

use odlb_metrics::ClassId;
use odlb_sim::SimDuration;
use odlb_storage::PageId;

/// One query instance, fully materialised: its class (template) and the
/// resource demands its execution generates. Workload models produce these
/// from per-class access-pattern generators.
#[derive(Clone, Debug, PartialEq)]
pub struct QuerySpec {
    /// The query's class — the paper's scheduling and accounting unit.
    pub class: ClassId,
    /// Buffer-pool page accesses, in execution order.
    pub pages: Vec<PageId>,
    /// Fixed CPU demand (parse/plan/return).
    pub cpu_base: SimDuration,
    /// CPU demand per page accessed (predicate evaluation etc.).
    pub cpu_per_page: SimDuration,
    /// True for updates: under read-one-write-all they are applied on
    /// every replica of the application.
    pub is_write: bool,
    /// For writes: the first `lock_prefix` entries of `pages` are the
    /// update target and are locked exclusively for the execution.
    /// Zero for reads (non-locking MVCC).
    pub lock_prefix: usize,
}

impl QuerySpec {
    /// Total CPU demand for this query.
    pub fn cpu_demand(&self) -> SimDuration {
        self.cpu_base + self.cpu_per_page * self.pages.len() as u64
    }

    /// The cheaper *apply* form executed on non-primary replicas for a
    /// write: same page set (the update must touch the same data), but the
    /// per-page CPU is halved (no result construction, pre-resolved plan).
    /// Takes the spec by value so the page list moves instead of cloning
    /// (the driver's hot path recycles the buffer afterwards).
    pub fn into_replica_apply(self) -> QuerySpec {
        debug_assert!(self.is_write, "only writes are applied on replicas");
        QuerySpec {
            cpu_base: self.cpu_base / 2,
            cpu_per_page: self.cpu_per_page / 2,
            ..self
        }
    }

    /// The pages this query locks exclusively (empty for reads).
    pub fn locked_pages(&self) -> &[odlb_storage::PageId] {
        if self.is_write {
            &self.pages[..self.lock_prefix.min(self.pages.len())]
        } else {
            &[]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odlb_metrics::AppId;
    use odlb_storage::SpaceId;

    fn spec(n_pages: u64, write: bool) -> QuerySpec {
        QuerySpec {
            class: ClassId::new(AppId(0), 1),
            pages: (0..n_pages).map(|i| PageId::new(SpaceId(0), i)).collect(),
            cpu_base: SimDuration::from_micros(100),
            cpu_per_page: SimDuration::from_micros(10),
            is_write: write,
            lock_prefix: if write { 2 } else { 0 },
        }
    }

    #[test]
    fn cpu_demand_scales_with_pages() {
        assert_eq!(spec(0, false).cpu_demand(), SimDuration::from_micros(100));
        assert_eq!(spec(50, false).cpu_demand(), SimDuration::from_micros(600));
    }

    #[test]
    fn replica_apply_halves_cpu() {
        let w = spec(10, true);
        let a = w.clone().into_replica_apply();
        assert_eq!(a.cpu_demand(), w.cpu_demand() / 2);
        assert_eq!(a.pages, w.pages);
        assert!(a.is_write);
        assert_eq!(a.lock_prefix, w.lock_prefix);
    }

    #[test]
    fn reads_lock_nothing_writes_lock_their_prefix() {
        assert!(spec(10, false).locked_pages().is_empty());
        assert_eq!(spec(10, true).locked_pages().len(), 2);
        // Prefix larger than the page list is clamped, not a panic.
        let mut w = spec(1, true);
        w.lock_prefix = 9;
        assert_eq!(w.locked_pages().len(), 1);
    }
}
