//! Page-level write locks — the substrate behind the paper's §7 future
//! work ("outlier detection is a promising approach for narrowing down …
//! lock contention or deadlock situations").
//!
//! InnoDB-style semantics at page granularity, simplified for the
//! analytic execution model: reads are non-locking (MVCC); a write query
//! acquires exclusive locks on the pages it updates for the duration of
//! its execution. Conflicting writers queue FCFS per page; the engine
//! records their waiting time as the per-class `LockWaits` metric, which
//! then flows through exactly the same stable-state / outlier pipeline as
//! every other counter.

use odlb_sim::{SimDuration, SimTime};
use odlb_storage::PageId;
use std::collections::BTreeMap;

/// Exclusive page locks with FCFS waiting, bookkept analytically: each
/// page stores the time until which it is held; an acquisition at `now`
/// starts after every requested page is free and holds them until the
/// caller-provided release time.
#[derive(Clone, Debug, Default)]
pub struct LockManager {
    held_until: BTreeMap<PageId, SimTime>,
}

impl LockManager {
    /// Creates an empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires exclusive locks on `pages` for a write arriving at `now`
    /// whose execution (once running) lasts `exec`. Returns the lock wait
    /// — the delay until every page is free. All pages are then held
    /// until `now + wait + exec`.
    pub fn acquire(&mut self, now: SimTime, pages: &[PageId], exec: SimDuration) -> SimDuration {
        let mut free_at = now;
        for page in pages {
            if let Some(&until) = self.held_until.get(page) {
                free_at = free_at.max(until);
            }
        }
        let wait = free_at.since(now);
        let release = now + wait + exec;
        for &page in pages {
            self.held_until.insert(page, release);
        }
        wait
    }

    /// Drops expired entries (call at interval close; keeps the table
    /// proportional to in-flight writes, not history).
    pub fn gc(&mut self, now: SimTime) {
        self.held_until.retain(|_, &mut until| until > now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odlb_storage::SpaceId;

    fn pid(no: u64) -> PageId {
        PageId::new(SpaceId(0), no)
    }
    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }
    fn at(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn uncontended_acquisition_is_free() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(at(0), &[pid(1), pid(2)], ms(10)), ms(0));
    }

    #[test]
    fn conflicting_writers_serialize_fcfs() {
        let mut lm = LockManager::new();
        lm.acquire(at(0), &[pid(1)], ms(10)); // holds 1 until t=10
        let w2 = lm.acquire(at(4), &[pid(1)], ms(10)); // waits 6, holds until 20
        assert_eq!(w2, ms(6));
        let w3 = lm.acquire(at(5), &[pid(1)], ms(10)); // waits 15, until 30
        assert_eq!(w3, ms(15));
    }

    #[test]
    fn disjoint_pages_do_not_conflict() {
        let mut lm = LockManager::new();
        lm.acquire(at(0), &[pid(1)], ms(100));
        assert_eq!(lm.acquire(at(1), &[pid(2)], ms(100)), ms(0));
    }

    #[test]
    fn multi_page_write_waits_for_the_latest_holder() {
        let mut lm = LockManager::new();
        lm.acquire(at(0), &[pid(1)], ms(10));
        lm.acquire(at(0), &[pid(2)], ms(30));
        // Needs both: must wait for page 2's holder (t=30).
        assert_eq!(lm.acquire(at(0), &[pid(1), pid(2)], ms(5)), ms(30));
    }

    #[test]
    fn expired_locks_are_free_and_gc_drops_them() {
        let mut lm = LockManager::new();
        lm.acquire(at(0), &[pid(1)], ms(10));
        assert_eq!(lm.acquire(at(50), &[pid(1)], ms(10)), ms(0));
        assert_eq!(lm.held_until.len(), 1);
        lm.gc(at(100));
        assert_eq!(lm.held_until.len(), 0);
    }

    #[test]
    fn empty_page_set_is_a_noop_wait() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(at(0), &[], ms(10)), ms(0));
    }
}
