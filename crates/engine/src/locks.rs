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

/// A table this small is never pruned: pruning it would cost more than
/// the entries it frees.
const PRUNE_FLOOR: usize = 64;

/// Exclusive page locks with FCFS waiting, bookkept analytically: each
/// page stores the time until which it is held; an acquisition at `now`
/// starts after every requested page is free and holds them until the
/// caller-provided release time.
///
/// Acquisition times never decrease (one engine's queries arrive in
/// event order), so an entry held until `now` or earlier can no longer
/// delay anyone: it waits exactly as an absent one. The table drops such
/// entries whenever it has doubled since its last prune (and holds at
/// least [`PRUNE_FLOOR`]), so it stays within twice the most pages ever
/// held at once, plus the floor.
#[derive(Clone, Debug, Default)]
pub struct LockManager {
    held_until: BTreeMap<PageId, SimTime>,
    /// The table's size after its last prune.
    pruned_to: usize,
    /// The latest acquisition time.
    last_acquire: SimTime,
}

impl LockManager {
    /// Creates an empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires exclusive locks on `pages` for a write arriving at `now`
    /// whose execution (once running) lasts `exec`. Returns the lock wait
    /// — the delay until every page is free. All pages are then held
    /// until `now + wait + exec`. `now` must not precede an earlier
    /// acquisition's.
    pub fn acquire(&mut self, now: SimTime, pages: &[PageId], exec: SimDuration) -> SimDuration {
        debug_assert!(
            now >= self.last_acquire,
            "lock acquisitions went back in time"
        );
        self.last_acquire = now;
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
        if self.held_until.len() >= (2 * self.pruned_to).max(PRUNE_FLOOR) {
            self.held_until.retain(|_, &mut until| until > now);
            self.pruned_to = self.held_until.len();
        }
        wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odlb_sim::SimRng;
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
    fn expired_locks_are_free_and_pruned_once_the_table_doubles() {
        let mut lm = LockManager::new();
        lm.acquire(at(0), &[pid(1)], ms(10));
        assert_eq!(lm.acquire(at(50), &[pid(1)], ms(10)), ms(0));
        assert_eq!(lm.held_until.len(), 1);
        // Below the floor nothing is pruned; the acquisition that reaches
        // it drops every expired entry, its own pages kept.
        let pages: Vec<PageId> = (2..PRUNE_FLOOR as u64).map(pid).collect();
        lm.acquire(at(60), &pages, ms(1));
        assert_eq!(lm.held_until.len(), PRUNE_FLOOR - 1);
        lm.acquire(at(100), &[pid(500)], ms(10));
        assert_eq!(lm.held_until.len(), 1, "only page 500 is still held");
        assert_eq!(lm.pruned_to, 1);
    }

    /// Random multi-page writes at non-decreasing times wait exactly as
    /// they would on a table that never forgets, while the pruned table
    /// stays within twice the most pages held at once, plus the floor.
    #[test]
    fn pruned_table_waits_like_an_unpruned_oracle() {
        // (pages, largest gap, longest hold) in µs: a few hot pages; long
        // holds over many pages; and holds of a few µs with ties in time,
        // so pruned entries are often about to be asked for again.
        let regimes = [(40, 3_000, 200_000), (4_000, 3_000, 200_000), (300, 3, 6)];
        for seed in 0..24 {
            let mut rng = SimRng::new(seed);
            let mut lm = LockManager::new();
            let mut oracle: BTreeMap<PageId, SimTime> = BTreeMap::new();
            let mut now = SimTime::ZERO;
            let mut peak_live = 0;
            let (universe, gap, hold) = regimes[seed as usize % regimes.len()];
            for _ in 0..1_500 {
                now += SimDuration::from_micros(rng.below(gap));
                let pages: Vec<PageId> = (0..rng.below(7))
                    .map(|_| pid(rng.below(universe)))
                    .collect();
                let exec = SimDuration::from_micros(rng.below(hold));
                let mut free_at = now;
                for page in &pages {
                    if let Some(&until) = oracle.get(page) {
                        free_at = free_at.max(until);
                    }
                }
                let release = free_at + exec;
                for &page in &pages {
                    oracle.insert(page, release);
                }
                assert_eq!(
                    lm.acquire(now, &pages, exec),
                    free_at.since(now),
                    "seed {seed}"
                );
                peak_live = peak_live.max(oracle.values().filter(|&&until| until > now).count());
                assert!(
                    lm.held_until.len() <= 2 * peak_live + PRUNE_FLOOR,
                    "seed {seed}: {} entries, at most {peak_live} held at once",
                    lm.held_until.len()
                );
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "back in time")]
    fn acquisitions_going_back_in_time_are_refused() {
        let mut lm = LockManager::new();
        lm.acquire(at(10), &[pid(1)], ms(1));
        lm.acquire(at(9), &[pid(2)], ms(1));
    }

    #[test]
    fn empty_page_set_is_a_noop_wait() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(at(0), &[], ms(10)), ms(0));
    }
}
