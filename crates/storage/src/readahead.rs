//! InnoDB-style linear read-ahead detection.
//!
//! InnoDB divides every tablespace into 64-page *extents*. When a
//! sufficiently long run of sequentially increasing page accesses is
//! observed inside an extent, the engine asynchronously prefetches the
//! whole next extent. The paper monitors per-query-class read-ahead request
//! counts as one of its outlier metrics: dropping the `O_DATE` index turns
//! the BestSeller query into a scan, and its read-ahead count explodes
//! relative to the stable state (Fig. 4(d)).
//!
//! The detector here is deliberately the same shape: per (consumer, space)
//! run tracking, a trigger threshold within the extent, and one prefetch of
//! the following extent per trigger.

use crate::page::{PageId, SpaceId, MAX_PAGES_PER_SPACE};

/// Pages per extent (InnoDB constant).
pub const EXTENT_PAGES: u64 = 64;

/// Sequentially increasing accesses within an extent that trigger
/// prefetch of the next extent: InnoDB's default threshold, 56 of 64.
const TRIGGER: u32 = 56;

#[derive(Clone, Copy, Debug, Default)]
struct RunState {
    last_page: Option<u64>,
    run_len: u32,
    /// Extent index for which prefetch was already issued, to avoid
    /// re-triggering on continued access within the same extent.
    triggered_extent: Option<u64>,
}

/// One consumer's runs, one per tablespace it has touched (a handful, so
/// a linear scan beats a table).
type SpaceRuns = Vec<(SpaceId, RunState)>;

/// Detects linear scans and decides when to issue read-ahead.
///
/// Keyed by an opaque `consumer` id (the engine keys by query class) and
/// the tablespace, because concurrent streams must not break each other's
/// run detection.
#[derive(Clone, Debug, Default)]
pub struct ReadAheadDetector {
    /// Each consumer's runs, sorted by consumer for binary search (one
    /// consumer per query class: a few dozen at most).
    runs: Vec<(u64, SpaceRuns)>,
}

/// One consumer's view of the detector for a run of page accesses (one
/// query's page list): the consumer is resolved once, and its run for a
/// tablespace is looked up again only when the tablespace changes.
#[derive(Debug)]
pub struct ConsumerRuns<'a> {
    spaces: &'a mut SpaceRuns,
    /// Index in `spaces` of the tablespace last observed.
    current: usize,
}

impl ConsumerRuns<'_> {
    /// Observes one page access. Returns the first page of the extent to
    /// prefetch (64 pages starting there) when the linear read-ahead
    /// heuristic fires, else `None`.
    pub fn observe(&mut self, page: PageId) -> Option<PageId> {
        if self.spaces.get(self.current).map(|r| r.0) != Some(page.space) {
            self.current = match self.spaces.iter().position(|r| r.0 == page.space) {
                Some(i) => i,
                None => {
                    self.spaces.push((page.space, RunState::default()));
                    self.spaces.len() - 1
                }
            };
        }
        let page_no = page.page_no();
        let state = &mut self.spaces[self.current].1;
        // Page 0 never continues a run: nothing precedes it.
        let sequential = page_no
            .checked_sub(1)
            .is_some_and(|prev| state.last_page == Some(prev));
        state.run_len = if sequential { state.run_len + 1 } else { 1 };
        state.last_page = Some(page_no);

        let extent = page_no / EXTENT_PAGES;
        if state.run_len >= TRIGGER && state.triggered_extent != Some(extent) {
            let next_extent_start = (extent + 1) * EXTENT_PAGES;
            if next_extent_start >= MAX_PAGES_PER_SPACE {
                // A scan ending in the top extent: nothing addressable follows.
                return None;
            }
            state.triggered_extent = Some(extent);
            return Some(PageId::new(page.space, next_extent_start));
        }
        None
    }
}

impl ReadAheadDetector {
    /// Resolves `consumer` once for a run of page accesses.
    pub fn consumer(&mut self, consumer: u64) -> ConsumerRuns<'_> {
        let i = match self.runs.binary_search_by_key(&consumer, |r| r.0) {
            Ok(i) => i,
            Err(i) => {
                self.runs.insert(i, (consumer, SpaceRuns::new()));
                i
            }
        };
        ConsumerRuns {
            spaces: &mut self.runs[i].1,
            current: 0,
        }
    }

    /// Observes one page access by `consumer`. Returns the first page of
    /// the extent to prefetch (64 pages starting there) when the linear
    /// read-ahead heuristic fires, else `None`.
    pub fn observe(&mut self, consumer: u64, page: PageId) -> Option<PageId> {
        self.consumer(consumer).observe(page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::SpaceId;

    /// The trigger as a page count.
    const T: u64 = TRIGGER as u64;

    fn pid(space: u32, no: u64) -> PageId {
        PageId::new(SpaceId(space), no)
    }

    #[test]
    fn long_sequential_run_triggers_prefetch_of_next_extent() {
        let mut d = ReadAheadDetector::default();
        let mut fired = None;
        for i in 0..T + 2 {
            if let Some(p) = d.observe(1, pid(0, i)) {
                fired = Some((i, p));
                break;
            }
        }
        let (at, p) = fired.expect("read-ahead should fire");
        assert_eq!(at, T - 1, "fires on the trigger-th access");
        assert_eq!(p, pid(0, EXTENT_PAGES), "prefetches the next extent");
    }

    #[test]
    fn random_access_never_triggers() {
        let mut d = ReadAheadDetector::default();
        let pages = [5u64, 900, 3, 77, 12, 401, 9, 1000, 55, 2];
        for &p in &pages {
            assert_eq!(d.observe(1, pid(0, p)), None);
        }
    }

    #[test]
    fn run_must_be_within_one_consumer() {
        let mut d = ReadAheadDetector::default();
        // Interleaved consumers each advance their own run.
        for i in 0..T - 1 {
            assert_eq!(d.observe(1, pid(0, i)), None);
            assert_eq!(d.observe(2, pid(0, 200 + i)), None);
        }
        // The trigger-th sequential access per consumer fires for each.
        assert!(d.observe(1, pid(0, T - 1)).is_some());
        assert!(d.observe(2, pid(0, 200 + T - 1)).is_some());
    }

    #[test]
    fn retrigger_requires_new_extent() {
        let mut d = ReadAheadDetector::default();
        let fired = (0..T).filter_map(|i| d.observe(1, pid(0, i))).count();
        assert_eq!(fired, 1);
        // Continuing within the same extent: no duplicate prefetch.
        for i in T..EXTENT_PAGES {
            assert_eq!(d.observe(1, pid(0, i)), None);
        }
        // Crossing into the next extent and keeping the run: fires again.
        let fired = (EXTENT_PAGES..EXTENT_PAGES + 8).filter_map(|i| d.observe(1, pid(0, i)));
        assert_eq!(fired.count(), 1, "a scan fires once per extent");
    }

    #[test]
    fn broken_run_resets() {
        let mut d = ReadAheadDetector::default();
        for i in 0..T - 1 {
            d.observe(1, pid(0, i));
        }
        d.observe(1, pid(0, 1000)); // break
        for i in 1001..1000 + T - 1 {
            assert_eq!(d.observe(1, pid(0, i)), None);
        }
        assert!(
            d.observe(1, pid(0, 1000 + T - 1)).is_some(),
            "run of the trigger from 1000"
        );
    }

    #[test]
    fn different_spaces_do_not_mix() {
        let mut d = ReadAheadDetector::default();
        for i in 0..T - 1 {
            d.observe(1, pid(0, i));
        }
        // Same consumer, other space: separate run, no trigger.
        assert_eq!(d.observe(1, pid(9, T - 1)), None);
    }

    #[test]
    fn resolved_consumer_equals_per_page_observation() {
        // One consumer hopping between three tablespaces mid-run: the
        // per-query view (space looked up again only on a change) must
        // fire exactly where per-page observation does.
        let mut per_page = ReadAheadDetector::default();
        let mut resolved = ReadAheadDetector::default();
        let mut x: u64 = 0xFEED;
        let mut next = [0u64; 3];
        let mut fired = 0;
        for _query in 0..200 {
            let mut view = resolved.consumer(7);
            for _ in 0..(x % 23) {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let space = ((x >> 40) % 3) as usize;
                // Mostly sequential within a space, sometimes a jump.
                next[space] = if (x >> 20).is_multiple_of(101) {
                    (x >> 50) % 500
                } else {
                    next[space] + 1
                };
                let page = pid(space as u32, next[space]);
                let start = view.observe(page);
                assert_eq!(start, per_page.observe(7, page));
                fired += start.is_some() as u32;
            }
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        }
        assert!(fired > 0, "the trace must exercise the trigger");
    }

    #[test]
    fn page_zero_never_continues_a_run() {
        // The last addressable page then page 0 is a wrap, not a scan.
        let mut d = ReadAheadDetector::default();
        assert_eq!(d.observe(1, pid(0, MAX_PAGES_PER_SPACE - 1)), None);
        for i in 0..T - 1 {
            assert_eq!(d.observe(1, pid(0, i)), None, "run restarts at page 0");
        }
        assert!(
            d.observe(1, pid(0, T - 1)).is_some(),
            "run of the trigger from page 0"
        );
    }

    #[test]
    fn scan_ending_in_the_top_extent_prefetches_nothing() {
        let mut d = ReadAheadDetector::default();
        let top = MAX_PAGES_PER_SPACE - EXTENT_PAGES;
        // The extent below the top one still prefetches the top extent.
        let mut fired = Vec::new();
        for no in top - T..MAX_PAGES_PER_SPACE {
            fired.extend(d.observe(1, pid(0, no)));
        }
        assert_eq!(fired, vec![pid(0, top)], "no request for the top extent");
    }
}
