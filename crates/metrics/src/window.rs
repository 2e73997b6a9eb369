//! Per-class windows of recent page accesses.
//!
//! §3.3 tracks "a window of the most recent page accesses issued by the
//! DBMS on behalf of the queries belonging to each specific query class".
//! The window is the input to on-demand MRC recomputation: when a class's
//! memory counters look like outliers, the controller replays the window
//! through a Mattson tracker to re-derive the class's MRC parameters.

use crate::ids::ClassId;
use odlb_mrc::{compute_curve, MissRatioCurve, MrcMode};
use odlb_storage::PageId;
use std::collections::{BTreeMap, VecDeque};

/// A bounded ring of recent page accesses for one query class.
#[derive(Clone, Debug)]
pub struct AccessWindow {
    pages: VecDeque<PageId>,
    capacity: usize,
    /// Total accesses ever observed (including those that fell out).
    observed: u64,
}

impl AccessWindow {
    /// Creates a window retaining the most recent `capacity` accesses.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "window must retain at least one access");
        AccessWindow {
            pages: VecDeque::with_capacity(capacity),
            capacity,
            observed: 0,
        }
    }

    /// Records one page access.
    pub fn push(&mut self, page: PageId) {
        if self.pages.len() == self.capacity {
            self.pages.pop_front();
        }
        self.pages.push_back(page);
        self.observed += 1;
    }

    /// Records a run of page accesses, oldest first — one query's page
    /// list in one step. Same result as pushing each page in turn.
    pub fn extend(&mut self, pages: &[PageId]) {
        self.observed += pages.len() as u64;
        let kept = &pages[pages.len().saturating_sub(self.capacity)..];
        let overflow = (self.pages.len() + kept.len()).saturating_sub(self.capacity);
        self.pages.drain(..overflow);
        self.pages.extend(kept);
    }

    /// Accesses currently retained.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Total accesses ever observed.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Iterates retained accesses oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = PageId> + '_ {
        self.pages.iter().copied()
    }

    /// Replays the window through the tracker `mode` selects — exact
    /// Mattson or SHARDS-style spatial sampling — yielding the class's
    /// current miss ratio curve tracked up to `cap_pages`.
    pub fn compute_mrc_with(&self, mode: MrcMode, cap_pages: usize) -> MissRatioCurve {
        compute_curve(mode, cap_pages, self.iter())
    }
}

/// The per-class window registry for one server's engine.
#[derive(Clone, Debug)]
pub struct WindowRegistry {
    capacity_per_class: usize,
    windows: BTreeMap<ClassId, AccessWindow>,
}

impl WindowRegistry {
    /// Creates a registry whose windows each retain `capacity_per_class`
    /// accesses.
    pub fn new(capacity_per_class: usize) -> Self {
        WindowRegistry {
            capacity_per_class,
            windows: BTreeMap::new(),
        }
    }

    /// The window for `class`, created on first sight. The engine
    /// resolves it once per query and records the whole page list.
    pub fn window_mut(&mut self, class: ClassId) -> &mut AccessWindow {
        self.windows
            .entry(class)
            .or_insert_with(|| AccessWindow::new(self.capacity_per_class))
    }

    /// Records an access for a class, creating its window on first sight.
    pub fn push(&mut self, class: ClassId, page: PageId) {
        self.window_mut(class).push(page);
    }

    /// The window for `class`, if it has been seen.
    pub fn get(&self, class: ClassId) -> Option<&AccessWindow> {
        self.windows.get(&class)
    }

    /// Classes with live windows, in ascending order (`windows` is a
    /// `BTreeMap`, so its key order is already sorted).
    pub fn classes(&self) -> Vec<ClassId> {
        self.windows.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::AppId;
    use odlb_storage::SpaceId;

    fn pid(no: u64) -> PageId {
        PageId::new(SpaceId(0), no)
    }

    /// The ring is the per-(instance, class) memory of §3.3's window:
    /// eight bytes an access, allocated once.
    #[test]
    fn ring_holds_eight_bytes_per_access() {
        for n in [1usize, 1_000, 100_000] {
            let w = AccessWindow::new(n);
            let ring_bytes = w.pages.capacity() * std::mem::size_of::<PageId>();
            assert_eq!(ring_bytes, n * 8, "window of {n}");
        }
    }

    #[test]
    fn window_evicts_oldest() {
        let mut w = AccessWindow::new(3);
        for i in 0..5 {
            w.push(pid(i));
        }
        let kept: Vec<u64> = w.iter().map(|p| p.page_no()).collect();
        assert_eq!(kept, vec![2, 3, 4]);
        assert_eq!(w.observed(), 5);
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn extend_equals_pushing_each_page() {
        // Runs shorter than, equal to and longer than the capacity, into
        // windows that are empty, part-full and full.
        for run_len in [0usize, 1, 3, 5, 6, 13] {
            for prefill in [0u64, 2, 5, 9] {
                let mut pushed = AccessWindow::new(5);
                let mut extended = AccessWindow::new(5);
                for i in 0..prefill {
                    pushed.push(pid(i));
                    extended.push(pid(i));
                }
                let run: Vec<PageId> = (0..run_len as u64).map(|i| pid(100 + i)).collect();
                for &p in &run {
                    pushed.push(p);
                }
                extended.extend(&run);
                assert_eq!(
                    extended.iter().collect::<Vec<_>>(),
                    pushed.iter().collect::<Vec<_>>(),
                    "run {run_len} after {prefill}"
                );
                assert_eq!(extended.observed(), pushed.observed());
            }
        }
    }

    #[test]
    fn mrc_from_window_matches_pattern() {
        // Cyclic access over 8 pages: MRC steps to the floor at 8 pages.
        let mut w = AccessWindow::new(1000);
        for i in 0..800u64 {
            w.push(pid(i % 8));
        }
        let curve = w.compute_mrc_with(MrcMode::Exact, 64);
        assert!(curve.miss_ratio(7) > 0.9);
        assert!(curve.miss_ratio(8) < 0.02);
    }

    #[test]
    fn mode_dispatch_exact_is_default_and_sampled_sees_the_knee() {
        let mut w = AccessWindow::new(10_000);
        for i in 0..8_000u64 {
            w.push(pid(i % 64));
        }
        let exact = w.compute_mrc_with(MrcMode::default(), 256);
        assert!(exact.miss_ratio(63) > 0.9 && exact.miss_ratio(64) < 0.02);
        let sampled = w.compute_mrc_with(MrcMode::Sampled { rate: 0.25 }, 256);
        // The loop knee at 64 pages survives sampling: distances of the
        // ~16 sampled keys rescale back to ~64 (binomial wobble allowed).
        assert!(sampled.miss_ratio(24) > 0.9);
        assert!(sampled.miss_ratio(128) < 0.1);
    }

    #[test]
    fn registry_keys_by_class() {
        let mut reg = WindowRegistry::new(10);
        let c1 = ClassId::new(AppId(0), 1);
        let c2 = ClassId::new(AppId(0), 2);
        reg.push(c1, pid(1));
        reg.push(c2, pid(2));
        reg.push(c1, pid(3));
        assert_eq!(reg.get(c1).unwrap().len(), 2);
        assert_eq!(reg.get(c2).unwrap().len(), 1);
        assert_eq!(reg.classes(), vec![c1, c2]);
    }

    #[test]
    #[should_panic(expected = "at least one access")]
    fn zero_capacity_rejected() {
        AccessWindow::new(0);
    }
}
