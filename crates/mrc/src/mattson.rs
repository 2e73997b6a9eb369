//! Exact Mattson stack-distance tracking in `O(log n)` per access.
//!
//! The naive LRU-stack formulation searches the stack linearly for each
//! reference. We use the classic time-stamp reformulation (Bender/Olken):
//! keep, for every key, the *time slot* of its most recent access. A slot
//! below the next one is *live* while it is some key's most recent access
//! and *superseded* once that key is accessed again. The stack distance of
//! a re-access of a key last touched at `t0` is the number of live slots
//! from `t0` on — exactly its LRU stack depth.
//!
//! Every slot is live when its access is made, so the tracker keeps only
//! the superseded ones: an access supersedes at most one slot, one set
//! update. The set is a bitmap with a Fenwick tree over its 64-bit words,
//! so the tree is 64x smaller than one node per slot (4 KiB for a
//! 64k-slot window) and a rank query is a short tree walk plus one
//! `count_ones`.
//!
//! Each key's last access slot lives in a [`PageTable`], found by page
//! number rather than by hash. A replay of a whole window uses stream
//! positions as slots, with a set sized from the window's length: it
//! never runs out of slots. An online tracker, fed one access at a time
//! for as long as a figure runs, compacts its slots (renumbers the live
//! ones densely) when they run out, keeping memory proportional to the
//! number of distinct pages.

use crate::curve::MissRatioCurve;
use odlb_storage::{PageId, PageTable, SpaceId, TableValue};
use std::hash::Hash;

const WORD_BITS: usize = u64::BITS as usize;

/// Most slots a tracker numbers: slot values are `u32` and `u32::MAX` is
/// the page table's vacant pattern, so slots stay below it, in whole
/// bitmap words.
const MAX_SLOTS: usize = u32::MAX as usize / WORD_BITS * WORD_BITS;

/// A key a tracker follows: a page, or a test key standing for one.
///
/// `Hash` is the byte stream [`crate::SampledTracker`]'s spatial filter
/// folds, so a key keeps its own (a `u64` is not hashed as a page).
pub trait PageKey: Copy + Hash {
    /// The page this key indexes the last-access table by.
    fn page(self) -> PageId;
}

impl PageKey for PageId {
    fn page(self) -> PageId {
        self
    }
}

/// A `u64` key stands for the page with its high half as the tablespace
/// and its low half as the page number: small keys are the dense pages
/// `0..n` of space 0, and every `u64` has its own page.
impl PageKey for u64 {
    fn page(self) -> PageId {
        PageId::new(SpaceId((self >> 32) as u32), self & u64::from(u32::MAX))
    }
}

/// A set of marked time slots: a bitmap plus a Fenwick (binary indexed)
/// tree over the per-word mark counts. Slots are only ever marked; a
/// compaction starts a new set.
#[derive(Clone, Debug)]
struct MarkSet {
    words: Vec<u64>,
    /// `tree[i]` (1-based) sums the mark counts of the `i & -i` words
    /// ending at word `i - 1`.
    tree: Vec<u32>,
}

impl MarkSet {
    /// An empty set with room for at least `slots` slots (rounded up to
    /// whole words).
    fn with_slots(slots: usize) -> Self {
        let words = slots.div_ceil(WORD_BITS);
        MarkSet {
            words: vec![0; words],
            tree: vec![0; words + 1],
        }
    }

    /// Slot capacity.
    fn slots(&self) -> usize {
        self.words.len() * WORD_BITS
    }

    /// Marks `slot` (which must be unmarked).
    fn set(&mut self, slot: usize) {
        let bit = 1 << (slot % WORD_BITS);
        debug_assert_eq!(self.words[slot / WORD_BITS] & bit, 0, "slot already marked");
        self.words[slot / WORD_BITS] |= bit;
        let mut i = slot / WORD_BITS + 1;
        while i < self.tree.len() {
            self.tree[i] += 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Number of marked slots strictly below `slot`.
    fn rank(&self, slot: usize) -> usize {
        let mut i = slot / WORD_BITS;
        let below = self.words[i] & ((1 << (slot % WORD_BITS)) - 1);
        let mut marks = below.count_ones();
        while i > 0 {
            marks += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        marks as usize
    }
}

/// Exact stack-distance tracker producing a [`MissRatioCurve`].
#[derive(Clone, Debug)]
pub struct MattsonTracker {
    /// Most-recent access slot per live key.
    last_slot: PageTable<u32>,
    /// Keys in `last_slot`: the live slots below `next_slot`.
    live: usize,
    /// The slots below `next_slot` that are no key's most recent access.
    superseded: MarkSet,
    /// Next free slot.
    next_slot: usize,
    /// The curve under construction. Distances above its capacity are
    /// recorded as "hits beyond cap", which every tracked size treats as a
    /// miss — results for sizes `<= cap` stay exact.
    curve: MissRatioCurve,
}

impl MattsonTracker {
    /// Creates a tracker recording distances up to `cap_pages` exactly,
    /// to be fed one access at a time.
    ///
    /// The initial slot set is sized from `cap_pages` — two slots per
    /// page of the cap, rounded up to a power of two and to at least one
    /// 64-slot bitmap word. A tracker that runs out of slots compacts
    /// them with headroom (`rebuild` keeps a 4096-slot floor to amortise
    /// repeated growth).
    pub fn new(cap_pages: usize) -> Self {
        Self::with_slots(cap_pages, ((cap_pages + 1) * 2).next_power_of_two())
    }

    fn with_slots(cap_pages: usize, slots: usize) -> Self {
        MattsonTracker {
            last_slot: PageTable::new(),
            live: 0,
            superseded: MarkSet::with_slots(slots.min(MAX_SLOTS)),
            next_slot: 0,
            curve: MissRatioCurve::new(cap_pages),
        }
    }

    /// Replays a whole reference stream into a fresh tracker.
    ///
    /// Each access's stream position is its slot, and the slot set has
    /// one slot per access of the stream (its `size_hint` lower bound,
    /// exact for a window), so the replay never compacts: no slot is
    /// renumbered and no slot→key array is kept. A stream longer than its
    /// hint compacts as an online tracker does.
    pub fn replay(cap_pages: usize, keys: impl IntoIterator<Item = impl PageKey>) -> Self {
        let keys = keys.into_iter();
        let mut tracker = MattsonTracker::with_slots(cap_pages, keys.size_hint().0);
        for key in keys {
            tracker.access(key);
        }
        tracker
    }

    /// Number of distinct keys seen and still tracked.
    pub fn distinct_keys(&self) -> usize {
        self.live
    }

    /// Current capacity in time *slots* (tests pin the initial
    /// allocation and the compaction headroom).
    pub fn slot_capacity(&self) -> usize {
        self.superseded.slots()
    }

    /// Observes one reference. Returns the LRU stack distance (1-based) of
    /// the reference, or `None` for a first access (infinite distance).
    pub fn access(&mut self, key: impl PageKey) -> Option<u64> {
        if self.next_slot >= self.superseded.slots() {
            self.rebuild();
        }
        let t = self.next_slot;
        self.next_slot += 1;

        // `t < MAX_SLOTS < u32::MAX`, so the cast is exact.
        let t0 = std::mem::replace(self.last_slot.slot(key.page()), t as u32);
        let distance = if t0 == u32::VACANT {
            self.live += 1;
            None
        } else {
            // The live slots below `t` are one per live key. Those from
            // `t0` on (the key's own included) are the LRU stack depth:
            // all of them but the live slots below `t0`.
            debug_assert_eq!(t - self.superseded.rank(t), self.live);
            let t0 = t0 as usize;
            let live_below = t0 - self.superseded.rank(t0);
            self.superseded.set(t0);
            Some((self.live - live_below) as u64)
        };

        match distance {
            Some(d) => self.curve.record_hit_at(d),
            None => self.curve.record_cold_miss(),
        }
        distance
    }

    /// Re-numbers live keys' slots densely as `0..n` and sizes the slot
    /// set with headroom, preserving relative recency order exactly: a
    /// live slot's new number is the count of live slots below it.
    fn rebuild(&mut self) {
        let superseded = &self.superseded;
        for slot in self.last_slot.values_mut() {
            let old = *slot as usize;
            *slot = (old - superseded.rank(old)) as u32;
        }
        let n = self.live;
        let slots = ((n + 1) * 2).next_power_of_two().clamp(4096, MAX_SLOTS);
        assert!(n < slots, "more than {MAX_SLOTS} live keys");
        self.superseded = MarkSet::with_slots(slots);
        self.next_slot = n;
    }

    /// The curve accumulated so far.
    pub fn curve(&self) -> &MissRatioCurve {
        &self.curve
    }

    /// Consumes the tracker, yielding its curve.
    pub fn into_curve(self) -> MissRatioCurve {
        self.curve
    }

    /// Total references observed.
    pub fn accesses(&self) -> u64 {
        self.curve.total_accesses()
    }
}

/// Reference implementation: naive O(n) stack search. Used by tests and
/// property checks to validate the Fenwick formulation.
#[derive(Clone, Debug, Default)]
pub struct NaiveStack<K> {
    stack: Vec<K>,
}

impl<K: Copy + Eq> NaiveStack<K> {
    /// Creates an empty stack.
    pub fn new() -> Self {
        NaiveStack { stack: Vec::new() }
    }

    /// Observes a reference; returns its 1-based stack distance or `None`.
    pub fn access(&mut self, key: K) -> Option<u64> {
        let pos = self.stack.iter().position(|k| *k == key);
        match pos {
            Some(i) => {
                self.stack.remove(i);
                self.stack.insert(0, key);
                Some(i as u64 + 1)
            }
            None => {
                self.stack.insert(0, key);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The previous mark set — a Fenwick tree with one `u32` node per
    /// (1-based) slot — kept as the oracle for [`MarkSet`].
    struct SlotFenwick {
        tree: Vec<u32>,
    }

    impl SlotFenwick {
        fn with_len(n: usize) -> Self {
            SlotFenwick {
                tree: vec![0; n + 1],
            }
        }

        fn add(&mut self, mut i: usize, delta: i32) {
            while i < self.tree.len() {
                self.tree[i] = (self.tree[i] as i64 + delta as i64) as u32;
                i += i & i.wrapping_neg();
            }
        }

        /// Sum of positions `1..=i`.
        fn prefix(&self, mut i: usize) -> u64 {
            let mut s = 0u64;
            while i > 0 {
                s += self.tree[i] as u64;
                i -= i & i.wrapping_neg();
            }
            s
        }
    }

    #[test]
    fn mark_set_word_boundaries() {
        let mut m = MarkSet::with_slots(200);
        assert_eq!(m.slots(), 256, "rounded up to whole words");
        let last = m.slots() - 1;
        for slot in [63, 64, 65, last] {
            m.set(slot);
        }
        assert_eq!(m.rank(63), 0);
        assert_eq!(m.rank(64), 1);
        assert_eq!(m.rank(65), 2);
        assert_eq!(m.rank(66), 3);
        assert_eq!(
            m.rank(last),
            3,
            "rank is strict: the last slot is not below itself"
        );
        m.set(0);
        assert_eq!((m.rank(0), m.rank(1), m.rank(64)), (0, 1, 2));
        assert_eq!(m.rank(last), 4);
    }

    #[test]
    fn mark_set_matches_per_slot_fenwick_on_random_ops() {
        const SLOTS: usize = 100_000;
        let mut fast = MarkSet::with_slots(SLOTS);
        let mut oracle = SlotFenwick::with_len(fast.slots());
        let mut marked = vec![false; fast.slots()];
        let mut x: u64 = 0x5EED;
        for step in 0..50_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let slot = (x >> 33) as usize % fast.slots();
            if !marked[slot] {
                fast.set(slot);
                oracle.add(slot + 1, 1);
                marked[slot] = true;
            }
            let probe = (x >> 13) as usize % fast.slots();
            // Oracle slots are 1-based: strictly below `probe` is 1..=probe.
            assert_eq!(
                fast.rank(probe) as u64,
                oracle.prefix(probe),
                "step {step}, probe {probe}"
            );
        }
    }

    #[test]
    fn rebuild_at_capacity_keeps_order_and_counts() {
        // 40 live keys in a 64-slot set: the 65th access must rebuild.
        let mut t = MattsonTracker::new(1);
        let mut slow = NaiveStack::new();
        assert_eq!(t.slot_capacity(), 64);
        for i in 0..64u64 {
            assert_eq!(t.access(i % 40), slow.access(i % 40));
        }
        assert_eq!(t.slot_capacity(), 64, "exactly full, not yet rebuilt");
        assert_eq!(t.access(7), slow.access(7));
        assert_eq!(t.slot_capacity(), 4096, "rebuilt with the floor");
        assert_eq!(
            t.next_slot, 41,
            "40 live keys renumbered 0..40, then one access"
        );
        assert_eq!(
            t.next_slot - t.superseded.rank(t.next_slot),
            40,
            "live slots"
        );
        // The page table holds the renumbered slots: keys 24..40 (last
        // seen first) took 0..16 and keys 0..24 took 16..40, then key 7
        // left 23 for the access at 40.
        let mut slots: Vec<u32> = t.last_slot.values_mut().map(|s| *s).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..=40).filter(|&s| s != 23).collect::<Vec<u32>>());
        assert_eq!(t.last_slot.get(7u64.page()), Some(40));
        for i in 0..500u64 {
            let key = (i * 7) % 45;
            assert_eq!(t.access(key), slow.access(key), "after rebuild, access {i}");
        }
    }

    #[test]
    fn replay_never_compacts() {
        // A controller recompute: 100k accesses over 20k distinct keys in
        // three tablespaces, replayed at a cap far below the footprint.
        let mut x: u64 = 0xABCD;
        let trace: Vec<PageId> = (0..100_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let key = (x >> 33) % 20_000;
                PageId::new(SpaceId((key % 3) as u32 * 7), key / 3)
            })
            .collect();
        let mut t = MattsonTracker::replay(512, trace.iter().copied());
        assert!(t.distinct_keys() > 19_000);
        // The slot set has one slot per access (in whole 64-slot words),
        // and slots were never renumbered: the next one is the stream's
        // length, and every live slot is a stream position.
        assert_eq!(t.slot_capacity(), trace.len().div_ceil(64) * 64);
        assert_eq!(t.next_slot, trace.len());
        let live = t.next_slot - t.superseded.rank(t.next_slot);
        assert_eq!(live, t.distinct_keys());
        for (i, page) in trace.iter().enumerate().rev().take(100) {
            let slot = t.last_slot.get(*page).expect("a replayed page is live");
            assert!(
                slot as usize >= i,
                "page {page:?} last at {slot}, seen at {i}"
            );
        }
    }

    #[test]
    fn first_access_is_cold() {
        let mut t = MattsonTracker::new(100);
        assert_eq!(t.access(1u64), None);
        assert_eq!(t.access(2u64), None);
        assert_eq!(t.distinct_keys(), 2);
    }

    #[test]
    fn immediate_reuse_has_distance_one() {
        let mut t = MattsonTracker::new(100);
        t.access(1u64);
        assert_eq!(t.access(1u64), Some(1));
    }

    #[test]
    fn distance_counts_distinct_intervening_keys() {
        let mut t = MattsonTracker::new(100);
        for k in [1u64, 2, 3, 1] {
            t.access(k);
        }
        // Re-access of 1 after touching 2 and 3: depth 3.
        assert_eq!(t.access(2u64), Some(3)); // stack: 1,3,2 -> 2 at depth 3
    }

    #[test]
    fn repeated_intervening_key_counts_once() {
        let mut t = MattsonTracker::new(100);
        t.access(1u64);
        t.access(2u64);
        t.access(2u64);
        t.access(2u64);
        assert_eq!(t.access(1u64), Some(2), "2 touched thrice but is one key");
    }

    #[test]
    fn matches_naive_stack_on_random_trace() {
        let mut fast = MattsonTracker::new(1 << 14);
        let mut slow = NaiveStack::new();
        // Deterministic pseudo-random trace with locality.
        let mut x: u64 = 0x12345678;
        for i in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = if i % 3 == 0 { x % 50 } else { x % 2000 };
            assert_eq!(fast.access(key), slow.access(key), "at access {i}");
        }
    }

    #[test]
    fn compaction_preserves_distances() {
        // Force many slot allocations with few live keys so compaction
        // actually fires, then check against the naive stack.
        let mut fast = MattsonTracker::new(64);
        let mut slow = NaiveStack::new();
        for i in 0..100_000u64 {
            let key = i % 16;
            assert_eq!(fast.access(key), slow.access(key), "at access {i}");
        }
    }

    #[test]
    fn initial_mark_set_is_sized_from_the_cap() {
        // An online tracker's capacity is counted in slots, not bitmap
        // words: two per page of the cap, at least one 64-slot word.
        assert_eq!(MattsonTracker::new(30).slot_capacity(), 64);
        assert_eq!(MattsonTracker::new(1).slot_capacity(), 64);
        assert_eq!(MattsonTracker::new(100).slot_capacity(), 256);
        assert_eq!(MattsonTracker::new(8000).slot_capacity(), 16384);
        // A replay's is sized from the stream, whatever the cap.
        let replay = |cap, n: u64| MattsonTracker::replay(cap, 0..n).slot_capacity();
        assert_eq!(
            (replay(8000, 0), replay(8000, 100), replay(1, 1_000)),
            (0, 128, 1_024)
        );
        // Rebuild keeps its own (larger) floor once a tracker outgrows
        // the initial set.
        let mut t = MattsonTracker::new(16);
        for i in 0..10_000u64 {
            t.access(i % 8);
        }
        assert!(t.slot_capacity() >= 4096);
    }

    #[test]
    fn curve_reflects_loop_pattern() {
        // Cyclic scan of 10 pages: every re-access has distance exactly 10.
        let mut t = MattsonTracker::new(100);
        for i in 0..1000u64 {
            t.access(i % 10);
        }
        let c = t.curve();
        // 990 re-accesses at distance 10, 10 cold misses.
        assert!((c.miss_ratio(9) - 1.0).abs() < 1e-12, "9 pages never hit");
        assert!((c.miss_ratio(10) - 10.0 / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn accesses_counted() {
        let mut t = MattsonTracker::new(10);
        for i in 0..5u64 {
            t.access(i);
        }
        assert_eq!(t.accesses(), 5);
    }
}
