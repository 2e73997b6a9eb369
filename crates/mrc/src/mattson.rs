//! Exact Mattson stack-distance tracking in `O(log n)` per access.
//!
//! The naive LRU-stack formulation searches the stack linearly for each
//! reference. We use the classic time-stamp reformulation (Bender/Olken):
//! keep, for every key, the *time* of its most recent access, and a set of
//! marked time slots where slot `t` is marked iff `t` is currently the
//! most recent access of some key. The stack distance of a re-access of a
//! key last touched at `t0` is the number of marked slots after `t0` plus
//! one — exactly its LRU stack depth.
//!
//! The mark set is a bitmap with a Fenwick tree over its 64-bit words, so
//! the tree is 64x smaller than one node per slot (4 KiB for a 64k-slot
//! window) and a rank query is a short tree walk plus one `count_ones`.
//!
//! Time slots are compacted (rebuilt densely) whenever they run out,
//! keeping memory proportional to the number of distinct pages.

use crate::curve::MissRatioCurve;
use odlb_sim::FastMap;
use std::hash::Hash;

const WORD_BITS: usize = u64::BITS as usize;

/// A set of marked time slots: a bitmap plus a Fenwick (binary indexed)
/// tree over the per-word mark counts.
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

    /// The set `{0, …, n-1}` with room for at least `slots` slots.
    fn dense(n: usize, slots: usize) -> Self {
        debug_assert!(n <= slots);
        let mut set = MarkSet::with_slots(slots);
        let full = n / WORD_BITS;
        set.words[..full].fill(u64::MAX);
        if !n.is_multiple_of(WORD_BITS) {
            set.words[full] = (1 << (n % WORD_BITS)) - 1;
        }
        // Linear-time Fenwick construction: each node adds itself to its
        // parent once its own range is complete.
        for i in 1..set.tree.len() {
            set.tree[i] += set.words[i - 1].count_ones();
            let parent = i + (i & i.wrapping_neg());
            if parent < set.tree.len() {
                set.tree[parent] += set.tree[i];
            }
        }
        set
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

    /// Unmarks `slot` (which must be marked).
    fn clear(&mut self, slot: usize) {
        let bit = 1 << (slot % WORD_BITS);
        debug_assert_ne!(self.words[slot / WORD_BITS] & bit, 0, "slot not marked");
        self.words[slot / WORD_BITS] &= !bit;
        let mut i = slot / WORD_BITS + 1;
        while i < self.tree.len() {
            self.tree[i] -= 1;
            i += i & i.wrapping_neg();
        }
    }

    /// True when `slot` is marked.
    fn is_marked(&self, slot: usize) -> bool {
        self.words[slot / WORD_BITS] & (1 << (slot % WORD_BITS)) != 0
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
pub struct MattsonTracker<K> {
    /// Most-recent access slot per live key.
    last_slot: FastMap<K, usize>,
    /// The key accessed at each slot below `next_slot`: how `rebuild`
    /// finds the live keys without walking the table.
    slot_key: Vec<K>,
    /// Marks which slots are some key's most recent access.
    marks: MarkSet,
    /// Next free slot. Every marked slot is below it.
    next_slot: usize,
    /// The curve under construction. Distances above its capacity are
    /// recorded as "hits beyond cap", which every tracked size treats as a
    /// miss — results for sizes `<= cap` stay exact.
    curve: MissRatioCurve,
}

impl<K: Copy + Eq + Hash> MattsonTracker<K> {
    /// Creates a tracker recording distances up to `cap_pages` exactly.
    ///
    /// The initial mark set is sized from `cap_pages` — two slots per
    /// page of the cap, rounded up to a power of two and to at least one
    /// 64-slot bitmap word — because `recompute_mrc` builds one small
    /// tracker per problem class. A tracker that runs out of slots
    /// rebuilds densely with headroom (`rebuild` keeps a 4096-slot floor
    /// to amortise repeated growth).
    pub fn new(cap_pages: usize) -> Self {
        MattsonTracker {
            last_slot: FastMap::default(),
            slot_key: Vec::new(),
            marks: MarkSet::with_slots(((cap_pages + 1) * 2).next_power_of_two()),
            next_slot: 0,
            curve: MissRatioCurve::new(cap_pages),
        }
    }

    /// Replays a whole reference stream into a fresh tracker.
    ///
    /// The key table is sized up front instead of regrowing a dozen times
    /// on the way: for the stream's length (its `size_hint` lower bound —
    /// it cannot hold more distinct keys), but for no more than the cap.
    /// A full 100k-access window holds far fewer distinct pages than
    /// accesses, and a table reserved for all of them is both three times
    /// the tracker's footprint and slower to probe than one that fits the
    /// keys; a stream with more distinct pages than the cap regrows once
    /// or twice.
    pub fn replay(cap_pages: usize, keys: impl IntoIterator<Item = K>) -> Self {
        let keys = keys.into_iter();
        let mut tracker = MattsonTracker::new(cap_pages);
        tracker.last_slot.reserve(keys.size_hint().0.min(cap_pages));
        for key in keys {
            tracker.access(key);
        }
        tracker
    }

    /// Number of distinct keys seen and still tracked.
    pub fn distinct_keys(&self) -> usize {
        self.last_slot.len()
    }

    /// Current capacity in time *slots* (tests pin the cap-proportional
    /// initial allocation).
    pub fn slot_capacity(&self) -> usize {
        self.marks.slots()
    }

    /// Observes one reference. Returns the LRU stack distance (1-based) of
    /// the reference, or `None` for a first access (infinite distance).
    pub fn access(&mut self, key: K) -> Option<u64> {
        if self.next_slot >= self.marks.slots() {
            self.rebuild();
        }
        let t = self.next_slot;
        self.next_slot += 1;
        self.slot_key.push(key);

        let distance = match self.last_slot.insert(key, t) {
            Some(t0) => {
                // One mark per live key, all below `t`: the marks after
                // `t0`, plus one for the key itself, are all the marks
                // but those below `t0`. That is the LRU stack depth.
                debug_assert_eq!(self.marks.rank(t), self.last_slot.len());
                let distance = self.last_slot.len() - self.marks.rank(t0);
                self.marks.clear(t0);
                Some(distance as u64)
            }
            None => None,
        };
        self.marks.set(t);

        match distance {
            Some(d) => self.curve.record_hit_at(d),
            None => self.curve.record_cold_miss(),
        }
        distance
    }

    /// Re-numbers live keys' slots densely as `0..n` and sizes the mark
    /// set with headroom, preserving relative recency order exactly.
    fn rebuild(&mut self) {
        let mut n = 0;
        for slot in 0..self.next_slot {
            if self.marks.is_marked(slot) {
                let key = self.slot_key[slot];
                self.last_slot.insert(key, n);
                self.slot_key[n] = key;
                n += 1;
            }
        }
        self.slot_key.truncate(n);
        self.marks = MarkSet::dense(n, ((n + 1) * 2).next_power_of_two().max(4096));
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
        m.clear(64);
        assert_eq!(m.rank(65), 1);
        assert_eq!(m.rank(last), 2);
        m.clear(last);
        m.clear(63);
        m.clear(65);
        assert_eq!(m.rank(last), 0);
        assert!(m.tree.iter().all(|&n| n == 0), "tree returns to empty");
    }

    #[test]
    fn dense_mark_set_matches_setting_each_slot() {
        for n in [0, 1, 63, 64, 65, 130, 4095] {
            let dense = MarkSet::dense(n, 4096);
            let mut built = MarkSet::with_slots(4096);
            for slot in 0..n {
                built.set(slot);
            }
            assert_eq!(dense.words, built.words, "n = {n}");
            assert_eq!(dense.tree, built.tree, "n = {n}");
        }
    }

    #[test]
    fn mark_set_matches_per_slot_fenwick_on_random_ops() {
        const SLOTS: usize = 1000;
        let mut fast = MarkSet::with_slots(SLOTS);
        let mut oracle = SlotFenwick::with_len(fast.slots());
        let mut marked = vec![false; fast.slots()];
        let mut x: u64 = 0x5EED;
        for step in 0..50_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let slot = (x >> 33) as usize % fast.slots();
            if marked[slot] {
                fast.clear(slot);
                oracle.add(slot + 1, -1);
            } else {
                fast.set(slot);
                oracle.add(slot + 1, 1);
            }
            marked[slot] = !marked[slot];
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
        assert_eq!(t.marks.rank(t.next_slot), 40);
        for i in 0..500u64 {
            let key = (i * 7) % 45;
            assert_eq!(t.access(key), slow.access(key), "after rebuild, access {i}");
        }
    }

    #[test]
    fn presized_replay_never_regrows_the_key_table() {
        // A controller recompute: 100k accesses over 20k distinct keys.
        let mut x: u64 = 0xABCD;
        let trace: Vec<u64> = (0..100_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) % 20_000
            })
            .collect();
        // The cap covers the stream's footprint, so the up-front
        // reservation does too.
        let cap_pages = 20_000;
        let t = MattsonTracker::replay(cap_pages, trace.iter().copied());
        assert!(t.distinct_keys() > 19_000);
        // A table only ever grows, so ending at the capacity the
        // reservation gives means it never regrew on the way.
        let mut fresh = FastMap::<u64, usize>::default();
        fresh.reserve(cap_pages);
        assert_eq!(t.last_slot.capacity(), fresh.capacity());
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
        // Capacity is counted in slots, not bitmap words: two per page of
        // the cap, at least one 64-slot word.
        assert_eq!(MattsonTracker::<u64>::new(30).slot_capacity(), 64);
        assert_eq!(MattsonTracker::<u64>::new(1).slot_capacity(), 64);
        assert_eq!(MattsonTracker::<u64>::new(100).slot_capacity(), 256);
        assert_eq!(MattsonTracker::<u64>::new(8000).slot_capacity(), 16384);
        // Rebuild keeps its own (larger) floor once a tracker outgrows
        // the initial set.
        let mut t = MattsonTracker::<u64>::new(16);
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
