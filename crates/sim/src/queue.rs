//! The event queue: a calendar queue.
//!
//! [`EventQueue`] is a calendar queue
//! (R. Brown, CACM 1988): pending events hash into `buckets.len()`
//! time-sliced buckets of `1 << shift` microseconds each, so at steady
//! state push and pop are O(1) instead of the heap's O(log n). With ~1M
//! resident events (one per concurrent client session at scale) that
//! factor-20 difference is the event hot path.
//!
//! Ordering is *identical* to the `BinaryHeap` implementation it
//! replaced: events pop in `(time, insertion seq)` order, so ties are
//! FIFO and every simulation replays byte-identically. That heap lives on
//! as the oracle of the differential property suite in
//! `tests/eventqueue_properties.rs`, which pins the two pop orders
//! against each other over randomized interleavings.
//!
//! Invariants the implementation leans on:
//!
//! * every pending event fires at or after `now` (`schedule` clamps, and
//!   pop takes the global minimum, so the clock can never pass a pending
//!   event) — this is what makes the day-by-day minimum scan exhaustive;
//! * each bucket is kept sorted *descending* by `(at, seq)`, so the
//!   bucket minimum is `last()` and removing it is a plain `Vec::pop`;
//! * a cached global minimum makes `peek_time` O(1) without interior
//!   mutability: a push can only improve it (strictly earlier time — an
//!   equal time loses the seq tiebreak), and a pop consumes it and
//!   rescans from the popped day.

use crate::time::SimTime;

/// A pending event: fire time plus an insertion sequence number used to keep
/// ordering stable (FIFO) among events scheduled for the same instant.
struct Pending<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

/// The cached global minimum: its timestamp and the bucket holding it.
#[derive(Clone, Copy)]
struct Min {
    at: SimTime,
    bucket: usize,
}

/// Fewest buckets the calendar ever uses; also the initial size.
const MIN_BUCKETS: usize = 16;

/// Initial bucket width exponent (2^10 µs ≈ 1 ms) before the first
/// adaptive rebuild.
const INITIAL_SHIFT: u32 = 10;

/// A deterministic event queue over a user-defined event type.
///
/// Events scheduled for the same [`SimTime`] are delivered in the order they
/// were scheduled, which keeps multi-component simulations reproducible.
pub struct EventQueue<E> {
    /// Power-of-two bucket array; each bucket sorted descending by
    /// `(at, seq)` so the bucket minimum is `last()`.
    buckets: Vec<Vec<Pending<E>>>,
    /// Bucket width exponent: one bucket ("day") spans `1 << shift`
    /// microseconds, so the day of `t` is `t >> shift` — a shift, not a
    /// division, on the per-push and per-scan paths.
    shift: u32,
    /// Occupancy bitmap, one bit per bucket: the minimum scan skips
    /// runs of empty buckets a 64-bucket word at a time instead of
    /// touching each bucket's `Vec` header (which, at ~2^20 buckets, is
    /// tens of megabytes of pointer-chasing).
    occ: Vec<u64>,
    len: usize,
    seq: u64,
    now: SimTime,
    min: Option<Min>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            shift: INITIAL_SHIFT,
            occ: vec![0; MIN_BUCKETS.div_ceil(64)],
            len: 0,
            seq: 0,
            now: SimTime::ZERO,
            min: None,
        }
    }

    /// The current virtual time: the timestamp of the last popped event, or
    /// zero before the first pop.
    pub fn now(&self) -> SimTime {
        self.now
    }

    fn bucket_of(&self, at: SimTime) -> usize {
        ((at.as_micros() >> self.shift) & (self.buckets.len() as u64 - 1)) as usize
    }

    fn mark_occupied(&mut self, idx: usize) {
        self.occ[idx >> 6] |= 1u64 << (idx & 63);
    }

    fn mark_empty(&mut self, idx: usize) {
        self.occ[idx >> 6] &= !(1u64 << (idx & 63));
    }

    /// Distance (in buckets, wrapping) from `from` to the nearest occupied
    /// bucket at or after it, or `None` when every bucket is empty.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let n = self.buckets.len();
        let (w0, b0) = (from >> 6, from & 63);
        let first = self.occ[w0] & (!0u64 << b0);
        if first != 0 {
            return Some(((w0 << 6) | first.trailing_zeros() as usize) - from);
        }
        let words = self.occ.len();
        for step in 1..=words {
            let w = (w0 + step) % words;
            let word = self.occ[w];
            if word != 0 {
                let idx = (w << 6) | word.trailing_zeros() as usize;
                return Some((idx + n - from) % n);
            }
        }
        None
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the caller — virtual
    /// time would run backwards and interval attribution would corrupt —
    /// so debug builds fail fast. Release builds clamp to `now` rather
    /// than time-travelling, so causality still holds.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past ({at:?} < clock {:?})",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let idx = self.bucket_of(at);
        let bucket = &mut self.buckets[idx];
        // Descending order: skip entries strictly greater than the new
        // key. A fresh event holds the largest seq so far, so among
        // equal timestamps it lands closest to the front (popped last).
        let pos = bucket.partition_point(|p| (p.at, p.seq) > (at, seq));
        bucket.insert(pos, Pending { at, seq, event });
        self.mark_occupied(idx);
        self.len += 1;
        // Only a strictly earlier time can displace the cached minimum:
        // at an equal time the incumbent wins the seq tiebreak.
        match self.min {
            Some(m) if m.at <= at => {}
            _ => self.min = Some(Min { at, bucket: idx }),
        }
        if self.len > self.buckets.len() * 2 {
            self.rebuild(self.buckets.len() * 2);
        }
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let m = self.min?;
        let p = self.buckets[m.bucket]
            .pop()
            .expect("cached minimum points at a non-empty bucket");
        debug_assert_eq!(p.at, m.at, "cached minimum out of date");
        debug_assert!(p.at >= self.now, "event queue went back in time");
        if self.buckets[m.bucket].is_empty() {
            self.mark_empty(m.bucket);
        }
        self.now = p.at;
        self.len -= 1;
        if self.len < self.buckets.len() / 2 && self.buckets.len() > MIN_BUCKETS {
            self.rebuild(self.buckets.len() / 2);
        } else {
            self.min = self.scan_min(p.at);
        }
        Some((p.at, p.event))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.min.map(|m| m.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Finds the global minimum, knowing every pending event fires at or
    /// after `from` (the timestamp just popped).
    ///
    /// Walks day windows upward from `from`, hopping straight between
    /// occupied buckets via the bitmap: the first bucket whose minimum
    /// falls inside its scanned day holds the global minimum, because
    /// all times of one day map to one bucket and earlier days are
    /// already known empty. If a whole calendar year passes without a
    /// hit (every pending event ≥ one full lap ahead), falls back to a
    /// direct minimum over the occupied buckets.
    fn scan_min(&self, from: SimTime) -> Option<Min> {
        if self.len == 0 {
            return None;
        }
        let n = self.buckets.len();
        let day0 = from.as_micros() >> self.shift;
        let start = (day0 & (n as u64 - 1)) as usize;
        let mut dist = 0usize;
        while dist < n {
            let idx = (start + dist) & (n - 1);
            let Some(hop) = self.next_occupied(idx) else {
                break;
            };
            dist += hop;
            if dist >= n {
                break;
            }
            let idx = (start + dist) & (n - 1);
            let p = self.buckets[idx].last().expect("occupancy bit set");
            if p.at.as_micros() >> self.shift == day0 + dist as u64 {
                return Some(Min {
                    at: p.at,
                    bucket: idx,
                });
            }
            dist += 1;
        }
        let mut best: Option<Min> = None;
        let mut best_key = (u64::MAX, u64::MAX);
        for (w, &bits) in self.occ.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let idx = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let p = self.buckets[idx].last().expect("occupancy bit set");
                let key = (p.at.as_micros(), p.seq);
                if key < best_key {
                    best_key = key;
                    best = Some(Min {
                        at: p.at,
                        bucket: idx,
                    });
                }
            }
        }
        best
    }

    /// Redistributes every pending event across `target` buckets (clamped
    /// to a power of two ≥ [`MIN_BUCKETS`]), re-deriving the bucket width
    /// from the live event span — rounded up to a power of two so the
    /// per-operation day math stays a shift — so one "day" holds O(1)
    /// events.
    ///
    /// Amortized: rebuilds trigger on size doublings/halvings, so the
    /// O(len·log len) sort costs O(log len) per operation.
    fn rebuild(&mut self, target: usize) {
        let nbuckets = target.max(MIN_BUCKETS).next_power_of_two();
        let mut all: Vec<Pending<E>> = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            all.append(bucket);
        }
        // Descending, so appending in order preserves each bucket's
        // descending invariant below.
        all.sort_unstable_by_key(|p| std::cmp::Reverse((p.at, p.seq)));
        if all.len() >= 2 {
            let span = all[0].at.as_micros() - all[all.len() - 1].at.as_micros();
            // A day holds ~4 events on purpose: quadrupling the width
            // keeps day-walk hops short while shrinking the hot set of
            // bucket headers 4x (then the bitmap skips the empties), and
            // it stretches one calendar lap past the live span so few
            // events sit a lap ahead of their bucket's scan day.
            let width = (4 * span / all.len() as u64).max(1).next_power_of_two();
            self.shift = width.trailing_zeros();
        }
        if self.buckets.len() != nbuckets {
            self.buckets = (0..nbuckets).map(|_| Vec::new()).collect();
        }
        self.occ.clear();
        self.occ.resize(nbuckets.div_ceil(64), 0);
        let mask = nbuckets as u64 - 1;
        self.min = all.last().map(|p| Min {
            at: p.at,
            bucket: ((p.at.as_micros() >> self.shift) & mask) as usize,
        });
        for p in all {
            let idx = ((p.at.as_micros() >> self.shift) & mask) as usize;
            self.occ[idx >> 6] |= 1u64 << (idx & 63);
            self.buckets[idx].push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    enum Ev {
        A(u32),
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), Ev::A(3));
        q.schedule(SimTime::from_micros(10), Ev::A(1));
        q.schedule(SimTime::from_micros(20), Ev::A(2));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![Ev::A(1), Ev::A(2), Ev::A(3)]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_micros(5), Ev::A(i));
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Ev::A(i) => i,
            })
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_popped_event() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(42), Ev::A(0));
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(42));
    }

    /// Release-only: the debug build now *panics* on past scheduling (see
    /// the companion test below); the release clamp is the safety net.
    #[cfg(not(debug_assertions))]
    #[test]
    fn scheduling_in_past_clamps_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(100), Ev::A(0));
        q.pop();
        q.schedule(SimTime::from_micros(10), Ev::A(1));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_micros(100));
    }

    /// Regression (pre-fix code accepted this silently): scheduling into
    /// the past must fail fast in debug builds instead of letting virtual
    /// time run backwards.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(100), Ev::A(0));
        q.pop();
        q.schedule(SimTime::from_micros(10), Ev::A(1));
    }

    /// Regression for the time-travel bug: whatever the push sequence —
    /// including attempts to schedule behind the clock — `now()` must be
    /// monotone across pops. (Release builds clamp; this pins that the
    /// clamp actually protects the clock.)
    #[test]
    fn clock_is_monotone_across_any_push_sequence() {
        // Deterministic pseudo-random interleaving (splitmix64); the
        // richer generator-driven suite lives in
        // tests/eventqueue_properties.rs.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let mut q = EventQueue::new();
        let mut last = SimTime::ZERO;
        for round in 0..2_000u64 {
            // Mostly future times; occasionally an absolute time that may
            // lie behind the clock (exercising the clamp, release-mode).
            let at = if cfg!(debug_assertions) {
                q.now() + SimDuration::from_micros(next() % 5_000)
            } else {
                SimTime::from_micros(next() % (q.now().as_micros() + 5_000))
            };
            q.schedule(at, Ev::A(round as u32));
            if next() % 3 != 0 {
                if let Some((t, _)) = q.pop() {
                    assert!(t >= last, "clock went backwards: {t:?} after {last:?}");
                    assert_eq!(q.now(), t);
                    last = t;
                }
            }
        }
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(7), Ev::A(0));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(7)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_tracks_min_through_interleaved_ops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(50), Ev::A(0));
        q.schedule(SimTime::from_micros(20), Ev::A(1));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(20)));
        // Equal-time push must not displace the cached min (FIFO).
        q.schedule(SimTime::from_micros(20), Ev::A(2));
        assert_eq!(q.pop().map(|(_, e)| e), Some(Ev::A(1)));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(20)));
        assert_eq!(q.pop().map(|(_, e)| e), Some(Ev::A(2)));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(50)));
        assert_eq!(q.pop().map(|(_, e)| e), Some(Ev::A(0)));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn survives_growth_and_shrink_rebuilds() {
        // Push far past the grow threshold (16 buckets × 2) with a wide
        // time spread, then drain past the shrink threshold; order must
        // stay exact throughout.
        let mut q = EventQueue::new();
        let mut expect: Vec<u64> = Vec::new();
        for i in 0..10_000u64 {
            // Deterministic scatter over ~10^7 µs with duplicate times.
            let t = (i.wrapping_mul(2654435761) % 9_999_991) / 3;
            q.schedule(SimTime::from_micros(t), Ev::A(i as u32));
            expect.push(t);
        }
        expect.sort_unstable();
        let got: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_micros())
            .collect();
        assert_eq!(got, expect);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }
}
