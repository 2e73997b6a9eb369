//! The event queue: a hierarchical timing wheel keyed on the 6-bit digits
//! of the microsecond timestamp.
//!
//! [`EventQueue`] has 11 levels of 64 slots, which together cover all of
//! `u64`. An event lives at the level of the *highest digit in which its
//! time differs from the wheel cursor* (`now`), in the slot named by that
//! digit of its own time — so `schedule` is one XOR, one `leading_zeros`
//! and an append to one of 704 vectors whose tails stay hot, and a level-0
//! slot is one exact microsecond. One occupancy word per level plus a
//! level mask find the next slot: the lowest occupied slot of the lowest
//! occupied level holds the minimum, because its events share every
//! higher digit with the cursor while events on higher levels exceed the
//! cursor in one. Moving the cursor into a slot redistributes
//! ("cascades") its events onto lower levels; a slot holding a single
//! event pops directly. There is no width to derive, nothing to rebuild,
//! sort or shift, so no arrival distribution can skew it.
//!
//! Ordering is *identical* to a binary heap over `(time, insertion seq)`:
//! ties are FIFO and every simulation replays byte-identically. That heap
//! lives on as the oracle of the differential property suite in
//! `tests/eventqueue_properties.rs`, which pins the two pop orders
//! against each other over randomized interleavings.
//!
//! Invariants the implementation leans on:
//!
//! * every pending event fires at or after the cursor (`schedule` clamps,
//!   and the cursor only moves to a slot's first instant, to a popped
//!   event's time or to a `pop_until` limit below the next slot), and
//!   sits at the level and slot its time and the *current* cursor name;
//!   when the cursor enters a slot every lower level is empty, so only
//!   that slot's events change level;
//! * every slot vector is in insertion order at all times: a cascade
//!   visits its source in order and lands in empty slots, and a direct
//!   append carries the largest seq so far — debug builds assert it on
//!   every append. So no sequence number is ever compared to pop in order.

use crate::time::SimTime;

/// Bits per timestamp digit; every level has `1 << DIGIT_BITS` slots.
const DIGIT_BITS: u32 = 6;
const SLOTS: usize = 1 << DIGIT_BITS;
/// Levels covering all 64 bits of a timestamp.
const LEVELS: usize = 64usize.div_ceil(DIGIT_BITS as usize);

/// A pending event: fire time plus, in debug builds, its insertion
/// sequence number, which only the insertion-order assertion reads.
#[derive(Clone)]
struct Pending<E> {
    at: u64,
    #[cfg(debug_assertions)]
    seq: u64,
    event: E,
}

/// A deterministic event queue over a user-defined event type.
///
/// Events scheduled for the same [`SimTime`] are delivered in the order they
/// were scheduled, which keeps multi-component simulations reproducible.
/// A clone pops the same events in the same order as its original.
#[derive(Clone)]
pub struct EventQueue<E> {
    /// `LEVELS × SLOTS` vectors, level-major, each in insertion order. A
    /// slot is emptied whole, buffer and all, unless it holds a single
    /// event, so capacity follows the resident count.
    slots: Vec<Vec<Pending<E>>>,
    /// One occupancy word per level: bit `d` is set when slot `d` holds
    /// events.
    occ: [u64; LEVELS],
    /// Bit `l` is set when `occ[l] != 0`.
    levels: u32,
    /// Events firing exactly at `now`: a level-0 slot that held several,
    /// taken whole so ties drain front to back in O(1) each.
    due: std::vec::IntoIter<Pending<E>>,
    len: usize,
    #[cfg(debug_assertions)]
    seq: u64,
    /// The wheel cursor, which is also the clock.
    now: u64,
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
            slots: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; LEVELS],
            levels: 0,
            due: Vec::new().into_iter(),
            len: 0,
            #[cfg(debug_assertions)]
            seq: 0,
            now: 0,
        }
    }

    /// The current virtual time: the timestamp of the last popped event or
    /// the last [`EventQueue::pop_until`] limit reached, whichever is
    /// later; zero before either.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.now)
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the caller — virtual
    /// time would run backwards and interval attribution would corrupt —
    /// so debug builds fail fast. Release builds clamp to `now` rather
    /// than time-travelling, so causality still holds.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now(),
            "event scheduled in the past ({at:?} < clock {:?})",
            self.now()
        );
        let at = at.as_micros().max(self.now);
        self.len += 1;
        #[cfg(debug_assertions)]
        let seq = {
            self.seq += 1;
            self.seq
        };
        self.place(Pending {
            at,
            #[cfg(debug_assertions)]
            seq,
            event,
        });
    }

    /// Appends `p` to the slot its time names relative to the cursor.
    fn place(&mut self, p: Pending<E>) {
        // `| 1`: a time equal to the cursor differs in "digit 0".
        let level = ((63 - ((p.at ^ self.now) | 1).leading_zeros()) / DIGIT_BITS) as usize;
        let digit = (p.at >> (level as u32 * DIGIT_BITS)) as usize % SLOTS;
        let slot = &mut self.slots[level * SLOTS + digit];
        #[cfg(debug_assertions)]
        assert!(
            slot.last().is_none_or(|last| last.seq < p.seq),
            "slot out of insertion order"
        );
        slot.push(p);
        self.occ[level] |= 1 << digit;
        self.levels |= 1 << level;
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            // Nothing to reach: the clock stays where it is.
            return None;
        }
        self.pop_until(SimTime::from_micros(u64::MAX))
    }

    /// Pops the next event if it fires at or before `limit`; otherwise
    /// advances the clock to `limit` (never backwards) and returns `None`.
    ///
    /// The cursor never passes `limit`, so whatever is scheduled between
    /// `limit` and the next pending event afterwards still lands ahead of
    /// it — a wheel cannot report its exact minimum without moving there.
    pub fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let limit = limit.as_micros();
        if limit < self.now {
            return None;
        }
        loop {
            if let Some(p) = self.due.next() {
                self.len -= 1;
                return Some((self.now(), p.event));
            }
            if self.levels == 0 {
                self.now = limit;
                return None;
            }
            let level = self.levels.trailing_zeros() as usize;
            let digit = self.occ[level].trailing_zeros() as usize;
            let shift = level as u32 * DIGIT_BITS;
            // The slot's first instant: the cursor with this digit set
            // and every lower digit cleared.
            let start = ((self.now >> shift) & !(SLOTS as u64 - 1) | digit as u64) << shift;
            if start > limit {
                self.now = limit;
                return None;
            }
            self.occ[level] &= !(1 << digit);
            if self.occ[level] == 0 {
                self.levels &= !(1 << level);
            }
            let slot = &mut self.slots[level * SLOTS + digit];
            if slot.len() == 1 && slot[0].at <= limit {
                // A lone event pops where it sits, without a cascade.
                let p = slot.pop().expect("one event");
                self.now = p.at;
                self.len -= 1;
                return Some((self.now(), p.event));
            }
            // Enter the slot: its events now share this digit with the
            // cursor and move down — or, on level 0, are due. Its buffer
            // goes back to the allocator either way.
            let batch = std::mem::take(slot).into_iter();
            self.now = start;
            if level == 0 {
                self.due = batch;
            } else {
                batch.for_each(|p| self.place(p));
            }
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    /// A queued 16-byte event costs its 8-byte fire time on top; debug
    /// builds add the sequence number the insertion-order check reads.
    #[test]
    fn pending_entry_is_the_event_plus_its_fire_time() {
        let size = std::mem::size_of::<Pending<[u32; 4]>>();
        assert_eq!(size, if cfg!(debug_assertions) { 32 } else { 24 });
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
        let mut next = move || crate::hash::splitmix64(&mut state);
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
    fn pop_until_below_the_next_event_only_advances_the_clock() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(7), Ev::A(0));
        assert_eq!(q.pop_until(SimTime::from_micros(5)), None);
        assert_eq!(q.now(), SimTime::from_micros(5));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        // A limit behind the clock pops nothing and moves nothing.
        assert_eq!(q.pop_until(SimTime::from_micros(3)), None);
        assert_eq!(q.now(), SimTime::from_micros(5));
        assert_eq!(
            q.pop_until(SimTime::from_micros(7)),
            Some((SimTime::from_micros(7), Ev::A(0)))
        );
        // Empty: `pop` leaves the clock alone, `pop_until` takes it to
        // the limit.
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), SimTime::from_micros(7));
        assert_eq!(q.pop_until(SimTime::from_micros(9)), None);
        assert_eq!(q.now(), SimTime::from_micros(9));
    }

    #[test]
    fn pop_until_tracks_min_through_interleaved_ops() {
        let until = |q: &mut EventQueue<Ev>, us| q.pop_until(SimTime::from_micros(us));
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(50), Ev::A(0));
        q.schedule(SimTime::from_micros(20), Ev::A(1));
        assert_eq!(until(&mut q, 19), None);
        // An equal-time push queues behind the incumbent (FIFO), also
        // once the clock stands on that instant.
        q.schedule(SimTime::from_micros(20), Ev::A(2));
        assert_eq!(until(&mut q, 20).map(|(_, e)| e), Some(Ev::A(1)));
        q.schedule(SimTime::from_micros(20), Ev::A(3));
        assert_eq!(until(&mut q, 20).map(|(_, e)| e), Some(Ev::A(2)));
        assert_eq!(until(&mut q, 49).map(|(_, e)| e), Some(Ev::A(3)));
        assert_eq!(until(&mut q, 49), None);
        // Scheduled between the limit and the next pending event: first.
        q.schedule(SimTime::from_micros(49), Ev::A(4));
        assert_eq!(q.pop().map(|(_, e)| e), Some(Ev::A(4)));
        assert_eq!(q.pop().map(|(_, e)| e), Some(Ev::A(0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn wide_scatter_with_duplicate_times_pops_sorted() {
        // 10k events over ~3·10^6 µs — four digit levels, with duplicate
        // times — then a full drain; order must stay exact throughout.
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

    /// The deterministic memory gate: 1M resident sessions thinking
    /// exp(200 s) hold at most twice their own count in slot capacity,
    /// after the fill and after 1M hold steps — emptied slots give their
    /// buffers back instead of each staying at its peak.
    #[test]
    fn slot_capacity_stays_within_twice_the_resident_count() {
        const N: usize = 1_000_000;
        let mut rng = crate::rng::SimRng::new(19);
        let mut think = move || SimDuration::from_micros(rng.exponential(200e6) as u64);
        let held = |q: &EventQueue<u64>| -> usize {
            q.slots.iter().map(Vec::capacity).sum::<usize>() + q.due.len()
        };
        let mut q = EventQueue::new();
        for session in 0..N as u64 {
            q.schedule(SimTime::ZERO + think(), session);
        }
        assert!(held(&q) <= 2 * N, "after the fill: {}", held(&q));
        for _ in 0..N {
            let (t, session) = q.pop().expect("queue stays resident");
            q.schedule(t + think(), session);
        }
        assert_eq!(q.len(), N);
        assert!(held(&q) <= 2 * N, "after the hold: {}", held(&q));
    }
}
