//! Differential property suite for the calendar-queue `EventQueue`: the
//! `BinaryHeapEventQueue` below — the implementation the calendar queue
//! replaced — is the ordering oracle. Whatever the push/pop interleaving,
//! pop order (times, payloads, clock trajectory, peeks, lengths) must be
//! byte-identical between the two — the calendar queue is a pure
//! performance substitution.

use odlb_sim::{EventQueue, SimDuration, SimTime};
use odlb_testkit::{check, Gen};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The previous `BinaryHeap`-backed event queue, kept as the ordering
/// oracle. Semantics are identical to [`EventQueue`] (same clamp, same
/// FIFO tiebreak, same clock behaviour): entries order by fire time, then
/// by a unique insertion sequence number, so the payload never decides.
struct BinaryHeapEventQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, E)>>,
    seq: u64,
    now: SimTime,
}

impl<E: Ord> BinaryHeapEventQueue<E> {
    fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at `at` (clamped to `now`, like [`EventQueue`]).
    fn schedule(&mut self, at: SimTime, event: E) {
        self.heap.push(Reverse((at.max(self.now), self.seq, event)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((at, _, event)) = self.heap.pop()?;
        self.now = at;
        Some((at, event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, ..))| *at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// A fixed smoke sequence with interleaved pops.
#[test]
fn binary_heap_oracle_matches_on_a_smoke_sequence() {
    let mut a = EventQueue::new();
    let mut b = BinaryHeapEventQueue::new();
    for i in 0..500u64 {
        // max(now) keeps the sequence causal once pops advance the
        // clock — past scheduling is its own (debug-panic) test.
        let t = SimTime::from_micros((i * 37) % 1000).max(a.now());
        a.schedule(t, i as u32);
        b.schedule(t, i as u32);
        if i % 3 == 0 {
            assert_eq!(a.peek_time(), b.peek_time());
            assert_eq!(a.pop(), b.pop());
            assert_eq!(a.now(), b.now());
        }
    }
    loop {
        let (x, y) = (a.pop(), b.pop());
        assert_eq!(x, y);
        if x.is_none() {
            break;
        }
    }
}

/// Randomized push/pop interleavings across several time regimes: dense
/// ties, wide scatter, mostly-increasing arrival patterns (the closed-loop
/// driver's shape), and clustered bursts. Every observable is compared
/// step by step against the heap oracle.
#[test]
fn calendar_queue_matches_heap_oracle_on_random_interleavings() {
    check("eventqueue/differential", 400, |g: &mut Gen| {
        let mut cal = EventQueue::new();
        let mut heap = BinaryHeapEventQueue::new();
        let ops = g.usize_in(1, 800);
        // Time regime for this case: controls tie density and spread.
        let horizon = [10u64, 1_000, 1_000_000, 40_000_000_000][g.usize_in(0, 3)];
        let mut payload = 0u64;
        for _ in 0..ops {
            if g.chance(0.65) {
                // Push: absolute future time, or a short relative delay
                // (the driver's dominant pattern), occasionally exactly
                // `now` to stress the FIFO tiebreak at the clock.
                let at = match g.usize_in(0, 2) {
                    0 => cal.now() + SimDuration::from_micros(g.u64_in(0, horizon)),
                    1 => SimTime::from_micros(
                        cal.now()
                            .as_micros()
                            .saturating_add(g.u64_in(0, horizon / 2 + 1)),
                    ),
                    _ => cal.now(),
                };
                cal.schedule(at, payload);
                heap.schedule(at, payload);
                payload += 1;
            } else {
                assert_eq!(cal.peek_time(), heap.peek_time(), "peek diverged");
                assert_eq!(cal.pop(), heap.pop(), "pop diverged");
                assert_eq!(cal.now(), heap.now(), "clock diverged");
            }
            assert_eq!(cal.len(), heap.len(), "length diverged");
            assert_eq!(cal.is_empty(), heap.is_empty());
        }
        // Drain fully: the tail (with shrink rebuilds) must match too.
        loop {
            assert_eq!(cal.peek_time(), heap.peek_time());
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b, "drain diverged");
            if a.is_none() {
                break;
            }
        }
    });
}

/// The clock never runs backwards, whatever the push sequence — the
/// regression property for the time-travel bug (release builds clamp
/// past scheduling to `now`; debug builds panic, so here every push is
/// kept causal and the clamp path is pinned by the sim crate's own
/// release-gated test).
#[test]
fn clock_is_monotone_over_random_schedules() {
    check("eventqueue/monotone-clock", 200, |g: &mut Gen| {
        let mut q = EventQueue::new();
        let mut last = SimTime::ZERO;
        let ops = g.usize_in(1, 500);
        for i in 0..ops {
            let magnitude = g.u32_in(0, 30);
            let delay = SimDuration::from_micros(g.u64_in(0, 1 << magnitude));
            q.schedule(q.now() + delay, i);
            if g.chance(0.5) {
                if let Some((t, _)) = q.pop() {
                    assert!(t >= last, "clock went backwards: {t:?} after {last:?}");
                    assert_eq!(q.now(), t);
                    last = t;
                }
            }
        }
        while let Some((t, _)) = q.pop() {
            assert!(t >= last, "drain went backwards");
            last = t;
        }
    });
}

/// Equal-timestamp events pop strictly FIFO even when interleaved with
/// pops and spread across rebuilds.
#[test]
fn ties_stay_fifo_across_rebuilds() {
    check("eventqueue/fifo-ties", 100, |g: &mut Gen| {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(g.u64_in(0, 1_000_000));
        let n = g.usize_in(1, 2_000); // crosses several grow thresholds
        for i in 0..n {
            q.schedule(t, i);
        }
        for expect in 0..n {
            let (at, got) = q.pop().expect("queue drained early");
            assert_eq!(at, t);
            assert_eq!(got, expect, "FIFO order broken at {expect}");
        }
        assert!(q.is_empty());
    });
}

/// Large-N determinism: ≥1M events through the calendar queue pop in
/// exactly the order the heap oracle pops them, and two identically-fed
/// calendar queues agree event for event. This is the scale regime the
/// `fig-scale` figure runs at (~1M resident session events).
#[test]
fn one_million_events_pop_identically() {
    let n: u64 = 1_000_000;
    let mut cal = EventQueue::new();
    let mut cal2 = EventQueue::new();
    let mut heap = BinaryHeapEventQueue::new();
    // Deterministic splitmix64 scatter over a ~200s horizon with think-
    // time-like clustering (the fig-scale session regime).
    let mut state = 0x0123_4567_89ab_cdefu64;
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    for i in 0..n {
        let at = SimTime::from_micros(next() % 200_000_000);
        cal.schedule(at, i);
        cal2.schedule(at, i);
        heap.schedule(at, i);
    }
    assert_eq!(cal.len(), n as usize);
    let mut popped = 0u64;
    let mut last = SimTime::ZERO;
    loop {
        let (a, b, c) = (cal.pop(), cal2.pop(), heap.pop());
        assert_eq!(a, b, "two identically-fed calendar queues diverged");
        assert_eq!(a, c, "calendar diverged from heap oracle");
        match a {
            Some((t, _)) => {
                assert!(t >= last);
                last = t;
                popped += 1;
            }
            None => break,
        }
    }
    assert_eq!(popped, n);
}
