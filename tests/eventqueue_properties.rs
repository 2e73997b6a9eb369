//! Differential property suite for the timing-wheel `EventQueue`: the
//! `BinaryHeapEventQueue` below — the textbook implementation — is the
//! ordering oracle. Whatever the push/pop interleaving, pop order (times,
//! payloads, clock trajectory, lengths) must be byte-identical between the
//! two — the wheel is a pure performance substitution.

use odlb_sim::hash::splitmix64;
use odlb_sim::{EventQueue, SimDuration, SimRng, SimTime};
use odlb_testkit::{check, Gen};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A `BinaryHeap`-backed event queue, kept as the ordering oracle.
/// Semantics are identical to [`EventQueue`] (same clamp, same FIFO
/// tiebreak, same clock behaviour): entries order by fire time, then by a
/// unique insertion sequence number, so the payload never decides.
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

    /// Pops the next event if it fires at or before `limit`, otherwise
    /// advances the clock to `limit` (never backwards).
    fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        if self.next_time().is_some_and(|at| at <= limit) {
            return self.pop();
        }
        self.now = self.now.max(limit);
        None
    }

    /// What the wheel cannot say without moving: the exact minimum. The
    /// stranding test aims its schedules with it.
    fn next_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, ..))| *at)
    }
}

/// The wheel and the oracle fed identically, every observable compared
/// after every operation. Payloads number the schedules.
struct Pair {
    wheel: EventQueue<u64>,
    heap: BinaryHeapEventQueue<u64>,
    scheduled: u64,
}

impl Pair {
    fn new() -> Self {
        Pair {
            wheel: EventQueue::new(),
            heap: BinaryHeapEventQueue::new(),
            scheduled: 0,
        }
    }

    fn now(&self) -> SimTime {
        self.wheel.now()
    }

    fn agree(&self) {
        assert_eq!(self.wheel.now(), self.heap.now, "clock diverged");
        assert_eq!(self.wheel.len(), self.heap.heap.len(), "length diverged");
        assert_eq!(self.wheel.is_empty(), self.heap.heap.is_empty());
    }

    fn schedule(&mut self, at: SimTime) {
        self.wheel.schedule(at, self.scheduled);
        self.heap.schedule(at, self.scheduled);
        self.scheduled += 1;
        self.agree();
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let (a, b) = (self.wheel.pop(), self.heap.pop());
        assert_eq!(a, b, "pop diverged");
        self.agree();
        a
    }

    fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, u64)> {
        let (a, b) = (self.wheel.pop_until(limit), self.heap.pop_until(limit));
        assert_eq!(a, b, "pop_until({limit:?}) diverged");
        self.agree();
        a
    }

    fn drain(&mut self) {
        while self.pop().is_some() {}
    }
}

fn us(t: u64) -> SimTime {
    SimTime::from_micros(t)
}

/// A fixed smoke sequence with interleaved pops.
#[test]
fn binary_heap_oracle_matches_on_a_smoke_sequence() {
    let mut q = Pair::new();
    for i in 0..500u64 {
        // max(now) keeps the sequence causal once pops advance the
        // clock — past scheduling is its own (debug-panic) test.
        q.schedule(us((i * 37) % 1000).max(q.now()));
        if i % 3 == 0 {
            q.pop();
        }
    }
    q.drain();
}

/// Randomized push/pop interleavings across several time regimes: dense
/// ties, wide scatter, mostly-increasing arrival patterns (the closed-loop
/// driver's shape), and clustered bursts. Every observable is compared
/// step by step against the heap oracle.
#[test]
fn wheel_matches_heap_oracle_on_random_interleavings() {
    check("eventqueue/differential", 400, |g: &mut Gen| {
        let mut q = Pair::new();
        let ops = g.usize_in(1, 800);
        // Time regime for this case: controls tie density and spread.
        let horizon = [10u64, 1_000, 1_000_000, 40_000_000_000][g.usize_in(0, 4)];
        for _ in 0..ops {
            if g.chance(0.65) {
                // Push: absolute future time, or a short relative delay
                // (the driver's dominant pattern), occasionally exactly
                // `now` to stress the FIFO tiebreak at the clock.
                let at = match g.usize_in(0, 3) {
                    0 => q.now() + SimDuration::from_micros(g.u64_in(0, horizon)),
                    1 => q.now() + SimDuration::from_micros(g.u64_in(0, horizon / 2 + 1)),
                    _ => q.now(),
                };
                q.schedule(at);
            } else if g.chance(0.5) {
                q.pop();
            } else {
                // A limit around the clock: mostly ahead, sometimes on
                // it, sometimes behind (which must move nothing).
                let now = q.now().as_micros();
                let limit = (now + g.u64_in(0, horizon)).saturating_sub(g.u64_in(0, 2));
                q.pop_until(us(limit));
            }
        }
        q.drain();
    });
}

/// The write ramp itself — the arrival shape whose mix of near and far
/// times skewed the queue this wheel replaced: N sessions staggered
/// uniformly over a 2 s tick, each pop thinking exp(200 s) ahead, and
/// every tenth also leaving a completion a few hundred µs out.
#[test]
fn session_ramp_with_near_completions_matches_heap_oracle() {
    check("eventqueue/ramp", 6, |g: &mut Gen| {
        let mut rng = SimRng::new(g.u64_in(0, u64::MAX));
        let mut q = Pair::new();
        let sessions = g.usize_in(2_000, 20_000);
        for _ in 0..sessions {
            q.schedule(us(rng.below(2_000_000)));
        }
        for step in 0..3 * sessions {
            let (t, _) = q.pop().expect("sessions stay resident");
            q.schedule(t + SimDuration::from_micros(rng.exponential(200e6) as u64));
            if step % 10 == 0 {
                let burst = g.usize_in(1, 28);
                for _ in 0..burst {
                    q.schedule(t + SimDuration::from_micros(g.u64_in(0, 900)));
                }
                for _ in 0..burst {
                    q.pop();
                }
            }
        }
        q.drain();
    });
}

/// The case `pop_until` exists for: after it stops at a limit, a schedule
/// landing strictly between that limit and the next pending event (what a
/// controller does between intervals) must pop first. A cursor that had
/// run ahead to the next event would clamp or misplace it.
#[test]
fn pop_until_never_strands_a_later_schedule() {
    check("eventqueue/strand", 300, |g: &mut Gen| {
        let mut q = Pair::new();
        let spread = 1u64 << g.u32_in(1, 40);
        for _ in 0..g.usize_in(1, 60) {
            q.schedule(q.now() + SimDuration::from_micros(g.u64_in(0, spread)));
        }
        for _ in 0..g.usize_in(1, 40) {
            let Some(next) = q.heap.next_time() else {
                break;
            };
            // Stop somewhere in [now, next); drain what fires by then.
            let (now, next) = (q.now().as_micros(), next.as_micros());
            let limit = g.u64_in(now, next.max(now + 1));
            while q.pop_until(us(limit)).is_some() {}
            assert_eq!(q.now(), us(limit.max(now)));
            // Between the limit and the next pending event, on the limit
            // itself, and far behind everything else.
            if let Some(next) = q.heap.next_time() {
                q.schedule(us(g.u64_in(limit, next.as_micros() + 1)));
                q.schedule(us(limit));
                q.schedule(next + SimDuration::from_micros(g.u64_in(0, spread)));
            }
            for _ in 0..g.usize_in(1, 4) {
                q.pop();
            }
        }
        q.drain();
    });
}

/// Times on both sides of every digit boundary of the wheel
/// (`k·64^l − 1`, `k·64^l`) and in its top level (≥ 2^60 µs), scheduled in
/// random order with duplicates and popped through limits that sit on
/// boundaries themselves.
#[test]
fn digit_boundaries_and_the_top_level_match_heap_oracle() {
    let mut times = vec![0, 1, (1 << 60) + 1, 1 << 63, u64::MAX - 1, u64::MAX];
    for level in 1..=10u32 {
        for k in [1u64, 2, 15, 16, 37, 63, 64, 65] {
            if let Some(edge) = 64u64.pow(level).checked_mul(k) {
                times.extend([edge - 1, edge, edge + 1]);
            }
        }
    }
    check("eventqueue/digits", 200, |g: &mut Gen| {
        let mut q = Pair::new();
        let pick = |g: &mut Gen| times[g.usize_in(0, times.len())];
        for _ in 0..g.usize_in(1, 300) {
            match g.usize_in(0, 4) {
                0 | 1 => q.schedule(us(pick(g)).max(q.now())),
                2 => {
                    q.pop_until(us(pick(g)));
                }
                _ => {
                    q.pop();
                }
            }
        }
        q.drain();
    });
}

/// The one path that starts a block before its slot's tail is full: a
/// slot whose entries differ in the high 32 bits of their fire times.
/// From a cursor below 2^36 µs, a level-6 slot spans 16 high halves, so
/// times past 2^36 µs scattered over `k·2^32` land in one slot with mixed
/// halves; times around 2^32 µs straddle one half boundary, and near
/// events keep the clock moving through them.
#[test]
fn mixed_high_halves_in_one_slot_match_heap_oracle() {
    check("eventqueue/high-halves", 200, |g: &mut Gen| {
        let mut q = Pair::new();
        for _ in 0..g.usize_in(1, 400) {
            let now = q.now().as_micros();
            let at = match g.usize_in(0, 4) {
                0 => (1 << 32) + g.u64_in(0, 2_000) - 1_000,
                1 => (1 << 36) * g.u64_in(1, 3) + (g.u64_in(0, 16) << 32) + g.u64_in(0, 1_000),
                _ => now + g.u64_in(0, 5_000),
            };
            match g.usize_in(0, 5) {
                0..=2 => q.schedule(us(at.max(now))),
                3 => {
                    q.pop();
                }
                _ => {
                    q.pop_until(us(now + g.u64_in(0, 1 << 34)));
                }
            }
        }
        q.drain();
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

/// Equal-timestamp events pop strictly FIFO, wherever the instant sits
/// relative to the clock.
#[test]
fn ties_stay_fifo_at_any_instant() {
    check("eventqueue/fifo-ties", 100, |g: &mut Gen| {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(g.u64_in(0, 1_000_000));
        let n = g.usize_in(1, 2_000);
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

/// 200,000 events at one instant — a write burst completing together —
/// pop FIFO, the second half scheduled while the first is draining. A
/// tie path that shifts or rescans per pop is quadratic and would not
/// finish.
#[test]
fn two_hundred_thousand_ties_pop_fifo() {
    let (n, t) = (200_000u64, us(123_456_789));
    let mut q = EventQueue::new();
    for i in 0..n / 2 {
        q.schedule(t, i);
    }
    for i in 0..n / 2 {
        assert_eq!(q.pop(), Some((t, i)));
        q.schedule(t, n / 2 + i);
    }
    for i in n / 2..n {
        assert_eq!(q.pop(), Some((t, i)));
    }
    assert!(q.is_empty());
}

/// Large-N determinism: ≥1M events through the wheel pop in exactly the
/// order the heap oracle pops them, and two identically-fed wheels agree
/// event for event. This is the scale regime the `fig-scale` figure runs
/// at (~1M resident session events).
#[test]
fn one_million_events_pop_identically() {
    let n: u64 = 1_000_000;
    let mut wheel = EventQueue::new();
    let mut wheel2 = EventQueue::new();
    let mut heap = BinaryHeapEventQueue::new();
    // Deterministic splitmix64 scatter over a ~200s horizon with think-
    // time-like clustering (the fig-scale session regime).
    let mut state = 0x0123_4567_89ab_cdefu64;
    let mut next = move || splitmix64(&mut state);
    for i in 0..n {
        let at = SimTime::from_micros(next() % 200_000_000);
        wheel.schedule(at, i);
        wheel2.schedule(at, i);
        heap.schedule(at, i);
    }
    assert_eq!(wheel.len(), n as usize);
    let mut popped = 0u64;
    let mut last = SimTime::ZERO;
    loop {
        let (a, b, c) = (wheel.pop(), wheel2.pop(), heap.pop());
        assert_eq!(a, b, "two identically-fed wheels diverged");
        assert_eq!(a, c, "wheel diverged from heap oracle");
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
