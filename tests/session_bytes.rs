//! Counts beside timers: the live heap bytes a resident session costs in
//! the scale regime. The `fig-scale` topology at 16 replicas and 100,000
//! sessions is built, started and run one interval; nearly every session
//! then sits in the event queue, so the live bytes per session are the
//! queue entry, its share of partial blocks and the replicas' pools,
//! windows and tables spread over the sessions. The count is exact and
//! repeats, so it guards the regime's memory without a timer.

use odlb_bench::experiments::scale;
use odlb_testkit::heap::{live_bytes, Counting};

#[global_allocator]
static COUNTING: Counting = Counting;

const SESSIONS: usize = 100_000;

#[test]
fn live_heap_bytes_per_resident_session_stay_bounded() {
    let before = live_bytes();
    let mut sim = scale::cluster(9_2026, 16, SESSIONS);
    sim.start();
    sim.run_interval();
    let live = (live_bytes() - before) as f64;
    drop(sim);
    // Measured: 24.7 bytes per session in release (a 12-byte queue entry
    // in pooled 64-entry blocks) and 38.3 in debug, whose entries keep the
    // 8-byte seq of the insertion-order check. With a 24-byte entry in
    // per-slot vectors it read 44.2 and 55.5; with a 40-byte entry and
    // indexes reserved for full pools, 95.8 in both.
    let bound = if cfg!(debug_assertions) { 39.0 } else { 25.5 };
    let per_session = live / SESSIONS as f64;
    assert!(
        per_session <= bound,
        "{per_session:.1} live heap bytes per session"
    );
}
