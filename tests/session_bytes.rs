//! Counts beside timers: the live heap bytes a resident session costs in
//! the scale regime. The `fig-scale` topology at 16 replicas and 100,000
//! sessions is built, started and run one interval; nearly every session
//! then sits in the event queue, so the live bytes per session are the
//! queue entry, its share of slot slack and the replicas' pools, windows
//! and tables spread over the sessions. The count is exact and repeats,
//! so it guards the regime's memory without a timer.

use odlb_bench::experiments::scale;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local!(static LIVE: Cell<isize> = const { Cell::new(0) });

/// Tracks this thread's live bytes; the default `realloc` is an `alloc`
/// plus a `dealloc`.
struct Counting;

// SAFETY: every call goes to `System` unchanged; counting never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE.try_with(|n| n.set(n.get() + layout.size() as isize));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|n| n.set(n.get() - layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const SESSIONS: usize = 100_000;

#[test]
fn live_heap_bytes_per_resident_session_stay_bounded() {
    let before = LIVE.with(Cell::get);
    let mut sim = scale::cluster(9_2026, 16, SESSIONS);
    sim.start();
    sim.run_interval();
    let live = (LIVE.with(Cell::get) - before) as f64;
    drop(sim);
    // Measured: 63.2 bytes per session in release (a 24-byte queue entry,
    // pool indexes sized by use) and 74.5 in debug, whose entries keep the
    // 8-byte seq of the insertion-order check. With a 40-byte entry and
    // indexes reserved for full pools it read 95.8 in both.
    let bound = if cfg!(debug_assertions) { 77.0 } else { 66.0 };
    let per_session = live / SESSIONS as f64;
    assert!(
        per_session <= bound,
        "{per_session:.1} live heap bytes per session"
    );
}
