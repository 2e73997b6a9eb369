//! A counting global allocator for the heap tests: exact allocation
//! counts and live bytes beside the timers, per thread, so other test
//! threads never leak into a count. A test binary installs [`Counting`]
//! as its `#[global_allocator]` static; without it every count reads 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Counts this thread's allocations and tracks its live and peak live
/// bytes; the default `realloc` is one allocation (an `alloc` plus a
/// `dealloc`).
pub struct Counting;

// SAFETY: every call goes to `System` unchanged; counting never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        let _ = LIVE.try_with(|live| {
            live.set(live.get() + layout.size() as isize);
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
        });
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get() - layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

/// This thread's live heap bytes: allocated minus freed since it started.
pub fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

/// What `f` asks of this thread's heap: its allocations, and the peak of
/// the live heap while it runs, in bytes above `base` (a [`live_bytes`]
/// reading taken earlier, so the peak can include what was built before
/// `f`).
pub fn heap_of<R>(base: isize, f: impl FnOnce() -> R) -> (R, usize, isize) {
    let allocations = ALLOCATIONS.with(Cell::get);
    PEAK.with(|peak| peak.set(live_bytes()));
    let r = f();
    let peak = PEAK.with(Cell::get) - base;
    (r, ALLOCATIONS.with(Cell::get) - allocations, peak)
}

/// Allocations made while `f` runs.
pub fn allocations(f: impl FnOnce()) -> usize {
    heap_of(0, f).1
}
