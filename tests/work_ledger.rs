//! The work ledger: exact counts of what fixed scenarios make the model
//! do. Timers drift with the host; these counts do not, so a change that
//! moves the work shows here as old → new, and a change that should not
//! move it is held to the same numbers.
//!
//! Each scenario pins [`WorkCounts`]: events dispatched, page
//! references, pool misses, read-ahead prefetches, the pages those
//! prefetches installed and page locks of the executed queries, miss
//! ratio curves and window accesses the controller replayed, and the heap
//! bytes every access window holds at the end.
//! The sweep scenario pins what a memoized sweep simulates instead:
//! schedules, prefixes and runs, and the events of every cell. Heap
//! allocations and the peak of the live heap are counted too, by a
//! thread-local counting allocator: for the whole of Table 2, and for
//! the ramp and a steady-state interval of `fig-scale-mini`.

use odlb::cluster::WorkCounts;
use odlb_bench::experiments::{scale, table2, Observers};
use odlb_bench::sweep::{parse_matrix, run_sweep, SweepOptions, SweepWork};
use odlb_testkit::heap::{heap_of, live_bytes, Counting};

#[global_allocator]
static COUNTING: Counting = Counting;

/// Table 2 as the suite runs it: TPC-W alone for 10 intervals, RUBiS
/// joining for 6 with the controller held off, then 15 intervals of
/// diagnosis and re-placement.
#[test]
fn table2_at_15_recovery_intervals() {
    let (result, allocations, _) = heap_of(0, || table2::run(45, 80, 10, 6, 15));
    let work = result.work;
    let expected = WorkCounts {
        events: 35_972,
        page_refs: 927_911,
        pool_misses: 105_922,
        prefetches: 11_458,
        prefetched_pages: 130_315,
        pages_locked: 14_514,
        curves_replayed: 113,
        accesses_replayed: 1_367_051,
        window_bytes: 1_417_056,
    };
    assert_eq!(work, expected);
    // 8,328 before write applies walked the replica set in place, the
    // lock table pruned itself and latency histograms left the collector;
    // 5,052 before LRU links moved into the pool's page table and the
    // lock table into a hash table (3,912), and the recovered row kept
    // running sums instead of two vectors (3,906); each of the 31 interval
    // closes then allocated a vector of rack partials.
    assert_eq!(allocations, 3_875);
}

/// `fig-scale-mini`'s two rows: 16 replicas with 10,000 resident
/// sessions and 32 with 40,000, two intervals each, no controller.
#[test]
fn fig_scale_mini() {
    let points = [(16, 10_000, 2), (32, 40_000, 2)];
    let rows = scale::run_observed(&Observers::default(), &points).rows;
    let work: Vec<WorkCounts> = rows.iter().map(|row| row.work).collect();
    let expected = [
        WorkCounts {
            events: 22_299,
            page_refs: 11_342,
            pool_misses: 3_660,
            prefetches: 0,
            prefetched_pages: 0,
            pages_locked: 528,
            curves_replayed: 0,
            accesses_replayed: 0,
            window_bytes: 152_576,
        },
        WorkCounts {
            events: 90_419,
            page_refs: 46_604,
            pool_misses: 9_456,
            prefetches: 0,
            prefetched_pages: 0,
            pages_locked: 3_200,
            curves_replayed: 0,
            accesses_replayed: 0,
            window_bytes: 321_536,
        },
    ];
    assert_eq!(work, expected);
}

/// The ramp interval of `fig-scale-mini`'s 40,000-session row: the first,
/// which admits every session into the event queue. Pins its heap
/// allocations and the peak of the live heap during it, counted from
/// before the cluster is built. The allocations are the same in debug and
/// release; the peak is not, because debug queue entries keep the 8-byte
/// seq of the insertion-order check.
#[test]
fn fig_scale_mini_ramp_interval_heap() {
    let base = live_bytes();
    let mut sim = scale::cluster(9_2027, 32, 40_000);
    sim.start();
    let (_, allocations, peak) = heap_of(base, || sim.run_interval());
    // 3,098 allocations and a peak of 2,224,224 bytes (2,849,376 in debug)
    // while every engine grew a latency histogram per class and kept every
    // page written in the interval locked in its table, and each write
    // collected its apply targets; 2,155 and 1,741,760 (2,366,912 in
    // debug) before LRU links moved into the pool's page table and the
    // lock table into a hash table; 1,757 and 1,671,872 (2,297,024 in
    // debug) while the interval close built a vector of rack partials.
    let expected_peak = if cfg!(debug_assertions) {
        2_296_920
    } else {
        1_671_768
    };
    assert_eq!((allocations, peak), (1_756, expected_peak));
}

/// The heap allocations of one steady-state interval: the second
/// interval of `fig-scale-mini`'s 40,000-session row, after the first
/// has ramped every session into the event queue.
#[test]
fn fig_scale_mini_steady_interval_allocations() {
    let mut sim = scale::cluster(9_2027, 32, 40_000);
    sim.start();
    sim.run_interval();
    let (_, allocations, _) = heap_of(0, || sim.run_interval());
    // 1,161 with the event queue's per-slot vectors, 225 before the
    // histograms, lock table and write applies above, 125 before the LRU
    // links and the lock table above, 109 with the rack-partial vector.
    assert_eq!(allocations, 108);
}

/// A 16-cell sweep: one schedule, two replica counts, and per prefix the
/// selective controller under two MRC modes plus the three blind
/// baselines, which share one run across the modes.
#[test]
fn sweep_of_16_cells() {
    let matrix = parse_matrix(
        "intervals = 2\nwarmup = 0\nclients = 2\nreplicas = [1, 2]\n\
         workloads = [\"zipf\"]\nmrc = [\"exact\", \"sampled:0.1\"]\n\
         controllers = [\"selective\", \"cpu-only\", \"coarse\", \"vm-migration\"]",
    )
    .unwrap();
    let dir = std::env::temp_dir().join(format!("odlb-work-ledger-{}", std::process::id()));
    let opts = SweepOptions {
        jobs: 1,
        out_dir: dir.clone(),
        memo: true,
        max_cells: None,
    };
    let outcome = run_sweep(&matrix, &opts).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let expected = SweepWork {
        schedules: 1,
        prefixes: 2,
        runs: 10,
    };
    assert_eq!((outcome.work, outcome.events), (expected, 1_824));
}
