//! Counts beside timers: a warm span and a tally allocate nothing; a
//! snapshot, and `render_csv` but for its output doubling, as often at
//! 1,000 series as at 100. Also the row-by-row CSV that compact
//! snapshots replaced.

use odlb_telemetry::{render_csv, MetricsRegistry, SpanProfiler};
use odlb_testkit::heap::{allocations, Counting};
use std::fmt::Write as _;

#[global_allocator]
static COUNTING: Counting = Counting;

/// `n` series (counter, gauge, histogram in turn) appearing in three waves
/// between snapshots, so row ids interleave in name and label order; and
/// the CSV of each snapshot's `sample_rows()`, rendered row by row.
fn registry(n: u64) -> (MetricsRegistry, String) {
    let mut reg = MetricsRegistry::new();
    let mut row_wise = String::from("time_s,seq,metric,labels,value\n");
    for seq in 0..3 {
        for i in (seq..n).step_by(3) {
            let labels = [("x", "y"), ("series", &*i.to_string())];
            match i / 3 % 3 {
                0 => reg.counter("c_total", "C.", &labels).add(i),
                1 => reg.gauge("c", "G.", &labels).set(i as f64 / 7.0),
                _ => reg.histogram("c_us", "H.", &labels).record(i * 1_000),
            }
        }
        for row in reg.sample_rows() {
            let labels = row.labels.replace('"', "").replace(',', ";");
            // `{}` prints an integral `f64` without a fraction.
            let (time_s, name, value) = (seq * 10, row.name, row.value);
            let _ = writeln!(row_wise, "{time_s}.000000,{seq},{name},{labels},{value}");
        }
        reg.snapshot(seq * 10_000_000, seq);
    }
    (reg, row_wise)
}

#[test]
fn compact_snapshots_render_the_row_wise_csv() {
    let (reg, row_wise) = registry(100);
    assert_eq!(render_csv(&reg), row_wise);
}

#[test]
fn observers_allocate_by_what_they_record() {
    let path = ["interval", "engine_execute", "pages", "storage_read"];
    let mut profiler = SpanProfiler::new();
    let mut cycles = |n| {
        for _ in 0..n {
            path.iter().for_each(|name| profiler.enter(name));
            path.iter().for_each(|_| profiler.exit());
        }
    };
    cycles(1);
    assert_eq!(allocations(|| cycles(10_000)), 0);
    // A tally over a known path allocates nothing either, once the first
    // has calibrated the profiler's overhead.
    profiler.enter(path[0]);
    let mut tallies = |n| (0..n).for_each(|_| profiler.tally(&path[1..], 3, 5));
    tallies(1);
    assert_eq!(allocations(|| tallies(1_000)), 0);

    let ((mut small, _), (mut large, _)) = (registry(100), registry(1_000));
    let snapshot = |reg: &mut MetricsRegistry| allocations(|| reg.snapshot(30_000_000, 3));
    assert_eq!(snapshot(&mut small), snapshot(&mut large));
    // Ten times the rows: at most four more doublings of the output.
    let csv = |reg: &MetricsRegistry| allocations(|| drop(render_csv(reg)));
    assert!(csv(&large) <= csv(&small) + 4);
}
