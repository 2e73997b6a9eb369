//! The join `explain` will rely on: the CSV time series and the decision
//! trace of one observed run meet on the interval end and its `seq`.

use odlb::telemetry::Telemetry;
use odlb::trace::{MemorySink, TraceEvent, Tracer};
use odlb_bench::experiments::{fig3, Observers};
use std::collections::BTreeSet;

#[test]
fn csv_rows_and_decision_events_join_on_interval_end_and_seq() {
    let tracer = Tracer::new();
    let events = tracer.attach(MemorySink::new());
    let telemetry = Telemetry::attached();
    let observers = Observers {
        tracer,
        telemetry: telemetry.clone(),
        profiler: None,
    };
    fig3::run_observed(&observers, 30, 10, 30, 480, 3);
    let events = events.borrow();

    // (end_us, seq) of every closed interval: seqs gap-free from 0.
    let mut closed = Vec::new();
    for event in events.events() {
        if let TraceEvent::IntervalClosed { seq, end_us, .. } = event {
            assert_eq!(*seq, closed.len() as u64, "seq gap");
            closed.push((*end_us, *seq));
        }
    }
    assert_eq!(closed.len(), 30, "one interval_closed per interval");
    let ends: BTreeSet<u64> = closed.iter().map(|(end, _)| *end).collect();

    // Every decision event is stamped with some closed interval's end.
    let mut decisions = 0;
    for event in events.events() {
        let end_us = match event {
            TraceEvent::SlaEvaluated { end_us, .. }
            | TraceEvent::OutlierFinding { end_us, .. }
            | TraceEvent::MrcValidation { end_us, .. }
            | TraceEvent::ActionApplied { end_us, .. } => end_us,
            _ => continue,
        };
        assert!(ends.contains(end_us), "{event:?} joins no interval");
        decisions += 1;
    }
    assert!(decisions > closed.len(), "SLA verdicts plus actions");

    // Every CSV row carries a closed interval's (time, seq) — and every
    // closed interval has rows.
    let csv = telemetry.render_csv().expect("attached");
    let mut joined = BTreeSet::new();
    for row in csv.lines().skip(1) {
        let mut fields = row.split(',');
        let time_s: f64 = fields.next().unwrap().parse().unwrap();
        let seq: u64 = fields.next().unwrap().parse().unwrap();
        let key = ((time_s * 1e6).round() as u64, seq);
        assert!(closed.contains(&key), "row '{row}' joins no interval");
        joined.insert(key);
    }
    assert_eq!(joined.len(), closed.len());
}
