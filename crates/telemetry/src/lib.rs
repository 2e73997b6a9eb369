//! Runtime telemetry for the ODLB workspace: a metrics registry of
//! counters, gauges and mergeable log-linear latency histograms, two
//! exposition formats (Prometheus text, CSV time series), and a span
//! profiler quantifying controller overhead.
//!
//! The paper's controller steers on per-class, per-replica runtime
//! quantities — latencies, buffer-pool hit ratios, queue depths, disk
//! I/O — and claims its fine-grained instrumentation is cheap. This
//! crate makes both ends checkable: every emission site records into a
//! [`Telemetry`] handle that is a no-op when unattached (same discipline
//! as `Tracer::is_active` in `odlb-trace`), and the [`SpanProfiler`]
//! times each controller phase so the overhead claim is measured, not
//! asserted.
//!
//! Determinism: metric values derive only from simulation state (counts,
//! simulated microseconds), never wall-clock time, and every export
//! iterates `BTreeMap`s — so two same-seed runs produce byte-identical
//! `.prom` and `.csv` artifacts. The [`SpanProfiler`] records nested
//! span stacks in two dimensions: wall-clock timings stay on stderr
//! (flat report + wall folded dump), while the sim-unit folded dump
//! derives only from simulation state and is itself a byte-diffable
//! artifact (see [`validate_folded`]).

mod export;
mod histogram;
mod profiler;
mod registry;

pub use export::{
    render_csv, render_prometheus, validate_csv, validate_folded, validate_prometheus,
    ExpositionStats, FoldedStats,
};
pub use histogram::{LogLinearHistogram, DEFAULT_GROUPING_POWER};
pub use profiler::{
    enter_span, profile_span, span_units, PhaseStats, SharedSpanProfiler, SpanGuard, SpanProfiler,
    SpanStats,
};
pub use registry::{Counter, FamilyKind, Gauge, Histogram, MetricsRegistry, SampleRow, Snapshot};

use std::cell::RefCell;
use std::rc::Rc;

/// A cheaply clonable telemetry handle emission sites hold.
///
/// Inactive by default: every emission site guards its work with
/// [`Telemetry::is_active`], so an unattached handle costs one branch on
/// the hot path. Clones share the underlying registry (single-threaded
/// `Rc<RefCell>`, like `Tracer`).
#[derive(Clone, Default)]
pub struct Telemetry {
    registry: Option<Rc<RefCell<MetricsRegistry>>>,
}

impl Telemetry {
    /// An inactive handle: all emission is skipped.
    pub fn inactive() -> Self {
        Telemetry::default()
    }

    /// A handle attached to a fresh registry.
    pub fn attached() -> Self {
        Telemetry {
            registry: Some(Rc::new(RefCell::new(MetricsRegistry::new()))),
        }
    }

    /// Whether a registry is attached. Emission sites check this before
    /// doing any labelling or lookup work.
    pub fn is_active(&self) -> bool {
        self.registry.is_some()
    }

    /// Gets or creates a counter series. `None` when inactive.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Option<Counter> {
        self.registry
            .as_ref()
            .map(|r| r.borrow_mut().counter(name, help, labels))
    }

    /// Gets or creates a gauge series. `None` when inactive.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Option<Gauge> {
        self.registry
            .as_ref()
            .map(|r| r.borrow_mut().gauge(name, help, labels))
    }

    /// Gets or creates a histogram series. `None` when inactive.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Option<Histogram> {
        self.registry
            .as_ref()
            .map(|r| r.borrow_mut().histogram(name, help, labels))
    }

    /// Records an interval snapshot at `at_us` simulation microseconds,
    /// stamped with the interval sequence number `seq` (the same value
    /// the driver puts in its `interval_closed` trace event, so CSV rows
    /// join to decision traces). No-op when inactive.
    pub fn snapshot(&self, at_us: u64, seq: u64) {
        if let Some(r) = &self.registry {
            r.borrow_mut().snapshot(at_us, seq);
        }
    }

    /// Renders the Prometheus text exposition. `None` when inactive.
    pub fn render_prometheus(&self) -> Option<String> {
        self.registry
            .as_ref()
            .map(|r| render_prometheus(&r.borrow()))
    }

    /// Renders the CSV time series. `None` when inactive.
    pub fn render_csv(&self) -> Option<String> {
        self.registry.as_ref().map(|r| render_csv(&r.borrow()))
    }

    /// Reads through to the registry. `None` when inactive.
    pub fn with_registry<R>(&self, f: impl FnOnce(&MetricsRegistry) -> R) -> Option<R> {
        self.registry.as_ref().map(|r| f(&r.borrow()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_handle_skips_everything() {
        let t = Telemetry::inactive();
        assert!(!t.is_active());
        assert!(t.counter("c", "h", &[]).is_none());
        assert!(t.gauge("g", "h", &[]).is_none());
        assert!(t.histogram("h", "h", &[]).is_none());
        assert!(t.render_prometheus().is_none());
        assert!(t.render_csv().is_none());
        t.snapshot(0, 0); // must not panic
    }

    #[test]
    fn clones_share_the_registry() {
        let t = Telemetry::attached();
        let clone = t.clone();
        let c = clone.counter("odlb_events_total", "Events.", &[]).unwrap();
        c.add(3);
        let series = t.with_registry(|r| r.series_count()).unwrap();
        assert_eq!(series, 1);
        let prom = t.render_prometheus().unwrap();
        assert!(prom.contains("odlb_events_total 3"));
    }

    #[test]
    fn attached_exports_validate() {
        let t = Telemetry::attached();
        let h = t
            .histogram("odlb_lat_us", "Latency.", &[("class", "app0#8")])
            .unwrap();
        for v in [100u64, 200, 300_000] {
            h.record(v);
        }
        t.snapshot(10_000_000, 0);
        let prom = t.render_prometheus().unwrap();
        validate_prometheus(&prom).expect("valid exposition");
        let csv = t.render_csv().unwrap();
        validate_csv(&csv).expect("valid csv");
    }
}
