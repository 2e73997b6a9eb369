//! Telemetry export at interval close: the one module that names the
//! cluster's `odlb_*` series (type, labels and source accessor of each:
//! DESIGN.md, "Runtime telemetry"). Engines, pools and I/O paths expose
//! plain state; everything here reads it and the closed
//! [`IntervalOutcome`], except each completed query's latency, which the
//! driver hands to [`SeriesCache::record_latency`] while telemetry is
//! attached.

use super::{IntervalOutcome, Model, Observers};
use crate::topology::InstanceId;
use odlb_metrics::{ClassId, MetricKind, ServerId};
use odlb_sim::SimDuration;
use odlb_telemetry::{Counter, Gauge, Histogram, LogLinearHistogram, Telemetry};
use std::collections::BTreeMap;

/// The per-(instance, class) counters fed from an interval report's
/// metric vector: name, help, source metric.
const CLASS_COUNTERS: [(&str, &str, MetricKind); 4] = [
    (
        "odlb_page_accesses_total",
        "Buffer-pool page accesses.",
        MetricKind::PageAccesses,
    ),
    (
        "odlb_buffer_misses_total",
        "Page accesses that required a disk read.",
        MetricKind::BufferMisses,
    ),
    (
        "odlb_query_io_requests_total",
        "Disk requests issued on behalf of queries.",
        MetricKind::IoRequests,
    ),
    (
        "odlb_readaheads_total",
        "Read-ahead extents triggered by queries.",
        MetricKind::ReadAheads,
    ),
];

/// The exporter's handle cache: a series' registry lookup is paid the
/// first time it is written, later writes go through the handle.
#[derive(Default)]
pub(super) struct SeriesCache {
    /// The series of each class on each instance, indexed by instance,
    /// app index and template: a completed query finds its histograms in
    /// three `Vec` indexings, no search.
    classes: Vec<Vec<Vec<Option<ClassSeries>>>>,
    /// Each app's latency distribution over the open interval, indexed
    /// by app, for its p95 gauge; reset in place at close, so its buffer
    /// is reused.
    tails: Vec<LogLinearHistogram>,
    /// Every per-instance, per-app and per-server series.
    gauges: BTreeMap<SeriesKey, Gauge>,
    counters: BTreeMap<SeriesKey, Counter>,
}

/// A series' name, its instance, app or server number, and its partition
/// class or VM domain, if any.
type SeriesKey = (&'static str, u32, Option<u64>);

/// Cached handles of one (instance, class)'s series.
struct ClassSeries {
    latency: Histogram,
    /// The class's cluster-wide distribution (the paper's SLA is stated
    /// against the class): every replica, retired ones too, folds into it.
    cluster: Histogram,
    queries: Counter,
    /// One per [`CLASS_COUNTERS`] row.
    counters: [Counter; 4],
}

/// The element at `index`, growing `v` with defaults to reach it.
fn slot<T: Default>(v: &mut Vec<T>, index: usize) -> &mut T {
    if index >= v.len() {
        v.resize_with(index + 1, T::default);
    }
    &mut v[index]
}

impl SeriesCache {
    /// Records a completed query's latency (simulated microseconds) in
    /// its (instance, class)'s series, its class's cluster-wide series
    /// and its app's interval tail; `app` is the class's index in the app
    /// list. Registers the class's series on its first query.
    pub(super) fn record_latency(
        &mut self,
        t: &Telemetry,
        instance: u32,
        app: u16,
        class: ClassId,
        latency: SimDuration,
    ) {
        let apps = slot(&mut self.classes, instance as usize);
        let register = || ClassSeries::register(t, &InstanceId(instance).to_string(), class);
        let series = slot(slot(apps, usize::from(app)), class.template as usize)
            .get_or_insert_with(register);
        let us = latency.as_micros();
        series.latency.record(us);
        series.cluster.record(us);
        slot(&mut self.tails, usize::from(app)).record(us);
    }
}

impl ClassSeries {
    fn register(t: &Telemetry, instance: &str, class: ClassId) -> Self {
        let class = class.to_string();
        let labels = [("class", class.as_str()), ("instance", instance)];
        let counter = |name, help| t.counter(name, help, &labels).expect("active");
        let histogram = |name, help, labels| t.histogram(name, help, labels).expect("active");
        ClassSeries {
            latency: histogram(
                "odlb_query_latency_us",
                "Per-query latency by class (simulated microseconds).",
                &labels,
            ),
            cluster: histogram(
                "odlb_cluster_query_latency_us",
                "Cluster-wide per-class latency, merged across replicas (simulated microseconds).",
                &labels[..1],
            ),
            queries: counter("odlb_queries_total", "Queries completed."),
            counters: CLASS_COUNTERS.map(|(name, help, _)| counter(name, help)),
        }
    }
}

impl Model {
    /// Writes every series for the interval `outcome` closes, then one
    /// registry snapshot stamped with the interval end, so the CSV time
    /// series aligns with the controller's decision points. Called only
    /// with telemetry attached.
    pub(super) fn export_interval_telemetry(&self, outcome: &IntervalOutcome, obs: &mut Observers) {
        let t = &obs.telemetry;
        let cache: &mut SeriesCache = &mut obs.series;
        let mut gauge = |key: SeriesKey, help: &str, labels: &[(&str, &str)], v: f64| {
            let register = || t.gauge(key.0, help, labels).expect("active");
            cache.gauges.entry(key).or_insert_with(register).set(v)
        };
        let mut counter = |key: SeriesKey, help: &str, labels: &[(&str, &str)]| {
            let register = || t.counter(key.0, help, labels).expect("active");
            cache.counters.entry(key).or_insert_with(register).clone()
        };
        for (i, inst) in self.instances.iter().enumerate() {
            let id = InstanceId(i as u32);
            let instance = id.to_string();
            let labels = [("instance", instance.as_str())];
            gauge(
                ("odlb_instance_queue_depth", id.0, None),
                "Outstanding queries on a database instance.",
                &labels,
                inst.outstanding as f64,
            );
            gauge(
                ("odlb_instance_ready", id.0, None),
                "Whether an instance is serving traffic (1) or provisioning/retired (0).",
                &labels,
                if inst.ready { 1.0 } else { 0.0 },
            );
            let pool = inst.engine.pool();
            // Sources that already accumulate (pool evictions, per-domain I/O).
            counter(
                ("odlb_pool_evictions_total", id.0, None),
                "Pages evicted by capacity pressure across all partitions.",
                &labels,
            )
            .set_total(pool.evictions());
            for (class, capacity, resident) in pool.partitions() {
                let partition = class.map_or("general".to_string(), |c| c.to_string());
                let labels = [labels[0], ("partition", partition.as_str())];
                gauge(
                    ("odlb_pool_pages", id.0, class.map(ClassId::as_u64)),
                    "Configured buffer-pool partition capacity (16 KiB pages).",
                    &labels,
                    capacity as f64,
                );
                gauge(
                    ("odlb_pool_resident_pages", id.0, class.map(ClassId::as_u64)),
                    "Resident pages in a buffer-pool partition.",
                    &labels,
                    resident as f64,
                );
            }
            // The collector is the one place query counters are
            // accounted; the registry adds its interval totals. Latencies
            // were recorded as queries completed, so a reported class has
            // its series: both take every query completed in the interval.
            let report = &outcome.reports[&id];
            for (class, v) in &report.per_class {
                let app = self.apps.iter().position(|a| a.spec.app == class.app);
                let app = app.expect("a reported class belongs to an app");
                let series = cache.classes[i][app][class.template as usize].as_ref();
                let series = series.expect("a reported class completed a query");
                let queries = series.latency.with(LogLinearHistogram::count);
                series.queries.set_total(queries);
                for (counter, (_, _, kind)) in series.counters.iter().zip(CLASS_COUNTERS) {
                    counter.add(v[kind] as u64);
                }
            }
        }
        for (a, app) in self.apps.iter().enumerate() {
            let key = app.spec.app;
            let id = key.to_string();
            let labels = [("app", id.as_str())];
            if let Some(latency) = outcome.app_latency[&key] {
                gauge(
                    ("odlb_app_latency_seconds", key.0, None),
                    "Mean query latency over the closed interval.",
                    &labels,
                    latency,
                );
            }
            let tail = slot(&mut cache.tails, a);
            if let Some(p95) = tail.quantile(0.95) {
                gauge(
                    ("odlb_app_latency_p95_us", key.0, None),
                    "95th-percentile query latency over the closed interval \
                     (simulated microseconds, histogram-estimated).",
                    &labels,
                    p95 as f64,
                );
            }
            tail.reset();
            gauge(
                ("odlb_app_throughput_qps", key.0, None),
                "Queries per second over the closed interval.",
                &labels,
                outcome.app_throughput[&key],
            );
            gauge(
                ("odlb_app_clients", key.0, None),
                "Active closed-loop clients.",
                &labels,
                app.active_clients as f64,
            );
            let violations = counter(
                ("odlb_sla_violations_total", key.0, None),
                "Measurement intervals that violated the application's SLA.",
                &labels,
            );
            if outcome.sla[&key].is_violation() {
                violations.inc();
            }
        }
        for (i, (state, snap)) in self.servers.iter().zip(&outcome.servers).enumerate() {
            let server = ServerId(i as u32).to_string();
            let labels = [("server", server.as_str())];
            gauge(
                ("odlb_server_cpu_utilisation", i as u32, None),
                "CPU utilisation over the closed interval (0-1).",
                &labels,
                snap.cpu_utilisation,
            );
            gauge(
                ("odlb_server_io_utilisation", i as u32, None),
                "Domain-0 disk utilisation over the closed interval (0-1).",
                &labels,
                snap.io_utilisation,
            );
            for (domain, io) in state.io.domain_counters() {
                let sub = Some(u64::from(domain.0));
                let domain = domain.0.to_string();
                let labels = [("domain", domain.as_str()), ("machine", server.as_str())];
                counter(
                    ("odlb_io_requests_total", i as u32, sub),
                    "Disk read requests issued by a VM domain.",
                    &labels,
                )
                .set_total(io.requests);
                counter(
                    ("odlb_io_pages_total", i as u32, sub),
                    "Pages read from disk by a VM domain.",
                    &labels,
                )
                .set_total(io.pages);
                counter(
                    ("odlb_io_readahead_requests_total", i as u32, sub),
                    "Asynchronous read-ahead requests issued by a VM domain.",
                    &labels,
                )
                .set_total(io.readahead_requests);
            }
        }
        // Stamped with the seq `close_interval` puts in its
        // `interval_closed` trace event (the increment happens after this
        // call), so CSV rows join to decision traces.
        t.snapshot(outcome.end.as_micros(), self.interval_seq);
    }
}
