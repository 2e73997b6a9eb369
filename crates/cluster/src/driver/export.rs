//! Telemetry export at interval close: the one module that names the
//! cluster's `odlb_*` series (type, labels and source accessor of each:
//! DESIGN.md, "Runtime telemetry"). Engines, pools and I/O paths expose
//! plain state; everything here reads it and the closed
//! [`IntervalOutcome`].

use super::{IntervalOutcome, Simulation};
use crate::topology::InstanceId;
use odlb_metrics::{AppId, ClassId, MetricKind, ServerId};
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
/// first interval it is written, later closes write through the handle.
#[derive(Default)]
pub(super) struct SeriesCache {
    classes: BTreeMap<(InstanceId, ClassId), ClassSeries>,
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

impl Simulation {
    /// Writes every series for the interval `outcome` closes, then one
    /// registry snapshot stamped with the interval end, so the CSV time
    /// series aligns with the controller's decision points. Called only
    /// with telemetry attached.
    pub(super) fn export_interval_telemetry(&mut self, outcome: &IntervalOutcome) {
        let t = &self.telemetry;
        let cache: &mut SeriesCache = &mut self.series;
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
            // The collector is the one place queries are accounted; the
            // registry adds its interval totals.
            let report = &outcome.reports[&id];
            for (class, v) in &report.per_class {
                let series = cache
                    .classes
                    .entry((id, *class))
                    .or_insert_with(|| ClassSeries::register(t, &instance, *class));
                let latency = &report.latency_histograms[class];
                series.latency.merge(latency);
                series.cluster.merge(latency);
                series.queries.add(latency.count());
                for (counter, (_, _, kind)) in series.counters.iter().zip(CLASS_COUNTERS) {
                    counter.add(v[kind] as u64);
                }
            }
        }
        // Interval tail latency per app: the flat merge of its classes'
        // interval histograms across instances (integer bucket sums, so
        // independent of any rack grouping).
        let mut tails: BTreeMap<AppId, LogLinearHistogram> = BTreeMap::new();
        for (class, hist) in outcome.reports.values().flat_map(|r| &r.latency_histograms) {
            tails.entry(class.app).or_default().merge(hist);
        }
        for app in &self.apps {
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
            if let Some(p95) = tails.get(&key).and_then(|h| h.quantile(0.95)) {
                gauge(
                    ("odlb_app_latency_p95_us", key.0, None),
                    "95th-percentile query latency over the closed interval \
                     (simulated microseconds, histogram-estimated).",
                    &labels,
                    p95 as f64,
                );
            }
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
