//! Telemetry export at interval close: the one module that names the
//! cluster's `odlb_*` series (type, labels and source accessor of each:
//! DESIGN.md, "Runtime telemetry"). Engines, pools and I/O paths expose
//! plain state; everything here reads it and the closed
//! [`IntervalOutcome`].

use super::{IntervalOutcome, Simulation};
use crate::topology::InstanceId;
use odlb_metrics::{AppId, ClassId, MetricKind, ServerId};
use odlb_telemetry::{Counter, Histogram, LogLinearHistogram, Telemetry};
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

/// Cached handles of one (instance, class)'s series: the registry lookup
/// is paid on the class's first interval on that instance, every later
/// close adds through the shared handles.
pub(super) struct ClassSeries {
    latency: Histogram,
    queries: Counter,
    /// One per [`CLASS_COUNTERS`] row.
    counters: [Counter; 4],
}

impl ClassSeries {
    fn register(t: &Telemetry, instance: &str, class: ClassId) -> Self {
        let class = class.to_string();
        let labels = [("class", class.as_str()), ("instance", instance)];
        let counter = |name, help| t.counter(name, help, &labels).expect("active");
        ClassSeries {
            latency: t
                .histogram(
                    "odlb_query_latency_us",
                    "Per-query latency by class (simulated microseconds).",
                    &labels,
                )
                .expect("active"),
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
        let gauge = |name: &str, help: &str, labels: &[(&str, &str)], v: f64| {
            t.gauge(name, help, labels).expect("active").set(v)
        };
        // Sources that already accumulate (pool evictions, per-domain I/O).
        let total = |name: &str, help: &str, labels: &[(&str, &str)], v: u64| {
            t.counter(name, help, labels).expect("active").set_total(v)
        };
        for (i, inst) in self.instances.iter().enumerate() {
            let id = InstanceId(i as u32);
            let instance = id.to_string();
            let labels = [("instance", instance.as_str())];
            gauge(
                "odlb_instance_queue_depth",
                "Outstanding queries on a database instance.",
                &labels,
                inst.outstanding as f64,
            );
            gauge(
                "odlb_instance_ready",
                "Whether an instance is serving traffic (1) or provisioning/retired (0).",
                &labels,
                if inst.ready { 1.0 } else { 0.0 },
            );
            let pool = inst.engine.pool();
            total(
                "odlb_pool_evictions_total",
                "Pages evicted by capacity pressure across all partitions.",
                &labels,
                pool.evictions(),
            );
            for (class, capacity, resident) in pool.partitions() {
                let partition = class.map_or("general".to_string(), |c| c.to_string());
                let labels = [labels[0], ("partition", partition.as_str())];
                gauge(
                    "odlb_pool_pages",
                    "Configured buffer-pool partition capacity (16 KiB pages).",
                    &labels,
                    capacity as f64,
                );
                gauge(
                    "odlb_pool_resident_pages",
                    "Resident pages in a buffer-pool partition.",
                    &labels,
                    resident as f64,
                );
            }
            // The collector is the one place queries are accounted; the
            // registry adds its interval totals.
            let report = &outcome.reports[&id];
            for (class, v) in &report.per_class {
                let series = self
                    .class_series
                    .entry((id, *class))
                    .or_insert_with(|| ClassSeries::register(t, &instance, *class));
                let latency = &report.latency_histograms[class];
                series.latency.merge(latency);
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
            tails
                .entry(class.app)
                .or_insert_with(|| LogLinearHistogram::new(hist.grouping_power()))
                .merge(hist);
        }
        for app in &self.apps {
            let key = app.spec.app;
            let id = key.to_string();
            let labels = [("app", id.as_str())];
            if let Some(latency) = outcome.app_latency[&key] {
                gauge(
                    "odlb_app_latency_seconds",
                    "Mean query latency over the closed interval.",
                    &labels,
                    latency,
                );
            }
            if let Some(p95) = tails.get(&key).and_then(|h| h.quantile(0.95)) {
                gauge(
                    "odlb_app_latency_p95_us",
                    "95th-percentile query latency over the closed interval \
                     (simulated microseconds, histogram-estimated).",
                    &labels,
                    p95 as f64,
                );
            }
            gauge(
                "odlb_app_throughput_qps",
                "Queries per second over the closed interval.",
                &labels,
                outcome.app_throughput[&key],
            );
            gauge(
                "odlb_app_clients",
                "Active closed-loop clients.",
                &labels,
                app.active_clients as f64,
            );
            let violations = t.counter(
                "odlb_sla_violations_total",
                "Measurement intervals that violated the application's SLA.",
                &labels,
            );
            if outcome.sla[&key].is_violation() {
                violations.expect("active").inc();
            }
        }
        for (i, (state, snap)) in self.servers.iter().zip(&outcome.servers).enumerate() {
            let server = ServerId(i as u32).to_string();
            let labels = [("server", server.as_str())];
            gauge(
                "odlb_server_cpu_utilisation",
                "CPU utilisation over the closed interval (0-1).",
                &labels,
                snap.cpu_utilisation,
            );
            gauge(
                "odlb_server_io_utilisation",
                "Domain-0 disk utilisation over the closed interval (0-1).",
                &labels,
                snap.io_utilisation,
            );
            for (domain, io) in state.io.domain_counters() {
                let domain = domain.0.to_string();
                let labels = [("domain", domain.as_str()), ("machine", server.as_str())];
                total(
                    "odlb_io_requests_total",
                    "Disk read requests issued by a VM domain.",
                    &labels,
                    io.requests,
                );
                total(
                    "odlb_io_pages_total",
                    "Pages read from disk by a VM domain.",
                    &labels,
                    io.pages,
                );
                total(
                    "odlb_io_readahead_requests_total",
                    "Asynchronous read-ahead requests issued by a VM domain.",
                    &labels,
                    io.readahead_requests,
                );
            }
        }
        // Cluster-wide per-class latency distribution: each replica's
        // cumulative histogram merged (the paper's SLA is stated against
        // the class, not any one replica). Rebuilt every interval via
        // `replace` — monotone because the inputs are cumulative and
        // retired instances keep their series.
        let mut merged: BTreeMap<ClassId, LogLinearHistogram> = BTreeMap::new();
        for ((_, class), series) in &self.class_series {
            series.latency.with(|src| {
                merged
                    .entry(*class)
                    .or_insert_with(|| LogLinearHistogram::new(src.grouping_power()))
                    .merge(src)
            });
        }
        for (class, hist) in merged {
            let label = class.to_string();
            let series = t.histogram(
                "odlb_cluster_query_latency_us",
                "Cluster-wide per-class latency, merged across replicas (simulated microseconds).",
                &[("class", label.as_str())],
            );
            series.expect("active").replace(hist);
        }
        // Stamped with the seq `close_interval` puts in its
        // `interval_closed` trace event (the increment happens after this
        // call), so CSV rows join to decision traces.
        t.snapshot(outcome.end.as_micros(), self.interval_seq);
    }
}
