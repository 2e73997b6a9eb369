//! Telemetry export at interval close.

use super::{ServerSnapshot, Simulation};
use crate::topology::InstanceId;
use odlb_metrics::{AppId, ClassId, ServerId, SlaOutcome};
use odlb_sim::SimTime;
use odlb_telemetry::LogLinearHistogram;
use std::collections::BTreeMap;

impl Simulation {
    /// Cluster-level export at interval close: queue depths, per-app
    /// aggregates, per-server utilisation and I/O counters — then one
    /// registry snapshot stamped with the interval end, so the CSV time
    /// series aligns with the controller's decision points.
    pub(super) fn export_interval_telemetry(
        &mut self,
        end: SimTime,
        app_latency: &BTreeMap<AppId, Option<f64>>,
        app_throughput: &BTreeMap<AppId, f64>,
        app_p95: &BTreeMap<AppId, Option<u64>>,
        sla: &BTreeMap<AppId, SlaOutcome>,
        servers: &[ServerSnapshot],
    ) {
        let t = &self.telemetry;
        for (i, inst) in self.instances.iter().enumerate() {
            let instance = InstanceId(i as u32).to_string();
            let labels = [("instance", instance.as_str())];
            if let Some(g) = t.gauge(
                "odlb_instance_queue_depth",
                "Outstanding queries on a database instance.",
                &labels,
            ) {
                g.set(inst.outstanding as f64);
            }
            if let Some(g) = t.gauge(
                "odlb_instance_ready",
                "Whether an instance is serving traffic (1) or provisioning/retired (0).",
                &labels,
            ) {
                g.set(if inst.ready { 1.0 } else { 0.0 });
            }
        }
        for app in &self.apps {
            let id = app.spec.app.to_string();
            let labels = [("app", id.as_str())];
            if let Some(latency) = app_latency[&app.spec.app] {
                if let Some(g) = t.gauge(
                    "odlb_app_latency_seconds",
                    "Mean query latency over the closed interval.",
                    &labels,
                ) {
                    g.set(latency);
                }
            }
            if let Some(p95) = app_p95[&app.spec.app] {
                if let Some(g) = t.gauge(
                    "odlb_app_latency_p95_us",
                    "95th-percentile query latency over the closed interval \
                     (simulated microseconds, histogram-estimated).",
                    &labels,
                ) {
                    g.set(p95 as f64);
                }
            }
            if let Some(g) = t.gauge(
                "odlb_app_throughput_qps",
                "Queries per second over the closed interval.",
                &labels,
            ) {
                g.set(app_throughput[&app.spec.app]);
            }
            if let Some(g) = t.gauge("odlb_app_clients", "Active closed-loop clients.", &labels) {
                g.set(app.active_clients as f64);
            }
            if let Some(c) = t.counter(
                "odlb_sla_violations_total",
                "Measurement intervals that violated the application's SLA.",
                &labels,
            ) {
                if sla[&app.spec.app].is_violation() {
                    c.inc();
                }
            }
        }
        for (i, (state, snap)) in self.servers.iter().zip(servers).enumerate() {
            let server = ServerId(i as u32).to_string();
            let labels = [("server", server.as_str())];
            if let Some(g) = t.gauge(
                "odlb_server_cpu_utilisation",
                "CPU utilisation over the closed interval (0-1).",
                &labels,
            ) {
                g.set(snap.cpu_utilisation);
            }
            if let Some(g) = t.gauge(
                "odlb_server_io_utilisation",
                "Domain-0 disk utilisation over the closed interval (0-1).",
                &labels,
            ) {
                g.set(snap.io_utilisation);
            }
            state.io.export_telemetry(t, &server);
        }
        // Cluster-wide per-class latency distribution: merge each
        // replica's cumulative histogram (the paper's SLA is stated
        // against the class, not any one replica). Rebuilt from scratch
        // every interval via `replace` — monotone because the inputs
        // are cumulative and retired instances keep their engines.
        let mut merged: BTreeMap<ClassId, LogLinearHistogram> = BTreeMap::new();
        for inst in &self.instances {
            for (class, h) in inst.engine.class_latency_histograms() {
                h.with(|src| {
                    merged
                        .entry(class)
                        .or_insert_with(|| LogLinearHistogram::new(src.grouping_power()))
                        .merge(src)
                });
            }
        }
        for (class, hist) in merged {
            let label = class.to_string();
            if let Some(h) = t.histogram(
                "odlb_cluster_query_latency_us",
                "Cluster-wide per-class latency, merged across replicas (simulated microseconds).",
                &[("class", label.as_str())],
            ) {
                h.replace(hist);
            }
        }
        // Stamp the snapshot with the same seq `close_interval` puts in
        // its `interval_closed` trace event (the increment happens after
        // this call), so CSV rows join to decision traces.
        t.snapshot(end.as_micros(), self.interval_seq);
    }
}
