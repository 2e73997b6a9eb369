//! Interval close: per-instance reports, hierarchical aggregation, SLA
//! evaluation, server snapshots, and the `interval_closed` /
//! `sla_evaluated` trace events.

use super::{IntervalOutcome, Model, Observers, ServerSnapshot, MEASUREMENT_INTERVAL};
use crate::aggregate;
use crate::topology::InstanceId;
use odlb_sim::SimTime;
use odlb_trace::TraceEvent;
use std::collections::BTreeMap;

impl Model {
    pub(super) fn close_interval(&mut self, end: SimTime, obs: &mut Observers) -> IntervalOutcome {
        // Conservation: every dispatched query is parked exactly once
        // until its completion commits it.
        debug_assert_eq!(
            self.in_flight.live(),
            self.instances.iter().map(|i| i.outstanding).sum::<usize>(),
            "in-flight records and outstanding counts disagree"
        );
        let mut reports = BTreeMap::new();
        for (i, inst) in self.instances.iter_mut().enumerate() {
            let report = inst.engine.close_interval(end);
            reports.insert(InstanceId(i as u32), report);
        }
        // Hierarchical aggregation: one pass per instance into rack
        // partials, rack partials folded into the cluster view — instead
        // of re-walking every report once per application. With the
        // default single rack the floating-point accumulation order (and
        // thus every artifact) is identical to the flat pass.
        let mut cluster = aggregate::aggregate_cluster(&reports, self.config.rack_size);
        let mut app_latency = BTreeMap::new();
        let mut app_throughput = BTreeMap::new();
        let mut sla = BTreeMap::new();
        for app in &mut self.apps {
            let id = app.spec.app;
            let agg = cluster.remove(&id).unwrap_or_default();
            let mean_latency = agg.mean_latency();
            let had_load = app.offered_this_interval > 0;
            app.offered_this_interval = 0;
            app_latency.insert(id, mean_latency);
            app_throughput.insert(id, agg.tput);
            sla.insert(id, app.sla.evaluate(mean_latency, had_load));
        }
        let servers: Vec<ServerSnapshot> = self
            .servers
            .iter_mut()
            .map(|s| ServerSnapshot {
                cpu_utilisation: s.cpu.utilisation_since_snapshot(end),
                io_utilisation: s.io.utilisation_since_snapshot(end),
            })
            .collect();
        let interval_us = MEASUREMENT_INTERVAL.as_micros();
        let start = SimTime::from_micros(end.as_micros().saturating_sub(interval_us));
        let outcome = IntervalOutcome {
            start,
            end,
            reports,
            app_latency,
            app_throughput,
            sla,
            servers,
        };
        if obs.telemetry.is_active() {
            self.export_interval_telemetry(&outcome, obs);
        }
        if obs.tracer.is_active() {
            let reports = &outcome.reports;
            obs.tracer.emit(TraceEvent::IntervalClosed {
                seq: self.interval_seq,
                start_us: start.as_micros(),
                end_us: end.as_micros(),
                instances: reports.len() as u32,
                classes: reports.values().map(|r| r.per_class.len() as u32).sum(),
            });
            for (app, verdict) in &outcome.sla {
                obs.tracer.emit(TraceEvent::SlaEvaluated {
                    end_us: end.as_micros(),
                    app: app.0,
                    latency_s: outcome.app_latency[app],
                    throughput_qps: outcome.app_throughput[app],
                    violated: verdict.is_violation(),
                });
            }
        }
        self.interval_seq += 1;
        outcome
    }
}
