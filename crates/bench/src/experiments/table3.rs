//! Table 3 — I/O contention among VM domains (§5.5).
//!
//! Two RUBiS instances run in two Xen domains on one physical machine.
//! VMs isolate faults, memory and (here) CPU, but both domains' block I/O
//! funnels through the shared domain-0 back-end — so two I/O-intensive
//! tenants collapse each other (paper: 97 WIPS → 30 WIPS, 1.5 s → 4.8 s).
//! Removing the single heaviest query context (SearchItemsByRegion, 87%
//! of the I/O accesses) from domain 2 restores domain 1 almost to
//! baseline.
//!
//! The paper performed this removal manually after inspecting the logs
//! ("our current techniques do not allow us to automate the diagnosis of
//! this case"); the harness does the same, and reports the per-class I/O
//! shares that justify the choice.

use odlb_cluster::{Simulation, SimulationConfig, MEASUREMENT_INTERVAL};
use odlb_engine::EngineConfig;
use odlb_metrics::{AppId, MetricKind, Sla};
use odlb_sim::SimTime;
use odlb_storage::DomainId;
use odlb_workload::rubis::{rubis_workload, RubisConfig, SEARCH_ITEMS_BY_REGION};
use odlb_workload::{ClientConfig, LoadFunction};

/// One row of Table 3 (application 1's view, the domain-1 tenant).
#[derive(Clone, Copy, Debug)]
pub struct Table3Row {
    /// Mean latency (s).
    pub latency_s: f64,
    /// Throughput (q/s).
    pub throughput: f64,
}

/// The scenario's three placements.
#[derive(Clone, Debug)]
pub struct Table3Result {
    /// RUBiS in domain 1, domain 2 idle.
    pub baseline: Table3Row,
    /// RUBiS in both domains (worst interval).
    pub contended: Table3Row,
    /// Domain 2 without SearchItemsByRegion.
    pub after_removal: Table3Row,
    /// SearchItemsByRegion's share of domain-2's I/O page traffic before
    /// the removal (paper: 0.87).
    pub sibr_io_share: f64,
    /// Domain-0 disk utilisation during contention.
    pub contended_io_utilisation: f64,
}

/// Runs the scenario; phases in 10 s intervals.
pub fn run(
    clients: usize,
    baseline_intervals: usize,
    contended_intervals: usize,
    recovery_intervals: usize,
) -> Table3Result {
    let mut sim = Simulation::new(SimulationConfig {
        seed: 3_3007,
        ..Default::default()
    });
    let server = sim.add_server(4);
    // Two database instances in two VM domains on one machine: separate
    // pools, separate CPU shares (the station has cores to spare), shared
    // domain-0 I/O path.
    let inst1 = sim.add_instance(server, DomainId(1), EngineConfig::default());
    let inst2 = sim.add_instance(server, DomainId(2), EngineConfig::default());
    let app1 = sim.add_app(
        rubis_workload(RubisConfig {
            app: AppId(0),
            ..Default::default()
        }),
        Sla::one_second(),
        ClientConfig::default(),
        LoadFunction::Constant(clients),
    );
    let join_at = SimTime::ZERO + MEASUREMENT_INTERVAL * baseline_intervals as u64;
    let app2 = sim.add_app(
        rubis_workload(RubisConfig {
            app: AppId(1),
            ..Default::default()
        }),
        Sla::one_second(),
        ClientConfig::default(),
        LoadFunction::Step {
            before: 0,
            after: clients,
            at: join_at,
        },
    );
    sim.assign_replica(app1, inst1);
    sim.assign_replica(app2, inst2);
    sim.start();

    let row = |outcome: &odlb_cluster::IntervalOutcome| Table3Row {
        latency_s: outcome.app_latency[&app1].unwrap_or(f64::NAN),
        throughput: outcome.app_throughput[&app1],
    };

    let mut result = Table3Result {
        baseline: Table3Row {
            latency_s: f64::NAN,
            throughput: 0.0,
        },
        contended: Table3Row {
            latency_s: 0.0,
            throughput: f64::INFINITY,
        },
        after_removal: Table3Row {
            latency_s: f64::NAN,
            throughput: 0.0,
        },
        sibr_io_share: 0.0,
        contended_io_utilisation: 0.0,
    };

    for _ in 0..baseline_intervals {
        let outcome = sim.run_interval();
        if outcome.app_latency[&app1].is_some() {
            result.baseline = row(&outcome);
        }
    }

    for _ in 0..contended_intervals {
        let outcome = sim.run_interval();
        if let Some(lat) = outcome.app_latency[&app1] {
            if lat > result.contended.latency_s {
                result.contended = row(&outcome);
                result.contended_io_utilisation = outcome.servers[0].io_utilisation;
            }
        }
        // Administrator's-eye diagnosis: per-class I/O traffic on domain
        // 2, in transferred pages (a read-ahead request carries a whole
        // 64-page extent, so requests alone understate scan traffic).
        let pages_of = |v: &odlb_metrics::MetricVector| {
            v[MetricKind::IoRequests] + 63.0 * v[MetricKind::ReadAheads]
        };
        let report2 = &outcome.reports[&inst2];
        let total_io: f64 = report2.per_class.values().map(pages_of).sum();
        if total_io > 0.0 {
            let sibr = odlb_metrics::ClassId::new(AppId(1), SEARCH_ITEMS_BY_REGION as u32);
            let sibr_io = report2.per_class.get(&sibr).map(pages_of).unwrap_or(0.0);
            result.sibr_io_share = sibr_io / total_io;
        }
    }

    // The remedy: remove the heaviest I/O context from domain 2, exactly
    // the paper's third row ("RUBiS-1").
    sim.set_class_weight(app2, SEARCH_ITEMS_BY_REGION, 0.0);
    for _ in 0..recovery_intervals {
        let outcome = sim.run_interval();
        if outcome.app_latency[&app1].is_some() {
            result.after_removal = row(&outcome);
        }
    }
    result
}

/// Renders the table in the paper's layout.
/// The paper-scale run as a self-contained figure job: returns the
/// rendered table the experiments suite prints.
pub fn figure() -> String {
    render(&run(40, 8, 8, 10))
}

pub fn render(r: &Table3Result) -> String {
    let mut out = String::new();
    out.push_str("Table 3: Effect of I/O contention among different domains\n\n");
    out.push_str(&format!(
        "{:<34}{:>12}{:>16}\n",
        "Placement (domain-1 / domain-2)", "Latency (s)", "Tput (q/s)"
    ));
    let line = |label: &str, row: &Table3Row| {
        format!(
            "{:<34}{:>12.2}{:>16.2}\n",
            label, row.latency_s, row.throughput
        )
    };
    out.push_str(&line("RUBiS / IDLE", &r.baseline));
    out.push_str(&line("RUBiS / RUBiS", &r.contended));
    out.push_str(&line("RUBiS / RUBiS-1", &r.after_removal));
    out.push_str(&format!(
        "\nDiagnosis: domain-0 disk utilisation {:.0}% under contention;\n\
         SearchItemsByRegion contributes {:.0}% of domain-2's I/O page traffic\n\
         (paper: 87%), so it is the first context removed.\n",
        r.contended_io_utilisation * 100.0,
        r.sibr_io_share * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_contention_collapse_and_recovery() {
        let r = run(40, 6, 6, 8);
        assert!(
            r.contended.latency_s > r.baseline.latency_s * 2.0,
            "contention must hurt: {:.2}s -> {:.2}s",
            r.baseline.latency_s,
            r.contended.latency_s
        );
        assert!(
            r.sibr_io_share > 0.5,
            "SearchItemsByRegion dominates I/O ({:.2})",
            r.sibr_io_share
        );
        assert!(
            r.after_removal.latency_s < r.contended.latency_s / 1.5,
            "removal must recover: {:.2}s vs {:.2}s",
            r.after_removal.latency_s,
            r.contended.latency_s
        );
    }
}
