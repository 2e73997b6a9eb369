//! Fig. 3 — alleviation of CPU saturation under a sinusoid load.
//!
//! §5.2: a TPC-W client emulator drives a sinusoid client population with
//! random noise; when CPU saturates, reactive provisioning allocates more
//! replicas and load balances all query classes across them; the average
//! query latency drops back below the 1 s SLA. Three panels:
//! (a) the load function, (b) the machine allocation, (c) the latency.
//!
//! Configuration notes: the paper's CPU-saturation run is not memory
//! constrained (the phenomenon under study is CPU queueing), so the
//! engines get a 512 MB pool (32768 pages) and TPC-W's CPU demands are
//! scaled up to stand in for the co-located PHP tier; once warm, latency
//! is CPU-dominated exactly as in the testbed.

use super::Observers;
use odlb_cluster::{Simulation, SimulationConfig, MEASUREMENT_INTERVAL};
use odlb_core::{Action, ClusterController};
use odlb_engine::EngineConfig;
use odlb_metrics::Sla;
use odlb_storage::DomainId;
use odlb_workload::tpcw::{tpcw_workload, TpcwConfig};
use odlb_workload::{ClientConfig, LoadFunction, WorkloadSpec};

/// Time series for the three panels.
#[derive(Clone, Debug)]
pub struct Fig3Result {
    /// (a) nominal clients per interval.
    pub load: Vec<(f64, usize)>,
    /// (b) machines allocated to TPC-W per interval.
    pub machines: Vec<(f64, usize)>,
    /// (c) average query latency (s) per interval, NaN when idle.
    pub latency: Vec<(f64, f64)>,
    /// SLA outcome per interval (true = met).
    pub sla_met: Vec<bool>,
    /// Interval index where the controller was enabled (after warm-up).
    pub control_from: usize,
    /// Every action the controller took, rendered.
    pub actions: Vec<(f64, String)>,
}

/// Multiplies a workload's CPU demands (standing in for the co-located
/// web/application tier the paper's testbed ran alongside MySQL).
pub fn scale_cpu(mut spec: WorkloadSpec, factor: u64) -> WorkloadSpec {
    for class in &mut spec.classes {
        class.cpu_base = class.cpu_base * factor;
        class.cpu_per_page = class.cpu_per_page * factor;
    }
    spec
}

/// Runs the scenario: `intervals` measurement intervals (10 s each), a
/// sinusoid between `min_clients` and `max_clients` with one full period
/// over the post-warm-up run, on a pool of `servers` machines, the driver
/// and controller observed through `observers` (the figure table,
/// `--trace`/`--metrics` and the golden-trace suite all enter here).
/// Observation-only — the result and run digest do not depend on what is
/// attached.
pub fn run_observed(
    observers: &Observers,
    intervals: usize,
    warmup_intervals: usize,
    min_clients: usize,
    max_clients: usize,
    servers: usize,
) -> Fig3Result {
    let mut sim = Simulation::new(SimulationConfig {
        seed: 3_2007,
        ..Default::default()
    });
    for _ in 0..servers {
        // Wide RAID stripe: CPU, not the disk, is the studied bottleneck.
        sim.add_server_with_disk(
            4,
            odlb_storage::DiskModel {
                positioning: odlb_sim::SimDuration::from_micros(400),
                transfer_per_page: odlb_sim::SimDuration::from_micros(30),
            },
        );
    }
    let engine = EngineConfig {
        pool_pages: 32_768,
        ..Default::default()
    };
    let inst = sim.add_instance(odlb_metrics::ServerId(0), DomainId(1), engine);
    let period = MEASUREMENT_INTERVAL * (intervals - warmup_intervals) as u64;
    let app = sim.add_app(
        scale_cpu(tpcw_workload(TpcwConfig::default()), 12),
        Sla::one_second(),
        ClientConfig::default(),
        LoadFunction::Sinusoid {
            min: min_clients,
            max: max_clients,
            period,
        },
    );
    sim.assign_replica(app, inst);
    let mut controller = observers.start(&mut sim);
    let mut result = Fig3Result {
        load: Vec::new(),
        machines: Vec::new(),
        latency: Vec::new(),
        sla_met: Vec::new(),
        control_from: warmup_intervals,
        actions: Vec::new(),
    };
    for i in 0..intervals {
        let outcome = sim.run_interval();
        let t = outcome.end.as_secs_f64();
        let nominal = min_clients
            + ((max_clients - min_clients) as f64
                * (1.0 - (2.0 * std::f64::consts::PI * t / period.as_secs_f64()).cos())
                / 2.0)
                .round() as usize;
        result.load.push((t, nominal));
        result.machines.push((t, sim.replicas_of(app).len()));
        result
            .latency
            .push((t, outcome.app_latency[&app].unwrap_or(f64::NAN)));
        result.sla_met.push(!outcome.sla[&app].is_violation());
        if i >= warmup_intervals {
            for action in controller.on_interval(&mut sim, &outcome) {
                if !matches!(action, Action::DetectedOutliers { .. }) {
                    result.actions.push((t, action.to_string()));
                }
            }
        }
    }
    observers.tracer.flush();
    result
}

/// Renders the three panels as aligned columns.
pub fn render(r: &Fig3Result) -> String {
    let mut out = String::new();
    out.push_str("Fig. 3: Alleviation of CPU Contention\n");
    out.push_str(&format!(
        "{:>8}  {:>8}  {:>9}  {:>12}  {:>4}\n",
        "time(s)", "clients", "machines", "latency(s)", "SLA"
    ));
    for i in 0..r.load.len() {
        out.push_str(&format!(
            "{:>8.0}  {:>8}  {:>9}  {:>12.3}  {:>4}\n",
            r.load[i].0,
            r.load[i].1,
            r.machines[i].1,
            r.latency[i].1,
            if r.sla_met[i] { "ok" } else { "VIOL" }
        ));
    }
    out.push_str("\nControl actions:\n");
    for (t, a) in &r.actions {
        out.push_str(&format!("  t={t:>6.0}s  {a}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provisioning_tracks_the_sine() {
        // Miniature run: 1 period over 20 intervals post-warm-up.
        let r = run_observed(&Observers::default(), 30, 10, 30, 480, 3);
        let peak = r.machines.iter().map(|&(_, m)| m).max().unwrap();
        assert!(peak >= 2, "the peak must trigger provisioning (max {peak})");
        let controlled = &r.sla_met[r.control_from..];
        let met = controlled.iter().filter(|&&m| m).count();
        assert!(
            2 * met > controlled.len(),
            "most controlled intervals should meet the SLA ({met}/{})",
            controlled.len()
        );
        // Machines at the trough end are fewer than at the peak.
        let last = r.machines.last().unwrap().1;
        assert!(
            last <= peak,
            "allocation should shrink after the peak: {last} vs {peak}"
        );
    }

    #[test]
    fn cpu_scaling_multiplies_demand() {
        let base = tpcw_workload(TpcwConfig::default());
        let scaled = scale_cpu(base.clone(), 8);
        assert_eq!(scaled.classes[0].cpu_base, base.classes[0].cpu_base * 8);
    }
}
