//! The paper's §7 future work, live: a write hotspot (one counter page)
//! serialises its query class after a plan regression makes each update
//! 15× slower. The same outlier machinery that finds memory interference
//! names the contended class through the per-class lock-wait metric.
//!
//! ```text
//! cargo run --release --example lock_contention
//! ```

use odlb::cluster::{Simulation, SimulationConfig};
use odlb::core::{Action, ClusterController, ControllerConfig, SelectiveRetuningController};
use odlb::engine::EngineConfig;
use odlb::metrics::{AppId, ClassId, MetricKind, Sla};
use odlb::sim::SimDuration;
use odlb::storage::DomainId;
use odlb::workload::synthetic::hotspot_write_workload;
use odlb::workload::{ClientConfig, LoadFunction};

fn main() {
    let mut sim = Simulation::new(SimulationConfig {
        seed: 61,
        ..Default::default()
    });
    let server = sim.add_server(8);
    let instance = sim.add_instance(server, DomainId(1), EngineConfig::default());
    let app = sim.add_app(
        hotspot_write_workload(AppId(0), 3),
        Sla::new(SimDuration::from_millis(10)),
        ClientConfig {
            think_time_mean: SimDuration::from_millis(200),
            load_noise: 0.0,
        },
        LoadFunction::Constant(25),
    );
    sim.assign_replica(app, instance);
    sim.start();
    let mut controller = SelectiveRetuningController::new(ControllerConfig::default());
    let idx = sim
        .workload(app)
        .class_index_by_name("CounterUpdate")
        .unwrap();
    let counter = ClassId::new(app, idx as u32);

    println!("time     latency    counter lock-wait (s/interval)");
    for i in 0..16 {
        if i == 8 {
            println!("\n-- plan regression: each CounterUpdate now takes 45 ms --\n");
            let class = sim.class_mut(app, idx);
            class.cpu_base = SimDuration::from_millis(45);
            class.cpu_per_page = SimDuration::from_micros(10);
        }
        let outcome = sim.run_interval();
        let lock_wait = outcome.reports[&instance]
            .per_class
            .get(&counter)
            .map(|v| v[MetricKind::LockWaits])
            .unwrap_or(0.0);
        println!(
            "{:>6}  {:>8}  {:>10.2}",
            outcome.end.to_string(),
            outcome.app_latency[&app]
                .map(|l| format!("{:.1}ms", l * 1000.0))
                .unwrap_or_else(|| "-".into()),
            lock_wait
        );
        for action in controller.on_interval(&mut sim, &outcome) {
            if let Action::DetectedLockContention { class, ratio, .. } = &action {
                println!("        !! diagnosis: {class} lock waits {ratio:.0}x stable state");
            }
        }
    }
}
