//! End-to-end integration scenarios across all crates: miniature versions
//! of the paper's evaluation flows, driven through the public facade.

use odlb::cluster::{Simulation, SimulationConfig};
use odlb::core::{Action, ClusterController, ControllerConfig, SelectiveRetuningController};
use odlb::engine::EngineConfig;
use odlb::metrics::{AppId, ClassId, MetricKind, Sla};
use odlb::sim::SimTime;
use odlb::storage::DomainId;
use odlb::workload::rubis::{rubis_workload, RubisConfig, SEARCH_ITEMS_BY_REGION};
use odlb::workload::tpcw::{bestseller_pattern, tpcw_workload, TpcwConfig, BESTSELLER};
use odlb::workload::{ClientConfig, LoadFunction};

fn tpcw_sim(clients: usize, seed: u64) -> (Simulation, AppId) {
    let mut sim = Simulation::new(SimulationConfig {
        seed,
        ..Default::default()
    });
    let server = sim.add_server(4);
    sim.add_server(4);
    let inst = sim.add_instance(server, DomainId(1), EngineConfig::default());
    let app = sim.add_app(
        tpcw_workload(TpcwConfig::default()),
        Sla::one_second(),
        ClientConfig::default(),
        LoadFunction::Constant(clients),
    );
    sim.assign_replica(app, inst);
    sim.start();
    (sim, app)
}

#[test]
fn stable_tpcw_meets_sla_and_builds_signatures() {
    let (mut sim, app) = tpcw_sim(20, 11);
    let mut controller = SelectiveRetuningController::new(ControllerConfig::default());
    let mut met = 0;
    for _ in 0..8 {
        let outcome = sim.run_interval();
        controller.on_interval(&mut sim, &outcome);
        if !outcome.sla[&app].is_violation() {
            met += 1;
        }
    }
    assert!(met >= 6, "mostly stable, got {met}/8");
    // All active classes have signatures with MRC parameters.
    let with_mrc = sim
        .workload(app)
        .class_ids()
        .iter()
        .filter(|&&c| {
            controller
                .stable_store()
                .get(
                    odlb::core::memory::instance_key(odlb::cluster::InstanceId(0)),
                    c,
                )
                .is_some_and(|s| s.mrc.is_some())
        })
        .count();
    assert!(with_mrc >= 10, "initial MRCs recorded, got {with_mrc}");
}

#[test]
fn full_simulation_is_deterministic() {
    let run = || {
        let (mut sim, app) = tpcw_sim(25, 99);
        let mut controller = SelectiveRetuningController::new(ControllerConfig::default());
        let mut trace = Vec::new();
        for _ in 0..6 {
            let outcome = sim.run_interval();
            let actions = controller.on_interval(&mut sim, &outcome);
            trace.push((
                outcome.app_latency[&app],
                outcome.app_throughput[&app].to_bits(),
                actions.len(),
            ));
        }
        trace
    };
    assert_eq!(run(), run());
}

#[test]
fn index_drop_triggers_detection_and_memory_action() {
    let (mut sim, app) = tpcw_sim(50, 4_2007);
    let mut controller = SelectiveRetuningController::new(ControllerConfig::default());
    for _ in 0..10 {
        let outcome = sim.run_interval();
        controller.on_interval(&mut sim, &outcome);
    }
    sim.class_mut(app, BESTSELLER).pattern = bestseller_pattern(false);
    let bs = ClassId::new(app, BESTSELLER as u32);
    let mut detected_bs = false;
    let mut acted_on_bs = false;
    for _ in 0..8 {
        let outcome = sim.run_interval();
        for action in controller.on_interval(&mut sim, &outcome) {
            match action {
                Action::DetectedOutliers { contexts, .. } if contexts.contains(&bs) => {
                    detected_bs = true;
                }
                Action::SetQuota { class, .. } | Action::PlacedClass { class, .. }
                    if class == bs =>
                {
                    acted_on_bs = true;
                }
                _ => {}
            }
        }
    }
    assert!(detected_bs, "outlier detection must flag BestSeller");
    assert!(acted_on_bs, "controller must quota or re-place BestSeller");
}

#[test]
fn shared_dbms_interference_names_the_right_culprit() {
    let mut sim = Simulation::new(SimulationConfig {
        seed: 77,
        ..Default::default()
    });
    let s0 = sim.add_server(4);
    sim.add_server(4);
    let inst = sim.add_instance(s0, DomainId(1), EngineConfig::default());
    let tpcw = sim.add_app(
        tpcw_workload(TpcwConfig::default()),
        Sla::one_second(),
        ClientConfig::default(),
        LoadFunction::Constant(45),
    );
    let rubis = sim.add_app(
        rubis_workload(RubisConfig { app: AppId(1) }),
        Sla::one_second(),
        ClientConfig::default(),
        LoadFunction::Step {
            before: 0,
            after: 80,
            at: SimTime::from_secs(80),
        },
    );
    sim.assign_replica(tpcw, inst);
    sim.assign_replica(rubis, inst);
    sim.start();
    let mut controller = SelectiveRetuningController::new(ControllerConfig::default());
    let sibr = ClassId::new(AppId(1), SEARCH_ITEMS_BY_REGION as u32);
    let mut moved = None;
    for _ in 0..22 {
        let outcome = sim.run_interval();
        for action in controller.on_interval(&mut sim, &outcome) {
            if let Action::PlacedClass { class, to, .. } = action {
                if class == sibr {
                    moved = Some(to);
                }
            }
        }
        if moved.is_some() {
            break;
        }
    }
    let target = moved.expect("SearchItemsByRegion must be re-placed");
    assert_ne!(target, inst, "must move off the shared instance");
    assert_eq!(sim.placement_of(sibr), vec![target]);
}

#[test]
fn per_class_accounting_survives_replication_and_writes() {
    let mut sim = Simulation::new(SimulationConfig {
        seed: 5,
        ..Default::default()
    });
    let s1 = sim.add_server(4);
    let s2 = sim.add_server(4);
    let i1 = sim.add_instance(s1, DomainId(1), EngineConfig::default());
    let i2 = sim.add_instance(s2, DomainId(1), EngineConfig::default());
    let app = sim.add_app(
        tpcw_workload(TpcwConfig::default()),
        Sla::one_second(),
        ClientConfig::default(),
        LoadFunction::Constant(20),
    );
    sim.assign_replica(app, i1);
    sim.assign_replica(app, i2);
    sim.start();
    sim.run_interval();
    let outcome = sim.run_interval();
    // Write classes (e.g. ShoppingCart, template 5) appear on both
    // replicas; their per-interval metrics carry real page traffic.
    let write_class = ClassId::new(app, 5);
    for inst in [i1, i2] {
        let v = outcome.reports[&inst]
            .per_class
            .get(&write_class)
            .expect("write class on every replica");
        assert!(v[MetricKind::PageAccesses] > 0.0);
        assert!(v[MetricKind::Throughput] > 0.0);
    }
}
