//! `Simulation::fork` continues exactly where its parent would: Table 2's
//! scenario under the selective retuning controller, forked right after
//! the interval in which it provisions a replica (its `ReplicaReady` still
//! queued, a class placement live). The controller is not `Clone`, so the
//! fork's comes from a twin run with the same seed and calls.

use odlb::cluster::{Simulation, SimulationConfig, MEASUREMENT_INTERVAL};
use odlb::core::{Action, ClusterController, ControllerConfig, SelectiveRetuningController};
use odlb::engine::EngineConfig;
use odlb::metrics::Sla;
use odlb::sim::SimTime;
use odlb::storage::DomainId;
use odlb::telemetry::{SpanProfiler, Telemetry};
use odlb::trace::{DigestSink, Tracer};
use odlb::workload::rubis::{rubis_workload, RubisConfig};
use odlb::workload::tpcw::{tpcw_workload, TpcwConfig};
use odlb::workload::{ClientConfig, LoadFunction};

/// Runs Table 2 (RUBiS joins after 10 intervals; the controller is held
/// off for the 6 after that) through the first interval in which the
/// controller provisions a replica.
fn until_provisioned(tracer: &Tracer) -> (Simulation, SelectiveRetuningController) {
    let mut sim = Simulation::new(SimulationConfig {
        seed: 2_2007,
        ..Default::default()
    });
    let s0 = sim.add_server(4);
    sim.add_server(4);
    let inst = sim.add_instance(s0, DomainId(1), EngineConfig::default());
    let tpcw = tpcw_workload(TpcwConfig::default());
    let rubis = rubis_workload(RubisConfig::default());
    let at = SimTime::ZERO + MEASUREMENT_INTERVAL * 10;
    let join = LoadFunction::Step {
        before: 0,
        after: 80,
        at,
    };
    for (spec, load) in [(tpcw, LoadFunction::Constant(45)), (rubis, join)] {
        let app = sim.add_app(spec, Sla::one_second(), ClientConfig::default(), load);
        sim.assign_replica(app, inst);
    }
    sim.set_tracer(tracer.clone());
    sim.start();
    let mut controller = SelectiveRetuningController::new(ControllerConfig::default());
    controller.set_tracer(tracer.clone());
    let provisions = |a: &Action| matches!(a, Action::ProvisionedReplica { .. });
    for interval in 0..40 {
        let outcome = sim.run_interval();
        if (10..16).contains(&interval) {
            continue;
        }
        let actions = controller.on_interval(&mut sim, &outcome);
        if actions.iter().any(provisions) {
            return (sim, controller);
        }
    }
    panic!("the controller never provisioned a replica");
}

/// Ten more controlled intervals through fresh sinks: their outcomes and
/// actions, events processed, trace digest and Prometheus exposition.
fn ten_more(sim: &mut Simulation, controller: &mut dyn ClusterController) -> String {
    let tracer = Tracer::new();
    let digest = tracer.attach(DigestSink::new());
    sim.set_tracer(tracer.clone());
    controller.set_tracer(tracer);
    let telemetry = Telemetry::attached();
    sim.set_telemetry(telemetry.clone());
    let mut log = String::new();
    for _ in 0..10 {
        let outcome = sim.run_interval();
        let actions = controller.on_interval(sim, &outcome);
        log += &format!("{outcome:?} {actions:?}\n");
    }
    let digest = digest.borrow().digest();
    log += &format!("{} events, digest {digest:#x}\n", sim.events_processed());
    log + &telemetry.render_prometheus().expect("attached")
}

#[test]
fn a_fork_continues_exactly_where_its_parent_would() {
    let parent_tracer = Tracer::new();
    let parent_sink = parent_tracer.attach(DigestSink::new());
    let (mut parent, mut parent_controller) = until_provisioned(&parent_tracer);
    let (_, mut fork_controller) = until_provisioned(&Tracer::new());
    let mut fork = parent.fork();
    let seen = parent_sink.borrow().events();
    let forked = ten_more(&mut fork, &mut fork_controller);
    let leaked = parent_sink.borrow().events() != seen;
    assert!(!leaked, "the fork's events reached the parent's sink");
    // The provisioned replica (warmed when its `ReplicaReady` fired) is
    // in the exposition, with resident pages per instance and partition.
    assert!(forked.contains("odlb_pool_resident_pages{instance=\"inst1\""));
    let continued = ten_more(&mut parent, &mut parent_controller);
    assert!(forked == continued, "the fork diverged from its parent");
}

#[test]
#[should_panic(expected = "cannot fork a simulation with a profiler")]
fn forking_a_profiled_simulation_panics() {
    let mut sim = Simulation::new(SimulationConfig::default());
    sim.set_profiler(SpanProfiler::shared());
    let _ = sim.fork();
}
