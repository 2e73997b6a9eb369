//! `Simulation::fork` continues exactly where its parent would: Table 2's
//! scenario under the selective retuning controller, forked right after
//! the interval in which it provisions a replica (its `ReplicaReady` still
//! queued, a class placement live). The controller is not `Clone`, so the
//! fork's comes from a twin run with the same seed and calls. A fork
//! carries none of its parent's observers, whichever are attached, and
//! its `Model` is `Send`: it continues the same on another thread.

use odlb::cluster::{Model, Simulation};
use odlb::core::{Action, ClusterController, ControllerConfig, SelectiveRetuningController};
use odlb::telemetry::{SpanProfiler, Telemetry};
use odlb::trace::{DigestSink, Tracer};
use odlb_bench::experiments::scenario::{self, Phase};
use odlb_bench::experiments::table2;
use odlb_bench::runner::{run_ordered, Job};
use std::ops::ControlFlow::{Break, Continue};

/// Runs Table 2 at its seed (RUBiS joins after 10 intervals; the
/// controller is held off for the 6 after that) through the first
/// interval in which the controller provisions a replica, with the
/// observers `observe` attaches before the start.
fn until_provisioned(
    observe: impl FnOnce(&mut Simulation, &mut SelectiveRetuningController),
) -> (Simulation, SelectiveRetuningController) {
    let mut sim = scenario::shared_pool(2_2007, 45, 80, 1, 10);
    let mut ctl = SelectiveRetuningController::new(ControllerConfig::default());
    observe(&mut sim, &mut ctl);
    sim.start();
    let provisions = |a: &Action| matches!(a, Action::ProvisionedReplica { .. });
    let phases = table2::phases(10, 6, 24);
    let provisioned = scenario::drive(&mut sim, Some(&mut ctl), &phases, |_, _, _, _, actions| {
        if actions.iter().any(provisions) {
            Break(())
        } else {
            Continue(())
        }
    });
    assert!(provisioned, "the controller never provisioned a replica");
    (sim, ctl)
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
    let ten = [Phase::controlled(10)];
    scenario::drive(sim, Some(controller), &ten, |_, _, _, outcome, actions| {
        log += &format!("{outcome:?} {actions:?}\n");
        Continue(())
    });
    let digest = digest.borrow().digest();
    log += &format!("{} events, digest {digest:#x}\n", sim.events_processed());
    log + &telemetry.render_prometheus().expect("attached")
}

#[test]
fn a_fork_continues_exactly_where_its_parent_would() {
    let parent_tracer = Tracer::new();
    let parent_sink = parent_tracer.attach(DigestSink::new());
    let (mut parent, mut parent_controller) = until_provisioned(|sim, controller| {
        sim.set_tracer(parent_tracer.clone());
        controller.set_tracer(parent_tracer.clone());
    });
    let (_, mut fork_controller) = until_provisioned(|_, _| {});
    let mut fork = parent.fork();
    assert_eq!(
        fork.work(),
        parent.work(),
        "a fork reports its parent's work"
    );
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
fn a_fork_of_an_observed_simulation_continues_unobserved() {
    let tracer = Tracer::new();
    let sink = tracer.attach(DigestSink::new());
    let telemetry = Telemetry::attached();
    let profiler = SpanProfiler::shared();
    let (mut parent, mut parent_controller) = until_provisioned(|sim, controller| {
        sim.set_tracer(tracer.clone());
        sim.set_telemetry(telemetry.clone());
        sim.set_profiler(profiler.clone());
        controller.set_tracer(tracer.clone());
        controller.set_profiler(profiler.clone());
    });
    let (_, mut fork_controller) = until_provisioned(|_, _| {});
    let mut fork = parent.fork();
    let trace = || (sink.borrow().events(), sink.borrow().digest());
    let folded = || profiler.borrow().folded_sim();
    let before = (trace(), telemetry.render_csv(), folded());
    assert!(trace().0 > 0 && folded().contains("storage_read"));
    let forked = ten_more(&mut fork, &mut fork_controller);
    let after = (trace(), telemetry.render_csv(), folded());
    assert!(after == before, "the fork reached the parent's observers");
    let continued = ten_more(&mut parent, &mut parent_controller);
    assert!(forked == continued, "the fork diverged from its parent");
    assert_eq!(fork.work(), parent.work(), "the fork's work diverged");
    assert!(folded() != before.2, "the parent's profiler is attached");
}

#[test]
fn a_forked_model_continues_exactly_on_another_thread() {
    let (mut parent, mut parent_controller) = until_provisioned(|_, _| {});
    // Two jobs, so the pool spawns its two workers.
    let forked = |model: Model| -> Job<String> {
        Box::new(move || {
            let (_, mut controller) = until_provisioned(|_, _| {});
            ten_more(&mut Simulation::from_model(model), &mut controller)
        })
    };
    let jobs = vec![forked(parent.fork_model()), forked(parent.fork_model())];
    let mut logs = Vec::new();
    run_ordered(jobs, 2, |_, log| logs.push(log));
    let continued = ten_more(&mut parent, &mut parent_controller);
    assert_eq!(logs.len(), 2);
    for log in logs {
        assert!(log == continued, "a fork diverged on another thread");
    }
}
