//! Failure injection: the control loop must degrade gracefully when the
//! world misbehaves — replicas retired mid-provisioning, empty stable
//! state, no free servers, infeasible quotas, zero-variance populations.

use odlb::cluster::{Actuation, Applied, Simulation, SimulationConfig};
use odlb::core::{ClusterController, ControllerConfig, SelectiveRetuningController};
use odlb::engine::EngineConfig;
use odlb::metrics::{AppId, ClassId, MetricKind, MetricVector, Sla};
use odlb::outlier::{detect, OutlierConfig};
use odlb::sim::SimDuration;
use odlb::storage::DomainId;
use odlb::workload::tpcw::{tpcw_workload, TpcwConfig};
use odlb::workload::{ClientConfig, LoadFunction};
use std::collections::BTreeMap;

#[test]
fn replica_retired_while_provisioning_never_resurrects() {
    let mut sim = Simulation::new(SimulationConfig::default());
    let s1 = sim.add_server(4);
    sim.add_server(4);
    let i1 = sim.add_instance(s1, DomainId(1), EngineConfig::default());
    let app = sim.add_app(
        tpcw_workload(TpcwConfig::default()),
        Sla::one_second(),
        ClientConfig::default(),
        LoadFunction::Constant(5),
    );
    sim.assign_replica(app, i1);
    sim.start();
    let Some(Applied::Provisioned(pending)) = sim.apply(&Actuation::Provision { app }) else {
        panic!("a free server exists");
    };
    // Kill it before its ReplicaReady fires (delay is 20 s; interval 10 s).
    sim.run_interval();
    let retire = Actuation::Retire {
        app,
        instance: pending,
    };
    assert_eq!(sim.apply(&retire), Some(Applied::Done));
    for _ in 0..4 {
        sim.run_interval();
        assert_eq!(
            sim.replicas_of(app),
            vec![i1],
            "retired-in-flight replica must not come back"
        );
    }
}

#[test]
fn controller_survives_impossible_sla_with_empty_pool() {
    // Impossible SLA, nowhere to grow: the controller must keep running
    // without panicking or acting nonsensically forever.
    let mut sim = Simulation::new(SimulationConfig::default());
    let s1 = sim.add_server(4);
    let i1 = sim.add_instance(s1, DomainId(1), EngineConfig::default());
    let app = sim.add_app(
        tpcw_workload(TpcwConfig::default()),
        Sla::new(SimDuration::from_micros(1)),
        ClientConfig::default(),
        LoadFunction::Constant(5),
    );
    sim.assign_replica(app, i1);
    sim.start();
    let mut controller = SelectiveRetuningController::new(ControllerConfig::default());
    for _ in 0..10 {
        let outcome = sim.run_interval();
        controller.on_interval(&mut sim, &outcome);
    }
    assert_eq!(sim.replicas_of(app).len(), 1, "nothing to provision from");
}

#[test]
fn detection_with_totally_empty_interval() {
    let current: BTreeMap<ClassId, MetricVector> = BTreeMap::new();
    let report = detect(&OutlierConfig::default(), &current, |_| None);
    assert!(report.is_empty());
    assert!(report.outlier_contexts().is_empty());
    assert!(report.memory_suspects().is_empty());
}

#[test]
fn detection_with_single_class_population() {
    // Quartiles of one point: zero IQR; its own impact is never outside
    // its own fence, so one class alone can't be an outlier.
    let mut current = BTreeMap::new();
    let class = ClassId::new(AppId(0), 0);
    let mut v = MetricVector::from_fn(|_| 10.0);
    v[MetricKind::Latency] = 99.0;
    current.insert(class, v);
    let stable = MetricVector::from_fn(|_| 10.0);
    let report = detect(&OutlierConfig::default(), &current, |_| Some(stable));
    assert!(report.findings.is_empty(), "no population, no outliers");
}

#[test]
fn provisioning_with_no_free_server_fails_cleanly() {
    let mut sim = Simulation::new(SimulationConfig::default());
    let s1 = sim.add_server(4);
    let i1 = sim.add_instance(s1, DomainId(1), EngineConfig::default());
    let app = sim.add_app(
        tpcw_workload(TpcwConfig::default()),
        Sla::one_second(),
        ClientConfig::default(),
        LoadFunction::Constant(5),
    );
    sim.assign_replica(app, i1);
    assert_eq!(sim.apply(&Actuation::Provision { app }), None);
    // The cluster still runs fine afterwards.
    sim.start();
    let outcome = sim.run_interval();
    assert!(outcome.app_throughput[&app] >= 0.0);
}

#[test]
fn quota_on_unknown_class_is_rejected_not_fatal() {
    let mut sim = Simulation::new(SimulationConfig::default());
    let s1 = sim.add_server(4);
    let i1 = sim.add_instance(
        s1,
        DomainId(1),
        EngineConfig {
            pool_pages: 64,
            ..Default::default()
        },
    );
    let ghost = ClassId::new(AppId(9), 0);
    let quota = |pages| Actuation::SetQuota {
        instance: i1,
        class: ghost,
        pages,
    };
    let clear = Actuation::ClearQuota {
        instance: i1,
        class: ghost,
    };
    // Quota larger than the pool must be refused, not panic.
    assert_eq!(sim.apply(&quota(1_000)), None);
    // A valid quota on a never-seen class is fine (it will be used when
    // the class shows up) and clearable.
    assert_eq!(sim.apply(&quota(16)), Some(Applied::Done));
    assert_eq!(sim.apply(&clear), Some(Applied::Done));
    assert_eq!(sim.apply(&clear), None);
}

/// Applies `actuation` to a fork of `sim`, which must refuse it, and
/// shows that the refusal changed nothing: a second fork, taken beside
/// the first, runs four intervals with the same outcomes and the same
/// work. (Two forks, so `sim` is left as it was for the next case.)
fn assert_refused(sim: &Simulation, actuation: Actuation) {
    let (mut refused, mut untouched) = (sim.fork(), sim.fork());
    assert_eq!(
        refused.apply(&actuation),
        None,
        "{actuation:?} was accepted"
    );
    for _ in 0..4 {
        let (a, b) = (refused.run_interval(), untouched.run_interval());
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{actuation:?}");
    }
    assert_eq!(refused.work(), untouched.work(), "{actuation:?}");
}

/// One refused case per `Actuation` variant, on one TPC-W replica that
/// later gets a second server.
#[test]
fn every_refused_actuation_changes_nothing() {
    let mut sim = Simulation::new(SimulationConfig::default());
    let s1 = sim.add_server(4);
    let i1 = sim.add_instance(s1, DomainId(1), EngineConfig::default());
    let app = sim.add_app(
        tpcw_workload(TpcwConfig::default()),
        Sla::one_second(),
        ClientConfig::default(),
        LoadFunction::Constant(5),
    );
    sim.assign_replica(app, i1);
    sim.start();
    sim.run_interval();
    // Every server already hosts a replica.
    assert_refused(&sim, Actuation::Provision { app });
    // A quota as large as the pool leaves the general partition nothing.
    let ghost = ClassId::new(AppId(9), 0);
    let quota = |pages| Actuation::SetQuota {
        instance: i1,
        class: ghost,
        pages,
    };
    assert_refused(&sim, quota(sim.pool_pages(i1)));
    // A valid quota on a never-seen class is accepted (it is used when
    // the class shows up) and clearable, once.
    let clear = Actuation::ClearQuota {
        instance: i1,
        class: ghost,
    };
    assert_eq!(sim.apply(&quota(16)), Some(Applied::Done));
    assert_eq!(sim.apply(&clear), Some(Applied::Done));
    assert_refused(&sim, clear);
    // The instance is already on its own server.
    assert_refused(
        &sim,
        Actuation::Migrate {
            instance: i1,
            to: s1,
        },
    );
    // A replica still provisioning serves no class yet.
    sim.add_server(4);
    let Some(Applied::Provisioned(i2)) = sim.apply(&Actuation::Provision { app }) else {
        panic!("the new server is free");
    };
    let class = ClassId::new(app, 8);
    assert_refused(&sim, Actuation::PlaceClass { class, to: i2 });
    // Retiring a replica twice.
    let retire = Actuation::Retire { app, instance: i2 };
    assert_eq!(sim.apply(&retire), Some(Applied::Done));
    assert_refused(&sim, retire);
    assert_eq!(sim.replicas_of(app), vec![i1]);
}

#[test]
fn app_with_zero_clients_is_vacuously_stable() {
    let mut sim = Simulation::new(SimulationConfig::default());
    let s1 = sim.add_server(4);
    let i1 = sim.add_instance(s1, DomainId(1), EngineConfig::default());
    let app = sim.add_app(
        tpcw_workload(TpcwConfig::default()),
        Sla::one_second(),
        ClientConfig::default(),
        LoadFunction::Constant(0),
    );
    sim.assign_replica(app, i1);
    sim.start();
    let mut controller = SelectiveRetuningController::new(ControllerConfig::default());
    for _ in 0..3 {
        let outcome = sim.run_interval();
        assert!(!outcome.sla[&app].is_violation(), "idle app never violates");
        assert!(controller.on_interval(&mut sim, &outcome).is_empty());
    }
}

#[test]
fn all_classes_deviating_equally_is_not_an_outlier_storm() {
    // A uniform slowdown (e.g. global CPU contention) doubles everyone's
    // latency: no single context stands out, so detection must not flag
    // the whole population as latency outliers.
    let mut current = BTreeMap::new();
    let stable = MetricVector::from_fn(|k| match k {
        MetricKind::Latency => 0.1,
        MetricKind::Throughput => 10.0,
        _ => 100.0,
    });
    let mut cur = stable;
    cur[MetricKind::Latency] = 0.2;
    for t in 0..12 {
        current.insert(ClassId::new(AppId(0), t), cur);
    }
    let report = detect(&OutlierConfig::default(), &current, |_| Some(stable));
    let latency_outliers = report
        .findings
        .values()
        .flatten()
        .filter(|f| f.metric == MetricKind::Latency)
        .count();
    assert_eq!(latency_outliers, 0, "uniform deviation is not an outlier");
}
