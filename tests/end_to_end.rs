//! End-to-end integration scenarios across all crates: miniature versions
//! of the paper's evaluation flows, driven through the public facade.

use odlb::cluster::Simulation;
use odlb::core::{Action, ControllerConfig, SelectiveRetuningController};
use odlb::engine::EngineConfig;
use odlb::metrics::{ClassId, MetricKind, ServerId};
use odlb::storage::DomainId;
use odlb::workload::rubis::SEARCH_ITEMS_BY_REGION;
use odlb::workload::tpcw::BESTSELLER;
use odlb_bench::experiments::scenario::{self, Phase, APP, INST, TENANT};
use std::ops::ControlFlow::{Break, Continue};

/// `sim`, started, and a fresh selective retuning controller.
fn started(mut sim: Simulation) -> (Simulation, SelectiveRetuningController) {
    sim.start();
    (
        sim,
        SelectiveRetuningController::new(ControllerConfig::default()),
    )
}

#[test]
fn stable_tpcw_meets_sla_and_builds_signatures() {
    let (mut sim, mut ctl) = started(scenario::index_drop(11, 20, 1));
    let mut met = 0;
    let phases = [Phase::controlled(8)];
    scenario::drive(&mut sim, Some(&mut ctl), &phases, |_, _, _, out, _| {
        met += usize::from(!out.sla[&APP].is_violation());
        Continue(())
    });
    assert!(met >= 6, "mostly stable, got {met}/8");
    // All active classes have signatures with MRC parameters.
    let with_mrc = sim
        .workload(APP)
        .class_ids()
        .iter()
        .filter(|&&c| {
            ctl.stable_store()
                .get(odlb::core::memory::instance_key(INST), c)
                .is_some_and(|s| s.mrc.is_some())
        })
        .count();
    assert!(with_mrc >= 10, "initial MRCs recorded, got {with_mrc}");
}

#[test]
fn full_simulation_is_deterministic() {
    let run = || {
        let (mut sim, mut ctl) = started(scenario::index_drop(99, 25, 1));
        let mut trace = Vec::new();
        let phases = [Phase::controlled(6)];
        scenario::drive(
            &mut sim,
            Some(&mut ctl),
            &phases,
            |_, _, _, out, actions| {
                let tput = out.app_throughput[&APP].to_bits();
                trace.push((out.app_latency[&APP], tput, actions.len()));
                Continue(())
            },
        );
        trace
    };
    assert_eq!(run(), run());
}

#[test]
fn index_drop_triggers_detection_and_memory_action() {
    let (mut sim, mut ctl) = started(scenario::index_drop(4_2007, 50, 1));
    let bs = ClassId::new(APP, BESTSELLER as u32);
    let mut detected_bs = false;
    let mut acted_on_bs = false;
    let dropped = Phase::controlled(8).after(scenario::drop_odate_index);
    let phases = [Phase::controlled(10), dropped];
    scenario::drive(
        &mut sim,
        Some(&mut ctl),
        &phases,
        |phase, _, _, _, actions| {
            for action in actions.iter().filter(|_| phase == 1) {
                match action {
                    Action::DetectedOutliers { contexts, .. } if contexts.contains(&bs) => {
                        detected_bs = true;
                    }
                    Action::SetQuota { class, .. } | Action::PlacedClass { class, .. }
                        if *class == bs =>
                    {
                        acted_on_bs = true;
                    }
                    _ => {}
                }
            }
            Continue(())
        },
    );
    assert!(detected_bs, "outlier detection must flag BestSeller");
    assert!(acted_on_bs, "controller must quota or re-place BestSeller");
}

#[test]
fn shared_dbms_interference_names_the_right_culprit() {
    let (mut sim, mut ctl) = started(scenario::shared_pool(77, 45, 80, 1, 8));
    let sibr = ClassId::new(TENANT, SEARCH_ITEMS_BY_REGION as u32);
    let mut moved = None;
    let phases = [Phase::controlled(22)];
    scenario::drive(&mut sim, Some(&mut ctl), &phases, |_, _, _, _, actions| {
        for action in actions {
            if let Action::PlacedClass { class, to, .. } = *action {
                if class == sibr {
                    moved = Some(to);
                }
            }
        }
        match moved {
            Some(_) => Break(()),
            None => Continue(()),
        }
    });
    let target = moved.expect("SearchItemsByRegion must be re-placed");
    assert_ne!(target, INST, "must move off the shared instance");
    assert_eq!(sim.placement_of(sibr), vec![target]);
}

#[test]
fn per_class_accounting_survives_replication_and_writes() {
    // Fig. 4's cluster with TPC-W replicated onto the spare server.
    let mut sim = scenario::index_drop(5, 20, 1);
    let i2 = sim.add_instance(ServerId(1), DomainId(1), EngineConfig::default());
    sim.assign_replica(APP, i2);
    sim.start();
    sim.run_interval();
    let outcome = sim.run_interval();
    // Write classes (e.g. ShoppingCart, template 5) appear on both
    // replicas; their per-interval metrics carry real page traffic.
    let write_class = ClassId::new(APP, 5);
    for inst in [INST, i2] {
        let v = outcome.reports[&inst]
            .per_class
            .get(&write_class)
            .expect("write class on every replica");
        assert!(v[MetricKind::PageAccesses] > 0.0);
        assert!(v[MetricKind::Throughput] > 0.0);
    }
}
