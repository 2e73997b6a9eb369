//! Baseline controllers the paper argues against (§1, §6), each a
//! decision rule for the shared control loop ([`crate::skeleton`]).
//!
//! * [`CpuOnlyController`] — "existing coarse-grained provisioning
//!   solutions, even commercial ones such as IBM's Tivoli Intelligent
//!   Orchestrator, typically use very simple techniques, such as
//!   monitoring the CPU usage to trigger provisioning of server boxes."
//!   It provisions a whole replica on CPU saturation and does nothing
//!   else — so it is blind to memory and I/O interference.
//! * [`CoarseGrainedController`] — the isolate-everything reaction: on
//!   any SLA violation, give the suffering application a fresh dedicated
//!   replica and move *all* of it there (the VM-migration-style remedy).
//!   Effective but wasteful in machines — ablation A3 counts exactly that.
//! * [`VmMigrationController`] — live-migrate the whole database VM.

use crate::skeleton::{Controller, Interval, Strategy, Verdict};
use odlb_cluster::Actuation;
use odlb_metrics::{AppId, ServerId};

/// Tivoli-style: provision on CPU saturation, otherwise shrug.
pub type CpuOnlyController = Controller<CpuOnly>;

/// The decision rule of [`CpuOnlyController`].
pub struct CpuOnly {
    /// CPU utilisation treated as saturation.
    pub cpu_saturation: f64,
}

impl CpuOnlyController {
    /// Creates the controller with the given saturation threshold.
    pub fn new(cpu_saturation: f64) -> Self {
        Controller::with_strategy(CpuOnly { cpu_saturation })
    }
}

impl Strategy for CpuOnly {
    fn on_violation(&mut self, cx: &mut Interval<'_>, app: AppId, _streak: u32) -> Verdict {
        // Not CPU? Then this controller has no idea what to do.
        if cx.cpu_saturated(app, self.cpu_saturation)
            && cx.apply(Actuation::Provision { app }).is_some()
        {
            Verdict::Acted
        } else {
            Verdict::Idle
        }
    }
}

/// Isolate-on-violation: the whole application moves to a dedicated fresh
/// replica, no questions asked.
pub type CoarseGrainedController = Controller<CoarseGrained>;

/// The decision rule of [`CoarseGrainedController`].
pub struct CoarseGrained;

impl CoarseGrainedController {
    /// Creates the controller.
    pub fn new() -> Self {
        Controller::with_strategy(CoarseGrained)
    }
}

impl Default for CoarseGrainedController {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for CoarseGrained {
    fn on_violation(&mut self, _cx: &mut Interval<'_>, _app: AppId, _streak: u32) -> Verdict {
        Verdict::Isolate
    }
}

/// Live-VM-migration baseline: on an SLA violation, migrate the whole
/// database instance's VM to the least-loaded other server (the remedy
/// the paper's introduction singles out as too coarse — it moves every
/// co-located application along and cannot separate two tenants sharing
/// one DBMS at all).
pub type VmMigrationController = Controller<VmMigration>;

/// The decision rule of [`VmMigrationController`].
pub struct VmMigration;

impl VmMigrationController {
    /// Creates the controller.
    pub fn new() -> Self {
        Controller::with_strategy(VmMigration)
    }
}

impl Default for VmMigrationController {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for VmMigration {
    fn on_violation(&mut self, cx: &mut Interval<'_>, app: AppId, _streak: u32) -> Verdict {
        // Migrate the app's first replica to the emptiest other server.
        let Some(&instance) = cx.sim().replicas_of(app).first() else {
            return Verdict::Idle;
        };
        let from = cx.sim().server_of(instance);
        let target = (0..cx.sim().server_count() as u32)
            .map(ServerId)
            .filter(|&s| s != from)
            .min_by_key(|&s| {
                let snap = cx.outcome.servers.get(s.0 as usize);
                snap.map_or(u64::MAX, |snap| (snap.cpu_utilisation * 1000.0) as u64)
            });
        match target.and_then(|to| cx.apply(Actuation::Migrate { instance, to })) {
            Some(_) => Verdict::Acted,
            None => Verdict::Idle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::Action;
    use crate::skeleton::ClusterController;
    use odlb_cluster::{Simulation, SimulationConfig};
    use odlb_engine::EngineConfig;
    use odlb_metrics::{ClassId, Sla, SlaOutcome};
    use odlb_sim::SimDuration;
    use odlb_storage::DomainId;
    use odlb_workload::tpcw::{tpcw_workload, TpcwConfig};
    use odlb_workload::{ClientConfig, LoadFunction};

    fn saturating_sim() -> (Simulation, AppId) {
        let mut sim = Simulation::new(SimulationConfig {
            seed: 13,
            ..Default::default()
        });
        let s1 = sim.add_server(1);
        sim.add_server(1);
        let inst = sim.add_instance(s1, DomainId(1), EngineConfig::default());
        // Cache-resident CPU-heavy workload: overload is purely CPU.
        let app = sim.add_app(
            odlb_workload::synthetic::cpu_bound_workload(odlb_metrics::AppId(0), 64, 8),
            Sla::new(SimDuration::from_millis(150)),
            ClientConfig {
                think_time_mean: SimDuration::from_millis(100),
                load_noise: 0.0,
            },
            LoadFunction::Constant(60),
        );
        sim.assign_replica(app, inst);
        sim.start();
        (sim, app)
    }

    #[test]
    fn cpu_only_provisions_under_saturation() {
        let (mut sim, app) = saturating_sim();
        let mut ctl = CpuOnlyController::new(0.9);
        let mut provisioned = 0;
        for _ in 0..10 {
            let outcome = sim.run_interval();
            provisioned += ctl
                .on_interval(&mut sim, &outcome)
                .iter()
                .filter(|a| matches!(a, Action::ProvisionedReplica { .. }))
                .count();
        }
        assert!(provisioned >= 1, "warm CPU saturation must provision");
        assert!(sim.replicas_of(app).len() >= 2);
    }

    #[test]
    fn cpu_only_is_blind_to_non_cpu_violations() {
        // A violation with idle CPUs (tiny SLA, light load): the Tivoli
        // baseline must do nothing at all.
        let mut sim = Simulation::new(SimulationConfig {
            seed: 14,
            ..Default::default()
        });
        let s1 = sim.add_server(8);
        sim.add_server(8);
        let inst = sim.add_instance(s1, DomainId(1), EngineConfig::default());
        let app = sim.add_app(
            tpcw_workload(TpcwConfig::default()),
            // Impossible SLA: every interval violates, but CPU is idle.
            Sla::new(SimDuration::from_micros(1)),
            ClientConfig::default(),
            LoadFunction::Constant(2),
        );
        sim.assign_replica(app, inst);
        sim.start();
        let mut ctl = CpuOnlyController::new(0.9);
        for _ in 0..4 {
            let outcome = sim.run_interval();
            assert_eq!(outcome.sla[&app], SlaOutcome::Violated);
            assert!(ctl.on_interval(&mut sim, &outcome).is_empty());
        }
        assert_eq!(sim.replicas_of(app).len(), 1);
    }

    #[test]
    fn vm_migration_moves_the_instance() {
        let (mut sim, app) = saturating_sim();
        let mut ctl = VmMigrationController::new();
        let inst = sim.replicas_of(app)[0];
        let before = sim.server_of(inst);
        let mut first_move = None;
        for _ in 0..10 {
            let outcome = sim.run_interval();
            for a in ctl.on_interval(&mut sim, &outcome) {
                if matches!(a, Action::MigratedVm { .. }) && first_move.is_none() {
                    first_move = Some(sim.server_of(inst));
                }
            }
        }
        // The baseline may ping-pong on later violations (it has no
        // diagnosis); what matters is that it moved at all.
        let after = first_move.expect("violation must trigger a migration");
        assert_ne!(after, before);
    }

    #[test]
    fn vm_migration_cannot_separate_shared_tenants() {
        // Two apps share one instance; migrating the VM moves BOTH — the
        // memory interference between them survives the migration. This
        // is the paper's core argument for fine-grained actions.
        let mut sim = Simulation::new(SimulationConfig {
            seed: 70,
            ..Default::default()
        });
        let s1 = sim.add_server(4);
        sim.add_server(4);
        let inst = sim.add_instance(s1, DomainId(1), EngineConfig::default());
        let a = sim.add_app(
            odlb_workload::tpcw::tpcw_workload(odlb_workload::tpcw::TpcwConfig::default()),
            Sla::new(SimDuration::from_micros(1)), // always violated
            ClientConfig::default(),
            LoadFunction::Constant(5),
        );
        let b = sim.add_app(
            odlb_workload::rubis::rubis_workload(odlb_workload::rubis::RubisConfig {
                app: odlb_metrics::AppId(1),
            }),
            Sla::one_second(),
            ClientConfig::default(),
            LoadFunction::Constant(5),
        );
        sim.assign_replica(a, inst);
        sim.assign_replica(b, inst);
        sim.start();
        let mut ctl = VmMigrationController::new();
        for _ in 0..6 {
            let outcome = sim.run_interval();
            ctl.on_interval(&mut sim, &outcome);
        }
        // Both apps still share the same instance — and thus the same
        // buffer pool — wherever the VM went.
        assert_eq!(sim.replicas_of(a), sim.replicas_of(b));
    }

    #[test]
    fn coarse_grained_isolates_whole_app() {
        let (mut sim, app) = saturating_sim();
        let mut ctl = CoarseGrainedController::new();
        let mut isolated = false;
        for _ in 0..8 {
            let outcome = sim.run_interval();
            for a in ctl.on_interval(&mut sim, &outcome) {
                if matches!(a, Action::CoarseFallback { .. }) {
                    isolated = true;
                }
            }
        }
        assert!(isolated, "coarse controller moves the whole app");
        // Every class pinned to the new replica.
        let new_replica = *sim.replicas_of(app).last().unwrap();
        for idx in 0..sim.workload(app).classes.len() {
            let placement = sim.placement_of(ClassId::new(app, idx as u32));
            assert_eq!(placement, vec![new_replica]);
        }
    }
}
