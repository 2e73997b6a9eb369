//! The paper's evaluation scenarios (§5.2-5.5) in their one shape: a
//! cluster built once, then phases over it — a stable stretch, a
//! perturbation at a phase boundary, diagnosis and recovery. A figure is
//! a phase list plus a closure over each interval, and a fork point is
//! `(scenario, phase, interval)`.
//!
//! Every builder returns the simulation unstarted (observers attach
//! before [`odlb_cluster::Model::start`]). Its handles are fixed:
//! [`APP`] runs on [`INST`], and [`TENANT`], where present, is the
//! second application.

use super::fig3::scale_cpu;
use odlb_cluster::{
    InstanceId, IntervalOutcome, Simulation, SimulationConfig, MEASUREMENT_INTERVAL,
};
use odlb_core::{Action, ClusterController};
use odlb_engine::EngineConfig;
use odlb_metrics::{AppId, ServerId, Sla};
use odlb_sim::{SimDuration, SimTime};
use odlb_storage::{DiskModel, DomainId};
use odlb_workload::rubis::{rubis_workload, RubisConfig, SEARCH_ITEMS_BY_REGION};
use odlb_workload::tpcw::{bestseller_pattern, tpcw_workload, TpcwConfig, BESTSELLER};
use odlb_workload::LoadFunction::{self, Constant};
use odlb_workload::{ClientConfig, WorkloadSpec};
use std::ops::ControlFlow;

/// The studied application: TPC-W, or Table 3's domain-1 RUBiS.
pub const APP: AppId = AppId(0);
/// The second tenant: RUBiS joining TPC-W's pool (Table 2) or in domain 2
/// (Table 3).
pub const TENANT: AppId = AppId(1);
/// [`APP`]'s first instance.
pub const INST: InstanceId = InstanceId(0);
/// Table 3's domain-2 instance, [`TENANT`]'s.
pub const DOMAIN_2: InstanceId = InstanceId(1);

/// One stretch of a scenario: `before` (if any) perturbs the model at
/// the boundary, then `intervals` measurement intervals run, with the
/// controller acting on each outcome when `controlled`.
#[derive(Clone, Copy)]
pub struct Phase {
    /// Measurement intervals (10 s each).
    pub intervals: usize,
    /// Whether the controller sees this phase's outcomes.
    pub controlled: bool,
    /// The perturbation applied before the phase's first interval.
    pub before: Option<fn(&mut Simulation)>,
}

impl Phase {
    /// `intervals` the controller acts on.
    pub const fn controlled(intervals: usize) -> Phase {
        Phase {
            intervals,
            controlled: true,
            before: None,
        }
    }

    /// `intervals` the controller does not see: a warm-up, a held-off
    /// stretch, a run without a controller.
    pub const fn held_off(intervals: usize) -> Phase {
        Phase {
            controlled: false,
            ..Phase::controlled(intervals)
        }
    }

    /// This phase, entered through `perturb`.
    pub const fn after(self, perturb: fn(&mut Simulation)) -> Phase {
        Phase {
            before: Some(perturb),
            ..self
        }
    }
}

/// Fig. 4's perturbation: the `O_DATE` index is dropped, so BestSeller's
/// plan degenerates into a scan.
pub fn drop_odate_index(sim: &mut Simulation) {
    sim.class_mut(APP, BESTSELLER).pattern = bestseller_pattern(false);
}

/// Table 3's remedy: domain 2 stops issuing SearchItemsByRegion, its
/// heaviest I/O context.
pub fn remove_search_items_by_region(sim: &mut Simulation) {
    sim.class_mut(TENANT, SEARCH_ITEMS_BY_REGION).weight = 0.0;
}

/// Fig. 3: TPC-W with CPU demands ×12 (the co-located PHP tier) under
/// `load`, on `servers` machines with a wide RAID stripe (CPU, not the
/// disk, is the studied bottleneck) and a 512 MB pool.
pub fn sinusoid(seed: u64, servers: usize, load: LoadFunction) -> Simulation {
    let engine = EngineConfig {
        pool_pages: 32_768,
        ..Default::default()
    };
    let mut sim = cluster(seed, servers, (WIDE_STRIPE, engine));
    let tpcw = scale_cpu(tpcw_workload(TpcwConfig::default()), 12);
    add(&mut sim, tpcw, load, INST);
    sim
}

/// Fig. 3's disk: positioning 400 µs, transfer 30 µs per page.
const WIDE_STRIPE: DiskModel = DiskModel {
    positioning: SimDuration::from_micros(400),
    transfer_per_page: SimDuration::from_micros(30),
};

/// Fig. 4 and A1/A2: `clients` TPC-W sessions on one 4-core server, with
/// `spare` empty servers for the controller to provision onto.
pub fn index_drop(seed: u64, clients: usize, spare: usize) -> Simulation {
    let mut sim = cluster(seed, 1 + spare, Default::default());
    let tpcw = tpcw_workload(TpcwConfig::default());
    add(&mut sim, tpcw, Constant(clients), INST);
    sim
}

/// Table 2 and A3: TPC-W's `tpcw` sessions share one DBMS's pool with
/// RUBiS, whose `rubis` sessions join after `join` intervals; `spare`
/// empty servers are the re-placement targets.
pub fn shared_pool(seed: u64, tpcw: usize, rubis: usize, spare: usize, join: usize) -> Simulation {
    let mut sim = cluster(seed, 1 + spare, Default::default());
    let tpcw_spec = tpcw_workload(TpcwConfig::default());
    add(&mut sim, tpcw_spec, Constant(tpcw), INST);
    let rubis_spec = rubis_workload(RubisConfig { app: TENANT });
    add(&mut sim, rubis_spec, step(rubis, join), INST);
    sim
}

/// Table 3: two RUBiS tenants of `clients` sessions in two VM domains on
/// one machine — separate pools and CPU shares, one domain-0 I/O path —
/// the second joining after `join` intervals.
pub fn vm_domains(seed: u64, clients: usize, join: usize) -> Simulation {
    let mut sim = cluster(seed, 1, Default::default());
    sim.add_instance(ServerId(0), DomainId(2), EngineConfig::default());
    let domain_1 = rubis_workload(RubisConfig { app: APP });
    add(&mut sim, domain_1, Constant(clients), INST);
    let domain_2 = rubis_workload(RubisConfig { app: TENANT });
    add(&mut sim, domain_2, step(clients, join), DOMAIN_2);
    sim
}

/// `n` 4-core servers with `disk`, the first hosting [`INST`] on `engine`.
fn cluster(seed: u64, n: usize, (disk, engine): (DiskModel, EngineConfig)) -> Simulation {
    let mut sim = Simulation::new(SimulationConfig {
        seed,
        ..Default::default()
    });
    for _ in 0..n {
        sim.add_server_with_disk(4, disk);
    }
    sim.add_instance(ServerId(0), DomainId(1), engine);
    sim
}

/// Adds `spec` under a 1 s SLA and `load`, served by `inst`.
fn add(sim: &mut Simulation, spec: WorkloadSpec, load: LoadFunction, inst: InstanceId) {
    let app = sim.add_app(spec, Sla::one_second(), ClientConfig::default(), load);
    sim.assign_replica(app, inst);
}

/// No clients until interval `join`, then `clients`.
fn step(clients: usize, join: usize) -> LoadFunction {
    let at = SimTime::ZERO + MEASUREMENT_INTERVAL * join as u64;
    LoadFunction::Step {
        before: 0,
        after: clients,
        at,
    }
}

/// Runs `phases` in order on a started `sim`. Each interval runs, then
/// `controller` acts on its outcome when the phase is controlled, then
/// `each` sees `(phase, interval within it, sim, outcome, actions)`.
/// Stops as soon as `each` breaks, and returns whether it did.
pub fn drive(
    sim: &mut Simulation,
    mut controller: Option<&mut dyn ClusterController>,
    phases: &[Phase],
    mut each: impl FnMut(usize, usize, &mut Simulation, &IntervalOutcome, &[Action]) -> ControlFlow<()>,
) -> bool {
    for (p, phase) in phases.iter().enumerate() {
        if let Some(perturb) = phase.before {
            perturb(sim);
        }
        for i in 0..phase.intervals {
            let outcome = sim.run_interval();
            let actions = match controller.as_deref_mut() {
                Some(c) if phase.controlled => c.on_interval(sim, &outcome),
                _ => Vec::new(),
            };
            if each(p, i, sim, &outcome, &actions).is_break() {
                return true;
            }
        }
    }
    false
}
