//! The selective retuning controller — the paper's §3 algorithm as a
//! [`Strategy`] plugged into the shared control loop ([`crate::skeleton`]).

use crate::actions::Action;
use crate::config::ControllerConfig;
use crate::memory::{
    find_problem_classes, instance_key, pick_replacement_target, plan_memory_action, MemoryPlan,
    MRC_THRESHOLD,
};
use crate::skeleton::{Controller, Interval, Strategy, Verdict, COOLDOWN_INTERVALS};
use odlb_cluster::{InstanceId, IntervalOutcome, Simulation};
use odlb_metrics::{AppId, ClassId, MetricKind, StableStateStore};
use odlb_mrc::MrcMode;
use odlb_outlier::{detect, top_k_heavyweight, OutlierConfig, Severity, Weighting};
use odlb_telemetry::profile_span;
use odlb_trace::TraceEvent;

/// Outlier detection as §3.3.1 states it: Tukey's 1.5·IQR (mild) and
/// 3·IQR (extreme) fences over impacts weighted by normalising each
/// metric to its least value across classes.
const DETECTION: OutlierConfig = OutlierConfig {
    inner_multiplier: 1.5,
    outer_multiplier: 3.0,
    weighting: Weighting::NormalizedToLeast,
};

/// CPU utilisation at or above which a server counts as saturated and
/// the application gets a replica (§3.3.3, §5.2; the paper gives no
/// number).
const CPU_SATURATION: f64 = 0.85;

/// CPU utilisation below which, on every replica, one replica goes back
/// to the pool (the downslope of Fig. 3; the paper gives no number).
const CPU_RELEASE: f64 = 0.30;

/// Disk utilisation at or above which a server counts as I/O-saturated
/// (§3.3.3; the paper gives no number).
const IO_SATURATION: f64 = 0.90;

/// How many heavyweight classes the no-outlier fallback investigates
/// (§3.3.2 "top-k"; the paper leaves k open).
const TOP_K: usize = 3;

/// Consecutive violated intervals after which the controller falls back
/// to coarse-grained isolation (§3.3.2 "if ineffective"; the paper gives
/// no count). Longer than the cooldown, so a fine-grained action is
/// judged before it is abandoned.
const FALLBACK_AFTER: u32 = 6;

/// Replicas an application always keeps.
const MIN_REPLICAS: usize = 1;

const _: () = {
    assert!(DETECTION.inner_multiplier < DETECTION.outer_multiplier);
    assert!(CPU_RELEASE < CPU_SATURATION);
    assert!(COOLDOWN_INTERVALS < FALLBACK_AFTER);
};

/// The paper's controller: stable-state tracking, outlier-driven
/// diagnosis, MRC-validated memory actions, CPU provisioning, I/O-rate
/// eviction, and a coarse-grained last resort.
pub type SelectiveRetuningController = Controller<SelectiveRetuning>;

/// The decision rule of [`SelectiveRetuningController`].
pub struct SelectiveRetuning {
    mrc_mode: MrcMode,
    stable: StableStateStore,
}

impl SelectiveRetuningController {
    /// Creates a controller with the given configuration.
    pub fn new(config: ControllerConfig) -> Self {
        Controller::with_strategy(SelectiveRetuning {
            mrc_mode: config.mrc_mode,
            stable: StableStateStore::new(),
        })
    }

    /// Read access to the stable-state store (for harness reporting).
    pub fn stable_store(&self) -> &StableStateStore {
        &self.strategy.stable
    }
}

/// True when `app` met its SLA over the interval.
fn sla_met(outcome: &IntervalOutcome, app: AppId) -> bool {
    outcome.sla.get(&app).is_some_and(|s| !s.is_violation())
}

impl SelectiveRetuning {
    /// Refreshes stable-state signatures for every application whose SLA
    /// held this interval (§3.3).
    fn record_stable_states(&mut self, outcome: &IntervalOutcome) {
        for (&instance, report) in &outcome.reports {
            for (&class, &metrics) in &report.per_class {
                if sla_met(outcome, class.app) {
                    self.stable
                        .record_stable(instance_key(instance), class, metrics, outcome.end);
                }
            }
        }
    }

    /// "The MRC is determined when a query class is first scheduled on the
    /// system" (§3.3): during stable intervals, compute the reference MRC
    /// of any class that does not have one yet, so later diagnosis can
    /// tell *changed* curves from *unknown* ones. One-shot per class.
    fn ensure_initial_mrcs(&mut self, sim: &Simulation, outcome: &IntervalOutcome) {
        for (&instance, report) in &outcome.reports {
            let key = instance_key(instance);
            for &class in report.per_class.keys() {
                let has_mrc = self.stable.get(key, class).is_some_and(|s| s.mrc.is_some());
                if sla_met(outcome, class.app) && !has_mrc {
                    let cap = sim.pool_pages(instance);
                    if let Some(curve) = sim.recompute_mrc_with(instance, class, cap, self.mrc_mode)
                    {
                        let params = curve.params(cap, MRC_THRESHOLD);
                        self.stable.record_mrc(key, class, params, outcome.end);
                    }
                }
            }
        }
    }

    /// True when stable state was recorded for any class active on `inst`.
    /// The paper's precondition (§3): diagnosis compares against stable
    /// state, which must have been reached at least once. With no
    /// baseline at all (cold start), deviation ratios are meaningless.
    fn has_baseline(&self, outcome: &IntervalOutcome, inst: InstanceId) -> bool {
        outcome.reports.get(&inst).is_some_and(|r| {
            r.per_class
                .keys()
                .any(|&c| self.stable.get(instance_key(inst), c).is_some())
        })
    }

    /// Moves `class` away from `from`: onto an existing fitting replica
    /// (logged as the action `placed` builds), or provisions one and
    /// defers the placement.
    fn replace_class(
        &self,
        cx: &mut Interval<'_>,
        from: InstanceId,
        class: ClassId,
        needed_pages: usize,
        placed: fn(AppId, ClassId, InstanceId) -> Action,
    ) {
        // A placement for this class may already be in flight (e.g. two
        // applications diagnosed the same interferer this interval).
        if cx.pending_placements.iter().any(|(c, _)| *c == class) {
            return;
        }
        match pick_replacement_target(cx.sim, class, needed_pages, from) {
            Some(target) => {
                cx.sim.place_class(class.app, class, vec![target]);
                cx.actions.push(placed(class.app, class, target));
            }
            None => {
                if let Some(instance) = cx.provision(class.app) {
                    cx.pending_placements.push((class, instance));
                }
                // No free server: nothing to do this interval; the streak
                // keeps growing and the coarse fallback will eventually
                // fire (and also fail gracefully if the pool is empty).
            }
        }
    }

    /// The per-application diagnosis on an SLA violation (§3.2–3.3).
    fn diagnose_and_act(&mut self, cx: &mut Interval<'_>, app: AppId) -> Verdict {
        // (a) CPU saturation → reactive replica provisioning (§5.2).
        if cx.cpu_saturated(app, CPU_SATURATION) {
            return match cx.provision(app) {
                Some(_) => Verdict::Acted,
                None => Verdict::Idle,
            };
        }

        // (b) Per-instance outlier diagnosis over ALL classes scheduled
        // there (interference can come from another application).
        let (outcome, profiler) = (cx.outcome, cx.profiler);
        let mut verdict = Verdict::Idle;
        for inst in cx.sim.replicas_of(app) {
            let Some(report) = outcome.reports.get(&inst) else {
                continue;
            };
            // Wait for a stable interval instead of acting on a cold start.
            if !self.has_baseline(outcome, inst) {
                continue;
            }
            let key = instance_key(inst);
            let detection = profile_span(profiler, "outlier_detection", || {
                detect(&DETECTION, &report.per_class, |c| {
                    self.stable.get(key, c).map(|s| s.metrics)
                })
            });
            if !detection.is_empty() {
                cx.actions.push(Action::DetectedOutliers {
                    instance: inst,
                    contexts: detection.outlier_contexts(),
                    mild: detection.count_severity(Severity::Mild),
                    extreme: detection.count_severity(Severity::Extreme),
                });
            }
            // Trace every per-metric finding, not just the summary: the
            // fine-grained stream is what golden traces pin down.
            let mut lock_contention = false;
            for (&class, findings) in &detection.findings {
                for f in findings {
                    if cx.tracer.is_active() {
                        cx.tracer.emit(TraceEvent::OutlierFinding {
                            end_us: outcome.end.as_micros(),
                            instance: inst.0,
                            app: class.app.0,
                            template: class.template,
                            metric: f.metric.label(),
                            severity: match f.severity {
                                Severity::Mild => "mild",
                                Severity::Extreme => "extreme",
                            },
                            ratio: f.ratio,
                            degradation: f.indicates_degradation(),
                        });
                    }
                    // §7 future work: surface lock-contention anomalies.
                    // No automatic remedy — writes run on every replica
                    // under read-one-write-all, so neither quotas nor
                    // re-placement can dissolve a lock hotspot; the
                    // operator (or the application) must act.
                    if f.metric == MetricKind::LockWaits && f.indicates_degradation() {
                        lock_contention = true;
                        cx.actions.push(Action::DetectedLockContention {
                            instance: inst,
                            class,
                            ratio: f.ratio,
                        });
                    }
                }
            }
            // Suspects: memory-metric outliers + newly scheduled classes;
            // when empty, the top-k heavyweight fallback (§3.3.2).
            let mut suspects = detection.memory_suspects();
            for c in &detection.new_classes {
                if !suspects.contains(c) {
                    suspects.push(*c);
                }
            }
            if suspects.is_empty() {
                if lock_contention {
                    // The violation is explained by lock waits; probing
                    // heavyweight classes for memory problems would only
                    // produce spurious quotas.
                    verdict = Verdict::Acted;
                    continue;
                }
                suspects = top_k_heavyweight(&report.per_class, MetricKind::PageAccesses, TOP_K);
            }
            let examined = profile_span(profiler, "mrc_update", || {
                find_problem_classes(
                    cx.sim,
                    inst,
                    &suspects,
                    &mut self.stable,
                    self.mrc_mode,
                    outcome.end,
                    profiler,
                )
            });
            for e in &examined {
                cx.actions.push(Action::RecomputedMrc {
                    instance: inst,
                    class: e.class,
                    acceptable_pages: e.params.acceptable_memory_needed,
                    changed: e.changed,
                });
            }
            match profile_span(profiler, "action_selection", || {
                plan_memory_action(cx.sim, inst, report, &examined, self.mrc_mode, profiler)
            }) {
                MemoryPlan::Quotas(quotas) => {
                    for (class, pages) in quotas {
                        // Re-quota: drop any existing partition first.
                        cx.sim.clear_quota(inst, class);
                        if cx.sim.set_quota(inst, class, pages).is_ok() {
                            cx.actions.push(Action::SetQuota {
                                instance: inst,
                                class,
                                pages,
                            });
                        }
                    }
                    return Verdict::Acted;
                }
                MemoryPlan::Replace {
                    class,
                    needed_pages,
                } => {
                    self.replace_class(cx, inst, class, needed_pages, |app, class, to| {
                        Action::PlacedClass { app, class, to }
                    });
                    return Verdict::Acted;
                }
                MemoryPlan::Nothing => {}
            }
        }

        // (c) I/O interference (§3.3.3): move the highest-I/O-rate class
        // off the saturated server. Gated on stable state existing, like
        // the memory path: a cold pool saturates the disk transiently and
        // must not trigger re-placements.
        let io_saturated = cx.sim.replicas_of(app).into_iter().find(|&inst| {
            cx.server_of(inst)
                .is_some_and(|s| s.io_utilisation >= IO_SATURATION)
        });
        let Some(inst) = io_saturated.filter(|&inst| self.has_baseline(outcome, inst)) else {
            return verdict;
        };
        let top_io =
            top_k_heavyweight(&outcome.reports[&inst].per_class, MetricKind::IoRequests, 1);
        let Some(&class) = top_io.first() else {
            return verdict;
        };
        let needed = self
            .stable
            .get(instance_key(inst), class)
            .and_then(|s| s.mrc)
            .map(|m| m.acceptable_memory_needed)
            .unwrap_or(0);
        self.replace_class(cx, inst, class, needed, |app, class, to| {
            Action::MovedIoHeavyClass { app, class, to }
        });
        Verdict::Acted
    }

    /// Releases a replica when the application is comfortably under its
    /// SLA and its servers are mostly idle.
    fn maybe_release(&self, cx: &mut Interval<'_>, app: AppId) -> Verdict {
        let replicas = cx.sim.replicas_of(app);
        if replicas.len() <= MIN_REPLICAS {
            return Verdict::Idle;
        }
        let utils: Vec<f64> = replicas
            .iter()
            .map(|&inst| cx.server_of(inst).map_or(1.0, |s| s.cpu_utilisation))
            .collect();
        let all_idle = utils.iter().all(|&u| u < CPU_RELEASE);
        // Hysteresis: releasing must not re-saturate the survivors. The
        // victim's load spreads over the remaining replicas; require the
        // projected utilisation to stay well under the saturation trigger.
        let projected = utils.iter().sum::<f64>() / (replicas.len() as f64 - 1.0);
        // Candidate: the most recently added replica. Never retire a
        // replica that carries a pinned class — that would silently
        // undo a fine-grained placement decision.
        let victim = *replicas.last().expect("non-empty");
        if !all_idle || projected >= CPU_SATURATION * 0.75 || cx.sim.is_pinned_target(app, victim) {
            return Verdict::Idle;
        }
        cx.sim.retire_replica(app, victim);
        cx.actions.push(Action::RetiredReplica {
            app,
            instance: victim,
        });
        Verdict::Acted
    }
}

impl Strategy for SelectiveRetuning {
    fn collect(&mut self, cx: &mut Interval<'_>) {
        profile_span(cx.profiler, "stable_states", || {
            self.record_stable_states(cx.outcome)
        });
        profile_span(cx.profiler, "initial_mrcs", || {
            self.ensure_initial_mrcs(cx.sim, cx.outcome)
        });
    }

    fn on_violation(&mut self, cx: &mut Interval<'_>, app: AppId, streak: u32) -> Verdict {
        if streak >= FALLBACK_AFTER {
            // Coarse-grained last resort (§3.3.2 "we fall back on the
            // coarse grained allocation solutions").
            return Verdict::Isolate;
        }
        self.diagnose_and_act(cx, app)
    }

    fn on_met(&mut self, cx: &mut Interval<'_>, app: AppId) -> Verdict {
        self.maybe_release(cx, app)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeleton::ClusterController;
    use odlb_cluster::SimulationConfig;
    use odlb_engine::EngineConfig;
    use odlb_metrics::Sla;
    use odlb_storage::DomainId;
    use odlb_workload::tpcw::{tpcw_workload, TpcwConfig};
    use odlb_workload::{ClientConfig, LoadFunction};

    fn quiet_sim() -> (Simulation, AppId) {
        let mut sim = Simulation::new(SimulationConfig {
            seed: 5,
            ..Default::default()
        });
        let s = sim.add_server(4);
        let inst = sim.add_instance(s, DomainId(1), EngineConfig::default());
        let app = sim.add_app(
            tpcw_workload(TpcwConfig::default()),
            Sla::one_second(),
            ClientConfig::default(),
            LoadFunction::Constant(6),
        );
        sim.assign_replica(app, inst);
        sim.start();
        (sim, app)
    }

    #[test]
    fn stable_intervals_build_signatures_and_take_no_action() {
        let (mut sim, _) = quiet_sim();
        let mut ctl = SelectiveRetuningController::new(ControllerConfig::default());
        let mut total_actions = 0;
        for _ in 0..4 {
            let outcome = sim.run_interval();
            total_actions += ctl.on_interval(&mut sim, &outcome).len();
        }
        assert_eq!(total_actions, 0, "quiet system needs no actions");
        assert!(
            ctl.stable_store().len() >= 10,
            "signatures recorded for active classes, got {}",
            ctl.stable_store().len()
        );
    }

    #[test]
    fn cpu_saturation_triggers_provisioning() {
        let mut sim = Simulation::new(SimulationConfig {
            seed: 6,
            ..Default::default()
        });
        let s1 = sim.add_server(1); // tiny server saturates quickly
        sim.add_server(1); // free pool
        let inst = sim.add_instance(s1, DomainId(1), EngineConfig::default());
        // Cache-resident CPU-heavy workload: overload is purely CPU.
        let app = sim.add_app(
            odlb_workload::synthetic::cpu_bound_workload(odlb_metrics::AppId(0), 64, 8),
            Sla::new(odlb_sim::SimDuration::from_millis(150)),
            ClientConfig {
                think_time_mean: odlb_sim::SimDuration::from_millis(100),
                load_noise: 0.0,
            },
            LoadFunction::Constant(60),
        );
        sim.assign_replica(app, inst);
        sim.start();
        let mut ctl = SelectiveRetuningController::new(ControllerConfig::default());
        let mut provisioned = false;
        let mut max_replicas = 1;
        for _ in 0..12 {
            let outcome = sim.run_interval();
            for a in ctl.on_interval(&mut sim, &outcome) {
                if matches!(a, Action::ProvisionedReplica { .. }) {
                    provisioned = true;
                }
            }
            max_replicas = max_replicas.max(sim.replicas_of(app).len());
        }
        assert!(provisioned, "overload must provision a replica");
        assert!(max_replicas >= 2, "the replica must come into service");
    }

    /// TPC-W at two clients on two replicas, one per server, no spare.
    fn two_replica_sim() -> (Simulation, AppId, InstanceId, InstanceId) {
        let mut sim = Simulation::new(SimulationConfig {
            seed: 8,
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
            LoadFunction::Constant(2),
        );
        sim.assign_replica(app, i1);
        sim.assign_replica(app, i2);
        sim.start();
        (sim, app, i1, i2)
    }

    #[test]
    fn idle_overprovisioned_app_releases_replicas() {
        let (mut sim, app, ..) = two_replica_sim();
        let mut ctl = SelectiveRetuningController::new(ControllerConfig::default());
        let mut retired = false;
        for _ in 0..6 {
            let outcome = sim.run_interval();
            for a in ctl.on_interval(&mut sim, &outcome) {
                if matches!(a, Action::RetiredReplica { .. }) {
                    retired = true;
                }
            }
        }
        assert!(retired, "idle second replica must be released");
        assert_eq!(sim.replicas_of(app).len(), 1);
    }

    #[test]
    fn replace_class_logs_the_action_it_is_given_and_touches_no_other() {
        let (mut sim, app, i1, i2) = two_replica_sim();
        let outcome = sim.run_interval();
        let ctl = SelectiveRetuningController::new(ControllerConfig::default());
        let class = ClassId::new(app, 8);
        // What `complete_pending` logs for a deferred pin finished earlier
        // in the same interval.
        let deferred = Action::PlacedClass { app, class, to: i1 };
        let mut actions = vec![deferred.clone()];
        let mut cx = Interval {
            sim: &mut sim,
            outcome: &outcome,
            actions: &mut actions,
            pending_placements: &mut Vec::new(),
            tracer: &odlb_trace::Tracer::new(),
            profiler: &None,
        };
        let io_path: fn(AppId, ClassId, InstanceId) -> Action =
            |app, class, to| Action::MovedIoHeavyClass { app, class, to };
        // No pool holds a million pages and no server is free: nothing
        // is logged, and the deferred pin keeps its label.
        let rule = &ctl.strategy;
        rule.replace_class(&mut cx, i1, class, 1_000_000, io_path);
        assert_eq!(cx.actions.as_slice(), std::slice::from_ref(&deferred));
        // The other replica fits: one action, the caller's.
        rule.replace_class(&mut cx, i1, class, 0, io_path);
        let moved = Action::MovedIoHeavyClass { app, class, to: i2 };
        assert_eq!(actions, [deferred, moved]);
    }

    #[test]
    fn cooldown_prevents_action_storms() {
        let mut sim = Simulation::new(SimulationConfig {
            seed: 10,
            ..Default::default()
        });
        let s1 = sim.add_server(1);
        sim.add_server(1);
        sim.add_server(1);
        sim.add_server(1);
        let inst = sim.add_instance(s1, DomainId(1), EngineConfig::default());
        let app = sim.add_app(
            odlb_workload::synthetic::cpu_bound_workload(odlb_metrics::AppId(0), 64, 8),
            Sla::new(odlb_sim::SimDuration::from_millis(100)),
            ClientConfig {
                think_time_mean: odlb_sim::SimDuration::from_millis(100),
                load_noise: 0.0,
            },
            LoadFunction::Constant(80),
        );
        sim.assign_replica(app, inst);
        sim.start();
        let mut ctl = SelectiveRetuningController::new(ControllerConfig::default());
        let mut provisions_in_first_two_ticks = 0;
        for _ in 0..2 {
            let outcome = sim.run_interval();
            provisions_in_first_two_ticks += ctl
                .on_interval(&mut sim, &outcome)
                .iter()
                .filter(|a| matches!(a, Action::ProvisionedReplica { .. }))
                .count();
        }
        assert!(
            provisions_in_first_two_ticks <= 1,
            "cooldown must throttle provisioning, got {provisions_in_first_two_ticks}"
        );
    }
}
