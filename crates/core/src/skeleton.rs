//! The controller skeleton: the per-interval loop every controller runs.
//!
//! A controller is [`Controller<S>`] — this loop plus a [`Strategy`], the
//! decision rule. The loop owns everything that is the same whatever the
//! rule: the per-application cooldown and violation streak, the SLA walk
//! in application order, deferred pins waiting for a provisioned replica
//! to warm up (single classes and whole-application isolation), and the
//! trace / telemetry / profiler plumbing. A strategy only answers "what
//! do you do for this application now?" with a [`Verdict`]; a new one
//! (a PID rule, a fault-injection rule) is one file implementing
//! [`Strategy`] and touches neither this loop nor the cluster driver.

use crate::actions::{report_actions, Action};
use odlb_cluster::{InstanceId, IntervalOutcome, ServerSnapshot, Simulation};
use odlb_metrics::{AppId, ClassId};
use odlb_telemetry::{enter_span, profile_span, SharedSpanProfiler, Telemetry};
use odlb_trace::Tracer;
use std::collections::BTreeMap;

/// Anything that can steer the cluster between measurement intervals.
pub trait ClusterController {
    /// Inspects one closed interval and applies actions through `sim`.
    fn on_interval(&mut self, sim: &mut Simulation, outcome: &IntervalOutcome) -> Vec<Action>;

    /// Installs a decision-trace handle (usually a clone of the one given
    /// to the [`Simulation`]). Controllers that emit nothing may keep the
    /// default no-op.
    fn set_tracer(&mut self, _tracer: Tracer) {}

    /// Installs a telemetry handle (usually a clone of the one given to
    /// the [`Simulation`]) for action counters. Default no-op.
    fn set_telemetry(&mut self, _telemetry: Telemetry) {}

    /// Installs a span profiler timing the controller's phases
    /// (collection, outlier detection, MRC update, action selection).
    /// Default no-op.
    fn set_profiler(&mut self, _profiler: SharedSpanProfiler) {}
}

/// What a strategy's decision for one application amounts to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Nothing applied; the application stays eligible next interval.
    Idle,
    /// Something was applied: start the application's cooldown.
    Acted,
    /// Isolate the application on a fresh replica — the coarse-grained
    /// remedy. The skeleton provisions the replica, pins every class of
    /// the application there once it serves, resets the streak and starts
    /// the cooldown; with no free server nothing happens.
    Isolate,
}

/// One closed interval as a strategy sees it.
pub struct Interval<'a> {
    /// The cluster, for actuation.
    pub sim: &'a mut Simulation,
    /// The interval's measurements.
    pub outcome: &'a IntervalOutcome,
    /// Actions applied so far this interval; strategies push what they do.
    pub actions: &'a mut Vec<Action>,
    /// Class pins deferred until their (provisioning) target serves; the
    /// skeleton completes them.
    pub pending_placements: &'a mut Vec<(ClassId, InstanceId)>,
    /// For diagnosis events finer than an [`Action`].
    pub tracer: &'a Tracer,
    /// For phase spans under the skeleton's `controller` span.
    pub profiler: &'a Option<SharedSpanProfiler>,
}

impl Interval<'_> {
    /// The interval's snapshot of the server hosting `instance`.
    pub fn server_of(&self, instance: InstanceId) -> Option<&ServerSnapshot> {
        // Snapshots are index-aligned with server ids, so no scan.
        let server = self.sim.server_of(instance);
        self.outcome.servers.get(server.0 as usize)
    }

    /// True when any server hosting a replica of `app` ran its CPU at or
    /// above `threshold`.
    pub fn cpu_saturated(&self, app: AppId, threshold: f64) -> bool {
        self.sim.replicas_of(app).iter().any(|&inst| {
            self.server_of(inst)
                .is_some_and(|s| s.cpu_utilisation >= threshold)
        })
    }

    /// Provisions a replica of `app` and records the action; `None` when
    /// no server is free.
    pub fn provision(&mut self, app: AppId) -> Option<InstanceId> {
        let instance = self.sim.provision_replica(app).ok()?;
        self.actions
            .push(Action::ProvisionedReplica { app, instance });
        Some(instance)
    }
}

/// A decision rule plugged into [`Controller`].
pub trait Strategy {
    /// Interval bookkeeping before any per-application decision, inside
    /// the skeleton's `collection` span. Default: none.
    fn collect(&mut self, _cx: &mut Interval<'_>) {}

    /// `app` violated its SLA for the `streak`-th consecutive interval
    /// and is off cooldown.
    fn on_violation(&mut self, cx: &mut Interval<'_>, app: AppId, streak: u32) -> Verdict;

    /// `app` met its SLA and is off cooldown. Default: nothing.
    fn on_met(&mut self, _cx: &mut Interval<'_>, _app: AppId) -> Verdict {
        Verdict::Idle
    }
}

/// Intervals an application rests after a [`Verdict::Acted`] or a
/// successful [`Verdict::Isolate`], so provisioning (two intervals) and
/// pool warm-up take effect before it is judged again (§3; the paper
/// states no rest period).
pub(crate) const COOLDOWN_INTERVALS: u32 = 3;

/// The shared control loop around a [`Strategy`].
pub struct Controller<S> {
    pub(crate) strategy: S,
    cooldown: BTreeMap<AppId, u32>,
    /// Consecutive violated intervals per application.
    streak: BTreeMap<AppId, u32>,
    pending_placements: Vec<(ClassId, InstanceId)>,
    /// Whole-app isolations waiting for their replica.
    pending_isolations: Vec<(AppId, InstanceId)>,
    tracer: Tracer,
    telemetry: Telemetry,
    profiler: Option<SharedSpanProfiler>,
}

impl<S: Strategy> Controller<S> {
    /// Wraps `strategy` in the loop.
    pub fn with_strategy(strategy: S) -> Self {
        Controller {
            strategy,
            cooldown: BTreeMap::new(),
            streak: BTreeMap::new(),
            pending_placements: Vec::new(),
            pending_isolations: Vec::new(),
            tracer: Tracer::new(),
            telemetry: Telemetry::inactive(),
            profiler: None,
        }
    }
}

/// Finishes deferred pins whose target replica is now serving.
fn complete_pending(cx: &mut Interval<'_>, pending_isolations: &mut Vec<(AppId, InstanceId)>) {
    let (sim, actions) = (&mut *cx.sim, &mut *cx.actions);
    cx.pending_placements.retain(|&(class, target)| {
        let app = class.app;
        let serving = sim.replicas_of(app).contains(&target);
        if serving {
            sim.place_class(app, class, vec![target]);
            actions.push(Action::PlacedClass {
                app,
                class,
                to: target,
            });
        }
        !serving
    });
    pending_isolations.retain(|&(app, target)| {
        let serving = sim.replicas_of(app).contains(&target);
        if serving {
            for idx in 0..sim.workload(app).classes.len() {
                sim.place_class(app, ClassId::new(app, idx as u32), vec![target]);
            }
            actions.push(Action::CoarseFallback { app });
        }
        !serving
    });
}

impl<S: Strategy> ClusterController for Controller<S> {
    fn on_interval(&mut self, sim: &mut Simulation, outcome: &IntervalOutcome) -> Vec<Action> {
        let mut actions = Vec::new();
        let profiler = self.profiler.clone();
        // Root span of the controller's slice of the interval: every
        // phase (and the sub-phases inside them) nests under it, so the
        // folded dump shows `…;controller;collection;stable_states`.
        let _controller = enter_span(&profiler, "controller");
        let mut cx = Interval {
            sim,
            outcome,
            actions: &mut actions,
            pending_placements: &mut self.pending_placements,
            tracer: &self.tracer,
            profiler: &profiler,
        };
        profile_span(&profiler, "collection", || {
            profile_span(&profiler, "complete_pending", || {
                complete_pending(&mut cx, &mut self.pending_isolations)
            });
            self.strategy.collect(&mut cx);
        });
        for c in self.cooldown.values_mut() {
            *c = c.saturating_sub(1);
        }
        for (&app, sla) in &outcome.sla {
            let violated = sla.is_violation();
            let streak = self.streak.entry(app).or_insert(0);
            *streak = if violated { *streak + 1 } else { 0 };
            if self.cooldown.get(&app).is_some_and(|&c| c > 0) {
                continue;
            }
            let mut verdict = if violated {
                self.strategy.on_violation(&mut cx, app, *streak)
            } else {
                self.strategy.on_met(&mut cx, app)
            };
            if verdict == Verdict::Isolate {
                verdict = match cx.provision(app) {
                    Some(instance) => {
                        self.pending_isolations.push((app, instance));
                        *streak = 0;
                        Verdict::Acted
                    }
                    None => Verdict::Idle,
                };
            }
            if verdict == Verdict::Acted {
                self.cooldown.insert(app, COOLDOWN_INTERVALS);
            }
        }
        let end_us = outcome.end.as_micros();
        report_actions(&self.tracer, &self.telemetry, end_us, &actions);
        actions
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    fn set_profiler(&mut self, profiler: SharedSpanProfiler) {
        self.profiler = Some(profiler);
    }
}
