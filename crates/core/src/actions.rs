//! The actions a controller can take, reported back to the harness so
//! every experiment can narrate what the control loop did.

use odlb_cluster::InstanceId;
use odlb_metrics::{AppId, ClassId};
use odlb_telemetry::Telemetry;
use odlb_trace::{TraceEvent, Tracer};
use std::fmt;

/// One control action (or notable diagnosis event) in an interval. A row
/// reporting a state change is built by the skeleton from what was applied.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Outlier detection ran and flagged these contexts.
    DetectedOutliers {
        /// Instance diagnosed.
        instance: InstanceId,
        /// Outlier contexts found.
        contexts: Vec<ClassId>,
        /// Mild findings count.
        mild: usize,
        /// Extreme findings count.
        extreme: usize,
    },
    /// A class's MRC was recomputed during diagnosis.
    RecomputedMrc {
        /// Instance whose window was replayed.
        instance: InstanceId,
        /// The class.
        class: ClassId,
        /// Acceptable memory (pages) from the fresh curve.
        acceptable_pages: usize,
        /// Whether the parameters changed significantly vs. stable.
        changed: bool,
    },
    /// A buffer-pool quota was enforced (placement kept).
    SetQuota {
        /// Instance carrying the quota.
        instance: InstanceId,
        /// The problem class.
        class: ClassId,
        /// Pages granted.
        pages: usize,
    },
    /// A class was re-placed onto a different replica.
    PlacedClass {
        /// The class's application.
        app: AppId,
        /// The class.
        class: ClassId,
        /// Where its reads now go.
        to: InstanceId,
    },
    /// A replica was provisioned (CPU saturation or placement need).
    ProvisionedReplica {
        /// The application getting the replica.
        app: AppId,
        /// The new instance (serving after the warm-up delay).
        instance: InstanceId,
    },
    /// A replica was released back to the pool.
    RetiredReplica {
        /// The application shrinking.
        app: AppId,
        /// The instance released.
        instance: InstanceId,
    },
    /// The coarse-grained fallback isolated an application.
    CoarseFallback {
        /// The application isolated.
        app: AppId,
    },
    /// Lock contention detected on a class (the paper's §7 future work):
    /// its lock-wait metric is an outlier in the degradation direction.
    /// Diagnosis-only — re-placement cannot help a write class under
    /// read-one-write-all, so the finding is surfaced to the operator.
    DetectedLockContention {
        /// Instance where the contention shows.
        instance: InstanceId,
        /// The contended class.
        class: ClassId,
        /// Its lock-wait deviation ratio vs stable.
        ratio: f64,
    },
    /// A whole VM (database instance) was live-migrated between servers —
    /// the coarse baseline remedy.
    MigratedVm {
        /// The instance moved.
        instance: InstanceId,
        /// Source server.
        from: odlb_metrics::ServerId,
        /// Destination server.
        to: odlb_metrics::ServerId,
    },
    /// I/O interference: a class was moved off a disk-saturated server.
    MovedIoHeavyClass {
        /// The class's application.
        app: AppId,
        /// The class moved.
        class: ClassId,
        /// Destination replica.
        to: InstanceId,
    },
}

impl Action {
    /// The wire name of its `action_applied` trace event (none for an MRC
    /// recomputation, traced as an `mrc_validation` event) and the stable
    /// kebab-case label of the telemetry counter
    /// (`odlb_controller_actions_total{action="..."}`).
    fn kind(&self) -> (Option<&'static str>, &'static str) {
        let (kind, label) = match self {
            Action::DetectedOutliers { .. } => ("detected_outliers", "detected-outliers"),
            Action::RecomputedMrc { .. } => return (None, "recomputed-mrc"),
            Action::SetQuota { .. } => ("set_quota", "set-quota"),
            Action::PlacedClass { .. } => ("placed_class", "placed-class"),
            Action::ProvisionedReplica { .. } => ("provisioned_replica", "provisioned-replica"),
            Action::RetiredReplica { .. } => ("retired_replica", "retired-replica"),
            Action::CoarseFallback { .. } => ("coarse_fallback", "coarse-fallback"),
            Action::DetectedLockContention { .. } => {
                ("lock_contention", "detected-lock-contention")
            }
            Action::MigratedVm { .. } => ("migrated_vm", "migrated-vm"),
            Action::MovedIoHeavyClass { .. } => ("moved_io_heavy_class", "moved-io-heavy-class"),
        };
        (Some(kind), label)
    }

    /// Maps this action to its decision-trace event at interval end
    /// `end_us`. MRC recomputations become first-class `mrc_validation`
    /// events; everything else becomes an `action_applied` record whose
    /// `detail` is the action's human-readable rendering.
    pub fn to_trace_event(&self, end_us: u64) -> TraceEvent {
        let (kind, _) = self.kind();
        let (app, instance, class) = match *self {
            Action::RecomputedMrc {
                instance,
                class,
                acceptable_pages,
                changed,
            } => {
                return TraceEvent::MrcValidation {
                    end_us,
                    instance: instance.0,
                    app: class.app.0,
                    template: class.template,
                    acceptable_pages: acceptable_pages as u64,
                    changed,
                }
            }
            Action::DetectedOutliers { instance, .. } | Action::MigratedVm { instance, .. } => {
                (None, Some(instance), None)
            }
            Action::SetQuota {
                instance, class, ..
            }
            | Action::DetectedLockContention {
                instance, class, ..
            } => (Some(class.app), Some(instance), Some(class)),
            Action::PlacedClass { app, class, to }
            | Action::MovedIoHeavyClass { app, class, to } => (Some(app), Some(to), Some(class)),
            Action::ProvisionedReplica { app, instance }
            | Action::RetiredReplica { app, instance } => (Some(app), Some(instance), None),
            Action::CoarseFallback { app } => (Some(app), None, None),
        };
        TraceEvent::ActionApplied {
            end_us,
            kind: kind.expect("only an MRC recomputation has no kind"),
            app: app.map(|a| a.0),
            instance: instance.map(|i| i.0),
            template: class.map(|c| c.template),
            pages: match *self {
                Action::SetQuota { pages, .. } => Some(pages as u64),
                _ => None,
            },
            detail: self.to_string(),
        }
    }
}

/// Reports one interval's applied actions, in order: each action's trace
/// event to `tracer` and a per-kind count to `telemetry` (either is a
/// no-op when inactive). The control loop calls this once per interval,
/// so the trace and metrics streams stay in step for every controller.
pub fn report_actions(tracer: &Tracer, telemetry: &Telemetry, end_us: u64, actions: &[Action]) {
    for action in actions {
        if tracer.is_active() {
            tracer.emit(action.to_trace_event(end_us));
        }
        if let Some(c) = telemetry.counter(
            "odlb_controller_actions_total",
            "Controller actions applied or diagnoses surfaced, by kind.",
            &[("action", action.kind().1)],
        ) {
            c.inc();
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::DetectedOutliers {
                instance,
                contexts,
                mild,
                extreme,
            } => write!(
                f,
                "outliers on {instance}: {} contexts ({mild} mild, {extreme} extreme): {}",
                contexts.len(),
                contexts
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            Action::RecomputedMrc {
                instance,
                class,
                acceptable_pages,
                changed,
            } => write!(
                f,
                "recomputed MRC of {class} on {instance}: acceptable {acceptable_pages} pages ({})",
                if *changed { "CHANGED" } else { "unchanged" }
            ),
            Action::SetQuota {
                instance,
                class,
                pages,
            } => write!(f, "quota: {class} limited to {pages} pages on {instance}"),
            Action::PlacedClass { app, class, to } => {
                write!(f, "placed {class} of {app} onto {to}")
            }
            Action::ProvisionedReplica { app, instance } => {
                write!(f, "provisioned {instance} for {app}")
            }
            Action::RetiredReplica { app, instance } => {
                write!(f, "retired {instance} of {app}")
            }
            Action::CoarseFallback { app } => {
                write!(f, "coarse-grained fallback: isolating {app}")
            }
            Action::MovedIoHeavyClass { app, class, to } => {
                write!(f, "I/O interference: moved {class} of {app} to {to}")
            }
            Action::DetectedLockContention {
                instance,
                class,
                ratio,
            } => write!(
                f,
                "lock contention: {class} on {instance} waits {ratio:.1}x its stable state"
            ),
            Action::MigratedVm { instance, from, to } => {
                write!(f, "live-migrated {instance} from {from} to {to}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn display_is_informative() {
        let a = Action::SetQuota {
            instance: InstanceId(0),
            class: ClassId::new(AppId(0), 8),
            pages: 3695,
        };
        let s = a.to_string();
        assert!(s.contains("3695"));
        assert!(s.contains("app0#8"));
    }

    /// One action of each variant: nine trace wire names (an MRC
    /// recomputation is an `mrc_validation` event) and ten telemetry
    /// labels, each distinct.
    #[test]
    fn every_action_has_a_distinct_wire_name_and_label() {
        let (instance, to, app) = (InstanceId(0), InstanceId(1), AppId(0));
        let class = ClassId::new(app, 8);
        let actions = [
            Action::DetectedOutliers {
                instance,
                contexts: vec![class],
                mild: 1,
                extreme: 0,
            },
            Action::RecomputedMrc {
                instance,
                class,
                acceptable_pages: 10,
                changed: true,
            },
            Action::SetQuota {
                instance,
                class,
                pages: 10,
            },
            Action::PlacedClass { app, class, to },
            Action::ProvisionedReplica { app, instance },
            Action::RetiredReplica { app, instance },
            Action::CoarseFallback { app },
            Action::DetectedLockContention {
                instance,
                class,
                ratio: 2.0,
            },
            Action::MigratedVm {
                instance,
                from: odlb_metrics::ServerId(0),
                to: odlb_metrics::ServerId(1),
            },
            Action::MovedIoHeavyClass { app, class, to },
        ];
        let kinds: Vec<&str> = actions
            .iter()
            .filter_map(|a| match a.to_trace_event(0) {
                TraceEvent::ActionApplied { kind, .. } => Some(kind),
                _ => None,
            })
            .collect();
        assert_eq!(
            kinds,
            [
                "detected_outliers",
                "set_quota",
                "placed_class",
                "provisioned_replica",
                "retired_replica",
                "coarse_fallback",
                "lock_contention",
                "migrated_vm",
                "moved_io_heavy_class",
            ]
        );
        let distinct = |names: &[&str]| names.iter().collect::<BTreeSet<_>>().len();
        assert_eq!(distinct(&kinds), kinds.len());
        let labels: Vec<&str> = actions.iter().map(|a| a.kind().1).collect();
        assert_eq!(distinct(&labels), actions.len());
    }
}
