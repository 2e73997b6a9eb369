//! The decision-trace event vocabulary and its canonical JSON form.
//!
//! Field order inside each JSON object is fixed, floats are rendered with
//! Rust's shortest-roundtrip formatting, and all identifiers are plain
//! integers — so a given event has exactly one byte representation and
//! the digest over a run is well-defined.

use std::fmt::Write as _;

/// The kind of control action (or surfaced diagnosis) that was applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ActionKind {
    /// Outlier detection flagged one or more query contexts.
    DetectedOutliers,
    /// A buffer-pool quota was enforced on a class.
    SetQuota,
    /// A class's reads were re-placed onto another replica.
    PlacedClass,
    /// A fresh replica was provisioned.
    ProvisionedReplica,
    /// A replica was released back to the pool.
    RetiredReplica,
    /// The coarse-grained fallback isolated a whole application.
    CoarseFallback,
    /// Lock contention surfaced to the operator (no automatic remedy).
    LockContention,
    /// A whole VM was live-migrated (baseline remedy).
    MigratedVm,
    /// An I/O-heavy class was moved off a disk-saturated server.
    MovedIoHeavyClass,
}

impl ActionKind {
    /// Stable wire name, used in the JSON encoding (and thus the digest).
    pub const fn as_str(self) -> &'static str {
        match self {
            ActionKind::DetectedOutliers => "detected_outliers",
            ActionKind::SetQuota => "set_quota",
            ActionKind::PlacedClass => "placed_class",
            ActionKind::ProvisionedReplica => "provisioned_replica",
            ActionKind::RetiredReplica => "retired_replica",
            ActionKind::CoarseFallback => "coarse_fallback",
            ActionKind::LockContention => "lock_contention",
            ActionKind::MigratedVm => "migrated_vm",
            ActionKind::MovedIoHeavyClass => "moved_io_heavy_class",
        }
    }
}

/// One structured record in the decision trace.
///
/// Times are the simulation clock in integer microseconds (`*_us`);
/// `app`/`template`/`instance` are the raw ids from `odlb-metrics` and
/// `odlb-cluster`, kept as plain integers so this crate depends on
/// nothing and every layer can emit.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A measurement interval closed in the simulation driver.
    IntervalClosed {
        /// 0-based interval sequence number.
        seq: u64,
        /// Interval start (µs on the simulation clock).
        start_us: u64,
        /// Interval end (µs).
        end_us: u64,
        /// Database instances reporting this interval.
        instances: u32,
        /// Distinct (instance, class) rows observed.
        classes: u32,
    },
    /// One application's SLA was evaluated over the closed interval.
    SlaEvaluated {
        /// Interval end (µs).
        end_us: u64,
        /// The application.
        app: u32,
        /// Mean latency in seconds, `None` when no query completed.
        latency_s: Option<f64>,
        /// Aggregate throughput (queries/s).
        throughput_qps: f64,
        /// Whether the SLA was violated.
        violated: bool,
    },
    /// One per-metric outlier finding on a query context (§3.3.1).
    OutlierFinding {
        /// Interval end (µs).
        end_us: u64,
        /// Instance diagnosed.
        instance: u32,
        /// Owning application of the flagged class.
        app: u32,
        /// Template index of the flagged class.
        template: u32,
        /// Metric label (e.g. `"misses"`).
        metric: &'static str,
        /// `"mild"` or `"extreme"`.
        severity: &'static str,
        /// Raw current/stable deviation ratio.
        ratio: f64,
        /// True when the finding points in the metric's "worse" direction.
        degradation: bool,
    },
    /// An MRC was recomputed to validate a suspect class (§3.3.2).
    MrcValidation {
        /// Interval end (µs).
        end_us: u64,
        /// Instance whose access window was replayed.
        instance: u32,
        /// Owning application.
        app: u32,
        /// Template index.
        template: u32,
        /// Acceptable memory (pages) from the fresh curve.
        acceptable_pages: u64,
        /// Verdict: did the curve change significantly vs stable state?
        changed: bool,
    },
    /// A control action was applied to the cluster.
    ActionApplied {
        /// Interval end (µs).
        end_us: u64,
        /// What was done.
        kind: ActionKind,
        /// Application involved, when applicable.
        app: Option<u32>,
        /// Instance involved, when applicable.
        instance: Option<u32>,
        /// Class template involved, when applicable.
        template: Option<u32>,
        /// Pages granted (quotas), when applicable.
        pages: Option<u64>,
        /// Human-readable rendering of the action.
        detail: String,
    },
}

impl TraceEvent {
    /// The event's wire name (the JSON `"event"` field).
    pub const fn name(&self) -> &'static str {
        match self {
            TraceEvent::IntervalClosed { .. } => "interval_closed",
            TraceEvent::SlaEvaluated { .. } => "sla_evaluated",
            TraceEvent::OutlierFinding { .. } => "outlier_finding",
            TraceEvent::MrcValidation { .. } => "mrc_validation",
            TraceEvent::ActionApplied { .. } => "action_applied",
        }
    }

    /// The canonical single-line JSON encoding (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"event\":\"");
        s.push_str(self.name());
        s.push('"');
        match self {
            TraceEvent::IntervalClosed {
                seq,
                start_us,
                end_us,
                instances,
                classes,
            } => {
                field_u64(&mut s, "seq", *seq);
                field_u64(&mut s, "start_us", *start_us);
                field_u64(&mut s, "end_us", *end_us);
                field_u64(&mut s, "instances", *instances as u64);
                field_u64(&mut s, "classes", *classes as u64);
            }
            TraceEvent::SlaEvaluated {
                end_us,
                app,
                latency_s,
                throughput_qps,
                violated,
            } => {
                field_u64(&mut s, "end_us", *end_us);
                field_u64(&mut s, "app", *app as u64);
                match latency_s {
                    Some(l) => field_f64(&mut s, "latency_s", *l),
                    None => s.push_str(",\"latency_s\":null"),
                }
                field_f64(&mut s, "throughput_qps", *throughput_qps);
                field_bool(&mut s, "violated", *violated);
            }
            TraceEvent::OutlierFinding {
                end_us,
                instance,
                app,
                template,
                metric,
                severity,
                ratio,
                degradation,
            } => {
                field_u64(&mut s, "end_us", *end_us);
                field_u64(&mut s, "instance", *instance as u64);
                field_u64(&mut s, "app", *app as u64);
                field_u64(&mut s, "template", *template as u64);
                field_str(&mut s, "metric", metric);
                field_str(&mut s, "severity", severity);
                field_f64(&mut s, "ratio", *ratio);
                field_bool(&mut s, "degradation", *degradation);
            }
            TraceEvent::MrcValidation {
                end_us,
                instance,
                app,
                template,
                acceptable_pages,
                changed,
            } => {
                field_u64(&mut s, "end_us", *end_us);
                field_u64(&mut s, "instance", *instance as u64);
                field_u64(&mut s, "app", *app as u64);
                field_u64(&mut s, "template", *template as u64);
                field_u64(&mut s, "acceptable_pages", *acceptable_pages);
                field_bool(&mut s, "changed", *changed);
            }
            TraceEvent::ActionApplied {
                end_us,
                kind,
                app,
                instance,
                template,
                pages,
                detail,
            } => {
                field_u64(&mut s, "end_us", *end_us);
                field_str(&mut s, "kind", kind.as_str());
                field_opt_u64(&mut s, "app", app.map(u64::from));
                field_opt_u64(&mut s, "instance", instance.map(u64::from));
                field_opt_u64(&mut s, "template", template.map(u64::from));
                field_opt_u64(&mut s, "pages", *pages);
                field_str(&mut s, "detail", detail);
            }
        }
        s.push('}');
        s
    }
}

fn field_u64(s: &mut String, name: &str, v: u64) {
    let _ = write!(s, ",\"{name}\":{v}");
}

fn field_opt_u64(s: &mut String, name: &str, v: Option<u64>) {
    match v {
        Some(v) => field_u64(s, name, v),
        None => {
            let _ = write!(s, ",\"{name}\":null");
        }
    }
}

fn field_bool(s: &mut String, name: &str, v: bool) {
    let _ = write!(s, ",\"{name}\":{v}");
}

/// Floats use Rust's shortest-roundtrip formatting (deterministic for a
/// given bit pattern); non-finite values become `null` (JSON has no NaN).
fn field_f64(s: &mut String, name: &str, v: f64) {
    if v.is_finite() {
        let _ = write!(s, ",\"{name}\":{v}");
    } else {
        let _ = write!(s, ",\"{name}\":null");
    }
}

fn field_str(s: &mut String, name: &str, v: &str) {
    let _ = write!(s, ",\"{name}\":\"");
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_closed_encoding_is_canonical() {
        let e = TraceEvent::IntervalClosed {
            seq: 3,
            start_us: 30_000_000,
            end_us: 40_000_000,
            instances: 2,
            classes: 14,
        };
        assert_eq!(
            e.to_json(),
            "{\"event\":\"interval_closed\",\"seq\":3,\"start_us\":30000000,\
             \"end_us\":40000000,\"instances\":2,\"classes\":14}"
        );
    }

    #[test]
    fn sla_encoding_handles_missing_latency() {
        let e = TraceEvent::SlaEvaluated {
            end_us: 10_000_000,
            app: 0,
            latency_s: None,
            throughput_qps: 0.0,
            violated: false,
        };
        assert!(e.to_json().contains("\"latency_s\":null"));
        let e = TraceEvent::SlaEvaluated {
            end_us: 10_000_000,
            app: 0,
            latency_s: Some(0.25),
            throughput_qps: 12.5,
            violated: true,
        };
        assert!(e.to_json().contains("\"latency_s\":0.25"));
        assert!(e.to_json().contains("\"violated\":true"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let e = TraceEvent::SlaEvaluated {
            end_us: 0,
            app: 0,
            latency_s: Some(f64::NAN),
            throughput_qps: f64::INFINITY,
            violated: false,
        };
        let json = e.to_json();
        assert!(json.contains("\"latency_s\":null"));
        assert!(json.contains("\"throughput_qps\":null"));
    }

    #[test]
    fn strings_are_escaped() {
        let e = TraceEvent::ActionApplied {
            end_us: 0,
            kind: ActionKind::CoarseFallback,
            app: Some(1),
            instance: None,
            template: None,
            pages: None,
            detail: "say \"hi\"\n\\done".to_string(),
        };
        let json = e.to_json();
        assert!(json.contains("say \\\"hi\\\"\\n\\\\done"));
        assert!(json.contains("\"instance\":null"));
    }

    #[test]
    fn every_kind_has_a_distinct_wire_name() {
        let kinds = [
            ActionKind::DetectedOutliers,
            ActionKind::SetQuota,
            ActionKind::PlacedClass,
            ActionKind::ProvisionedReplica,
            ActionKind::RetiredReplica,
            ActionKind::CoarseFallback,
            ActionKind::LockContention,
            ActionKind::MigratedVm,
            ActionKind::MovedIoHeavyClass,
        ];
        let mut names: Vec<&str> = kinds.iter().map(|k| k.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len());
    }
}
