//! Fig. 4 — dropping the `O_DATE` index (§5.3).
//!
//! TPC-W runs alone and reaches stable state; then the index used by
//! BestSeller's plan is dropped. The figure plots, per query class, the
//! ratio of the current measured value to the stable state average for
//! four metrics: latency, throughput, misses, read-ahead. The paper's
//! observations to reproduce:
//!
//! * latency up / throughput down broadly (everyone suffers through the
//!   shared pool and disk);
//! * misses up broadly;
//! * read-ahead spikes sharply for only a few classes (the new scan);
//! * outlier detection flags a handful of mild outliers including
//!   BestSeller (#8) and NewProducts (#9);
//! * MRC recomputation then isolates BestSeller as the one class whose
//!   parameters changed, and a quota is enforced for it.

use super::scenario::{self, Phase, APP, INST};
use super::Observers;
use odlb_core::Action;
use odlb_metrics::{MetricKind, MetricVector};
use odlb_workload::tpcw::BESTSELLER;
use std::collections::BTreeMap;
use std::ops::ControlFlow;

/// Per-class deviation ratios at the violated interval.
#[derive(Clone, Debug)]
pub struct Fig4Result {
    /// Per class template index: [latency, throughput, misses, readahead]
    /// ratios current/stable.
    pub ratios: BTreeMap<u32, [f64; 4]>,
    /// Outlier contexts (template indices) the detector flagged.
    pub outlier_contexts: Vec<u32>,
    /// Counts of mild/extreme findings.
    pub mild: usize,
    /// Extreme findings.
    pub extreme: usize,
    /// Classes whose recomputed MRC changed significantly.
    pub mrc_changed: Vec<u32>,
    /// TPC-W mean latency before the drop (stable state).
    pub latency_before: f64,
    /// TPC-W mean latency at the violated interval.
    pub latency_after_drop: f64,
    /// TPC-W mean latency after the controller's action settled.
    pub latency_after_action: f64,
    /// Every action but outlier detection, rendered: the applied ones
    /// (quotas, re-placements, isolation) and one `RecomputedMrc`
    /// diagnostic record per recomputed curve, which applies nothing.
    pub actions: Vec<String>,
}

/// Runs the scenario unobserved. `clients` TPC-W sessions;
/// `stable_intervals` of warm-up + stable-state recording before the
/// drop; up to `recovery_intervals` afterwards.
pub fn run(clients: usize, stable_intervals: usize, recovery_intervals: usize) -> Fig4Result {
    run_observed(
        &Observers::default(),
        clients,
        stable_intervals,
        recovery_intervals,
    )
}

/// [`run`] with the driver and controller observed through `observers`
/// (the figure table, `--trace`/`--metrics` and the golden-trace suite go
/// through here). Observation-only — the result and run digest are
/// identical to an unobserved run.
pub fn run_observed(
    observers: &Observers,
    clients: usize,
    stable_intervals: usize,
    recovery_intervals: usize,
) -> Fig4Result {
    let mut sim = scenario::index_drop(4_2007, clients, 0);
    let ctl = &mut observers.start(&mut sim);
    let mut stable: BTreeMap<u32, MetricVector> = BTreeMap::new();
    let mut result = Fig4Result {
        ratios: BTreeMap::new(),
        outlier_contexts: Vec::new(),
        mild: 0,
        extreme: 0,
        mrc_changed: Vec::new(),
        latency_before: f64::NAN,
        latency_after_drop: f64::NAN,
        latency_after_action: f64::NAN,
        actions: Vec::new(),
    };
    let phases = [
        Phase::controlled(stable_intervals),
        Phase::controlled(recovery_intervals).after(scenario::drop_odate_index),
    ];
    let mut captured = false;
    scenario::drive(&mut sim, Some(ctl), &phases, |phase, _, _, out, actions| {
        let per_class = &out.reports[&INST].per_class;
        if phase == 0 {
            result.latency_before = out.app_latency[&APP].unwrap_or(result.latency_before);
            stable.extend(per_class.iter().map(|(class, &v)| (class.template, v)));
            return ControlFlow::Continue(());
        }
        if out.sla[&APP].is_violation() && !captured {
            captured = true;
            result.latency_after_drop = out.app_latency[&APP].unwrap_or(f64::NAN);
            for (class, v) in per_class {
                let s = stable.get(&class.template);
                let ratio = |k| match s.map(|s| s[k]) {
                    Some(s) if s.abs() >= 1e-12 => v[k] / s,
                    _ => f64::NAN,
                };
                result.ratios.insert(class.template, PANELS.map(ratio));
            }
        }
        for action in actions {
            match action {
                Action::DetectedOutliers {
                    contexts,
                    mild,
                    extreme,
                    ..
                } => {
                    if result.outlier_contexts.is_empty() {
                        result.outlier_contexts = contexts.iter().map(|c| c.template).collect();
                        (result.mild, result.extreme) = (*mild, *extreme);
                    }
                    continue;
                }
                Action::RecomputedMrc { class, changed, .. }
                    if *changed && !result.mrc_changed.contains(&class.template) =>
                {
                    result.mrc_changed.push(class.template)
                }
                _ => {}
            }
            result.actions.push(action.to_string());
        }
        result.latency_after_action = out.app_latency[&APP].unwrap_or(result.latency_after_action);
        ControlFlow::Continue(())
    });
    observers.tracer.flush();
    result
}

/// The four panels' metrics, in [`Fig4Result::ratios`] order.
const PANELS: [MetricKind; 4] = [
    MetricKind::Latency,
    MetricKind::Throughput,
    MetricKind::BufferMisses,
    MetricKind::ReadAheads,
];

/// Renders the four ratio panels plus the diagnosis summary.
pub fn render(r: &Fig4Result) -> String {
    let mut out = String::new();
    out.push_str("Fig. 4: Dropping the O_DATE Index — current / stable ratios per query class\n\n");
    out.push_str(&format!(
        "{:>8}  {:>10} {:>11} {:>9} {:>11} {:>13}\n",
        "class", "latency", "throughput", "misses", "readahead", "misses/query"
    ));
    for (class, ratios) in &r.ratios {
        out.push_str(&format!(
            "{:>8}  {:>10.2} {:>11.2} {:>9.2} {:>11.2} {:>13.2}{}\n",
            format!("#{class}"),
            ratios[0],
            ratios[1],
            ratios[2],
            ratios[3],
            // Interval counters shrink when throughput collapses (closed
            // loop); per-query normalisation shows the per-execution cost
            // rise the paper's open-loop counters show directly.
            ratios[2] / ratios[1],
            if *class == BESTSELLER as u32 {
                "   <- BestSeller"
            } else if *class == 9 {
                "   <- NewProducts"
            } else {
                ""
            }
        ));
    }
    out.push_str(&format!(
        "\nLatency: stable {:.3}s -> after drop {:.3}s -> after action {:.3}s\n",
        r.latency_before, r.latency_after_drop, r.latency_after_action
    ));
    out.push_str(&format!(
        "Outlier contexts: {:?} ({} mild, {} extreme)\n",
        r.outlier_contexts, r.mild, r.extreme
    ));
    out.push_str(&format!("MRC significantly changed: {:?}\n", r.mrc_changed));
    out.push_str("Actions:\n");
    for a in &r.actions {
        out.push_str(&format!("  {a}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_drop_is_detected_and_bestseller_isolated() {
        let r = run(50, 12, 12);
        // The drop degrades latency noticeably.
        assert!(
            r.latency_after_drop > r.latency_before * 1.5,
            "drop must hurt: {:.3} -> {:.3}",
            r.latency_before,
            r.latency_after_drop
        );
        // BestSeller's read-ahead ratio explodes relative to others.
        let bs = r.ratios[&(BESTSELLER as u32)];
        assert!(
            bs[3] > 3.0 || bs[3].is_nan(),
            "BestSeller readahead ratio {}",
            bs[3]
        );
        // Outlier detection flags BestSeller among its contexts.
        assert!(
            r.outlier_contexts.contains(&(BESTSELLER as u32)),
            "BestSeller must be an outlier context: {:?}",
            r.outlier_contexts
        );
        // The MRC recheck singles out BestSeller as changed.
        assert!(
            r.mrc_changed.contains(&(BESTSELLER as u32)),
            "changed MRCs: {:?}",
            r.mrc_changed
        );
    }
}
