//! Ablations over the design choices DESIGN.md calls out.
//!
//! * **A1** — fence multipliers: detection counts across a grid of
//!   inner/outer multipliers on the Fig. 4 scenario's data.
//! * **A2** — impact weighting on/off on the same data.
//! * **A3** — fine-grained vs coarse-grained vs CPU-only controllers on
//!   the Table 2 scenario: recovery quality vs machines used.
//! * **A4** — MRC acceptability threshold: how the quota the controller
//!   would grant BestSeller moves with the threshold.
//! * **A5** — exact Mattson vs bucketed approximation: curve deviation.

use crate::bucketed::BucketedTracker;
use odlb_cluster::{Simulation, SimulationConfig};
use odlb_core::{
    ClusterController, CoarseGrainedController, ControllerConfig, CpuOnlyController,
    SelectiveRetuningController,
};
use odlb_engine::EngineConfig;
use odlb_metrics::{AppId, ClassId, MetricVector, Sla};
use odlb_mrc::MattsonTracker;
use odlb_outlier::{detect, OutlierConfig, Weighting};
use odlb_sim::{SimRng, SimTime};
use odlb_storage::DomainId;
use odlb_workload::rubis::{rubis_workload, RubisConfig};
use odlb_workload::tpcw::{bestseller_pattern, tpcw_workload, TpcwConfig, BESTSELLER};
use odlb_workload::{ClientConfig, LoadFunction};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A1 at paper scale as a self-contained figure job: fence multiplier
/// sensitivity on the Fig. 4 snapshot.
pub fn figure_fences() -> String {
    let snap = capture_detection_snapshot(50);
    render_fences(&snap, &[0.5, 1.0, 1.5, 2.0, 3.0, 6.0])
}

/// Renders the A1 table, one line per multiplier.
pub fn render_fences(snap: &DetectionSnapshot, multipliers: &[f64]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>18}",
        "inner", "contexts", "flags BestSeller"
    );
    for row in fence_ablation(snap, multipliers) {
        let _ = writeln!(
            out,
            "{:>8.1} {:>10} {:>18}",
            row.inner, row.contexts, row.flags_bestseller
        );
    }
    out
}

/// A2 at paper scale as a self-contained figure job: impact weighting
/// on/off on the Fig. 4 snapshot.
pub fn figure_weights() -> String {
    let snap = capture_detection_snapshot(50);
    render_weights(&snap)
}

/// Renders the A2 table.
pub fn render_weights(snap: &DetectionSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>22} {:>10} {:>18} {:>14}",
        "weighting", "contexts", "flags BestSeller", "separation"
    );
    for row in weight_ablation(snap) {
        let _ = writeln!(
            out,
            "{:>22} {:>10} {:>18} {:>14.1}",
            row.weighting, row.contexts, row.flags_bestseller, row.bestseller_separation
        );
    }
    out
}

/// A3 at paper scale as a self-contained figure job: controller
/// granularity comparison on the Table 2 scenario.
pub fn figure_coarse() -> String {
    render_coarse(&controller_ablation(50, 30, 25))
}

/// Renders the A3 table.
pub fn render_coarse(rows: &[ControllerAblationRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>22} {:>18} {:>14}",
        "controller", "final latency (s)", "servers used"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:>22} {:>18.2} {:>14}",
            row.controller, row.final_latency_s, row.servers_used
        );
    }
    out
}

/// A4 at paper scale as a self-contained figure job: acceptability
/// threshold vs the BestSeller quota.
pub fn figure_threshold() -> String {
    render_threshold(&mrc_threshold_ablation(
        80,
        &[0.01, 0.02, 0.05, 0.10, 0.15, 0.20],
    ))
}

/// Renders the A4 table.
pub fn render_threshold(rows: &[(f64, usize)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:>12} {:>20}", "threshold", "acceptable (pages)");
    for &(t, pages) in rows {
        let _ = writeln!(out, "{t:>12.2} {pages:>20}");
    }
    out
}

/// A5 at paper scale as a self-contained figure job: exact Mattson vs
/// the bucketed approximation.
pub fn figure_tracker() -> String {
    render_tracker(&tracker_ablation(150, &[1.1, 1.2, 1.5, 2.0, 4.0]))
}

/// Renders the A5 table.
pub fn render_tracker(rows: &[TrackerAblationRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:>8} {:>9} {:>16}", "ratio", "buckets", "max |Δmr|");
    for row in rows {
        let _ = writeln!(
            out,
            "{:>8.1} {:>9} {:>16.4}",
            row.ratio, row.buckets, row.max_deviation
        );
    }
    out
}

/// Captured (current, stable) metric maps from a Fig. 4-style run, the
/// common input to the detection ablations.
pub struct DetectionSnapshot {
    /// The violated interval's per-class metrics.
    pub current: BTreeMap<ClassId, MetricVector>,
    /// Stable-state metrics per class.
    pub stable: BTreeMap<ClassId, MetricVector>,
}

/// Runs the index-drop scenario just far enough to capture one violated
/// interval against its stable baseline.
pub fn capture_detection_snapshot(clients: usize) -> DetectionSnapshot {
    let mut sim = Simulation::new(SimulationConfig {
        seed: 41_2007,
        ..Default::default()
    });
    let server = sim.add_server(4);
    let inst = sim.add_instance(server, DomainId(1), EngineConfig::default());
    let app = sim.add_app(
        tpcw_workload(TpcwConfig::default()),
        Sla::one_second(),
        ClientConfig::default(),
        LoadFunction::Constant(clients),
    );
    sim.assign_replica(app, inst);
    sim.start();
    let mut stable = BTreeMap::new();
    for _ in 0..10 {
        let outcome = sim.run_interval();
        for (&class, &v) in &outcome.reports[&inst].per_class {
            stable.insert(class, v);
        }
    }
    sim.set_class_pattern(app, BESTSELLER, bestseller_pattern(false));
    let mut current = BTreeMap::new();
    for _ in 0..6 {
        let outcome = sim.run_interval();
        if outcome.sla[&app].is_violation() {
            current = outcome.reports[&inst].per_class.clone();
            break;
        }
    }
    DetectionSnapshot { current, stable }
}

/// A1: one grid point of the fence ablation.
#[derive(Clone, Debug)]
pub struct FenceAblationRow {
    /// Inner fence multiplier.
    pub inner: f64,
    /// Outlier contexts found.
    pub contexts: usize,
    /// Whether BestSeller was among them (the true positive).
    pub flags_bestseller: bool,
}

/// A1: sweeps the inner fence multiplier (outer = 2× inner).
pub fn fence_ablation(snapshot: &DetectionSnapshot, multipliers: &[f64]) -> Vec<FenceAblationRow> {
    multipliers
        .iter()
        .map(|&inner| {
            let config = OutlierConfig {
                inner_multiplier: inner,
                outer_multiplier: inner * 2.0,
                ..Default::default()
            };
            let report = detect(&config, &snapshot.current, |c| {
                snapshot.stable.get(&c).copied()
            });
            let contexts = report.outlier_contexts();
            FenceAblationRow {
                inner,
                contexts: contexts.len(),
                flags_bestseller: contexts.iter().any(|c| c.template == BESTSELLER as u32),
            }
        })
        .collect()
}

/// A2: weighting on vs off.
#[derive(Clone, Debug)]
pub struct WeightAblationRow {
    /// Which weighting.
    pub weighting: &'static str,
    /// Outlier contexts found.
    pub contexts: usize,
    /// BestSeller flagged?
    pub flags_bestseller: bool,
    /// BestSeller's misses-impact divided by the median impact — how far
    /// it stands out.
    pub bestseller_separation: f64,
}

/// A2: runs detection with and without impact weighting.
pub fn weight_ablation(snapshot: &DetectionSnapshot) -> Vec<WeightAblationRow> {
    [
        ("normalized-to-least", Weighting::NormalizedToLeast),
        ("unweighted", Weighting::None),
    ]
    .into_iter()
    .map(|(name, weighting)| {
        let config = OutlierConfig {
            weighting,
            ..Default::default()
        };
        let report = detect(&config, &snapshot.current, |c| {
            snapshot.stable.get(&c).copied()
        });
        let contexts = report.outlier_contexts();
        let mut impacts: Vec<f64> = report
            .impacts
            .iter()
            .filter(|((_, k), _)| *k == odlb_metrics::MetricKind::BufferMisses)
            .map(|(_, &v)| v)
            .collect();
        impacts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = impacts.get(impacts.len() / 2).copied().unwrap_or(1.0);
        let bs_impact = report
            .impacts
            .iter()
            .find(|((c, k), _)| {
                c.template == BESTSELLER as u32 && *k == odlb_metrics::MetricKind::BufferMisses
            })
            .map(|(_, &v)| v)
            .unwrap_or(0.0);
        WeightAblationRow {
            weighting: name,
            contexts: contexts.len(),
            flags_bestseller: contexts.iter().any(|c| c.template == BESTSELLER as u32),
            bestseller_separation: bs_impact / median.max(1e-12),
        }
    })
    .collect()
}

/// A3: one controller's outcome on the Table 2 scenario.
#[derive(Clone, Debug)]
pub struct ControllerAblationRow {
    /// Controller name.
    pub controller: &'static str,
    /// TPC-W latency at the end (s).
    pub final_latency_s: f64,
    /// Servers carrying at least one replica at the end.
    pub servers_used: usize,
}

/// A3: runs the Table 2 scenario under each controller.
pub fn controller_ablation(
    tpcw_clients: usize,
    rubis_clients: usize,
    intervals: usize,
) -> Vec<ControllerAblationRow> {
    let run_with =
        |name: &'static str, mut ctl: Box<dyn ClusterController>| -> ControllerAblationRow {
            let mut sim = Simulation::new(SimulationConfig {
                seed: 43_2007,
                ..Default::default()
            });
            let s0 = sim.add_server(4);
            sim.add_server(4);
            sim.add_server(4);
            let inst = sim.add_instance(s0, DomainId(1), EngineConfig::default());
            let tpcw = sim.add_app(
                tpcw_workload(TpcwConfig::default()),
                Sla::one_second(),
                ClientConfig::default(),
                LoadFunction::Constant(tpcw_clients),
            );
            let rubis = sim.add_app(
                rubis_workload(RubisConfig {
                    app: AppId(1),
                    ..Default::default()
                }),
                Sla::one_second(),
                ClientConfig::default(),
                LoadFunction::Step {
                    before: 0,
                    after: rubis_clients,
                    at: SimTime::from_secs(60),
                },
            );
            sim.assign_replica(tpcw, inst);
            sim.assign_replica(rubis, inst);
            sim.start();
            let mut final_latency = f64::NAN;
            for _ in 0..intervals {
                let outcome = sim.run_interval();
                ctl.on_interval(&mut sim, &outcome);
                if let Some(lat) = outcome.app_latency[&tpcw] {
                    final_latency = lat;
                }
            }
            let mut servers: Vec<odlb_metrics::ServerId> = sim
                .replicas_of(tpcw)
                .into_iter()
                .chain(sim.replicas_of(rubis))
                .map(|i| sim.server_of(i))
                .collect();
            servers.sort();
            servers.dedup();
            ControllerAblationRow {
                controller: name,
                final_latency_s: final_latency,
                servers_used: servers.len(),
            }
        };
    vec![
        run_with(
            "selective-retuning",
            Box::new(SelectiveRetuningController::new(ControllerConfig::default())),
        ),
        run_with("coarse-grained", Box::new(CoarseGrainedController::new())),
        run_with("cpu-only", Box::new(CpuOnlyController::new(0.9))),
    ]
}

/// A4: acceptable memory vs threshold for the indexed BestSeller curve.
pub fn mrc_threshold_ablation(queries: usize, thresholds: &[f64]) -> Vec<(f64, usize)> {
    let workload = tpcw_workload(TpcwConfig::default());
    let mut rng = SimRng::new(44_2007);
    let mut tracker = MattsonTracker::new(8192);
    for _ in 0..queries {
        for page in workload.query_of_class(BESTSELLER, &mut rng).pages {
            tracker.access(page);
        }
    }
    thresholds
        .iter()
        .map(|&t| (t, tracker.curve().params(8192, t).acceptable_memory_needed))
        .collect()
}

/// A5: exact vs bucketed tracker deviation on a RUBiS trace.
#[derive(Clone, Copy, Debug)]
pub struct TrackerAblationRow {
    /// Bucket growth ratio.
    pub ratio: f64,
    /// Buckets used.
    pub buckets: usize,
    /// Max |Δ miss-ratio| across probed sizes.
    pub max_deviation: f64,
}

/// A5: runs both trackers over the same trace.
pub fn tracker_ablation(queries: usize, ratios: &[f64]) -> Vec<TrackerAblationRow> {
    let workload = rubis_workload(RubisConfig::default());
    ratios
        .iter()
        .map(|&ratio| {
            let mut rng = SimRng::new(45_2007);
            let mut bucketed = BucketedTracker::new(10_000, ratio);
            for _ in 0..queries {
                for page in workload.sample_query(&mut rng).pages {
                    bucketed.access(page);
                }
            }
            let max_deviation = (1..=20)
                .map(|i| i * 500)
                .map(|m| {
                    (bucketed.curve().miss_ratio(m) - bucketed.exact_curve().miss_ratio(m)).abs()
                })
                .fold(0.0, f64::max);
            TrackerAblationRow {
                ratio,
                buckets: bucketed.buckets(),
                max_deviation,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tighter_fences_find_more() {
        let snap = capture_detection_snapshot(50);
        assert!(!snap.current.is_empty(), "violation must be captured");
        let rows = fence_ablation(&snap, &[0.5, 1.5, 6.0]);
        assert!(rows[0].contexts >= rows[1].contexts);
        assert!(rows[1].contexts >= rows[2].contexts);
        assert!(rows[1].flags_bestseller, "classic fences find BestSeller");
    }

    #[test]
    fn weighting_separates_bestseller_more() {
        let snap = capture_detection_snapshot(50);
        let rows = weight_ablation(&snap);
        let weighted = &rows[0];
        let unweighted = &rows[1];
        assert!(weighted.flags_bestseller);
        assert!(
            weighted.bestseller_separation > unweighted.bestseller_separation,
            "weighting should amplify the heavyweight: {} vs {}",
            weighted.bestseller_separation,
            unweighted.bestseller_separation
        );
    }

    #[test]
    fn threshold_monotonically_shrinks_quota() {
        let rows = mrc_threshold_ablation(40, &[0.01, 0.05, 0.10, 0.20]);
        for pair in rows.windows(2) {
            assert!(
                pair[0].1 >= pair[1].1,
                "larger threshold, smaller quota: {pair:?}"
            );
        }
    }

    #[test]
    fn coarser_buckets_deviate_more_but_stay_pessimistic() {
        let rows = tracker_ablation(60, &[1.2, 2.0]);
        assert!(rows[0].buckets > rows[1].buckets);
        assert!(rows[0].max_deviation <= rows[1].max_deviation + 1e-9);
    }
}
