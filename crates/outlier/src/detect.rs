//! The outlier-context detection pipeline (paper §3.3.1).

use crate::quartiles::quartiles;
use odlb_metrics::{ClassId, MetricKind, MetricVector, METRIC_KINDS};
use std::collections::BTreeMap;

/// How metric weights are derived.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Weighting {
    /// No weighting: impacts are raw deviation ratios (ablation A2).
    None,
    /// The paper's scheme: each class's metric value normalised to the
    /// least positive value across classes for the same metric, so heavy
    /// classes get proportionally heavy impacts.
    NormalizedToLeast,
}

/// Detection parameters. Defaults follow the classic Tukey rule the paper
/// cites: 1.5·IQR inner fence (mild), 3·IQR outer fence (extreme).
#[derive(Clone, Copy, Debug)]
pub struct OutlierConfig {
    /// Inner-fence multiplier (mild outliers).
    pub inner_multiplier: f64,
    /// Outer-fence multiplier (extreme outliers).
    pub outer_multiplier: f64,
    /// Weighting scheme.
    pub weighting: Weighting,
}

impl Default for OutlierConfig {
    fn default() -> Self {
        OutlierConfig {
            inner_multiplier: 1.5,
            outer_multiplier: 3.0,
            weighting: Weighting::NormalizedToLeast,
        }
    }
}

/// Cap on current/stable deviation ratios; also the ratio assigned to
/// behaviour with no stable baseline (see [`MetricVector::ratio_to`]).
/// §3.3.1 divides by the stable value and says nothing of a zero one.
const RATIO_CAP: f64 = 100.0;

/// Outlier severity: which fence the impact escaped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Outside the inner fence only.
    Mild,
    /// Outside the outer fence.
    Extreme,
}

/// Which side of the fences the impact escaped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Above the upper fence.
    High,
    /// Below the lower fence.
    Low,
}

/// One outlier impact found in a query context.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OutlierFinding {
    /// The metric whose impact escaped the fences (the weighted value
    /// itself is in [`DetectionReport::impacts`]).
    pub metric: MetricKind,
    /// The raw current/stable deviation ratio (before weighting).
    pub ratio: f64,
    /// Mild or extreme.
    pub severity: Severity,
    /// High or low side.
    pub direction: Direction,
}

impl OutlierFinding {
    /// True when this finding points in the metric's "worse" direction
    /// (high for latency/misses/…, low for throughput) AND the class
    /// actually deviated from its own baseline. The weighting scheme can
    /// push a *stable* heavyweight class outside the fences (its impact
    /// is dominated by its weight); such a finding locates where load
    /// concentrates but is not evidence of degradation.
    pub fn indicates_degradation(&self) -> bool {
        let direction_bad = match self.direction {
            Direction::High => self.metric.higher_is_worse(),
            Direction::Low => !self.metric.higher_is_worse(),
        };
        let deviated = if self.metric.higher_is_worse() {
            self.ratio > 1.1
        } else {
            self.ratio < 0.9
        };
        direction_bad && deviated
    }
}

/// The result of one detection pass over one server's classes.
#[derive(Clone, Debug, Default)]
pub struct OutlierReport {
    /// Findings per query context, sorted by class for determinism.
    pub findings: BTreeMap<ClassId, Vec<OutlierFinding>>,
    /// Classes with no stable signature (newly scheduled): automatically
    /// problem classes for MRC investigation (§3.3.2).
    pub new_classes: Vec<ClassId>,
    /// All computed impacts, for reporting and the fence ablation.
    /// Ordered so downstream iteration (figures, ablation medians) is
    /// deterministic.
    pub impacts: BTreeMap<(ClassId, MetricKind), f64>,
}

impl OutlierReport {
    /// Query contexts containing at least one outlier impact.
    pub fn outlier_contexts(&self) -> Vec<ClassId> {
        self.findings.keys().copied().collect()
    }

    /// Contexts whose outliers include a *memory-related* counter in the
    /// degradation direction: the problem classes handed to MRC
    /// recomputation.
    pub fn memory_suspects(&self) -> Vec<ClassId> {
        self.findings
            .iter()
            .filter(|(_, fs)| {
                fs.iter()
                    .any(|f| f.metric.is_memory_related() && f.indicates_degradation())
            })
            .map(|(c, _)| *c)
            .collect()
    }

    /// True when detection surfaced nothing (triggering the paper's
    /// top-k-heavyweight fallback).
    pub fn is_empty(&self) -> bool {
        self.findings.is_empty() && self.new_classes.is_empty()
    }

    /// Count of findings at the given severity.
    pub fn count_severity(&self, severity: Severity) -> usize {
        self.findings
            .values()
            .flatten()
            .filter(|f| f.severity == severity)
            .count()
    }
}

/// Runs the full detection pipeline over one server's classes.
///
/// `current` holds each class's interval metrics; `stable` returns the
/// class's stable-state metric vector, or `None` for a newly scheduled
/// class (which is then reported in
/// [`OutlierReport::new_classes`] rather than fenced — with no baseline,
/// a deviation ratio is meaningless).
pub fn detect(
    config: &OutlierConfig,
    current: &BTreeMap<ClassId, MetricVector>,
    stable: impl Fn(ClassId) -> Option<MetricVector>,
) -> OutlierReport {
    let mut report = OutlierReport::default();

    // Split classes into baselined and new.
    let mut baselined: Vec<(ClassId, MetricVector, MetricVector)> = Vec::new();
    for (&class, &cur) in current {
        match stable(class) {
            Some(st) => baselined.push((class, cur, st)),
            None => report.new_classes.push(class),
        }
    }
    if baselined.is_empty() {
        return report;
    }

    for metric in METRIC_KINDS {
        // Weights: normalise each class's metric value to the least
        // positive value across classes for that metric.
        let least_positive = baselined
            .iter()
            .map(|(_, cur, _)| cur[metric])
            .filter(|v| *v > 0.0)
            .fold(f64::INFINITY, f64::min);
        let weight = |value: f64| -> f64 {
            match config.weighting {
                Weighting::None => 1.0,
                Weighting::NormalizedToLeast => {
                    if least_positive.is_finite() && value > 0.0 {
                        value / least_positive
                    } else {
                        1.0
                    }
                }
            }
        };

        // Metric impact values.
        let impacts: Vec<(ClassId, f64, f64)> = baselined
            .iter()
            .map(|(class, cur, st)| {
                let ratio = cur.ratio_to(st, RATIO_CAP)[metric];
                (*class, ratio * weight(cur[metric]), ratio)
            })
            .collect();
        for &(class, impact, _) in &impacts {
            report.impacts.insert((class, metric), impact);
        }

        // Fences over this metric's impact distribution.
        let values: Vec<f64> = impacts.iter().map(|&(_, v, _)| v).collect();
        let Some(q) = quartiles(&values) else {
            continue;
        };
        let inner = q.fences(config.inner_multiplier);
        let outer = q.fences(config.outer_multiplier);

        for &(class, impact, ratio) in &impacts {
            if !inner.is_outside(impact) {
                continue;
            }
            let severity = if outer.is_outside(impact) {
                Severity::Extreme
            } else {
                Severity::Mild
            };
            let direction = if impact > inner.high {
                Direction::High
            } else {
                Direction::Low
            };
            report
                .findings
                .entry(class)
                .or_default()
                .push(OutlierFinding {
                    metric,
                    ratio,
                    severity,
                    direction,
                });
        }
    }
    report
}

/// The paper's fallback when no outlier context is found: the top-k
/// heavyweight classes by a (memory) metric, heaviest first.
pub fn top_k_heavyweight(
    current: &BTreeMap<ClassId, MetricVector>,
    metric: MetricKind,
    k: usize,
) -> Vec<ClassId> {
    let mut ranked: Vec<(ClassId, f64)> = current.iter().map(|(&c, v)| (c, v[metric])).collect();
    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("no NaN metrics")
            .then(a.0.cmp(&b.0))
    });
    ranked.into_iter().take(k).map(|(c, _)| c).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use odlb_metrics::AppId;

    fn class(t: u32) -> ClassId {
        ClassId::new(AppId(0), t)
    }

    /// A metric vector with uniform small values everywhere.
    fn baseline_vector() -> MetricVector {
        MetricVector::from_fn(|k| match k {
            MetricKind::Latency => 0.1,
            MetricKind::Throughput => 10.0,
            MetricKind::BufferMisses => 100.0,
            MetricKind::PageAccesses => 1_000.0,
            MetricKind::IoRequests => 100.0,
            MetricKind::ReadAheads => 5.0,
            MetricKind::LockWaits => 0.5,
        })
    }

    /// `n` classes all currently behaving exactly like their baselines.
    fn quiet_population(n: u32) -> BTreeMap<ClassId, MetricVector> {
        (0..n).map(|t| (class(t), baseline_vector())).collect()
    }

    #[test]
    fn quiet_system_has_no_outliers() {
        let current = quiet_population(12);
        let report = detect(&OutlierConfig::default(), &current, |_| {
            Some(baseline_vector())
        });
        assert!(report.findings.is_empty());
        assert!(report.new_classes.is_empty());
        assert!(report.is_empty());
    }

    #[test]
    fn single_deviant_class_is_flagged() {
        let mut current = quiet_population(12);
        // Class 8 (BestSeller in the paper's numbering) explodes in misses
        // and read-aheads.
        let mut hot = baseline_vector();
        hot[MetricKind::BufferMisses] = 5_000.0;
        hot[MetricKind::ReadAheads] = 500.0;
        current.insert(class(8), hot);
        let report = detect(&OutlierConfig::default(), &current, |_| {
            Some(baseline_vector())
        });
        assert_eq!(report.outlier_contexts(), vec![class(8)]);
        assert_eq!(report.memory_suspects(), vec![class(8)]);
        let findings = &report.findings[&class(8)];
        assert!(findings
            .iter()
            .any(|f| f.metric == MetricKind::BufferMisses && f.severity == Severity::Extreme));
        assert!(findings.iter().all(|f| f.indicates_degradation()));
    }

    #[test]
    fn throughput_collapse_is_a_low_outlier() {
        let mut current = quiet_population(12);
        let mut slow = baseline_vector();
        slow[MetricKind::Throughput] = 0.5;
        current.insert(class(3), slow);
        let report = detect(&OutlierConfig::default(), &current, |_| {
            Some(baseline_vector())
        });
        let findings = &report.findings[&class(3)];
        let f = findings
            .iter()
            .find(|f| f.metric == MetricKind::Throughput)
            .expect("throughput finding");
        assert_eq!(f.direction, Direction::Low);
        assert!(f.indicates_degradation());
        // Throughput is not a memory metric: not a memory suspect.
        assert!(report.memory_suspects().is_empty());
    }

    #[test]
    fn weighting_amplifies_heavyweight_classes() {
        // Two classes deviate by the same ratio (x3 misses), but one is a
        // heavyweight (1000x the misses volume). With weighting, only the
        // heavyweight should escape the fences.
        let mut current = BTreeMap::new();
        for t in 0..10 {
            current.insert(class(t), baseline_vector());
        }
        let mut heavy_stable = baseline_vector();
        heavy_stable[MetricKind::BufferMisses] = 100_000.0;
        let mut heavy_cur = heavy_stable;
        heavy_cur[MetricKind::BufferMisses] = 300_000.0;
        let mut light_cur = baseline_vector();
        light_cur[MetricKind::BufferMisses] = 300.0;
        current.insert(class(20), heavy_cur);
        current.insert(class(21), light_cur);

        let stable = move |c: ClassId| {
            Some(if c == class(20) {
                heavy_stable
            } else {
                baseline_vector()
            })
        };

        let weighted = detect(&OutlierConfig::default(), &current, stable);
        let heavy_findings: Vec<_> = weighted.findings[&class(20)]
            .iter()
            .filter(|f| f.metric == MetricKind::BufferMisses)
            .collect();
        assert!(!heavy_findings.is_empty(), "heavyweight flagged");
        let heavy_impact = weighted.impacts[&(class(20), MetricKind::BufferMisses)];
        let light_impact = weighted.impacts[&(class(21), MetricKind::BufferMisses)];
        assert!(
            heavy_impact > 100.0 * light_impact,
            "weighting separates heavy ({heavy_impact}) from light ({light_impact})"
        );
    }

    #[test]
    fn unweighted_mode_treats_equal_ratios_equally() {
        let mut current = quiet_population(10);
        let mut a = baseline_vector();
        a[MetricKind::BufferMisses] = 300.0;
        current.insert(class(20), a);
        let config = OutlierConfig {
            weighting: Weighting::None,
            ..Default::default()
        };
        let report = detect(&config, &current, |_| Some(baseline_vector()));
        let impact = report.impacts[&(class(20), MetricKind::BufferMisses)];
        assert!((impact - 3.0).abs() < 1e-9, "impact is the raw ratio");
    }

    #[test]
    fn new_class_is_reported_not_fenced() {
        let mut current = quiet_population(8);
        current.insert(class(99), baseline_vector());
        let report = detect(&OutlierConfig::default(), &current, |c| {
            if c == class(99) {
                None
            } else {
                Some(baseline_vector())
            }
        });
        assert_eq!(report.new_classes, vec![class(99)]);
        assert!(!report.findings.contains_key(&class(99)));
    }

    #[test]
    fn all_classes_new_yields_only_new_list() {
        let current = quiet_population(5);
        let report = detect(&OutlierConfig::default(), &current, |_| None);
        assert_eq!(report.new_classes.len(), 5);
        assert!(report.findings.is_empty());
        assert!(!report.is_empty());
    }

    #[test]
    fn zero_iqr_population_flags_only_the_deviant() {
        // Failure injection: identical impacts everywhere except one.
        let mut current = quiet_population(20);
        let mut hot = baseline_vector();
        hot[MetricKind::Latency] = 0.2;
        current.insert(class(5), hot);
        let report = detect(&OutlierConfig::default(), &current, |_| {
            Some(baseline_vector())
        });
        assert_eq!(report.outlier_contexts(), vec![class(5)]);
    }

    #[test]
    fn empty_input_is_empty_report() {
        let current = BTreeMap::new();
        let report = detect(&OutlierConfig::default(), &current, |_| {
            Some(baseline_vector())
        });
        assert!(report.is_empty());
    }

    #[test]
    fn wider_fences_find_fewer_outliers() {
        // A population with natural spread (distinct weights) so the IQR
        // is non-zero and the multiplier actually matters.
        let mut current: BTreeMap<ClassId, MetricVector> = BTreeMap::new();
        for t in 0..12 {
            let mut v = baseline_vector();
            v[MetricKind::BufferMisses] = 50.0 + t as f64 * 10.0;
            current.insert(class(t), v);
        }
        let mut warm = baseline_vector();
        warm[MetricKind::BufferMisses] = 150.0; // 1.5x its stable baseline
        current.insert(class(20), warm);
        // Quiet classes are exactly at their stable baselines (ratio 1);
        // class 20's stable misses were 100 (so its ratio is 1.5).
        let snapshot = current.clone();
        let stable = move |c: ClassId| {
            if c == class(20) {
                Some(baseline_vector())
            } else {
                snapshot.get(&c).copied()
            }
        };
        let tight = OutlierConfig {
            inner_multiplier: 0.1,
            outer_multiplier: 0.2,
            ..Default::default()
        };
        let loose = OutlierConfig {
            inner_multiplier: 10.0,
            outer_multiplier: 20.0,
            ..Default::default()
        };
        let n_tight = detect(&tight, &current, stable.clone()).findings.len();
        let n_loose = detect(&loose, &current, stable).findings.len();
        assert!(n_tight >= n_loose);
        assert_eq!(n_loose, 0);
    }

    #[test]
    fn top_k_heavyweight_ranks_by_metric() {
        let mut current = BTreeMap::new();
        for t in 0..5 {
            let mut v = baseline_vector();
            v[MetricKind::PageAccesses] = (t as f64 + 1.0) * 100.0;
            current.insert(class(t), v);
        }
        let top = top_k_heavyweight(&current, MetricKind::PageAccesses, 2);
        assert_eq!(top, vec![class(4), class(3)]);
        let all = top_k_heavyweight(&current, MetricKind::PageAccesses, 50);
        assert_eq!(all.len(), 5, "k larger than population is fine");
    }

    #[test]
    fn severity_counts() {
        let mut current = quiet_population(12);
        let mut hot = baseline_vector();
        hot[MetricKind::BufferMisses] = 1e6;
        current.insert(class(8), hot);
        let report = detect(&OutlierConfig::default(), &current, |_| {
            Some(baseline_vector())
        });
        assert!(report.count_severity(Severity::Extreme) >= 1);
    }
}
