//! Property tests for the statistical core: quartile/fence invariants and
//! detection behaviour on structured random populations.

use odlb::metrics::{AppId, ClassId, MetricKind, MetricVector};
use odlb::outlier::{detect, quartiles, OutlierConfig};
use odlb_testkit::check;
use std::collections::BTreeMap;

#[test]
fn quartiles_are_ordered_and_within_range() {
    check("quartiles_are_ordered_and_within_range", 256, |g| {
        let values = g.vec_of(1, 200, |g| g.f64_in(-1e6, 1e6));
        let q = quartiles(&values).unwrap();
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(q.q1 <= q.q3);
        assert!(q.q1 >= min - 1e-9 && q.q3 <= max + 1e-9);
        assert!(q.iqr() >= 0.0);
        let inner = q.fences(1.5);
        let outer = q.fences(3.0);
        assert!(outer.low <= inner.low && inner.high <= outer.high);
    });
}

/// Quartiles are order statistics: permutation invariant.
#[test]
fn quartiles_permutation_invariant() {
    check("quartiles_permutation_invariant", 256, |g| {
        let mut values = g.vec_of(2, 50, |g| g.f64_in(-1e3, 1e3));
        let a = quartiles(&values).unwrap();
        values.reverse();
        values.rotate_left(1);
        let b = quartiles(&values).unwrap();
        assert_eq!(a, b);
    });
}

fn no_outliers_check(baselines: &[(f64, f64, f64)]) {
    let mut current = BTreeMap::new();
    let mut stable = BTreeMap::new();
    for (t, &(lat, tput, vol)) in baselines.iter().enumerate() {
        let v = MetricVector::from_fn(|k| match k {
            MetricKind::Latency => lat,
            MetricKind::Throughput => tput,
            _ => vol,
        });
        let class = ClassId::new(AppId(0), t as u32);
        current.insert(class, v);
        stable.insert(class, v);
    }
    let report = detect(&OutlierConfig::default(), &current, |c| {
        stable.get(&c).copied()
    });
    // Every impact is weight × 1.0; fences over the weights cover the
    // weights themselves only when the weight spread is small. What
    // must NEVER appear is a degradation-direction finding: nothing
    // deviates from its own baseline.
    for findings in report.findings.values() {
        for f in findings {
            assert!(
                !(f.metric == MetricKind::Latency && f.indicates_degradation()),
                "latency did not move yet {f:?} flagged as degradation"
            );
        }
    }
}

/// A population of classes that all behave exactly like their stable
/// baselines contains no outliers, whatever the baselines are.
#[test]
fn no_outliers_when_nothing_deviates() {
    check("no_outliers_when_nothing_deviates", 256, |g| {
        let baselines = g.vec_of(4, 30, |g| {
            (
                g.f64_in(0.01, 10.0),
                g.f64_in(1.0, 100.0),
                g.f64_in(1.0, 1e5),
            )
        });
        no_outliers_check(&baselines);
    });
}

/// The shrunk counterexample proptest once found for
/// `no_outliers_when_nothing_deviates` (a weight-dominated finding on a
/// stable population must not read as degradation), preserved as an
/// explicit regression case.
#[test]
fn no_outliers_regression_weight_dominated_population() {
    no_outliers_check(&[
        (6.545941013269372, 1.0, 1.0),
        (9.981702316230402, 1.0, 1.0),
        (6.316396189145635, 1.0, 1.0),
        (7.096532297396459, 1.0, 1.0),
    ]);
}

/// Detection is deterministic: same inputs, same report.
#[test]
fn detection_is_deterministic() {
    check("detection_is_deterministic", 256, |g| {
        let seeds = g.vec_of(4, 20, |g| (g.f64_in(0.1, 5.0), g.f64_in(0.1, 5.0)));
        let mut current = BTreeMap::new();
        let mut stable = BTreeMap::new();
        for (t, &(a, b)) in seeds.iter().enumerate() {
            let class = ClassId::new(AppId(0), t as u32);
            current.insert(class, MetricVector::from_fn(|_| a * (t + 1) as f64));
            stable.insert(class, MetricVector::from_fn(|_| b * (t + 1) as f64));
        }
        let r1 = detect(&OutlierConfig::default(), &current, |c| {
            stable.get(&c).copied()
        });
        let r2 = detect(&OutlierConfig::default(), &current, |c| {
            stable.get(&c).copied()
        });
        assert_eq!(r1.outlier_contexts(), r2.outlier_contexts());
        assert_eq!(r1.new_classes, r2.new_classes);
    });
}

/// An extreme deviation on one class in an otherwise uniform
/// population is always found, at any reasonable fence setting.
#[test]
fn gross_outlier_always_found() {
    check("gross_outlier_always_found", 256, |g| {
        let n = g.u32_in(8, 40);
        let inner = g.f64_in(0.5, 3.0);
        let blowup = g.f64_in(50.0, 1e4);
        let base = MetricVector::from_fn(|_| 100.0);
        let mut current: BTreeMap<ClassId, MetricVector> =
            (0..n).map(|t| (ClassId::new(AppId(0), t), base)).collect();
        let mut hot = base;
        hot[MetricKind::BufferMisses] = 100.0 * blowup;
        let culprit = ClassId::new(AppId(0), n);
        current.insert(culprit, hot);
        let config = OutlierConfig {
            inner_multiplier: inner,
            outer_multiplier: inner * 2.0,
            ..Default::default()
        };
        let report = detect(&config, &current, |_| Some(base));
        assert!(report.outlier_contexts().contains(&culprit));
        assert!(report.memory_suspects().contains(&culprit));
    });
}
