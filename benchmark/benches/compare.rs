//! `compare <a.json> <b.json>`: one row per (metric, workload) of two
//! result files, `a` the baseline.
//!
//! Host-time metrics are judged against [`paired_bound`]: *regressed*
//! when `b`'s median is worse than `a`'s by more than the bound,
//! *improved* when better by more than it, *unchanged* otherwise — except
//! that where either side's quartile spread is wider than the bound and
//! the two sides' runs overlap, the row is *unresolved*: the measurement
//! cannot tell. Simulated results are exact for a seed, so any
//! difference is reported as *changed*.

use crate::json::{self, Json};
use crate::spec::Spec;
use crate::stats;
use std::fmt::Write as _;
use std::path::Path;

pub struct Report {
    pub text: String,
    pub regressed: usize,
    pub unresolved: usize,
    /// Simulated results that differ between the files.
    pub exact_changed: usize,
}

/// How much worse a metric may read before the pairing counts as a
/// regression: by more than `share` of the baseline's median and by more
/// than `floor` in the metric's own unit.
#[derive(Clone, Copy, Debug)]
pub struct Bound {
    pub share: f64,
    pub floor: f64,
}

/// The bound for two result files measured back to back at one seed,
/// which is what `--sets 2` produces and what a change should be judged
/// on: the same inputs, the same box, minutes apart. The bounds in
/// `BENCHMARK.json` are wider (25%, 15% for memory) because they serve a
/// different comparison: the driver that accepts the benchmark takes
/// medians across ten seeds, twice, up to an hour apart, and this box
/// drifts by up to 24% over such a stretch (README, "Measured noise").
pub fn paired_bound(metric: &str, workload: &str) -> Bound {
    let (share, floor) = match (metric, workload) {
        // Set-up is page-fault bound at scale and a few milliseconds
        // elsewhere; a quarter of a second is the least worth reporting.
        ("setup_s", _) => (0.25, 0.25),
        ("work_per_sec", "paper_suite") => (0.06, 0.0),
        ("work_per_sec", _) => (0.08, 0.0),
        ("peak_rss_mb", _) => (0.05, 0.0),
        (other, _) => panic!("no bound for end-to-end metric '{other}'"),
    };
    Bound { share, floor }
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// Judges one host-time metric. `a` and `b` hold one value per repeat.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: Bound) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    // Positive when `b` is worse, in the metric's unit.
    let worse_by = if higher_is_better { ma - mb } else { mb - ma };
    // What a difference has to exceed to count.
    let least = (bound.share * ma.abs()).max(bound.floor);
    let wide = |v: &[f64]| {
        let (q1, q3) = stats::quartiles(v);
        q3 - q1 > least
    };
    let ((a_lo, a_hi), (b_lo, b_hi)) = (stats::range(a), stats::range(b));
    let overlap = a_lo <= b_hi && b_lo <= a_hi;
    if (wide(a) || wide(b)) && overlap {
        Verdict::Unresolved
    } else if worse_by > least {
        Verdict::Regressed
    } else if worse_by < -least {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn values(doc: &Json, workload: &str, section: &str, metric: &str) -> Option<Vec<f64>> {
    let v = doc
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get(metric)?;
    match v {
        Json::Num(x) => Some(vec![*x]),
        Json::Arr(items) => items.iter().map(Json::as_f64).collect(),
        _ => None,
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn compare_files(spec: &Spec, a: &Path, b: &Path) -> Result<Report, String> {
    Ok(compare(spec, &load(a)?, &load(b)?))
}

pub fn compare(spec: &Spec, a: &Json, b: &Json) -> Report {
    let mut r = Report {
        text: String::new(),
        regressed: 0,
        unresolved: 0,
        exact_changed: 0,
    };
    let _ = writeln!(
        r.text,
        "{:<20} {:<14} {:>11} {:>14} {:>14} {:>14} {:>14}  (ratio = b/a, a is the base)",
        "workload", "metric", "verdict", "a median", "a q1..q3", "b median", "b q1..q3"
    );
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let (Some(va), Some(vb)) = (
                values(a, workload, "end_to_end", &metric.name),
                values(b, workload, "end_to_end", &metric.name),
            ) else {
                continue;
            };
            let bound = paired_bound(&metric.name, workload);
            let verdict = judge(&va, &vb, metric.higher_is_better, bound);
            match verdict {
                Verdict::Regressed => r.regressed += 1,
                Verdict::Unresolved => r.unresolved += 1,
                _ => {}
            }
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let ((a1, a3), (b1, b3)) = (stats::quartiles(&va), stats::quartiles(&vb));
            let _ = writeln!(
                r.text,
                "{workload:<20} {:<14} {:>11} {ma:>14.4} {:>14} {mb:>14.4} {:>14}  ratio {:.4} bound {} {}",
                metric.name,
                format!("{verdict:?}").to_lowercase(),
                format!("{a1:.4}..{a3:.4}"),
                format!("{b1:.4}..{b3:.4}"),
                mb / ma,
                bound.share,
                metric.unit,
            );
        }
        // Simulated results: exact for a seed, so compared for equality.
        let names: Vec<&str> = a
            .get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("exact"))
            .and_then(Json::members)
            .unwrap_or_default()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        for name in names {
            let (Some(va), Some(vb)) = (
                values(a, workload, "exact", name),
                values(b, workload, "exact", name),
            ) else {
                continue;
            };
            if va != vb {
                r.exact_changed += 1;
                let _ = writeln!(
                    r.text,
                    "{workload:<20} {name:<14} {:>11} {:>14} {:>14} {:>14}",
                    "changed", va[0], "", vb[0]
                );
            }
        }
    }
    let _ = writeln!(
        r.text,
        "{} regressed, {} unresolved, {} simulated results changed",
        r.regressed, r.unresolved, r.exact_changed
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let eight = Bound {
            share: 0.08,
            floor: 0.0,
        };
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.8, 99.4, 100.1, 99.9];
        assert_eq!(judge(&base, &same, true, eight), Verdict::Unchanged);
        let slower = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(judge(&base, &slower, true, eight), Verdict::Regressed);
        assert_eq!(judge(&slower, &base, true, eight), Verdict::Improved);
        // Lower-is-better flips the direction.
        assert_eq!(judge(&base, &slower, false, eight), Verdict::Improved);
        // Wide, overlapping runs cannot be told apart.
        let noisy_a = [100.0, 130.0, 80.0, 120.0, 90.0];
        let noisy_b = [95.0, 125.0, 85.0, 115.0, 70.0];
        assert_eq!(judge(&noisy_a, &noisy_b, true, eight), Verdict::Unresolved);
        // Wide but disjoint: every run of b beats every run of a.
        let far = [300.0, 390.0, 240.0, 360.0, 270.0];
        assert_eq!(judge(&noisy_a, &far, true, eight), Verdict::Improved);
        // A difference below the floor does not count, whatever its share.
        let floored = paired_bound("setup_s", "tpcw_rubis");
        let (quick, slow) = ([0.010, 0.011, 0.012], [0.020, 0.021, 0.022]);
        assert_eq!(judge(&quick, &slow, false, floored), Verdict::Unchanged);
        let (quick, slow) = ([1.0, 1.1, 1.2], [2.0, 2.1, 2.2]);
        assert_eq!(judge(&quick, &slow, false, floored), Verdict::Regressed);
    }

    #[test]
    fn a_changed_simulated_result_is_reported() {
        let spec = Spec::load().unwrap();
        let file = |events: f64| {
            json::parse(&format!(
                r#"{{"workloads": {{"scale_point": {{
                    "end_to_end": {{"setup_s": [1.0, 1.1, 0.9]}},
                    "exact": {{"model.events": {events}}}}}}}}}"#
            ))
            .unwrap()
        };
        let same = compare(&spec, &file(5.0), &file(5.0));
        assert_eq!(
            (same.regressed, same.unresolved, same.exact_changed),
            (0, 0, 0)
        );
        assert!(same.text.contains("setup_s"));
        let changed = compare(&spec, &file(5.0), &file(6.0));
        assert_eq!(changed.exact_changed, 1);
        assert!(changed.text.contains("changed"));
    }
}
