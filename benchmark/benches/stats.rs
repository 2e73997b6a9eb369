//! Order statistics over small samples of measurements.

/// Sorted copy (measurements are finite by the time they get here).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; `NaN` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Smallest and largest value.
pub fn range(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method) — the driver that accepts this
/// benchmark computes its spreads that way, so `compare` does too. Needs
/// two values; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The tail of a timing sample: the highest percentile that still has at
/// least ten samples beyond it, with its level. Below eleven samples no
/// percentile qualifies and the maximum stands in, at level 1.
pub struct Tail {
    pub value: f64,
    pub level: f64,
    pub samples: usize,
}

pub fn tail(values: &[f64]) -> Tail {
    let v = sorted(values);
    let n = v.len();
    if n < 11 {
        return Tail {
            value: v.last().copied().unwrap_or(f64::NAN),
            level: 1.0,
            samples: n,
        };
    }
    Tail {
        value: v[n - 11],
        level: (n - 10) as f64 / n as f64,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&few).value, 9.0);
        assert_eq!(tail(&few).level, 1.0);
        let many: Vec<f64> = (0..100).map(f64::from).collect();
        let t = tail(&many);
        assert_eq!(t.value, 89.0);
        assert_eq!(t.level, 0.9);
        assert_eq!(t.samples, 100);
    }
}
