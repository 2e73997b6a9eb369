//! Order statistics: quartiles, interquartile range and Tukey fences.

/// First and third quartiles of a sample — all the fences read.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    /// 25th percentile.
    pub q1: f64,
    /// 75th percentile.
    pub q3: f64,
}

impl Quartiles {
    /// The interquartile range `Q3 − Q1`.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Tukey fences at the given multiplier (1.5 for the inner fence,
    /// 3.0 for the outer fence in the classic rule the paper uses).
    pub fn fences(&self, multiplier: f64) -> Fences {
        let iqr = self.iqr();
        Fences {
            low: self.q1 - multiplier * iqr,
            high: self.q3 + multiplier * iqr,
        }
    }
}

/// A `[low, high]` acceptance band; values outside are outliers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fences {
    /// Lower fence.
    pub low: f64,
    /// Upper fence.
    pub high: f64,
}

impl Fences {
    /// True when `x` lies strictly outside the band.
    pub fn is_outside(&self, x: f64) -> bool {
        x < self.low || x > self.high
    }
}

/// Computes quartiles by the linear-interpolation method (R-7, the common
/// spreadsheet/NumPy default). Returns `None` for an empty sample.
pub fn quartiles(values: &[f64]) -> Option<Quartiles> {
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN metric values"));
    let q = |p: f64| -> f64 {
        let h = p * (sorted.len() - 1) as f64;
        let lo = h.floor() as usize;
        let hi = h.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
        }
    };
    Some(Quartiles {
        q1: q(0.25),
        q3: q(0.75),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_of_1_to_9() {
        let v: Vec<f64> = (1..=9).map(|x| x as f64).collect();
        let q = quartiles(&v).unwrap();
        assert_eq!(q.q1, 3.0);
        assert_eq!(q.q3, 7.0);
        assert_eq!(q.iqr(), 4.0);
    }

    #[test]
    fn quartiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        let q = quartiles(&v).unwrap();
        assert_eq!(q.q1, 1.75);
        assert_eq!(q.q3, 3.25);
    }

    #[test]
    fn quartiles_are_ordered() {
        let v = [9.0, 1.0, 5.0, 5.0, 2.0, 8.0, 3.0];
        let q = quartiles(&v).unwrap();
        assert!(q.q1 <= q.q3);
    }

    #[test]
    fn single_value_degenerates() {
        let q = quartiles(&[4.2]).unwrap();
        assert_eq!((q.q1, q.q3), (4.2, 4.2));
        assert_eq!(q.iqr(), 0.0);
    }

    #[test]
    fn empty_sample_is_none() {
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn fences_and_membership() {
        let q = Quartiles { q1: 10.0, q3: 20.0 };
        let inner = q.fences(1.5);
        assert_eq!(inner.low, -5.0);
        assert_eq!(inner.high, 35.0);
        assert!(!inner.is_outside(0.0));
        assert!(!inner.is_outside(35.0), "fence is inclusive");
        assert!(inner.is_outside(35.1));
        assert!(inner.is_outside(-5.1));
        let outer = q.fences(3.0);
        assert_eq!(outer.high, 50.0);
    }

    #[test]
    fn constant_sample_has_zero_iqr_fences() {
        let v = [7.0; 12];
        let q = quartiles(&v).unwrap();
        let f = q.fences(1.5);
        assert_eq!((f.low, f.high), (7.0, 7.0));
        assert!(!f.is_outside(7.0), "constant data has no outliers");
        assert!(f.is_outside(7.1));
    }
}
