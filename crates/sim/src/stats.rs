//! Integer-exact quantile ranks for the measurement layer's histograms.

/// Nearest-rank of the `q`-quantile over `n` samples, computed in integer
/// arithmetic: the 1-based rank `⌈q·n⌉` clamped to `1..=n`.
///
/// The naive float form `(q * n as f64).ceil()` is fragile exactly where
/// it matters — when `q·n` lands on an integer boundary, one ulp of
/// product rounding error crosses the boundary and shifts the rank by
/// one (`0.07 * 100.0 = 7.000000000000001`, so p7 of 100 samples picked
/// rank 8). Here `q` is quantized once to parts-per-million — exact for
/// every decimal quantile callers use (p50, p95, p99, p99.9, …) — and
/// the ceiling division is integer, so the boundary is hit exactly.
///
/// `q ≤ 0` (and NaN) yield rank 1, `q ≥ 1` yields rank `n`, mirroring
/// the old clamp. `n` must be nonzero.
pub fn nearest_rank(q: f64, n: u64) -> u64 {
    debug_assert!(n > 0, "nearest_rank of an empty sample");
    if q.is_nan() || q <= 0.0 {
        return 1;
    }
    if q >= 1.0 {
        return n;
    }
    const SCALE: u128 = 1_000_000;
    let num = (q * SCALE as f64).round() as u128;
    let rank = (num * n as u128).div_ceil(SCALE) as u64;
    rank.clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression for the float-fragile rank: `0.07 * 100.0` is
    /// `7.000000000000001` in f64, so `(q * len).ceil()` picked rank 8
    /// for p7 of 100 samples (and 56 for p55). The integer rank hits the
    /// boundary exactly.
    #[test]
    fn percentiles_rank_is_exact_on_integer_boundaries() {
        assert_eq!(nearest_rank(0.07, 100), 7);
        assert_eq!(nearest_rank(0.55, 100), 55);
        assert_eq!(nearest_rank(0.14, 100), 14);
    }

    /// Property: across the quantile grid and every length 1..=64 (and a
    /// few larger), `nearest_rank` equals the brute-force oracle — the
    /// smallest 1-based rank `r` with `r ≥ q·n` under exact rational
    /// (parts-per-million) arithmetic.
    #[test]
    fn nearest_rank_matches_brute_force_oracle() {
        let grid = [0.0, 0.25, 0.5, 0.95, 0.99, 1.0];
        let fine: Vec<f64> = (0..=1000).map(|i| i as f64 / 1000.0).collect();
        for &q in grid.iter().chain(fine.iter()) {
            for n in (1..=64).chain([100, 128, 1000, 4096]) {
                let num = (q * 1e6).round() as u128;
                let oracle = (1..=n)
                    .find(|&r| r as u128 * 1_000_000 >= num * n as u128)
                    .unwrap_or(n);
                assert_eq!(
                    nearest_rank(q, n),
                    oracle,
                    "q={q} n={n}: rank diverged from oracle"
                );
            }
        }
    }

    #[test]
    fn nearest_rank_edge_cases() {
        assert_eq!(nearest_rank(0.0, 7), 1, "q=0 is the minimum");
        assert_eq!(nearest_rank(1.0, 7), 7, "q=1 is the maximum");
        assert_eq!(nearest_rank(f64::NAN, 7), 1, "NaN degrades to rank 1");
        assert_eq!(nearest_rank(-0.5, 7), 1);
        assert_eq!(nearest_rank(1.5, 7), 7);
        assert_eq!(nearest_rank(1e-12, 7), 1, "tiny q still a valid rank");
        assert_eq!(nearest_rank(0.5, 1), 1);
        // Large n: no overflow in the u128 product.
        assert_eq!(nearest_rank(0.5, u64::MAX), u64::MAX / 2 + 1);
    }
}
