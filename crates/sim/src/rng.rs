//! Deterministic random number generation and the distribution samplers the
//! workload models need.
//!
//! The generator is xoshiro256++ seeded via [`splitmix64`], implemented locally
//! so the simulation kernel has zero dependencies and identical streams on
//! every platform. [`SimRng::split`] derives independent child streams so
//! each client session / query class can own its own generator without
//! cross-talk between components.

use crate::hash::splitmix64;

/// A small, fast, deterministic PRNG (xoshiro256++).
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derives an independent child stream, keyed by `stream`.
    ///
    /// Children with distinct keys (or from distinct parents) produce
    /// uncorrelated sequences; reordering draws in one component does not
    /// perturb another.
    pub fn split(&self, stream: u64) -> SimRng {
        let mut sm = self.s[0]
            ^ self.s[1].rotate_left(17)
            ^ self.s[2].rotate_left(31)
            ^ self.s[3].rotate_left(47)
            ^ stream.wrapping_mul(0xA24BAED4963EE407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, n)`. `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire's multiply-shift rejection method: unbiased.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform integer in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// A Bernoulli draw with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// An exponential variate with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "mean must be positive");
        let u = 1.0 - self.f64(); // avoid ln(0)
        -mean * u.ln()
    }

    /// Samples an index from explicit (unnormalised) weights.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut x = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

/// A Zipf(n, s) sampler over `{1, …, n}` using Hörmann's
/// rejection-inversion method: O(1) per sample, no O(n) table.
///
/// Database workloads are classically modelled with Zipfian access skew
/// (popular items dominate); the TPC-W and RUBiS models use this for item,
/// customer and auction popularity.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    s: f64,
    /// Acceptance-shortcut constant: `2 - hIntegralInv(hIntegral(2.5) - h(2))`.
    accept: f64,
    /// `hIntegral(1.5) - 1` — upper end of the inversion interval.
    h_integral_x1: f64,
    /// `hIntegral(n + 0.5)` — lower end of the inversion interval.
    h_integral_n: f64,
}

impl Zipf {
    /// Creates a sampler over `{1, …, n}` with exponent `s > 0`, `s != 1`
    /// handled via the generalised harmonic integral.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n >= 1, "Zipf support must be non-empty");
        assert!(s > 0.0, "Zipf exponent must be positive");
        let mut z = Zipf {
            n,
            s,
            accept: 0.0,
            h_integral_x1: 0.0,
            h_integral_n: 0.0,
        };
        z.h_integral_x1 = z.h_integral(1.5) - 1.0;
        z.h_integral_n = z.h_integral(n as f64 + 0.5);
        z.accept = 2.0 - z.h_integral_inv(z.h_integral(2.5) - z.h(2.0));
        z
    }

    fn h_integral(&self, x: f64) -> f64 {
        let log_x = x.ln();
        if (1.0 - self.s).abs() < 1e-12 {
            log_x
        } else {
            ((1.0 - self.s) * log_x).exp_m1() / (1.0 - self.s)
        }
    }

    fn h_integral_inv(&self, x: f64) -> f64 {
        if (1.0 - self.s).abs() < 1e-12 {
            x.exp()
        } else {
            let t = x * (1.0 - self.s);
            // Clamp: for s > 1 the integral is bounded; numerical drift can
            // push t slightly below -1.
            let t = t.max(-1.0 + 1e-15);
            (t.ln_1p() / (1.0 - self.s)).exp()
        }
    }

    fn h(&self, x: f64) -> f64 {
        (-self.s * x.ln()).exp()
    }

    /// Draws a rank in `{1, …, n}`; rank 1 is the most popular.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.n == 1 {
            return 1;
        }
        loop {
            let u = self.h_integral_n + rng.f64() * (self.h_integral_x1 - self.h_integral_n);
            let x = self.h_integral_inv(u);
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            let k_u = k as u64;
            if k - x <= self.accept || u >= self.h_integral(k + 0.5) - self.h(k) {
                return k_u;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn split_streams_are_independent_of_parent_consumption() {
        let parent = SimRng::new(42);
        let mut c1 = parent.split(1);
        let mut parent2 = SimRng::new(42);
        parent2.next_u64(); // consuming the parent after split must not matter
        let mut c1_again = parent.split(1);
        for _ in 0..32 {
            assert_eq!(c1.next_u64(), c1_again.next_u64());
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::new(3);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut rng = SimRng::new(11);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "count {c} far from uniform");
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::new(5);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(2.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn weighted_respects_weights() {
        let mut rng = SimRng::new(8);
        let mut counts = [0u32; 3];
        for _ in 0..90_000 {
            counts[rng.weighted(&[1.0, 2.0, 6.0])] += 1;
        }
        assert!((counts[0] as f64 / 90_000.0 - 1.0 / 9.0).abs() < 0.01);
        assert!((counts[2] as f64 / 90_000.0 - 6.0 / 9.0).abs() < 0.01);
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let mut rng = SimRng::new(9);
        let z = Zipf::new(1000, 1.0);
        let mut c1 = 0u32;
        let mut c100 = 0u32;
        let n = 100_000;
        for _ in 0..n {
            match z.sample(&mut rng) {
                1 => c1 += 1,
                100 => c100 += 1,
                _ => {}
            }
        }
        // P(1)/P(100) = 100 under s=1.
        assert!(c1 > 30 * c100.max(1), "c1={c1} c100={c100}");
    }

    #[test]
    fn zipf_stays_in_support() {
        let mut rng = SimRng::new(10);
        for &s in &[0.5, 0.99, 1.0, 1.2, 2.0] {
            let z = Zipf::new(50, s);
            for _ in 0..10_000 {
                let k = z.sample(&mut rng);
                assert!((1..=50).contains(&k), "s={s} k={k}");
            }
        }
    }

    #[test]
    fn zipf_matches_exact_pmf_for_small_n() {
        let mut rng = SimRng::new(12);
        let n = 10u64;
        let s = 1.0;
        let z = Zipf::new(n, s);
        let norm: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
        let draws = 200_000;
        let mut counts = vec![0u32; n as usize + 1];
        for _ in 0..draws {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for k in 1..=n {
            let p = (k as f64).powf(-s) / norm;
            let observed = counts[k as usize] as f64 / draws as f64;
            assert!(
                (observed - p).abs() < 0.01,
                "k={k} expected {p:.4} observed {observed:.4}"
            );
        }
    }

    #[test]
    fn zipf_single_element() {
        let mut rng = SimRng::new(13);
        let z = Zipf::new(1, 1.0);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 1);
        }
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        SimRng::new(0).below(0);
    }

    #[test]
    fn seeded_streams_are_pinned() {
        // Every simulated result descends from these streams: a change
        // here moves every digest, so it must be deliberate.
        let mut r = SimRng::new(7);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            [
                0x0e2c_1a00_2aae_913d,
                0x2c0f_c8dd_fa4e_9e14,
                0xb7b3_11b3_b0d4_5872,
                0x6d5d_9f6a_6318_013c,
            ]
        );
        assert_eq!(SimRng::new(7).split(3).next_u64(), 0x8265_9886_a93e_45b6);
    }
}
