//! The closed-loop client session emulator.
//!
//! Each active client repeats: sample an interaction from the mix → wait
//! for its completion → think (exponentially distributed). The number of
//! active clients tracks a [`LoadFunction`] with multiplicative noise, and
//! session lengths are randomised — the paper's emulator "randomly varies
//! the session time and thinking time of clients".

use crate::load::LoadFunction;
use odlb_sim::{SimDuration, SimRng, SimTime};

/// Client-behaviour parameters.
#[derive(Clone, Copy, Debug)]
pub struct ClientConfig {
    /// Mean think time between interactions.
    pub think_time_mean: SimDuration,
    /// Relative noise on the load function (0.1 = ±10%).
    pub load_noise: f64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            // TPC-W specifies 7 s mean think time; scaled down to keep
            // simulated query rates high relative to wall-clock cost.
            think_time_mean: SimDuration::from_millis(700),
            load_noise: 0.1,
        }
    }
}

/// Tracks how many client sessions should be active and samples their
/// behaviour. The simulation driver owns the actual per-client state (who
/// is thinking vs. waiting); this type centralises the stochastic choices
/// so they stay deterministic per seed.
#[derive(Clone, Debug)]
pub struct ClientPool {
    config: ClientConfig,
    load: LoadFunction,
    rng: SimRng,
}

impl ClientPool {
    /// Creates a pool following `load` with behaviour `config`.
    pub fn new(config: ClientConfig, load: LoadFunction, rng: SimRng) -> Self {
        ClientPool { config, load, rng }
    }

    /// The target number of active clients at `t` (noisy).
    pub fn target_clients(&mut self, t: SimTime) -> usize {
        let noise = self.config.load_noise;
        self.load.noisy_clients_at(t, noise, &mut self.rng)
    }

    /// Samples one think-time.
    pub fn next_think(&mut self) -> SimDuration {
        let secs = self
            .rng
            .exponential(self.config.think_time_mean.as_secs_f64());
        SimDuration::from_secs_f64(secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(load: LoadFunction) -> ClientPool {
        ClientPool::new(ClientConfig::default(), load, SimRng::new(11))
    }

    #[test]
    fn targets_track_load() {
        let mut p = pool(LoadFunction::Constant(100));
        for _ in 0..100 {
            let n = p.target_clients(SimTime::from_secs(1));
            assert!((90..=110).contains(&n));
        }
    }

    #[test]
    fn think_times_have_configured_mean() {
        let mut p = pool(LoadFunction::Constant(1));
        let n = 20_000;
        let total: f64 = (0..n).map(|_| p.next_think().as_secs_f64()).sum();
        let mean = total / n as f64;
        assert!((mean - 0.7).abs() < 0.02, "mean think {mean}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = pool(LoadFunction::Constant(10));
        let mut b = pool(LoadFunction::Constant(10));
        for _ in 0..50 {
            assert_eq!(a.next_think(), b.next_think());
            assert_eq!(
                a.target_clients(SimTime::ZERO),
                b.target_clients(SimTime::ZERO)
            );
        }
    }
}
