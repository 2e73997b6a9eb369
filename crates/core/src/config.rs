//! Controller tuning knobs, all defaulted to the paper's settings where it
//! states them and to conservative classics elsewhere.

use odlb_mrc::MrcMode;
use odlb_outlier::OutlierConfig;

/// Parameters of the selective retuning controller.
#[derive(Clone, Copy, Debug)]
pub struct ControllerConfig {
    /// Outlier detection parameters (1.5/3.0 Tukey fences by default).
    pub outlier: OutlierConfig,
    /// Which stack-distance tracker MRC recomputation instantiates:
    /// exact Mattson (default, byte-identical to the historical
    /// behaviour) or SHARDS-style spatial sampling for clusters with
    /// very many tenant classes.
    pub mrc_mode: MrcMode,
    /// MRC acceptability threshold: acceptable memory is the smallest size
    /// whose miss ratio is within this of ideal.
    pub mrc_threshold: f64,
    /// Relative change of MRC parameters that marks a class as a *problem
    /// class* during diagnosis (0.25 = ±25%).
    pub mrc_change_rel: f64,
    /// Absolute ideal-miss-ratio deterioration that also marks a problem.
    pub mrc_ratio_slack: f64,
    /// CPU utilisation above which a server counts as saturated.
    pub cpu_saturation: f64,
    /// CPU utilisation below which (across all replicas) one replica is
    /// released back to the pool.
    pub cpu_release: f64,
    /// Disk utilisation above which a server counts as I/O-saturated.
    pub io_saturation: f64,
    /// How many heavyweight classes the no-outlier fallback investigates.
    pub top_k: usize,
    /// Intervals to wait after an action before acting again for the same
    /// application (lets provisioning/warm-up take effect).
    pub cooldown_intervals: u32,
    /// Consecutive violated-and-acted intervals after which the controller
    /// falls back to coarse-grained isolation.
    pub fallback_after: u32,
    /// Minimum replicas kept per application.
    pub min_replicas: usize,
    /// Floor on any enforced quota (pages). A class whose MRC is flat
    /// still needs room for its in-flight read-ahead extents and hot
    /// lookups; granting its literal acceptable memory (possibly one
    /// page) would thrash the prefetch pipeline.
    pub min_quota_pages: usize,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            outlier: OutlierConfig::default(),
            mrc_mode: MrcMode::Exact,
            mrc_threshold: 0.05,
            mrc_change_rel: 0.25,
            mrc_ratio_slack: 0.10,
            cpu_saturation: 0.85,
            cpu_release: 0.30,
            io_saturation: 0.90,
            top_k: 3,
            cooldown_intervals: 3,
            fallback_after: 6,
            min_replicas: 1,
            min_quota_pages: 512,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_use_classic_tukey_fences() {
        let c = ControllerConfig::default();
        assert_eq!(c.outlier.inner_multiplier, 1.5);
        assert_eq!(c.outlier.outer_multiplier, 3.0);
        assert!(c.cpu_saturation > c.cpu_release);
        assert!(c.fallback_after > c.cooldown_intervals);
        // Exact by default: golden run digests must not move.
        assert_eq!(c.mrc_mode, MrcMode::Exact);
    }
}
