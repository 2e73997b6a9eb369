//! Pregenerated open-loop arrival-and-page-access schedules.
//!
//! A closed-loop client pool interleaves its RNG draws with query
//! *completions*, so the draw order — and therefore every sampled page —
//! depends on how fast the cluster serves queries, which depends on the
//! controller driving it. Two sweep cells that differ only in controller
//! or MRC variant would regenerate (and re-pay for) different traces.
//!
//! [`generate_schedule`] removes that coupling: it rolls the entire
//! arrival process forward *open-loop* — per-tick load targets, per-client
//! think/stagger clocks, and every page access — into a
//! [`GeneratedSchedule`] that depends only on its [`ScheduleConfig`] and
//! the workload spec. The cluster driver replays it query by query
//! (`Model::add_replayed_app`), so cells sharing a (seed, workload,
//! cluster-size) key replay one cached schedule byte-for-byte while the
//! controller under test varies freely. Replayed cells are also
//! *scientifically paired*: every controller variant faces the identical
//! offered load, not merely a statistically equivalent one.
//!
//! Generation is deliberately self-contained rather than reusing the
//! driver's closed-loop streams: the schedule must be reproducible from
//! its config alone (content-addressed caching depends on it), so all
//! randomness derives from [`ScheduleConfig::seed`] via fixed stream ids.

use crate::client::ClientConfig;
use crate::load::LoadFunction;
use crate::spec::WorkloadSpec;
use odlb_sim::{SimDuration, SimRng, SimTime};
use odlb_storage::PageId;

/// RNG stream id for the per-tick noisy load targets.
const LOAD_STREAM: u64 = 1;
/// RNG stream base for per-client clocks: client `c` uses `3_000 + c`.
const CLIENT_STREAM_BASE: u64 = 3_000;

/// Everything the open-loop generator needs besides the workload spec.
/// Two equal configs (plus equal specs) produce byte-identical schedules.
#[derive(Clone, Debug)]
pub struct ScheduleConfig {
    /// Root seed; load noise and every client clock derive from it.
    pub seed: u64,
    /// Schedule horizon: queries are generated for `[0, horizon)`.
    pub horizon: SimDuration,
    /// Offered load in clients, sampled at every tick.
    pub load: LoadFunction,
    /// Think-time and load-noise behaviour.
    pub client: ClientConfig,
    /// How often the active-client population tracks the load function
    /// (the driver's `load_update_interval`).
    pub tick: SimDuration,
}

/// One pregenerated query: when it arrives, which class it is, and where
/// its page accesses live in the schedule's flat page store.
#[derive(Clone, Copy, Debug)]
pub struct ScheduledQuery {
    /// Arrival time.
    pub at: SimTime,
    /// Class index into the workload spec.
    pub class: u32,
    /// First page in [`GeneratedSchedule::pages`].
    pub page_start: u32,
    /// Number of pages.
    pub page_len: u32,
    /// Lock-prefix length (first pattern component) for write classes.
    pub lock_prefix: u32,
}

/// A complete arrival-and-page-access schedule, sorted by arrival time.
/// Pages are stored flat (one `Vec` for the whole schedule) so a cached
/// schedule is two allocations, not one per query.
#[derive(Clone, Debug, Default)]
pub struct GeneratedSchedule {
    /// Queries in arrival order (ties keep client-index order).
    pub queries: Vec<ScheduledQuery>,
    /// Flat page store; each query owns `page_start..page_start+page_len`.
    pub pages: Vec<PageId>,
}

impl GeneratedSchedule {
    /// Number of queries in the schedule.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when the schedule holds no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The page accesses of query `i`.
    pub fn pages_of(&self, i: usize) -> &[PageId] {
        let q = &self.queries[i];
        &self.pages[q.page_start as usize..(q.page_start + q.page_len) as usize]
    }
}

/// Rolls the arrival process forward open-loop. The population follows
/// the same shape as the closed-loop driver — noisy per-tick targets,
/// arrival stagger within a tick, exponential think times, client `c`
/// active while `c < target` — but each client runs on its own derived
/// stream, so the result depends only on `(spec, cfg)` and never on
/// service times.
pub fn generate_schedule(spec: &WorkloadSpec, cfg: &ScheduleConfig) -> GeneratedSchedule {
    let root = SimRng::new(cfg.seed);
    let tick_us = cfg.tick.as_micros().max(1);
    let horizon_us = cfg.horizon.as_micros();
    let ticks = horizon_us.div_ceil(tick_us) as usize;

    // Per-tick targets, drawn in tick order from a dedicated stream (the
    // noise sequence must not depend on how many clients exist).
    let mut load_rng = root.split(LOAD_STREAM);
    let mut targets = Vec::with_capacity(ticks);
    for k in 0..ticks {
        let t = SimTime::from_micros(k as u64 * tick_us);
        targets.push(
            cfg.load
                .noisy_clients_at(t, cfg.client.load_noise, &mut load_rng),
        );
    }
    let max_clients = targets.iter().copied().max().unwrap_or(0);

    let mut out = GeneratedSchedule::default();
    let think_mean = cfg.client.think_time_mean.as_secs_f64();
    for c in 0..max_clients {
        let mut rng = root.split(CLIENT_STREAM_BASE + c as u64);
        // The client's next issue time, `None` while it is inactive.
        let mut next: Option<u64> = None;
        for (k, &target) in targets.iter().enumerate() {
            let window_start = k as u64 * tick_us;
            let window_end = (window_start + tick_us).min(horizon_us);
            if c >= target {
                // Below the population line this tick: the client
                // departs and will re-stagger when readmitted.
                next = None;
                continue;
            }
            let mut at = next.unwrap_or_else(|| window_start + rng.below(tick_us));
            while at < window_end {
                let class = spec.sample_class(&mut rng);
                let page_start = out.pages.len() as u32;
                let prefix = spec.classes[class]
                    .pattern
                    .generate_with_prefix_into(&mut rng, &mut out.pages);
                out.queries.push(ScheduledQuery {
                    at: SimTime::from_micros(at),
                    class: class as u32,
                    page_start,
                    page_len: out.pages.len() as u32 - page_start,
                    lock_prefix: prefix as u32,
                });
                let think = SimDuration::from_secs_f64(rng.exponential(think_mean));
                at += think.as_micros().max(1);
            }
            next = Some(at);
        }
    }
    // Stable by-time sort: queries were pushed client-by-client in time
    // order, so ties resolve to ascending client index — deterministic.
    out.queries.sort_by_key(|q| q.at);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpcw::{tpcw_workload, TpcwConfig};

    fn cfg(seed: u64, clients: usize) -> ScheduleConfig {
        ScheduleConfig {
            seed,
            horizon: SimDuration::from_secs(20),
            load: LoadFunction::Constant(clients),
            client: ClientConfig::default(),
            tick: SimDuration::from_secs(2),
        }
    }

    #[test]
    fn schedules_are_reproducible_from_config() {
        let spec = tpcw_workload(TpcwConfig::default());
        let a = generate_schedule(&spec, &cfg(7, 12));
        let b = generate_schedule(&spec, &cfg(7, 12));
        assert_eq!(a.len(), b.len());
        assert_eq!(a.pages, b.pages);
        for (x, y) in a.queries.iter().zip(&b.queries) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.class, y.class);
            assert_eq!(x.page_start, y.page_start);
            assert_eq!(x.page_len, y.page_len);
            assert_eq!(x.lock_prefix, y.lock_prefix);
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let spec = tpcw_workload(TpcwConfig::default());
        let a = generate_schedule(&spec, &cfg(7, 12));
        let b = generate_schedule(&spec, &cfg(8, 12));
        assert_ne!(a.pages, b.pages, "seed must drive the page stream");
    }

    #[test]
    fn arrivals_are_sorted_and_bounded() {
        let spec = tpcw_workload(TpcwConfig::default());
        let c = cfg(3, 10);
        let s = generate_schedule(&spec, &c);
        assert!(!s.is_empty());
        let horizon = SimTime::from_micros(c.horizon.as_micros());
        let mut last = SimTime::ZERO;
        for q in &s.queries {
            assert!(q.at >= last, "arrivals sorted");
            assert!(q.at < horizon, "no arrival beyond the horizon");
            last = q.at;
        }
    }

    #[test]
    fn page_ranges_tile_the_flat_store() {
        let spec = tpcw_workload(TpcwConfig::default());
        let s = generate_schedule(&spec, &cfg(5, 8));
        let mut covered = 0usize;
        for i in 0..s.len() {
            let q = &s.queries[i];
            assert!(q.page_len > 0, "every class touches at least one page");
            assert!(!s.pages_of(i).is_empty());
            covered += q.page_len as usize;
        }
        assert_eq!(covered, s.pages.len(), "ranges tile the store exactly");
    }

    #[test]
    fn load_scales_query_count() {
        let spec = tpcw_workload(TpcwConfig::default());
        let small = generate_schedule(&spec, &cfg(11, 4)).len();
        let large = generate_schedule(&spec, &cfg(11, 40)).len();
        assert!(
            large > small * 5,
            "10x clients must yield roughly 10x queries ({small} -> {large})"
        );
    }

    #[test]
    fn think_rate_matches_closed_loop_magnitude() {
        // ~clients × horizon / think-mean arrivals for an open loop.
        let spec = tpcw_workload(TpcwConfig::default());
        let c = cfg(13, 20);
        let s = generate_schedule(&spec, &c);
        let expect = 20.0 * c.horizon.as_secs_f64() / 0.7;
        let got = s.len() as f64;
        assert!(
            got > expect * 0.6 && got < expect * 1.4,
            "arrival volume {got} vs open-loop expectation {expect}"
        );
    }
}
