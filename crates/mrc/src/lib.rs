//! # odlb-mrc — miss ratio curve tracking (paper §2)
//!
//! The miss-ratio curve (MRC) of a reference stream gives the page
//! miss-ratio the stream would experience under an LRU cache of each
//! possible size. The paper (following Zhou et al., ASPLOS'04) computes it
//! with **Mattson's stack algorithm**: because LRU has the *inclusion
//! property* (a cache of `k+1` pages contains the contents of a cache of
//! `k` pages), a single pass that records each reference's *stack distance*
//! yields hit counts for every cache size at once:
//!
//! ```text
//!             Σ_{i=1..m} Hit[i]
//! MR(m) = 1 − ──────────────────────
//!             Σ_{i=1..n} Hit[i] + Hit[∞]
//! ```
//!
//! Two trackers are selectable end-to-end via [`MrcMode`]:
//!
//! * [`MattsonTracker`] — exact stack distances in `O(log n)` per access
//!   (Bender/Olken time-stamp + Fenwick-tree formulation of Mattson).
//! * [`SampledTracker`] — SHARDS-style spatial hash sampling: only a
//!   fixed fraction `R` of the key space is tracked exactly, distances
//!   and counts are rescaled by `1/R` at recording time. `O(1)` for the
//!   `1-R` unsampled majority; the sampled-vs-exact error bound is
//!   pinned by `tests/sampled_mrc_properties.rs` and quantified by the
//!   `ablation-mrc-sampled` figure.
//!
//! From a finished curve, [`MrcParams`] extracts the two quantities the
//! paper's controller uses per query class (§3.3): *total memory needed*
//! (smallest size reaching the ideal miss ratio, capped at server memory)
//! and *acceptable memory needed* (smallest size whose miss ratio is within
//! a threshold of ideal).

pub mod curve;
pub mod mattson;
pub mod sampled;

pub use curve::{MissRatioCurve, MrcParams};
pub use mattson::{MattsonTracker, PageKey};
pub use sampled::{MrcMode, SampledTracker};

/// Replays one reference stream through the tracker `mode` selects,
/// yielding its curve tracked up to `cap_pages`. The single dispatch
/// point behind every MRC recomputation (access-window replay, figure
/// jobs, property tests).
pub fn compute_curve<K, I>(mode: MrcMode, cap_pages: usize, keys: I) -> MissRatioCurve
where
    K: PageKey,
    I: IntoIterator<Item = K>,
{
    match mode {
        MrcMode::Exact => MattsonTracker::replay(cap_pages, keys).into_curve(),
        MrcMode::Sampled { rate } => {
            let mut t = SampledTracker::new(cap_pages, rate);
            for k in keys {
                t.access(k);
            }
            t.into_curve()
        }
    }
}
