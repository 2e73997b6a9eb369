//! Shared machinery for the MRC figures (Fig. 5 and Fig. 6): build a
//! per-class reference trace from a workload model, run it through
//! Mattson's algorithm, and render the curve.

use odlb_core::memory::MRC_THRESHOLD;
use odlb_mrc::{MattsonTracker, MrcParams};
use odlb_sim::SimRng;
use odlb_storage::PageId;
use odlb_workload::WorkloadSpec;

/// Seed of every MRC figure's reference trace.
const TRACE_SEED: u64 = 2007;

/// The result of one MRC experiment.
#[derive(Clone, Debug)]
pub struct MrcResult {
    /// Which query class this curve belongs to.
    pub class_name: String,
    /// `(memory size in pages, miss ratio)` samples across the cap.
    pub curve: Vec<(usize, f64)>,
    /// The controller-facing parameters at the controller's threshold.
    pub params: MrcParams,
    /// References in the trace.
    pub accesses: u64,
}

/// The page references of `queries` executions of one class, in order.
pub fn class_trace(
    workload: &WorkloadSpec,
    class_index: usize,
    queries: usize,
) -> impl Iterator<Item = PageId> + '_ {
    let mut rng = SimRng::new(TRACE_SEED);
    (0..queries).flat_map(move |_| workload.query_of_class(class_index, &mut rng).pages)
}

/// Replays `queries` executions of one class through a Mattson tracker.
pub fn class_mrc(
    workload: &WorkloadSpec,
    class_index: usize,
    queries: usize,
    cap_pages: usize,
) -> MrcResult {
    let mut tracker = MattsonTracker::new(cap_pages);
    for page in class_trace(workload, class_index, queries) {
        tracker.access(page);
    }
    let accesses = tracker.accesses();
    let curve = tracker.curve().sampled(33);
    let params = tracker.curve().params(MRC_THRESHOLD);
    MrcResult {
        class_name: workload.classes[class_index].name.to_string(),
        curve,
        params,
        accesses,
    }
}

/// Renders the curve the way the paper plots it (miss ratio vs memory).
pub fn render(result: &MrcResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Miss Ratio Curve of {} ({} references)\n",
        result.class_name, result.accesses
    ));
    out.push_str(&format!(
        "  total memory needed      = {} pages (ideal miss ratio {:.4})\n",
        result.params.total_memory_needed, result.params.ideal_miss_ratio
    ));
    out.push_str(&format!(
        "  acceptable memory needed = {} pages (acceptable miss ratio {:.4})\n",
        result.params.acceptable_memory_needed, result.params.acceptable_miss_ratio
    ));
    out.push_str("  pages      miss-ratio\n");
    for &(size, mr) in &result.curve {
        let bar = "#".repeat((mr * 40.0).round() as usize);
        out.push_str(&format!("  {size:>7}    {mr:.4} |{bar}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use odlb_workload::tpcw::{tpcw_workload, TpcwConfig, BESTSELLER};

    #[test]
    fn curve_is_monotone_and_rendered() {
        let w = tpcw_workload(TpcwConfig::default());
        let r = class_mrc(&w, BESTSELLER, 20, 8192);
        for pair in r.curve.windows(2) {
            assert!(pair[0].1 >= pair[1].1 - 1e-12, "MRC must not increase");
        }
        let text = render(&r);
        assert!(text.contains("BestSeller"));
        assert!(text.contains("acceptable memory"));
    }
}
