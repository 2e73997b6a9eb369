//! Table 2 — memory contention in a shared buffer pool (§5.4).
//!
//! TPC-W runs alone in a DBMS with a 128 MB (8192-page) pool; then RUBiS
//! starts *inside the same DBMS*, sharing the pool. TPC-W's latency blows
//! up ~10× and throughput collapses. The controller's diagnosis finds that
//! TPC-W's own classes show outlier memory counters but unchanged MRCs —
//! the newly added RUBiS classes are the problem, and SearchItemsByRegion
//! (acceptable memory ≈ 7.9k pages) cannot co-locate — so it is re-placed
//! onto a different replica, after which TPC-W recovers most of its
//! throughput and latency.

use super::scenario::{self, Phase, APP, TENANT};
use odlb_cluster::WorkCounts;
use odlb_core::{Action, ControllerConfig, SelectiveRetuningController};
use odlb_metrics::ClassId;
use odlb_workload::rubis::SEARCH_ITEMS_BY_REGION;
use std::ops::ControlFlow;

/// One row of Table 2 (TPC-W's view).
#[derive(Clone, Copy, Debug)]
pub struct Table2Row {
    /// TPC-W mean latency (s).
    pub latency_s: f64,
    /// TPC-W throughput (interactions/s — the paper's WIPS analogue).
    pub throughput: f64,
}

/// The three phases of the scenario.
#[derive(Clone, Debug)]
pub struct Table2Result {
    /// TPC-W alone in the DBMS.
    pub alone: Table2Row,
    /// TPC-W + RUBiS sharing the pool (worst interval after the join).
    pub shared: Table2Row,
    /// After SearchItemsByRegion was re-placed on another replica.
    pub recovered: Table2Row,
    /// Whether the controller re-placed SearchItemsByRegion specifically.
    pub moved_sibr: bool,
    /// All actions, rendered.
    pub actions: Vec<String>,
    /// What the run made the model do.
    pub work: WorkCounts,
}

/// The scenario's phases, lengths in 10 s measurement intervals: TPC-W
/// alone (the controller records stable states), RUBiS joined with the
/// controller held off (the paper measures the broken placement as its
/// own row before applying the remedy), then diagnosis and re-placement.
pub fn phases(alone: usize, shared: usize, recovery: usize) -> [Phase; 3] {
    [
        Phase::controlled(alone),
        Phase::held_off(shared),
        Phase::controlled(recovery),
    ]
}

/// Runs the scenario over [`phases`].
pub fn run(
    tpcw_clients: usize,
    rubis_clients: usize,
    alone_intervals: usize,
    shared_intervals: usize,
    recovery_intervals: usize,
) -> Table2Result {
    let mut sim = scenario::shared_pool(2_2007, tpcw_clients, rubis_clients, 1, alone_intervals);
    sim.start();
    let ctl = &mut SelectiveRetuningController::new(ControllerConfig::default());
    let sibr = ClassId::new(TENANT, SEARCH_ITEMS_BY_REGION as u32);
    let unseen = Table2Row {
        latency_s: f64::NAN,
        throughput: 0.0,
    };
    let mut result = Table2Result {
        alone: unseen,
        shared: Table2Row {
            latency_s: 0.0,
            throughput: f64::INFINITY,
        },
        recovered: unseen,
        moved_sibr: false,
        actions: Vec::new(),
        work: WorkCounts::default(),
    };
    // The "recovered" row averages the intervals after the
    // SearchItemsByRegion placement and before any coarse-grained
    // fallback — the paper's third row is measured exactly at that stage —
    // skipping the first (warm-up of the new replica) unless it is the
    // only one: the first row, then sums and a count from the second on.
    let mut first_recovered = None;
    let (mut latency_sum, mut throughput_sum, mut summed) = (0.0, 0.0, 0);
    let mut fallback_seen = false;
    let phases = phases(alone_intervals, shared_intervals, recovery_intervals);
    scenario::drive(&mut sim, Some(ctl), &phases, |phase, _, _, out, actions| {
        let row = out.app_latency[&APP].map(|latency_s| Table2Row {
            latency_s,
            throughput: out.app_throughput[&APP],
        });
        match (phase, row) {
            (0, Some(row)) => result.alone = row,
            (1, Some(row)) if row.latency_s > result.shared.latency_s => result.shared = row,
            (2, _) => {
                for action in actions {
                    match action {
                        Action::PlacedClass { class, .. } if *class == sibr => {
                            result.moved_sibr = true
                        }
                        Action::CoarseFallback { .. } => fallback_seen = true,
                        Action::DetectedOutliers { .. } => continue,
                        _ => {}
                    }
                    result.actions.push(action.to_string());
                }
                if let Some(row) = row.filter(|_| result.moved_sibr && !fallback_seen) {
                    if first_recovered.is_none() {
                        first_recovered = Some(row);
                    } else {
                        latency_sum += row.latency_s;
                        throughput_sum += row.throughput;
                        summed += 1;
                    }
                }
            }
            _ => {}
        }
        ControlFlow::Continue(())
    });
    if let Some(first) = first_recovered {
        result.recovered = match summed {
            0 => first,
            n => Table2Row {
                latency_s: latency_sum / n as f64,
                throughput: throughput_sum / n as f64,
            },
        };
    }
    result.work = sim.work();
    result
}

/// Renders the table in the paper's layout.
pub fn render(r: &Table2Result) -> String {
    let mut out = String::new();
    out.push_str("Table 2: Effect of memory contention in a shared buffer pool\n\n");
    out.push_str(&format!(
        "{:<44}{:>12}{:>16}\n",
        "Placement", "Latency (s)", "Tput (q/s)"
    ));
    let row = |label: &str, r: &Table2Row| {
        format!("{:<44}{:>12.2}{:>16.2}\n", label, r.latency_s, r.throughput)
    };
    out.push_str(&row("TPC-W | IDLE", &r.alone));
    out.push_str(&row("TPC-W + RUBiS (shared pool)", &r.shared));
    out.push_str(&row(
        "TPC-W + RUBiS-1 (SearchItemsByRegion re-placed)",
        &r.recovered,
    ));
    out.push_str(&format!(
        "\nSearchItemsByRegion re-placed automatically: {}\n",
        r.moved_sibr
    ));
    out.push_str("Actions:\n");
    for a in &r.actions {
        out.push_str(&format!("  {a}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_collapse_and_recovery() {
        let r = run(45, 80, 10, 6, 12);
        // Sharing degrades TPC-W severely (paper: ~10x).
        assert!(
            r.shared.latency_s > r.alone.latency_s * 3.0,
            "shared {:.2}s vs alone {:.2}s",
            r.shared.latency_s,
            r.alone.latency_s
        );
        // The controller moved SearchItemsByRegion specifically.
        assert!(r.moved_sibr, "actions: {:?}", r.actions);
        // Recovery: latency comes most of the way back (the paper's own
        // recovery is partial too: 5.42 s -> 1.27 s with a 0.6 s baseline).
        assert!(
            r.recovered.latency_s < r.shared.latency_s * 0.65,
            "recovered {:.2}s vs shared {:.2}s",
            r.recovered.latency_s,
            r.shared.latency_s
        );
    }
}
