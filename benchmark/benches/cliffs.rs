//! The two findings the README records as known cliffs, each with a
//! command that reproduces it: `odlb-benchmark cliff <name>`. They are
//! not workloads — one takes minutes of host time, the other has no
//! steady state to measure — but a later change that claims to fix one
//! needs the same run before and after.

use crate::workloads::build_scale;
use std::time::Instant;

pub fn run(name: &str) -> Result<(), String> {
    match name {
        "write-ramp" => write_ramp(),
        "index-drop" => index_drop(),
        other => {
            return Err(format!(
                "unknown cliff '{other}' (valid: write-ramp, index-drop)"
            ))
        }
    }
    Ok(())
}

/// The session ramp of the `scale_*` cluster at full scale with a tenth
/// of the queries writing: the first interval takes minutes of host
/// time, the intervals after it run at the usual rate.
fn write_ramp() {
    let (mut sim, _) = build_scale(11, 112, 1_000_000, 0.10);
    sim.start();
    for interval in 0..4 {
        let before = sim.events_processed();
        let t0 = Instant::now();
        sim.run_interval();
        let wall = t0.elapsed().as_secs_f64();
        let events = sim.events_processed() - before;
        println!(
            "interval {interval}{}: {events} events in {wall:.2} s host time ({:.0} events/s)",
            if interval == 0 { " (the ramp)" } else { "" },
            events as f64 / wall
        );
    }
}

/// Fig. 4's index-drop scenario run past the paper's 15 recovery
/// intervals: the controller keeps acting at an undiminished rate.
fn index_drop() {
    let mut before = 0;
    for recovery in [15, 115, 215] {
        let r = odlb_bench::fig4::run(50, 12, recovery);
        println!(
            "{recovery:>3} recovery intervals: {} actions in all, {} since the previous row; \
             latency {:.3} s stable -> {:.3} s after the drop -> {:.3} s at the end",
            r.actions.len(),
            r.actions.len() - before,
            r.latency_before,
            r.latency_after_drop,
            r.latency_after_action
        );
        before = r.actions.len();
    }
}
