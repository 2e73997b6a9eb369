//! Property tests for the nested span profiler: randomly generated span
//! programs must leave the stack balanced, self-times must exactly
//! partition each span's inclusive time, the folded dumps must be valid
//! and deterministic, and splitting a workload across several profilers
//! then merging must render the identical sim folded dump — the
//! invariant the parallel experiment runner's per-figure merge rests on.
//! Programs whose spans run partly untimed, folded in by
//! `SpanProfiler::tally`, must render the same sim dump and keep the
//! partition, and the wall estimates of their untimed spans must never
//! take time away from any path.

use odlb_telemetry::{
    enter_span, span_units, validate_folded, SharedSpanProfiler, SpanProfiler, SpanStats,
};
use odlb_testkit::{check, Gen};
use std::collections::BTreeMap;
use std::time::Duration;

const NAMES: [&str; 6] = [
    "experiments",
    "interval",
    "controller",
    "mrc_update",
    "engine_execute",
    "storage_read",
];

/// One step of a replayable span program. Programs are data, so the same
/// program can be applied to several profilers and the results compared.
#[derive(Clone, Copy, Debug)]
enum Op {
    Enter(&'static str),
    Exit,
    Units(u64),
}

/// A random well-formed program: every `Enter` is eventually matched by
/// an `Exit`, nesting never exceeds six levels, and unit attributions
/// land at arbitrary points.
fn gen_program(g: &mut Gen) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut depth = 0usize;
    for _ in 0..g.usize_in(1, 120) {
        let choice = if depth == 0 {
            0
        } else if depth >= 6 {
            1 + g.usize_in(0, 2) // exit or units, never deeper
        } else {
            g.weighted(&[3.0, 2.0, 2.0])
        };
        match choice {
            0 => {
                ops.push(Op::Enter(NAMES[g.usize_in(0, NAMES.len())]));
                depth += 1;
            }
            1 => {
                ops.push(Op::Exit);
                depth -= 1;
            }
            _ => ops.push(Op::Units(g.u64_in(0, 1_000))),
        }
    }
    for _ in 0..depth {
        ops.push(Op::Exit);
    }
    ops
}

/// The old path-map formulation, kept as the tree's reference: `(calls,
/// sim units)` keyed by the whole stack path at every exit of `programs`.
fn path_map(programs: &[Vec<Op>]) -> BTreeMap<Vec<&'static str>, (u64, u64)> {
    let mut paths: BTreeMap<Vec<&str>, (u64, u64)> = BTreeMap::new();
    for program in programs {
        let mut stack: Vec<(&str, u64)> = Vec::new();
        for op in program {
            match *op {
                Op::Enter(name) => stack.push((name, 0)),
                Op::Units(n) => stack.last_mut().into_iter().for_each(|top| top.1 += n),
                Op::Exit => {
                    let path = stack.iter().map(|f| f.0).collect();
                    let units = stack.pop().expect("balanced").1;
                    let (calls, sim) = paths.entry(path).or_default();
                    (*calls, *sim) = (*calls + 1, *sim + 1 + units);
                }
            }
        }
    }
    paths
}

/// `span_paths` (order, calls, units), `folded_sim` bytes, `folded_wall`'s
/// paths and `phases()` call counts all equal the path map's.
#[expect(
    clippy::disallowed_methods,
    reason = "reads only the wall dump's stack paths, never its timings"
)]
fn assert_matches_path_map(p: &SpanProfiler, programs: &[Vec<Op>]) {
    let want = Vec::from_iter(path_map(programs));
    let got = p
        .span_paths()
        .map(|(path, s)| (path.to_vec(), (s.calls, s.sim_units)));
    assert_eq!(Vec::from_iter(got), want);
    let folded = |(path, (_, units)): &(Vec<&str>, _)| format!("{} {units}\n", path.join(";"));
    let folded = String::from_iter(want.iter().map(folded));
    assert_eq!(p.folded_sim(), folded);
    // No frame name has a digit: what is left of a dump is its paths.
    let paths = |dump: &str| dump.replace(|c: char| c.is_ascii_digit(), "");
    assert_eq!(paths(&p.folded_wall()), paths(&folded));
    let mut phases = BTreeMap::new();
    for (path, (calls, _)) in &want {
        for (i, name) in path.iter().enumerate() {
            *phases.entry(*name).or_default() += if i + 1 == path.len() { *calls } else { 0 };
        }
    }
    let got = p.phases().into_iter().map(|(name, s)| (name, s.calls));
    assert_eq!(BTreeMap::from_iter(got), phases);
}

fn apply(profiler: &mut SpanProfiler, program: &[Op]) {
    for op in program {
        match op {
            Op::Enter(name) => profiler.enter(name),
            Op::Exit => profiler.exit(),
            Op::Units(n) => profiler.add_units(*n),
        }
    }
}

/// One open span of [`apply_tallied`]: timed ones collect the calls and
/// units of their untimed descendants by path relative to themselves.
struct Open {
    timed: bool,
    units: u64,
    /// Untimed: the path below the nearest timed ancestor.
    relative: Vec<&'static str>,
    pending: BTreeMap<Vec<&'static str>, (u64, u64)>,
}

/// Replays `program` on `p`, running each span opened under a timed span
/// untimed with probability `untimed` (its whole subtree with it). A
/// timed span's units cost busy work, so timed entries take measurable
/// wall time. The untimed subtrees' calls and units are tallied just
/// before their timed ancestor exits, and each tally is checked to add
/// exactly its calls and units and to take wall time from no path.
fn apply_tallied(p: &mut SpanProfiler, program: &[Op], g: &mut Gen, untimed: f64) {
    let mut stack: Vec<Open> = Vec::new();
    for op in program {
        match *op {
            Op::Enter(name) => {
                let (timed, relative) = match stack.last() {
                    Some(top) if !top.timed => (false, [&top.relative[..], &[name]].concat()),
                    Some(_) if g.chance(untimed) => (false, vec![name]),
                    _ => (true, Vec::new()),
                };
                if timed {
                    p.enter(name);
                }
                let (units, pending) = (0, BTreeMap::new());
                stack.push(Open {
                    timed,
                    units,
                    relative,
                    pending,
                });
            }
            Op::Units(n) => match stack.last_mut() {
                Some(top) if !top.timed => top.units += n,
                _ => {
                    spin(n);
                    p.add_units(n);
                }
            },
            Op::Exit => {
                let span = stack.pop().expect("balanced");
                if span.timed {
                    for (path, (calls, units)) in &span.pending {
                        checked_tally(p, path, *calls, *units);
                    }
                    p.exit();
                } else {
                    let timed = stack.iter_mut().rev().find(|s| s.timed);
                    let timed = timed.expect("top-level spans are timed");
                    let slot = timed.pending.entry(span.relative).or_default();
                    *slot = (slot.0 + 1, slot.1 + span.units);
                }
            }
        }
    }
}

/// Every recorded path's stats, by path.
fn by_path(p: &SpanProfiler) -> BTreeMap<Vec<&'static str>, SpanStats> {
    p.span_paths()
        .map(|(path, s)| (path.to_vec(), *s))
        .collect()
}

/// Busy work that takes wall time in proportion to `n`.
fn spin(n: u64) {
    for i in 0..n {
        std::hint::black_box(i);
    }
}

/// `p.tally(path, calls, units)`, asserting that the tallied path gains
/// exactly `calls` calls and `calls + units` units and that no path's
/// self or inclusive wall time shrinks.
fn checked_tally(p: &mut SpanProfiler, path: &[&'static str], calls: u64, units: u64) {
    let before = by_path(p);
    p.tally(path, calls, units);
    let mut gained = 0;
    for (q, s) in &by_path(p) {
        let old = before.get(q).copied().unwrap_or_default();
        assert!(s.wall_self >= old.wall_self, "self time of {q:?} shrank");
        assert!(
            s.wall_total >= old.wall_total,
            "inclusive time of {q:?} shrank"
        );
        if s.calls != old.calls {
            assert_eq!(
                (s.calls - old.calls, s.sim_units - old.sim_units),
                (calls, calls + units),
                "{q:?} tallied"
            );
            gained += 1;
        }
    }
    assert_eq!(gained, 1, "one path takes the tally");
}

#[test]
fn tallied_programs_fold_like_timed_ones() {
    check("profiler_tally_folds_exactly", 200, |g: &mut Gen| {
        let program = gen_program(g);
        let mut p = SpanProfiler::new();
        apply_tallied(&mut p, &program, g, 0.5);
        assert_eq!(p.depth(), 0, "programs are balanced");
        assert_matches_path_map(&p, std::slice::from_ref(&program));
    });
}

#[test]
fn a_tallied_path_without_timed_entries_reports_zero_wall() {
    let mut p = SpanProfiler::new();
    p.enter("interval");
    p.enter("engine_execute");
    spin(10_000);
    p.exit();
    // Never timed: the estimate is zero, whatever the count; the timed
    // path's estimate is bounded by the time the open span has run.
    p.tally(&["never_timed"], u64::MAX / 4, 7);
    p.tally(&["never_timed", "below"], 1 << 40, 0);
    p.tally(&["engine_execute"], 1 << 50, 0);
    p.exit();
    let paths = by_path(&p);
    for path in [
        vec!["interval", "never_timed"],
        vec!["interval", "never_timed", "below"],
    ] {
        let stats = paths[&path];
        assert_eq!(stats.wall_self, Duration::ZERO, "{path:?}");
        assert_eq!(stats.wall_total, Duration::ZERO, "{path:?}");
    }
    assert_eq!(paths[&vec!["interval", "never_timed"]].calls, u64::MAX / 4);
    assert_eq!(
        paths[&vec!["interval", "never_timed"]].sim_units,
        u64::MAX / 4 + 7
    );
    let interval = paths[&vec!["interval"]];
    let execute = paths[&vec!["interval", "engine_execute"]];
    assert_eq!(execute.calls, 1 + (1 << 50));
    assert!(execute.wall_total <= interval.wall_total);
    assert_eq!(interval.wall_self + execute.wall_total, interval.wall_total);
}

#[test]
fn replayed_programs_fold_deterministically() {
    check("profiler_folded_sim_deterministic", 200, |g: &mut Gen| {
        let program = gen_program(g);
        let mut a = SpanProfiler::new();
        let mut b = SpanProfiler::new();
        apply(&mut a, &program);
        apply(&mut b, &program);
        assert_eq!(a.depth(), 0, "programs are balanced");
        let folded = a.folded_sim();
        assert_eq!(
            folded,
            b.folded_sim(),
            "sim dump depends only on the program"
        );
        let stats = validate_folded(&folded).expect("replayed dump validates");
        assert_eq!(stats.lines, folded.lines().count());
    });
}

#[test]
fn self_time_partitions_inclusive_time() {
    check("profiler_self_time_partition", 200, |g: &mut Gen| {
        let program = gen_program(g);
        let mut p = SpanProfiler::new();
        let untimed = g.f64_in(0.0, 1.0);
        apply_tallied(&mut p, &program, g, untimed);
        let paths = by_path(&p);
        for (path, stats) in &paths {
            let children: Duration = paths
                .iter()
                .filter(|(q, _)| q.len() == path.len() + 1 && q[..path.len()] == path[..])
                .map(|(_, s)| s.wall_total)
                .sum();
            assert_eq!(
                stats.wall_total,
                stats.wall_self + children,
                "self + direct children == inclusive, exactly, at {path:?}"
            );
        }
        // The flat report's phase totals are self-time sums, so they can
        // never exceed the total profiled time even with reentrancy.
        let total = p.total();
        for (name, phase) in p.phases() {
            assert!(
                phase.total <= total,
                "flat {name} total {:?} exceeds profiled total {total:?}",
                phase.total
            );
        }
    });
}

#[test]
fn guards_unwind_to_a_balanced_stack() {
    fn run_tree(g: &mut Gen, profiler: &Option<SharedSpanProfiler>, depth: usize) {
        for _ in 0..g.usize_in(0, 4) {
            let _guard = enter_span(profiler, NAMES[g.usize_in(0, NAMES.len())]);
            span_units(profiler, g.u64_in(0, 100));
            if depth < 4 {
                run_tree(g, profiler, depth + 1);
            }
        }
    }
    check("profiler_guards_balance", 200, |g: &mut Gen| {
        let shared = SpanProfiler::shared();
        let opt = Some(shared.clone());
        run_tree(g, &opt, 0);
        let p = shared.borrow();
        assert_eq!(p.depth(), 0, "every guard closed its span");
        let folded = p.folded_sim();
        if !folded.is_empty() {
            validate_folded(&folded).expect("guard-built dump validates");
        }
        // Sim units are exclusive: the per-path unit totals sum to the
        // units attributed plus one per entry, with nothing lost to
        // nesting.
        let entered: u64 = p.span_paths().map(|(_, s)| s.calls).sum();
        let units: u64 = p.span_paths().map(|(_, s)| s.sim_units).sum();
        assert!(units >= entered, "each entry contributes one unit");
    });
}

#[test]
fn split_and_merged_profiles_match_a_single_profiler() {
    // `a` was entered but never closed: it is not listed.
    let mut open = SpanProfiler::new();
    apply(&mut open, &[Op::Enter("a"), Op::Enter("b"), Op::Exit]);
    assert_eq!(open.folded_sim(), "a;b 1\n");
    check("profiler_merge_equals_single", 200, |g: &mut Gen| {
        let programs: Vec<Vec<Op>> = (0..g.usize_in(1, 5)).map(|_| gen_program(g)).collect();
        let mut single = SpanProfiler::new();
        for program in &programs {
            apply(&mut single, program);
        }
        let mut merged = SpanProfiler::new();
        for (k, program) in programs.iter().enumerate() {
            // Cloned mid-program, a worker lists only closed spans, then goes on.
            let (before, after) = program.split_at(g.usize_in(0, program.len()));
            let mut worker = SpanProfiler::new();
            apply(&mut worker, before);
            let mut worker = worker.clone();
            assert_matches_path_map(&worker, &[before.to_vec()]);
            apply(&mut worker, after);
            assert_matches_path_map(&worker, std::slice::from_ref(program));
            merged.merge(&worker);
            assert_matches_path_map(&merged, &programs[..=k]);
        }
        // Merged and single profiles both equal the path map of all programs.
        assert_matches_path_map(&single, &programs);
    });
}
