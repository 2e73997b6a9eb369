//! A nested span profiler: wall-clock and deterministic sim-unit time
//! per *stack path* (`experiments;fig3;controller;mrc_update`), rendered
//! as an `inferno`-compatible folded-stacks dump and as the flat per-
//! phase overhead report that quantifies the paper's claim that
//! fine-grained instrumentation and control add negligible overhead.
//!
//! Two dimensions are recorded per path:
//!
//! * **wall-clock** (`Instant`-based): real time, *never* part of the
//!   deterministic `.prom`/`.csv` artifacts — the experiments binary
//!   prints the flat report and the wall folded dump to stderr, keeping
//!   stdout byte-identical across runs and job counts.
//! * **sim units**: one unit per span entry plus any explicitly
//!   attributed deterministic quantity ([`SpanProfiler::add_units`],
//!   e.g. simulated service microseconds). Values derive only from
//!   simulation state, so the sim folded dump is byte-identical across
//!   runs and job counts and can be diffed in CI like any artifact.
//!
//! Spans are pushed/popped with the RAII [`SpanGuard`] (see
//! [`enter_span`]); self-time is the span's elapsed time minus the time
//! spent in child spans, so a phase re-entered under itself never
//! double-counts in the flat report.
//!
//! Entries too frequent to time one by one are counted instead and
//! folded in per batch by [`SpanProfiler::tally`]: their calls and sim
//! units are exact, and their wall time is estimated from the same
//! path's timed entries, net of what the profiler's own clock reads and
//! bookkeeping add to those. That per-span cost is calibrated on a
//! scratch profiler, and read in place where the caller times some
//! entries of a tallied path with no span inside: they run what the
//! entries timed with spans inside run, so the difference is what those
//! spans cost, cold caches included.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Accumulated flat timings for one phase name (derived from the span
/// paths; see [`SpanProfiler::phases`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseStats {
    /// Number of timed invocations.
    pub calls: u64,
    /// Total time across invocations (self-time based: nested
    /// invocations of the same phase are counted once).
    pub total: Duration,
    /// Longest single invocation.
    pub max: Duration,
}

/// Accumulated statistics for one unique stack path.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanStats {
    /// Times this exact path was entered.
    pub calls: u64,
    /// Inclusive wall time (children included).
    pub wall_total: Duration,
    /// Exclusive wall time (children subtracted) — the folded value.
    pub wall_self: Duration,
    /// Longest single inclusive invocation.
    pub wall_max: Duration,
    /// Deterministic units: one per entry plus explicitly attributed
    /// quantities ([`SpanProfiler::add_units`]). Exclusive by
    /// construction — units land on the innermost open path.
    pub sim_units: u64,
}

/// One unique stack path: a node of the calling-context tree, created
/// the first time the path is entered.
#[derive(Clone, Debug)]
struct Node {
    /// The node one frame shallower (`None`: a root).
    parent: Option<usize>,
    /// The full path, root first.
    path: Vec<&'static str>,
    stats: SpanStats,
    /// What the path's timed entries measured: the base of the wall
    /// estimate for its tallied entries, which never feed back into it.
    timed: Timed,
    /// Tallied directly under an open span: its caller chooses which
    /// entries to time, and how.
    sampled: bool,
}

/// The timed (entered and exited) invocations of one path, split by
/// whether a span was timed inside them.
#[derive(Clone, Copy, Debug, Default)]
struct Timed {
    /// Entries with timed spans inside: their count, self and inclusive
    /// time, and the timed spans entered directly under them.
    nested: u64,
    nested_self: Duration,
    nested_total: Duration,
    child_calls: u64,
    /// Entries with no timed span inside (every entry of a leaf path):
    /// their count and time.
    flat: u64,
    flat_wall: Duration,
}

/// The wall time one span's bookkeeping adds, in nanoseconds: `own`
/// lands in the span's self time (what runs between its two clock
/// reads), `parent` in its parent's (what runs around them).
#[derive(Clone, Copy, Debug)]
struct Overhead {
    own: u128,
    parent: u128,
}

impl Overhead {
    /// The least per-span cost of four rounds of 256 spans, each
    /// attributing units, under one parent, through the same guard path
    /// the instrumented code takes. The least is the round no other work
    /// interrupted.
    fn calibrate() -> Overhead {
        const SPANS: u128 = 256;
        let mut least = Overhead {
            own: u128::MAX,
            parent: u128::MAX,
        };
        for _ in 0..4 {
            let shared = SpanProfiler::shared();
            let opt = Some(Rc::clone(&shared));
            {
                let _parent = enter_span(&opt, "parent");
                for _ in 0..SPANS {
                    let _span = enter_span(&opt, "span");
                    span_units(&opt, 1);
                }
            }
            let p = shared.borrow();
            let per_span = |node: usize| p.nodes[node].stats.wall_self.as_nanos() / SPANS;
            least.parent = least.parent.min(per_span(0));
            least.own = least.own.min(per_span(1));
        }
        least
    }
}

/// One open span on the stack.
#[derive(Clone, Debug)]
struct Frame {
    node: usize,
    start: Instant,
    /// Wall time spent in already-closed direct children.
    child_wall: Duration,
    /// Units attributed while this span was innermost.
    sim_units: u64,
    /// Whether a span was timed inside this one.
    nested: bool,
}

/// Accumulates wall-clock and sim-unit time per stack path.
#[derive(Clone, Debug, Default)]
pub struct SpanProfiler {
    nodes: Vec<Node>,
    stack: Vec<Frame>,
    /// Calibrated at the first [`SpanProfiler::tally`] that estimates.
    calibrated: Option<Overhead>,
}

/// A shareable profiler handle (single-threaded, like the tracer).
pub type SharedSpanProfiler = Rc<RefCell<SpanProfiler>>;

impl SpanProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        SpanProfiler::default()
    }

    /// Creates a shareable handle.
    pub fn shared() -> SharedSpanProfiler {
        Rc::new(RefCell::new(SpanProfiler::new()))
    }

    /// The node of `parent`'s path extended by `name`, created on first
    /// use; children follow their parent, so the search starts behind it.
    fn child(&mut self, parent: Option<usize>, name: &'static str) -> usize {
        let from = parent.map_or(0, |p| p + 1);
        let is_child = |n: &Node| n.parent == parent && n.path.last() == Some(&name);
        if let Some(i) = self.nodes[from..].iter().position(is_child) {
            return from + i;
        }
        let mut path = parent.map_or_else(Vec::new, |p| self.nodes[p].path.clone());
        path.push(name);
        self.nodes.push(Node {
            parent,
            path,
            stats: SpanStats::default(),
            timed: Timed::default(),
            sampled: false,
        });
        self.nodes.len() - 1
    }

    /// Opens a span named `phase` nested under the currently open spans.
    /// Prefer the RAII [`enter_span`] guard, which cannot unbalance the
    /// stack.
    #[expect(
        clippy::disallowed_methods,
        reason = "the overhead profiler's job is measuring wall time; wall figures \
                  go to stderr only and are never diffed"
    )]
    pub fn enter(&mut self, phase: &'static str) {
        let node = self.child(self.stack.last().map(|f| f.node), phase);
        self.stack.push(Frame {
            node,
            start: Instant::now(),
            child_wall: Duration::ZERO,
            sim_units: 0,
            nested: false,
        });
    }

    /// Closes the innermost open span, recording its stats on its path's
    /// node and charging its elapsed time to the parent's child-time.
    pub fn exit(&mut self) {
        let frame = self.stack.pop().expect("exit() without a matching enter()");
        let elapsed = frame.start.elapsed();
        let self_wall = elapsed.saturating_sub(frame.child_wall);
        let node = &mut self.nodes[frame.node];
        let timed = &mut node.timed;
        if frame.nested {
            timed.nested += 1;
            timed.nested_self += self_wall;
            timed.nested_total += elapsed;
        } else {
            timed.flat += 1;
            timed.flat_wall += elapsed;
        }
        let stats = &mut node.stats;
        stats.calls += 1;
        stats.wall_total += elapsed;
        stats.wall_self += self_wall;
        stats.wall_max = stats.wall_max.max(elapsed);
        stats.sim_units += 1 + frame.sim_units;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_wall += elapsed;
            parent.nested = true;
            self.nodes[parent.node].timed.child_calls += 1;
        }
    }

    /// Folds `calls` entries of `path` that ran untimed, `units` sim
    /// units attributed to them, into the path under the innermost open
    /// span. Calls and units are added exactly (one unit per call plus
    /// `units`), as if each entry had been entered and exited. Their wall
    /// time is estimated as `calls` times the path's mean timed self time
    /// net of the profiler's per-span cost (never below zero; zero when
    /// the path has no timed entry), and at most the open span's time not
    /// yet charged to a child. A path tallied directly under the open
    /// span is sampled: if some of its timed entries have timed spans
    /// inside, the mean is over those. The estimate is self time of
    /// `path`, inclusive time of it and of every path between it and the
    /// open span, and child time of the open span, so self time plus
    /// direct children's inclusive time still equals inclusive time on
    /// every path. Tally a path's ancestors below the open span too, or
    /// they go unlisted.
    pub fn tally(&mut self, path: &[&'static str], calls: u64, units: u64) {
        if calls == 0 {
            return;
        }
        let open = self.stack.last().map(|f| f.node);
        let node = path
            .iter()
            .fold(open, |at, &name| Some(self.child(at, name)));
        let node = node.expect("a tallied path is non-empty");
        self.nodes[node].sampled |= path.len() == 1;
        let stats = &mut self.nodes[node].stats;
        stats.calls += calls;
        stats.sim_units += calls + units;
        let mut estimate = self.estimate(node, calls);
        if let Some(top) = self.stack.last() {
            let room = top.start.elapsed().saturating_sub(top.child_wall);
            estimate = estimate.min(room);
        }
        if estimate.is_zero() {
            return;
        }
        self.nodes[node].stats.wall_self += estimate;
        let mut at = Some(node);
        while at != open {
            let n = &mut self.nodes[at.expect("the open span is an ancestor")];
            n.stats.wall_total += estimate;
            at = n.parent;
        }
        if let Some(top) = self.stack.last_mut() {
            top.child_wall += estimate;
        }
    }

    /// The wall time of `calls` untimed entries of `node`, from its timed
    /// entries' self time less each one's own span cost and the cost of
    /// its timed children.
    fn estimate(&mut self, node: usize, calls: u64) -> Duration {
        let Node {
            timed: t, sampled, ..
        } = self.nodes[node];
        // A sampled path's entries with no span inside measured all of it.
        let (entries, wall) = if sampled && t.nested > 0 {
            (t.nested, t.nested_self)
        } else {
            (t.nested + t.flat, t.nested_self + t.flat_wall)
        };
        let children = t.child_calls;
        if entries == 0 {
            return Duration::ZERO;
        }
        let cost = self.overhead();
        let spent = cost.own * u128::from(entries) + cost.parent * u128::from(children);
        let net = wall.as_nanos().saturating_sub(spent);
        let nanos = net * u128::from(calls) / u128::from(entries);
        Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
    }

    /// The profiler's cost per span. A sampled path timed both ways
    /// measures it in place: its entries with timed spans inside took
    /// longer than those with none by what those spans cost. Split as the
    /// calibration splits it, and never below the calibration (in place,
    /// caches are colder than in its tight loop).
    fn overhead(&mut self) -> Overhead {
        let calibrated = *self.calibrated.get_or_insert_with(Overhead::calibrate);
        let (mut excess, mut spans) = (0u128, 0u128);
        let both_ways = |n: &&Node| n.sampled && n.timed.nested > 0 && n.timed.flat > 0;
        for n in self.nodes.iter().filter(both_ways) {
            let t = n.timed;
            let flat_mean = t.flat_wall.as_nanos() / u128::from(t.flat);
            let nested_wall = t.nested_total.as_nanos();
            excess += nested_wall.saturating_sub(flat_mean * u128::from(t.nested));
            let inside = self
                .nodes
                .iter()
                .filter(|d| d.path.len() > n.path.len() && d.path.starts_with(&n.path));
            spans += inside
                .map(|d| u128::from(d.timed.nested + d.timed.flat))
                .sum::<u128>();
        }
        let per_span = calibrated.own + calibrated.parent;
        let measured = excess.checked_div(spans).unwrap_or(0);
        if measured <= per_span {
            return calibrated;
        }
        let own = measured * calibrated.own / per_span.max(1);
        Overhead {
            own,
            parent: measured - own,
        }
    }

    /// Attributes `units` deterministic sim units (e.g. simulated
    /// service microseconds) to the innermost open span. No-op outside
    /// any span.
    pub fn add_units(&mut self, units: u64) {
        if let Some(top) = self.stack.last_mut() {
            top.sim_units += units;
        }
    }

    /// Number of currently open spans.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Folds another profiler's paths into this one (summing calls,
    /// totals and sim units, keeping the larger max). The parallel
    /// experiment runner gives every figure its own profiler and merges
    /// them — by stack path, so a multi-worker merge renders the same
    /// folded dump as a single-worker run.
    pub fn merge(&mut self, other: &SpanProfiler) {
        for (path, s) in other.span_paths() {
            let node = path
                .iter()
                .fold(None, |at, &name| Some(self.child(at, name)));
            let stats = &mut self.nodes[node.expect("paths are non-empty")].stats;
            stats.calls += s.calls;
            stats.wall_total += s.wall_total;
            stats.wall_self += s.wall_self;
            stats.wall_max = stats.wall_max.max(s.wall_max);
            stats.sim_units += s.sim_units;
        }
    }

    /// Recorded stack paths and their stats, in path order. A path
    /// entered but never closed is not listed.
    pub fn span_paths(&self) -> impl Iterator<Item = (&[&'static str], &SpanStats)> {
        let mut closed: Vec<&Node> = self.nodes.iter().filter(|n| n.stats.calls > 0).collect();
        closed.sort_unstable_by(|a, b| a.path.cmp(&b.path));
        closed.into_iter().map(|n| (n.path.as_slice(), &n.stats))
    }

    /// Flat per-phase view, derived from the paths in name order. A
    /// phase's `total` is the summed *self*-time of every path the name
    /// appears on — so re-entering a phase under itself counts once —
    /// while `calls`/`max` come from the paths ending in the name.
    pub fn phases(&self) -> Vec<(&'static str, PhaseStats)> {
        let mut flat: BTreeMap<&'static str, PhaseStats> = BTreeMap::new();
        for (path, stats) in self.span_paths() {
            let leaf = flat.entry(*path.last().expect("paths are non-empty"));
            let leaf = leaf.or_default();
            leaf.calls += stats.calls;
            leaf.max = leaf.max.max(stats.wall_max);
            for (i, name) in path.iter().enumerate() {
                if !path[..i].contains(name) {
                    flat.entry(name).or_default().total += stats.wall_self;
                }
            }
        }
        flat.into_iter().collect()
    }

    /// Total profiled wall time: the sum of self-times over all paths
    /// (equivalently, the time spent under root spans — nesting never
    /// double-counts).
    pub fn total(&self) -> Duration {
        self.span_paths().map(|(_, s)| s.wall_self).sum()
    }

    /// The wall-clock folded-stacks dump: one `a;b;c <self µs>` line per
    /// unique stack, in path order. Real timings — stderr/opt-in only.
    pub fn folded_wall(&self) -> String {
        self.render_folded(|s| s.wall_self.as_micros() as u64)
    }

    /// The deterministic folded-stacks dump: one `a;b;c <sim units>`
    /// line per unique stack, in path order. Values derive only from
    /// simulation state, so the dump is byte-identical across runs and
    /// job counts.
    pub fn folded_sim(&self) -> String {
        self.render_folded(|s| s.sim_units)
    }

    fn render_folded(&self, value: impl Fn(&SpanStats) -> u64) -> String {
        let mut out = String::new();
        for (path, stats) in self.span_paths() {
            let _ = writeln!(out, "{} {}", path.join(";"), value(stats));
        }
        out
    }

    /// Renders the overhead report: one line per phase plus the share of
    /// `run_wall` (the whole run's wall time) spent inside spans.
    pub fn report(&self, run_wall: Duration) -> String {
        let mut out = String::from("controller overhead report\n");
        let _ = writeln!(
            out,
            "  {:<18} {:>8} {:>12} {:>12} {:>12}",
            "phase", "calls", "total", "mean", "max"
        );
        for (name, stats) in self.phases() {
            // `Duration / u32` is exact, but `calls` is a u64: a plain
            // `as u32` cast truncates, and calls >= 2^32 would truncate
            // to a divisor of 0 and panic. Past u32::MAX calls the mean
            // is computed in f64 instead (sub-nanosecond error at that
            // scale is far below the report's display precision).
            let mean = if stats.calls == 0 {
                Duration::ZERO
            } else {
                match u32::try_from(stats.calls) {
                    Ok(calls) => stats.total / calls,
                    Err(_) => {
                        Duration::from_secs_f64(stats.total.as_secs_f64() / stats.calls as f64)
                    }
                }
            };
            let _ = writeln!(
                out,
                "  {:<18} {:>8} {:>12} {:>12} {:>12}",
                name,
                stats.calls,
                format_duration(stats.total),
                format_duration(mean),
                format_duration(stats.max)
            );
        }
        let total = self.total();
        let share = if run_wall.is_zero() {
            0.0
        } else {
            100.0 * total.as_secs_f64() / run_wall.as_secs_f64()
        };
        let _ = writeln!(
            out,
            "  profiled total {} of {} run wall time ({share:.2}%)",
            format_duration(total),
            format_duration(run_wall)
        );
        out
    }
}

/// An RAII span: created by [`enter_span`], closes its span on drop.
/// Guards created in one scope drop in reverse creation order, so the
/// stack always unwinds in push order.
#[derive(Debug)]
pub struct SpanGuard {
    profiler: SharedSpanProfiler,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.profiler.borrow_mut().exit();
    }
}

/// Opens a span named `phase` on an optional shared profiler, returning
/// a guard that closes it on drop. `None` profiler ⇒ `None` guard ⇒ no
/// work at all. The borrow is released before the guard is returned, so
/// spans nest freely.
pub fn enter_span(profiler: &Option<SharedSpanProfiler>, phase: &'static str) -> Option<SpanGuard> {
    profiler.as_ref().map(|p| {
        p.borrow_mut().enter(phase);
        SpanGuard {
            profiler: Rc::clone(p),
        }
    })
}

/// Attributes `units` deterministic sim units to the innermost open span
/// of an optional shared profiler. No-op when `None` or outside a span.
pub fn span_units(profiler: &Option<SharedSpanProfiler>, units: u64) {
    if let Some(p) = profiler {
        p.borrow_mut().add_units(units);
    }
}

/// Times `f` under a span named `phase` on an optional shared profiler.
/// The profiler is only borrowed at entry and exit, never while `f`
/// runs, so timed sections may nest freely.
pub fn profile_span<R>(
    profiler: &Option<SharedSpanProfiler>,
    phase: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let _guard = enter_span(profiler, phase);
    f()
}

/// Human-readable duration with a stable width-friendly unit.
fn format_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}us")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.3}s", us as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_span_nests_under_the_open_span() {
        let shared = SpanProfiler::shared();
        let opt = Some(shared.clone());
        let out = profile_span(&opt, "outer", || profile_span(&opt, "inner", || 3));
        assert_eq!(out, 3);
        let p = shared.borrow();
        let paths: Vec<Vec<&str>> = p.span_paths().map(|(path, _)| path.to_vec()).collect();
        assert_eq!(paths, vec![vec!["outer"], vec!["outer", "inner"]]);
        assert_eq!(p.depth(), 0, "both guards dropped");
    }

    #[test]
    fn profile_span_without_profiler_is_transparent() {
        assert_eq!(profile_span(&None, "x", || 11), 11);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "bounds the profiler's wall self-time by a wall clock"
    )]
    fn self_time_excludes_children_in_flat_report() {
        // Regression (reentrancy): a phase nested under itself used to
        // double-count its elapsed time in the flat report. With
        // self-time accounting the phase total never exceeds the
        // outermost invocation's elapsed time.
        let shared = SpanProfiler::shared();
        let opt = Some(shared.clone());
        let start = Instant::now();
        profile_span(&opt, "collection", || {
            profile_span(&opt, "collection", || std::hint::black_box(fib(24)))
        });
        let outer_elapsed = start.elapsed();
        let p = shared.borrow();
        let stats: BTreeMap<&str, PhaseStats> = p.phases().into_iter().collect();
        assert_eq!(stats["collection"].calls, 2);
        assert!(
            stats["collection"].total <= outer_elapsed,
            "flat total {:?} must not exceed the outer elapsed {:?}",
            stats["collection"].total,
            outer_elapsed
        );
        // The same invariant in path form: self-times partition the
        // outer span's inclusive time.
        let paths: BTreeMap<Vec<&str>, SpanStats> = p
            .span_paths()
            .map(|(path, s)| (path.to_vec(), *s))
            .collect();
        let outer = paths[&vec!["collection"]];
        let inner = paths[&vec!["collection", "collection"]];
        assert_eq!(outer.wall_self + inner.wall_total, outer.wall_total);
    }

    #[test]
    fn add_units_lands_on_the_innermost_span() {
        let mut p = SpanProfiler::new();
        p.add_units(99); // outside any span: dropped
        p.enter("interval");
        p.add_units(10);
        p.enter("engine_execute");
        p.add_units(5);
        p.exit();
        p.add_units(2);
        p.exit();
        let paths: BTreeMap<Vec<&str>, SpanStats> = p
            .span_paths()
            .map(|(path, s)| (path.to_vec(), *s))
            .collect();
        assert_eq!(paths[&vec!["interval"]].sim_units, 13); // 1 + 10 + 2
        assert_eq!(paths[&vec!["interval", "engine_execute"]].sim_units, 6); // 1 + 5
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "checks the wall dump's stack order; its timings are never compared"
    )]
    fn folded_dumps_are_path_sorted_with_self_values() {
        let shared = SpanProfiler::shared();
        let opt = Some(shared.clone());
        profile_span(&opt, "b", || ());
        profile_span(&opt, "a", || {
            span_units(&opt, 4);
            profile_span(&opt, "z", || span_units(&opt, 7));
        });
        let p = shared.borrow();
        let sim = p.folded_sim();
        assert_eq!(sim, "a 5\na;z 8\nb 1\n");
        let wall = p.folded_wall();
        let lines: Vec<&str> = wall.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a "));
        assert!(lines[1].starts_with("a;z "));
        assert!(lines[2].starts_with("b "));
    }

    /// A profiler holding one root-level path with the given stats.
    fn with_path(phase: &'static str, calls: u64, total: Duration, max: Duration) -> SpanProfiler {
        let mut p = SpanProfiler::new();
        let stats = SpanStats {
            calls,
            wall_total: total,
            wall_self: total,
            wall_max: max,
            sim_units: calls,
        };
        let node = p.child(None, phase);
        p.nodes[node].stats = stats;
        p
    }

    #[test]
    fn report_mentions_every_phase_and_share() {
        let ms = Duration::from_millis(1);
        let p = with_path("action_selection", 1, ms, ms);
        let report = p.report(Duration::from_millis(100));
        assert!(report.contains("action_selection"));
        assert!(report.contains("1.00%"));
    }

    #[test]
    fn report_survives_call_counts_past_u32_max() {
        // Regression: the mean used `stats.total / stats.calls as u32`;
        // with calls >= 2^32 the cast truncated to 0 and the division
        // panicked.
        let calls = u64::from(u32::MAX) + 1;
        let p = with_path(
            "collection",
            calls,
            Duration::from_secs(8_590),
            Duration::from_micros(10),
        );
        let stats: BTreeMap<&str, PhaseStats> = p.phases().into_iter().collect();
        assert_eq!(stats["collection"].calls, calls);
        let report = p.report(Duration::from_secs(10_000));
        assert!(report.contains("collection"), "{report}");
        // 8590s over 2^32 calls is a hair over a 2us mean.
        assert!(report.contains("2us"), "{report}");
    }

    #[test]
    fn merge_sums_calls_and_keeps_larger_max() {
        let us = Duration::from_micros;
        let mut a = with_path("collection", 1, us(10), us(10));
        let mut b = with_path("collection", 1, us(40), us(40));
        b.merge(&with_path("action_selection", 1, us(5), us(5)));
        a.merge(&b);
        let stats: BTreeMap<&str, PhaseStats> = a.phases().into_iter().collect();
        assert_eq!(stats["collection"].calls, 2);
        assert_eq!(stats["collection"].total, us(50));
        assert_eq!(stats["collection"].max, us(40));
        assert_eq!(stats["action_selection"].calls, 1);
    }

    #[test]
    fn merge_is_by_stack_path() {
        let mut a = SpanProfiler::new();
        a.enter("suite");
        a.enter("fig3");
        a.exit();
        a.exit();
        let mut b = SpanProfiler::new();
        b.enter("suite");
        b.add_units(3);
        b.enter("fig4");
        b.exit();
        b.exit();
        a.merge(&b);
        assert_eq!(a.folded_sim(), "suite 5\nsuite;fig3 1\nsuite;fig4 1\n");
    }

    #[test]
    fn report_handles_zero_wall_time() {
        let p = SpanProfiler::new();
        let report = p.report(Duration::ZERO);
        assert!(report.contains("0.00%"));
    }

    fn fib(n: u64) -> u64 {
        if n < 2 {
            n
        } else {
            fib(n - 1) + fib(n - 2)
        }
    }
}
