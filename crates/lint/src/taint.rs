//! Source→sink taint analysis over the workspace call graph.
//!
//! The token rules (D01–D05) flag nondeterminism at the line that
//! produces it; this layer flags nondeterminism that *travels* — a
//! wall-clock read wrapped two crates away from the exporter that
//! finally writes it. The model is function-granular and
//! over-approximating:
//!
//! - A function is **tainted** with a category when its body touches a
//!   source directly, or when any callee is tainted (data is assumed to
//!   flow back through returns and out through arguments).
//! - A function **reaches a sink** when its body touches one directly or
//!   any callee does.
//! - A function that is tainted *and* reaches a sink is a violation,
//!   reported once at the meeting point (a node is skipped when one of
//!   its callees already violates for the same category) with the full
//!   source→…→sink chain rendered.
//!
//! Sanctioned boundaries kill taint: files whose *job* is the
//! nondeterminism in question (the overhead profiler measures wall time;
//! the bench harness's payload *is* wall time) are listed in
//! [`SANCTIONS`] per category, and a
//! `// odlb-lint: allow(T0x) — reason` pragma on a `fn` declaration
//! line does the same surgically. Every entry must stay load-bearing:
//! the policy tests remove each one and assert a diagnostic appears.

use crate::graph::{CallGraph, FileUnit};
use crate::lexer::{TokKind, Token};
use crate::rules::{
    hash_bound_idents, sorted_downstream, ChainStep, Diagnostic, HASH_ITER_METHODS, RNG_EVIDENCE,
};
use std::collections::{BTreeMap, BTreeSet};

/// What kind of nondeterminism a taint fact carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    /// Wall-clock reads (`Instant::now`, `SystemTime`, `UNIX_EPOCH`).
    WallClock,
    /// Ambient randomness (`rand`, `thread_rng`, `RandomState`, …).
    Randomness,
    /// Thread identity (`thread::current`, `ThreadId`).
    ThreadIdentity,
    /// Host parallelism (`available_parallelism`).
    Parallelism,
    /// Pointer-address formatting (`{:p}`).
    PtrAddr,
    /// Unordered `HashMap`/`HashSet` iteration.
    HashOrder,
}

/// All categories, in reporting order.
pub const CATEGORIES: [Category; 6] = [
    Category::WallClock,
    Category::Randomness,
    Category::ThreadIdentity,
    Category::Parallelism,
    Category::PtrAddr,
    Category::HashOrder,
];

impl Category {
    /// The diagnostic rule this category reports under.
    pub fn rule(self) -> &'static str {
        match self {
            Category::WallClock => "T01",
            Category::Randomness | Category::ThreadIdentity | Category::Parallelism => "T02",
            Category::PtrAddr | Category::HashOrder => "T03",
        }
    }

    /// Short human-readable phrase for messages.
    pub fn phrase(self) -> &'static str {
        match self {
            Category::WallClock => "wall-clock time",
            Category::Randomness => "ambient randomness",
            Category::ThreadIdentity => "thread identity",
            Category::Parallelism => "host parallelism",
            Category::PtrAddr => "a pointer address",
            Category::HashOrder => "hasher-dependent iteration order",
        }
    }
}

/// One sanctioned boundary: taint of the listed categories dies at every
/// function defined in `file`.
#[derive(Clone, Debug)]
pub struct Sanction {
    /// Workspace-relative path.
    pub file: &'static str,
    /// Categories whose taint this file may absorb.
    pub categories: &'static [Category],
    /// Why the boundary is sound (documentation; also surfaced in docs).
    pub reason: &'static str,
}

/// The workspace's sanctioned boundaries. Related to the D01/D04 policy
/// exemptions in [`crate::policy_for`], but strictly *smaller*: a policy
/// exemption lets a file touch a source, while a sanction is only needed
/// where that taint would otherwise reach an export sink. Every entry is
/// pinned load-bearing by `tests/taint_analysis.rs` — files like
/// `serve.rs`, `runner.rs`, and `rng.rs` touch sources but
/// need no entry because their taint never reaches a sink.
pub const SANCTIONS: [Sanction; 4] = [
    Sanction {
        file: "crates/telemetry/src/profiler.rs",
        categories: &[Category::WallClock],
        reason: "the overhead profiler's job is measuring wall time; its dumps are \
                 validated and wall figures are never diffed",
    },
    Sanction {
        file: "crates/bench/src/suite.rs",
        categories: &[Category::WallClock],
        reason: "per-figure wall timings ride out of band in FigureOutput (stderr \
                 overhead report, benchmark/); stdout and artifacts never carry them",
    },
    Sanction {
        file: "crates/bench/src/bin/experiments.rs",
        categories: &[Category::WallClock],
        reason: "the experiments binary reports elapsed wall time to stderr; artifact \
                 payloads come from the simulation clock",
    },
    Sanction {
        file: "crates/bench/src/sweep.rs",
        categories: &[Category::WallClock],
        reason: "per-cell wall clocks are the sweep's bench payload, carried out of \
                 band in SweepOutcome; cell content hashes and merged artifacts are \
                 derived from the canonical config and simulation clock only",
    },
];

/// A direct source occurrence inside one function body.
#[derive(Clone, Debug)]
struct SourceHit {
    cat: Category,
    line: u32,
    what: String,
}

/// A direct sink occurrence inside one function body.
#[derive(Clone, Debug)]
struct SinkHit {
    line: u32,
    what: String,
}

/// The result of a taint pass.
pub struct TaintResult {
    /// T01–T03 findings, sorted.
    pub diagnostics: Vec<Diagnostic>,
    /// Pragma lines (per file) consumed as propagation boundaries, so
    /// the S00 unused-pragma check does not flag them.
    pub used_pragmas: BTreeMap<String, BTreeSet<u32>>,
}

/// Iterator terminals whose result does not depend on visit order.
const ORDER_INSENSITIVE: [&str; 8] = [
    "sum", "count", "min", "max", "all", "any", "len", "is_empty",
];

/// Runs the taint pass over `units` and their call `graph` under the
/// given sanction table (pass [`SANCTIONS`] outside tests).
pub fn analyze(units: &[FileUnit], graph: &CallGraph, sanctions: &[Sanction]) -> TaintResult {
    let n = graph.nodes.len();

    // Per-node direct facts.
    let mut sources: Vec<Vec<SourceHit>> = Vec::with_capacity(n);
    let mut sinks: Vec<Vec<SinkHit>> = Vec::with_capacity(n);
    let bound_per_unit: Vec<BTreeSet<String>> = units
        .iter()
        .map(|u| hash_bound_idents(&u.lexed.tokens))
        .collect();
    for node in &graph.nodes {
        let u = &units[node.file_idx];
        let f = &u.parsed.fns[node.fn_idx];
        sources.push(scan_sources(
            &u.lexed.tokens,
            f.body,
            &bound_per_unit[node.file_idx],
        ));
        sinks.push(scan_sinks(&u.lexed.tokens, f.body));
    }

    // Boundaries: sanctioned files and fn-line pragmas.
    let mut boundary: Vec<BTreeSet<Category>> = vec![BTreeSet::new(); n];
    let mut used_pragmas: BTreeMap<String, BTreeSet<u32>> = BTreeMap::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        let u = &units[node.file_idx];
        for s in sanctions {
            if s.file == u.rel {
                boundary[i].extend(s.categories.iter().copied());
            }
        }
        // An `allow(T0x) — reason` pragma on the fn line or the line
        // above stops propagation for that rule's categories. (The
        // pragma prefix is spelled out nowhere here: this comment would
        // otherwise lex as a pragma itself.)
        for p in &u.lexed.pragmas {
            if !p.well_formed || p.reason.is_empty() {
                continue;
            }
            if p.line != node.line && p.line + 1 != node.line {
                continue;
            }
            let mut hit = false;
            for cat in CATEGORIES {
                if p.rules.iter().any(|r| r == cat.rule() || r == "all") {
                    boundary[i].insert(cat);
                    hit = true;
                }
            }
            if hit {
                used_pragmas
                    .entry(u.rel.clone())
                    .or_default()
                    .insert(p.line);
            }
        }
    }

    // Fixpoint: tainted[cat] and sink_reach propagate callee → caller.
    let cat_idx = |c: Category| CATEGORIES.iter().position(|&x| x == c).unwrap_or(0);
    let mut tainted = vec![[false; CATEGORIES.len()]; n];
    let mut reach = vec![false; n];
    for i in 0..n {
        for s in &sources[i] {
            if !boundary[i].contains(&s.cat) {
                tainted[i][cat_idx(s.cat)] = true;
            }
        }
        reach[i] = !sinks[i].is_empty();
    }
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            for &c in &graph.nodes[i].callees {
                if reach[c] && !reach[i] {
                    reach[i] = true;
                    changed = true;
                }
                for (k, &cat) in CATEGORIES.iter().enumerate() {
                    if tainted[c][k] && !tainted[i][k] && !boundary[i].contains(&cat) {
                        tainted[i][k] = true;
                        changed = true;
                    }
                }
            }
        }
    }

    // Report at meeting points only: skip a node when a callee already
    // violates for the same category *strictly below it* — a violating
    // callee that can reach back (recursion) is the same meeting point,
    // not a deeper one, and must not suppress the report.
    let violates = |i: usize, k: usize| tainted[i][k] && reach[i];
    let reaches = |from: usize, to: usize, k: usize| -> bool {
        let mut stack = vec![from];
        let mut seen: BTreeSet<usize> = [from].into();
        while let Some(u) = stack.pop() {
            if u == to {
                return true;
            }
            for &c in &graph.nodes[u].callees {
                if violates(c, k) && seen.insert(c) {
                    stack.push(c);
                }
            }
        }
        false
    };
    let mut diagnostics = Vec::new();
    for i in 0..n {
        for (k, &cat) in CATEGORIES.iter().enumerate() {
            if !violates(i, k) {
                continue;
            }
            if graph.nodes[i]
                .callees
                .iter()
                .any(|&c| c != i && violates(c, k) && !reaches(c, i, k))
            {
                continue;
            }
            diagnostics.push(render(
                units, graph, &sources, &sinks, &tainted, &reach, i, cat, k,
            ));
        }
    }
    diagnostics.sort();
    diagnostics.dedup();
    TaintResult {
        diagnostics,
        used_pragmas,
    }
}

/// Shortest deterministic path from `start` following `step`-eligible
/// callee edges to a node satisfying `is_target`; ties broken by node
/// index. Returns the node sequence including both endpoints.
fn walk_down(
    graph: &CallGraph,
    start: usize,
    is_target: &dyn Fn(usize) -> bool,
    step: &dyn Fn(usize) -> bool,
) -> Vec<usize> {
    if is_target(start) {
        return vec![start];
    }
    let mut prev: BTreeMap<usize, usize> = BTreeMap::new();
    let mut frontier = vec![start];
    let mut seen: BTreeSet<usize> = [start].into();
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            for &c in &graph.nodes[u].callees {
                if seen.contains(&c) || !step(c) {
                    continue;
                }
                seen.insert(c);
                prev.insert(c, u);
                if is_target(c) {
                    let mut path = vec![c];
                    let mut at = c;
                    while at != start {
                        at = prev[&at];
                        path.push(at);
                    }
                    path.reverse();
                    return path;
                }
                next.push(c);
            }
        }
        frontier = next;
    }
    vec![start]
}

#[allow(clippy::too_many_arguments)]
fn render(
    units: &[FileUnit],
    graph: &CallGraph,
    sources: &[Vec<SourceHit>],
    sinks: &[Vec<SinkHit>],
    tainted: &[[bool; CATEGORIES.len()]],
    reach: &[bool],
    node: usize,
    cat: Category,
    k: usize,
) -> Diagnostic {
    // Downward path from the meeting point to a concrete source…
    let has_src = |i: usize| sources[i].iter().any(|s| s.cat == cat);
    let to_source = walk_down(graph, node, &has_src, &|i| tainted[i][k]);
    // …and to a concrete sink.
    let has_sink = |i: usize| !sinks[i].is_empty();
    let to_sink = walk_down(graph, node, &has_sink, &|i| reach[i]);

    // Chain: source end first, meeting point in the middle, sink last.
    let mut order: Vec<usize> = to_source.iter().rev().copied().collect();
    order.extend(to_sink.iter().skip(1));

    let src_node = *to_source.last().unwrap_or(&node);
    let sink_node = *to_sink.last().unwrap_or(&node);
    let src_hit = sources[src_node].iter().find(|s| s.cat == cat);
    let sink_hit = sinks[sink_node].first();

    let chain: Vec<ChainStep> = order
        .iter()
        .map(|&i| {
            let n = &graph.nodes[i];
            let mut label = n.id.clone();
            if i == src_node {
                if let Some(s) = src_hit {
                    label.push_str(&format!(" [source: {} @ line {}]", s.what, s.line));
                }
            }
            if i == sink_node {
                if let Some(s) = sink_hit {
                    label.push_str(&format!(" [sink: {} @ line {}]", s.what, s.line));
                }
            }
            ChainStep {
                file: units[n.file_idx].rel.clone(),
                line: n.line,
                label,
            }
        })
        .collect();

    let rendered: Vec<String> = chain.iter().map(|s| s.label.clone()).collect();
    let meet = &graph.nodes[node];
    Diagnostic {
        file: units[meet.file_idx].rel.clone(),
        line: meet.line,
        rule: cat.rule(),
        message: format!(
            "{} flows into {} with no sanctioned boundary; chain: {}",
            cat.phrase(),
            sink_hit.map_or("an export sink".to_string(), |s| format!("`{}`", s.what)),
            rendered.join(" -> ")
        ),
        chain,
    }
}

/// Scans one fn body for direct nondeterminism sources.
fn scan_sources(toks: &[Token], body: (usize, usize), bound: &BTreeSet<String>) -> Vec<SourceHit> {
    let (start, end) = body;
    let end = end.min(toks.len().saturating_sub(1));
    let mut out = Vec::new();
    let path2 = |i: usize, a: &str, b: &str| {
        i + 3 <= end
            && toks[i].is_ident(a)
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].is_ident(b)
    };
    let mut i = start;
    while i <= end {
        let t = &toks[i];
        if t.kind == TokKind::Ident {
            if path2(i, "Instant", "now") {
                out.push(SourceHit {
                    cat: Category::WallClock,
                    line: t.line,
                    what: "Instant::now".into(),
                });
            } else if t.is_ident("SystemTime") || t.is_ident("UNIX_EPOCH") {
                out.push(SourceHit {
                    cat: Category::WallClock,
                    line: t.line,
                    what: t.text.clone(),
                });
            } else if RNG_EVIDENCE.contains(&t.text.as_str()) {
                out.push(SourceHit {
                    cat: Category::Randomness,
                    line: t.line,
                    what: t.text.clone(),
                });
            } else if path2(i, "thread", "current") || t.is_ident("ThreadId") {
                out.push(SourceHit {
                    cat: Category::ThreadIdentity,
                    line: t.line,
                    what: if t.is_ident("ThreadId") {
                        "ThreadId".into()
                    } else {
                        "thread::current".into()
                    },
                });
            } else if t.is_ident("available_parallelism") {
                out.push(SourceHit {
                    cat: Category::Parallelism,
                    line: t.line,
                    what: "available_parallelism".into(),
                });
            }
        } else if t.kind == TokKind::Str && (t.text.contains(":p}") || t.text.contains(":#p}")) {
            out.push(SourceHit {
                cat: Category::PtrAddr,
                line: t.line,
                what: "{:p} pointer formatting".into(),
            });
        }
        i += 1;
    }
    out.extend(scan_hash_order(toks, body, bound));
    out
}

/// Hash-order sources: unordered iteration that is not provably
/// neutralised (sorted in-statement, sorted later through the binder, or
/// consumed by an order-insensitive terminal).
fn scan_hash_order(
    toks: &[Token],
    body: (usize, usize),
    bound: &BTreeSet<String>,
) -> Vec<SourceHit> {
    let (start, end) = body;
    let end = end.min(toks.len().saturating_sub(1));
    if bound.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();

    // `.iter()`-family on a tracked receiver.
    for i in start + 1..end {
        if toks[i].is_punct('.')
            && i + 2 <= end
            && toks[i + 1].kind == TokKind::Ident
            && HASH_ITER_METHODS.contains(&toks[i + 1].text.as_str())
            && toks[i + 2].is_punct('(')
            && toks[i - 1].kind == TokKind::Ident
            && bound.contains(&toks[i - 1].text)
            && !sorted_downstream(toks, i)
            && !order_insensitive_downstream(toks, i, end)
            && !binder_sorted_later(toks, body, i)
        {
            out.push(SourceHit {
                cat: Category::HashOrder,
                line: toks[i].line,
                what: format!("{}.{}()", toks[i - 1].text, toks[i + 1].text),
            });
        }
    }

    // `for … in <tracked map>`.
    let mut i = start;
    while i <= end {
        if !toks[i].is_ident("for") {
            i += 1;
            continue;
        }
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut in_pos = None;
        while j <= end {
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if depth == 0 && t.is_punct('{') {
                break;
            } else if depth == 0 && t.is_ident("in") {
                in_pos = Some(j);
            }
            j += 1;
        }
        if let Some(p) = in_pos {
            for t in toks.iter().take(j).skip(p + 1) {
                if t.kind == TokKind::Ident && bound.contains(&t.text) {
                    out.push(SourceHit {
                        cat: Category::HashOrder,
                        line: t.line,
                        what: format!("for … in {}", t.text),
                    });
                    break;
                }
            }
        }
        i = j + 1;
    }
    out
}

/// True when the statement's result is order-free (`.sum()`, `.len()`…).
fn order_insensitive_downstream(toks: &[Token], from: usize, end: usize) -> bool {
    for t in toks.iter().take(end + 1).skip(from).take(80) {
        if t.is_punct(';') {
            return false;
        }
        if t.kind == TokKind::Ident && ORDER_INSENSITIVE.contains(&t.text.as_str()) {
            return true;
        }
    }
    false
}

/// True when the iteration statement binds `let [mut] NAME = …` and a
/// later statement in the same body sorts `NAME` (`NAME.sort*`): the
/// collect-then-sort idiom, invisible to the one-statement heuristic.
fn binder_sorted_later(toks: &[Token], body: (usize, usize), site: usize) -> bool {
    let (start, end) = body;
    // Statement start: previous `;`, `{` or `}`.
    let mut j = site;
    while j > start {
        let t = &toks[j - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        j -= 1;
    }
    if !toks[j].is_ident("let") {
        return false;
    }
    let mut name_at = j + 1;
    if toks.get(name_at).is_some_and(|t| t.is_ident("mut")) {
        name_at += 1;
    }
    let Some(name) = toks.get(name_at).filter(|t| t.kind == TokKind::Ident) else {
        return false;
    };
    // Later `NAME.sort*` anywhere in the body after the site.
    for i in site..end.min(toks.len().saturating_sub(2)) {
        if toks[i].is_ident(&name.text)
            && toks[i + 1].is_punct('.')
            && toks
                .get(i + 2)
                .is_some_and(|t| t.kind == TokKind::Ident && t.text.starts_with("sort"))
        {
            return true;
        }
    }
    false
}

/// Scans one fn body for direct export sinks.
fn scan_sinks(toks: &[Token], body: (usize, usize)) -> Vec<SinkHit> {
    let (start, end) = body;
    let end = end.min(toks.len().saturating_sub(1));
    let mut out = Vec::new();
    let mut i = start;
    while i <= end {
        let t = &toks[i];
        // Method sinks: `.emit(…)` / `.emit_with(…)` on a trace sink.
        if t.is_punct('.')
            && i + 2 <= end
            && (toks[i + 1].is_ident("emit") || toks[i + 1].is_ident("emit_with"))
            && toks[i + 2].is_punct('(')
        {
            out.push(SinkHit {
                line: toks[i + 1].line,
                what: format!(".{}()", toks[i + 1].text),
            });
            i += 3;
            continue;
        }
        if t.kind == TokKind::Ident {
            let called = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
            let name = t.text.as_str();
            let is_sink = match name {
                // digest and exporter terminals must actually be called
                "fnv1a64" | "render_prometheus" | "render_csv" => called,
                // rendering a folded dump is sink enough on its own
                "folded_sim" | "folded_wall" => true,
                // constructing a figure payload
                "FigureOutput" => true,
                // writing a JSONL trace
                "JsonlSink" => true,
                _ => false,
            };
            if is_sink {
                out.push(SinkHit {
                    line: t.line,
                    what: name.to_string(),
                });
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build;
    use crate::lexer::lex;
    use crate::parse::parse_file;

    fn unit(rel: &str, src: &str) -> FileUnit {
        let lexed = lex(src);
        let parsed = parse_file(&lexed);
        FileUnit {
            rel: rel.to_string(),
            lexed,
            parsed,
        }
    }

    fn run(units: Vec<FileUnit>) -> Vec<Diagnostic> {
        let graph = build(&units);
        analyze(&units, &graph, &SANCTIONS).diagnostics
    }

    #[test]
    fn two_hop_cross_crate_flow_is_caught_with_chain() {
        let units = vec![
            unit(
                "crates/a/src/clock.rs",
                "pub fn wall_micros() -> u128 { std::time::Instant::now().elapsed().as_micros() }",
            ),
            unit(
                "crates/b/src/stamp.rs",
                "use odlb_a::clock::wall_micros;\npub fn stamp() -> u128 { wall_micros() }",
            ),
            unit(
                "crates/c/src/out.rs",
                "use odlb_b::stamp::stamp;\npub fn write_digest() -> u64 { fnv1a64(&stamp().to_le_bytes()) }",
            ),
        ];
        let got = run(units);
        assert_eq!(got.len(), 1, "{got:?}");
        let d = &got[0];
        assert_eq!(d.rule, "T01");
        assert_eq!(d.file, "crates/c/src/out.rs");
        // chain runs source-first: wall_micros -> stamp -> write_digest
        let labels: Vec<&str> = d.chain.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(d.chain.len(), 3, "{labels:?}");
        assert!(labels[0].starts_with("odlb_a::clock::wall_micros"));
        assert!(labels[0].contains("source: Instant::now"));
        assert!(labels[1].starts_with("odlb_b::stamp::stamp"));
        assert!(labels[2].contains("sink: fnv1a64"));
        assert!(d.message.contains("->"));
    }

    #[test]
    fn sanctioned_file_kills_taint() {
        let units = vec![
            unit(
                "crates/telemetry/src/profiler.rs",
                "pub fn overhead() -> u128 { Instant::now().elapsed().as_micros() }",
            ),
            unit(
                "crates/c/src/out.rs",
                "use odlb_telemetry::profiler::overhead;\npub fn write() -> u64 { fnv1a64(&overhead().to_le_bytes()) }",
            ),
        ];
        assert!(run(units).is_empty());
    }

    #[test]
    fn pragma_boundary_kills_taint_and_is_marked_used() {
        let units = vec![unit(
            "crates/a/src/lib.rs",
            "// odlb-lint: allow(T01) — wall figure is advisory, never diffed\n\
             pub fn wall() -> u128 { Instant::now().elapsed().as_micros() }\n\
             pub fn write() -> u64 { fnv1a64(&wall().to_le_bytes()) }",
        )];
        let graph = build(&units);
        let r = analyze(&units, &graph, &SANCTIONS);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert!(r.used_pragmas["crates/a/src/lib.rs"].contains(&1));
    }

    #[test]
    fn source_without_sink_and_sink_without_source_are_clean() {
        let units = vec![unit(
            "crates/a/src/lib.rs",
            "pub fn timed() -> u128 { Instant::now().elapsed().as_micros() }\n\
             pub fn export(v: &[u8]) -> u64 { fnv1a64(v) }",
        )];
        assert!(run(units).is_empty());
    }

    #[test]
    fn hash_order_source_categories() {
        // unordered iteration into an emit sink → T03
        let bad = unit(
            "crates/a/src/lib.rs",
            "pub fn dump(m: &HashMap<u32, u32>, t: &Tracer) { for (k, v) in m.iter() { t.emit(k, v); } }",
        );
        let got = run(vec![bad]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].rule, "T03");

        // collect-then-sort two statements apart is neutral
        let sorted = unit(
            "crates/a/src/lib.rs",
            "pub fn dump(m: &HashMap<u32, u32>, t: &Tracer) {\n\
                 let mut v: Vec<u32> = m.keys().copied().collect();\n\
                 v.sort_unstable();\n\
                 t.emit(0, v[0]);\n\
             }",
        );
        assert!(run(vec![sorted]).is_empty());

        // order-insensitive terminal is neutral
        let summed = unit(
            "crates/a/src/lib.rs",
            "pub fn dump(m: &HashMap<u32, u64>, t: &Tracer) { let s: u64 = m.values().sum(); t.emit(0, s); }",
        );
        assert!(run(vec![summed]).is_empty());
    }

    #[test]
    fn hash_order_source_sees_the_fast_map_alias() {
        // A fixed hasher still gives an arbitrary order: the workspace
        // alias is a hash-order source exactly like `HashMap`.
        let bad = unit(
            "crates/a/src/lib.rs",
            "pub fn dump(m: &FastMap<u32, u32>, t: &Tracer) { for (k, v) in m.iter() { t.emit(k, v); } }",
        );
        let got = run(vec![bad]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].rule, "T03");

        let renamed = unit(
            "crates/a/src/lib.rs",
            "use std::collections::HashSet as Seen;\n\
             pub fn dump(s: &Seen<u32>, t: &Tracer) { for k in s.iter() { t.emit(k, 0); } }",
        );
        let got = run(vec![renamed]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].rule, "T03");

        let sorted = unit(
            "crates/a/src/lib.rs",
            "pub fn dump(m: &FastMap<u32, u32>, t: &Tracer) {\n\
                 let mut v: Vec<u32> = m.keys().copied().collect();\n\
                 v.sort_unstable();\n\
                 t.emit(0, v[0]);\n\
             }",
        );
        assert!(run(vec![sorted]).is_empty());

        let summed = unit(
            "crates/a/src/lib.rs",
            "pub fn dump(m: &FastMap<u32, u64>, t: &Tracer) { let s: u64 = m.values().sum(); t.emit(0, s); }",
        );
        assert!(run(vec![summed]).is_empty());
    }

    #[test]
    fn report_is_at_the_meeting_point_only() {
        // caller -> meeting -> {source, sink}: one diagnostic, at meeting.
        let units = vec![unit(
            "crates/a/src/lib.rs",
            "pub fn source() -> u128 { Instant::now().elapsed().as_micros() }\n\
             pub fn meeting() -> u64 { fnv1a64(&source().to_le_bytes()) }\n\
             pub fn caller() -> u64 { meeting() }",
        )];
        let got = run(units);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].line, 2);
    }

    #[test]
    fn recursion_terminates() {
        let units = vec![unit(
            "crates/a/src/lib.rs",
            "pub fn a(n: u32) -> u64 { if n == 0 { fnv1a64(&SystemTime::now().elapsed().unwrap().as_micros().to_le_bytes()) } else { b(n - 1) } }\n\
             pub fn b(n: u32) -> u64 { a(n) }",
        )];
        let got = run(units);
        assert!(!got.is_empty());
    }

    #[test]
    fn output_is_deterministic() {
        let mk = || {
            vec![
                unit(
                    "crates/a/src/lib.rs",
                    "pub fn s1() -> u128 { Instant::now().elapsed().as_micros() }\n\
                     pub fn s2() { let r = rand::random::<u32>(); }\n\
                     pub fn m() -> u64 { s2(); fnv1a64(&s1().to_le_bytes()) }",
                ),
                unit(
                    "crates/b/src/lib.rs",
                    "use odlb_a::m;\npub fn top() -> u64 { m() }",
                ),
            ]
        };
        let a: Vec<String> = run(mk()).iter().map(|d| format!("{d}")).collect();
        let b: Vec<String> = run(mk()).iter().map(|d| format!("{d}")).collect();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
