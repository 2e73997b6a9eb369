//! The rule engine: token-level checks for the workspace's determinism
//! invariants.
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | D01  | no wall-clock (`Instant::now`, `SystemTime`, `std::time`) in any linted file without a [`crate::EXEMPTIONS`] row |
//! | D02  | no iteration over `HashMap`/`HashSet` (or an alias: `FastMap`/`FastSet`, `use … as`, `type`) in any linted file unless sorted or consumed order-free |
//! | D03  | no float formatted into an artifact without an explicit precision or the shared formatter |
//! | D04  | no threads, thread identity, host parallelism, ambient randomness or `{:p}` addresses in any linted file without a row |
//! | D05  | no folded-stacks dumps rendered in any linted file without a row (the validated exporter path) |
//! | P01  | no `unwrap()`/`expect()` on I/O results in non-test binary code |
//!
//! Checks are heuristic token analyses, not type checking — they are
//! tuned to have zero false positives on this workspace, and anything
//! they over-flag elsewhere can carry a reasoned
//! `// odlb-lint: allow(<rule>) — <reason>` pragma (rule S00 keeps the
//! pragma inventory honest: a reason is mandatory and a pragma that
//! suppresses nothing is itself an error).

use crate::lexer::{Lexed, TokKind, Token};
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// What a D01/D04/D05 finding found: the unit a [`crate::EXEMPTIONS`]
/// row allows per file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Wall-clock reads (`Instant::now`, `SystemTime`, `std::time`).
    Clock,
    /// Ambient randomness (`rand`, `thread_rng`, `RandomState`, …).
    Randomness,
    /// Threads (`thread::spawn`, `std::thread`).
    ThreadSpawn,
    /// Thread identity (`thread::current`, `ThreadId`).
    ThreadIdentity,
    /// Host parallelism (`available_parallelism`).
    Parallelism,
    /// Pointer-address formatting (`{:p}`).
    PtrAddr,
    /// Folded-stacks dump rendering (`folded_sim`, `folded_wall`).
    Folded,
}

impl Kind {
    /// The rule findings of this kind report under.
    pub fn rule(self) -> &'static str {
        match self {
            Kind::Clock => "D01",
            Kind::Folded => "D05",
            _ => "D04",
        }
    }
}

/// What applies to a file beyond D01, D02, D04 and D05, which apply to
/// every linted file (decided from its path by [`crate::policy_for`]).
#[derive(Clone, Copy, Debug)]
pub struct Policy<'a> {
    /// Source kinds the file's [`crate::EXEMPTIONS`] row allows.
    pub allow: &'a [Kind],
    /// D03: bare float formatting is forbidden here.
    pub float_fmt: bool,
    /// P01: `unwrap`/`expect` on I/O results is forbidden here.
    pub io_unwrap: bool,
}

/// One finding, rendered as `file:line: rule: message`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Rule identifier (`D01` … `D05`, `P01`, `M01`, `S00`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Iteration methods whose order reflects the hasher, not the data.
const HASH_ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Tokens downstream of an iteration site that prove the order is fixed
/// before anything observable happens.
const SORTED_EVIDENCE: [&str; 6] = [
    "sort",
    "sort_by",
    "sort_unstable",
    "sort_by_key",
    "sort_unstable_by_key",
    "sort_unstable_by",
];

/// Iterator terminals whose result does not depend on visit order.
const ORDER_INSENSITIVE: [&str; 8] = [
    "sum", "count", "min", "max", "all", "any", "len", "is_empty",
];

/// Format-like macros whose first argument is a format string.
const FMT_MACROS: [&str; 8] = [
    "format", "write", "writeln", "print", "println", "eprint", "eprintln", "panic",
];

/// Identifiers that mark a statement as I/O-flavoured for P01.
const IO_EVIDENCE: [&str; 17] = [
    "fs",
    "File",
    "OpenOptions",
    "read_to_string",
    "write_all",
    "flush",
    "create",
    "create_dir_all",
    "open",
    "read_dir",
    "remove_file",
    "remove_dir_all",
    "rename",
    "copy",
    "metadata",
    "canonicalize",
    "stdin",
];

/// Ambient-randomness markers for D04.
const RNG_EVIDENCE: [&str; 5] = [
    "rand",
    "thread_rng",
    "from_entropy",
    "getrandom",
    "RandomState",
];

const INT_TYPES: [&str; 12] = [
    "i8", "i16", "i32", "i64", "i128", "isize", "u8", "u16", "u32", "u64", "u128", "usize",
];

/// Checks one lexed file under `policy`, applying suppression pragmas.
/// `file` is the workspace-relative path used in diagnostics.
pub fn check_file(file: &str, lexed: &Lexed, policy: Policy<'_>) -> Vec<Diagnostic> {
    let toks = &lexed.tokens;
    let in_test = test_spans(toks);
    let mut raw = Vec::new();
    let mut push = |line: u32, rule: &'static str, message: String| {
        raw.push(Diagnostic {
            file: file.to_string(),
            line,
            rule,
            message,
        });
    };

    rule_sources(toks, &in_test, &mut |l, kind, m| {
        if !policy.allow.contains(&kind) {
            push(l, kind.rule(), m);
        }
    });
    rule_d02(toks, &in_test, &mut |l, m| push(l, "D02", m));
    if policy.float_fmt {
        rule_d03(toks, &in_test, &mut |l, m| push(l, "D03", m));
    }
    if policy.io_unwrap {
        rule_p01(toks, &in_test, &mut |l, m| push(l, "P01", m));
    }
    apply_pragmas(file, lexed, raw)
}

/// Filters `raw` findings through the file's suppression pragmas and
/// appends S00 findings for malformed, reason-less or unused pragmas.
fn apply_pragmas(file: &str, lexed: &Lexed, raw: Vec<Diagnostic>) -> Vec<Diagnostic> {
    // line -> indices into lexed.pragmas that may suppress that line
    // (a pragma covers its own line and the line directly below it).
    let mut by_line: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, p) in lexed.pragmas.iter().enumerate() {
        by_line.entry(p.line).or_default().push(i);
        by_line.entry(p.line + 1).or_default().push(i);
    }

    let mut used = vec![false; lexed.pragmas.len()];
    let mut out = Vec::new();
    'diags: for d in raw {
        if let Some(candidates) = by_line.get(&d.line) {
            for &i in candidates {
                let p = &lexed.pragmas[i];
                if p.well_formed
                    && !p.reason.is_empty()
                    && p.rules.iter().any(|r| r == d.rule || r == "all")
                {
                    used[i] = true;
                    continue 'diags;
                }
            }
        }
        out.push(d);
    }

    for (i, p) in lexed.pragmas.iter().enumerate() {
        let message = if !p.well_formed {
            "malformed pragma: expected `odlb-lint: allow(<rules>) — <reason>`".to_string()
        } else if p.reason.is_empty() {
            format!(
                "pragma allow({}) has no reason; a justification is mandatory",
                p.rules.join(",")
            )
        } else if !used[i] {
            format!(
                "pragma allow({}) suppresses nothing on this or the next line; delete it",
                p.rules.join(",")
            )
        } else {
            continue;
        };
        out.push(Diagnostic {
            file: file.to_string(),
            line: p.line,
            rule: "S00",
            message,
        });
    }
    out.sort();
    out
}

/// Marks every token inside a `#[cfg(test)] mod … { … }` span; rules
/// skip those tokens (unit tests may use wall clocks, hash iteration and
/// unwraps freely).
pub fn test_spans(toks: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; toks.len()];
    let mut i = 0;
    while i + 7 < toks.len() {
        let is_cfg_test = toks[i].is_punct('#')
            && toks[i + 1].is_punct('[')
            && toks[i + 2].is_ident("cfg")
            && toks[i + 3].is_punct('(')
            && toks[i + 4].is_ident("test")
            && toks[i + 5].is_punct(')')
            && toks[i + 6].is_punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip any further attributes, then expect `mod name {`.
        let mut j = i + 7;
        while j < toks.len() && toks[j].is_punct('#') {
            // skip a balanced `[...]`
            let mut depth = 0i32;
            j += 1;
            while j < toks.len() {
                if toks[j].is_punct('[') {
                    depth += 1;
                } else if toks[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        if j < toks.len() && (toks[j].is_ident("mod") || toks[j].is_ident("pub")) {
            // find the opening brace, then its match
            while j < toks.len() && !toks[j].is_punct('{') {
                j += 1;
            }
            let open = j;
            let mut depth = 0i32;
            while j < toks.len() {
                if toks[j].is_punct('{') {
                    depth += 1;
                } else if toks[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            let end = j.min(in_test.len() - 1);
            for flag in in_test.iter_mut().take(end + 1).skip(i) {
                *flag = true;
            }
            i = j.max(open) + 1;
        } else {
            i += 1;
        }
    }
    in_test
}

fn path2(toks: &[Token], i: usize, a: &str, b: &str) -> bool {
    i + 3 < toks.len()
        && toks[i].is_ident(a)
        && toks[i + 1].is_punct(':')
        && toks[i + 2].is_punct(':')
        && toks[i + 3].is_ident(b)
}

/// D01, D04, D05 — presence rules: the token that reads a clock, spawns
/// or identifies a thread, asks the host for its parallelism, draws
/// ambient randomness, prints an address or renders a folded-stacks
/// dump is flagged where it stands, tagged with its [`Kind`] so the
/// file's exemption row can allow exactly that.
fn rule_sources(toks: &[Token], in_test: &[bool], emit: &mut impl FnMut(u32, Kind, String)) {
    for i in 0..toks.len() {
        if in_test[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind == TokKind::Str {
            if placeholders(&t.text)
                .iter()
                .any(|p| p.ends_with(":p") || p.ends_with(":#p"))
            {
                emit(
                    t.line,
                    Kind::PtrAddr,
                    "the `p` format trait prints a pointer address, which differs run to run"
                        .to_string(),
                );
            }
            continue;
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        if name == "SystemTime" || name == "UNIX_EPOCH" {
            emit(
                t.line,
                Kind::Clock,
                format!("`{name}` reads the wall clock; simulated time only"),
            );
        } else if path2(toks, i, "std", "time") {
            emit(
                t.line,
                Kind::Clock,
                "`std::time` is wall-clock time; use the simulation clock (odlb-sim)".to_string(),
            );
        } else if path2(toks, i, "Instant", "now") {
            emit(
                t.line,
                Kind::Clock,
                "`Instant::now()` reads the wall clock; simulated time only".to_string(),
            );
        } else if path2(toks, i, "thread", "spawn") || path2(toks, i, "std", "thread") {
            emit(
                t.line,
                Kind::ThreadSpawn,
                "spawned threads make event interleaving nondeterministic; the simulation is \
                 single-threaded by design"
                    .to_string(),
            );
        } else if path2(toks, i, "thread", "current") || name == "ThreadId" {
            emit(
                t.line,
                Kind::ThreadIdentity,
                "thread identity differs per process; nothing observable may depend on it"
                    .to_string(),
            );
        } else if name == "available_parallelism" {
            emit(
                t.line,
                Kind::Parallelism,
                "`available_parallelism` is a property of the host; results must not depend on it"
                    .to_string(),
            );
        } else if RNG_EVIDENCE.contains(&name) {
            emit(
                t.line,
                Kind::Randomness,
                format!(
                    "`{name}` is ambient randomness; all randomness flows from the seeded sim RNG"
                ),
            );
        } else if name == "folded_sim" || name == "folded_wall" {
            // Any new call site that renders a dump risks writing an
            // artifact that `validate_folded` never saw.
            emit(
                t.line,
                Kind::Folded,
                format!(
                    "`{name}` renders a folded-stacks dump outside the sanctioned exporter path; \
                     route it through `experiments --profile-folded`, which runs \
                     `validate_folded` before writing"
                ),
            );
        }
    }
}

/// Names an unordered hash table goes by anywhere in the workspace:
/// std's types and the `odlb_sim::hash` aliases over them (a fixed
/// hasher still gives an arbitrary iteration order).
const UNORDERED_NAMES: [&str; 4] = ["HashMap", "HashSet", "FastMap", "FastSet"];

/// [`UNORDERED_NAMES`] plus every other name this file gives one of
/// them: `use … HashMap as Table` renames and `type Table = FastMap<…>`
/// aliases (of aliases, to a fixed point).
fn unordered_names(toks: &[Token]) -> BTreeSet<String> {
    let mut names: BTreeSet<String> = UNORDERED_NAMES.iter().map(|n| n.to_string()).collect();
    loop {
        let before = names.len();
        for i in 0..toks.len() {
            if toks[i].kind != TokKind::Ident {
                continue;
            }
            if names.contains(&toks[i].text)
                && toks.get(i + 1).is_some_and(|t| t.is_ident("as"))
                && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Ident)
            {
                names.insert(toks[i + 2].text.clone());
            }
            if toks[i].is_ident("type") && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
            {
                let aliased = toks[i + 2..]
                    .iter()
                    .take_while(|t| !t.is_punct(';'))
                    .skip_while(|t| !t.is_punct('='))
                    .any(|t| t.kind == TokKind::Ident && names.contains(&t.text));
                if aliased {
                    names.insert(toks[i + 1].text.clone());
                }
            }
        }
        if names.len() == before {
            return names;
        }
    }
}

/// Identifiers bound to an unordered hash table in this file: struct
/// fields (`name: HashMap<…>`), annotated lets / params
/// (`name: &mut FastMap<…>`) and inferred lets (`name = HashMap::new()`).
fn hash_bound_idents(toks: &[Token]) -> BTreeSet<String> {
    let names = unordered_names(toks);
    let mut bound = BTreeSet::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident || !names.contains(&toks[i].text) {
            continue;
        }
        // Walk back over `&`, `mut` and lifetimes to the binder.
        let mut j = i;
        while j > 0 {
            let prev = &toks[j - 1];
            if prev.is_punct('&') || prev.is_ident("mut") || prev.kind == TokKind::Lifetime {
                j -= 1;
            } else {
                break;
            }
        }
        if j >= 2 && toks[j - 1].is_punct(':') && !toks[j - 2].is_punct(':') {
            if toks[j - 2].kind == TokKind::Ident {
                bound.insert(toks[j - 2].text.clone());
            }
        } else if j >= 2 && toks[j - 1].is_punct('=') && toks[j - 2].kind == TokKind::Ident {
            bound.insert(toks[j - 2].text.clone());
        }
    }
    bound
}

/// D02 — no unordered iteration whose order anything can observe.
fn rule_d02(toks: &[Token], in_test: &[bool], emit: &mut impl FnMut(u32, String)) {
    let bound = hash_bound_idents(toks);
    if bound.is_empty() {
        return;
    }
    let spans = fn_spans(toks);

    // `.iter()` / `.keys()` / … on a tracked receiver.
    for i in 1..toks.len() {
        if in_test[i] {
            continue;
        }
        if toks[i].is_punct('.')
            && i + 2 < toks.len()
            && toks[i + 1].kind == TokKind::Ident
            && HASH_ITER_METHODS.contains(&toks[i + 1].text.as_str())
            && toks[i + 2].is_punct('(')
            && toks[i - 1].kind == TokKind::Ident
            && bound.contains(&toks[i - 1].text)
            && !order_fixed_downstream(toks, i)
            && !binder_sorted_later(toks, &spans, i)
        {
            emit(
                toks[i].line,
                format!(
                    "`{}.{}()` iterates a HashMap/HashSet in hasher order; use \
                     BTreeMap/BTreeSet or sort before anything observable",
                    toks[i - 1].text,
                    toks[i + 1].text
                ),
            );
        }
    }

    // `for pat in <expr mentioning a tracked map> { … }`.
    let mut i = 0;
    while i < toks.len() {
        if in_test[i] || !toks[i].is_ident("for") {
            i += 1;
            continue;
        }
        // Find `in` at bracket depth 0 before the loop body's `{`.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut in_pos = None;
        while j < toks.len() {
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
                    emit(
                        t.line,
                        format!(
                            "`for … in` over HashMap/HashSet `{}` visits entries in hasher \
                             order; use BTreeMap/BTreeSet",
                            t.text
                        ),
                    );
                    break;
                }
            }
        }
        i = j + 1;
    }
}

/// True when, between the iteration site and the end of the statement,
/// the chain is explicitly sorted, lands in an ordered collection, or
/// ends in a terminal whose result is order-free (`.sum()`, `.len()`…).
fn order_fixed_downstream(toks: &[Token], from: usize) -> bool {
    for t in toks.iter().skip(from).take(80) {
        if t.is_punct(';') {
            return false;
        }
        if t.kind == TokKind::Ident
            && (SORTED_EVIDENCE.contains(&t.text.as_str())
                || ORDER_INSENSITIVE.contains(&t.text.as_str())
                || t.text == "BTreeMap"
                || t.text == "BTreeSet")
        {
            return true;
        }
    }
    false
}

/// True when the iteration statement binds `let [mut] NAME = …` and a
/// later statement of the same function sorts `NAME` (`NAME.sort*`): the
/// collect-then-sort idiom, invisible to the one-statement heuristic.
fn binder_sorted_later(toks: &[Token], spans: &[(usize, usize)], site: usize) -> bool {
    let Some((start, end)) = innermost_span(spans, site).map(|i| spans[i]) else {
        return false;
    };
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
    (site..end.saturating_sub(1)).any(|i| {
        toks[i].is_ident(&name.text)
            && toks[i + 1].is_punct('.')
            && toks[i + 2].kind == TokKind::Ident
            && toks[i + 2].text.starts_with("sort")
    })
}

/// Function spans `(fn keyword, closing brace)` in token indices. D02's
/// collect-then-sort check and D03's float-identifier tracking are
/// scoped by them (a `v: f64` parameter of one function must not mark a
/// same-named `v: u64` in its sibling), and the probe audit inserts one
/// probe per span.
pub fn fn_spans(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn") {
            let mut j = i + 1;
            while j < toks.len() && !toks[j].is_punct('{') {
                if toks[j].is_punct(';') {
                    // trait method declaration without a body
                    break;
                }
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct('{') {
                let mut depth = 0i32;
                let mut k = j;
                while k < toks.len() {
                    if toks[k].is_punct('{') {
                        depth += 1;
                    } else if toks[k].is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                spans.push((i, k));
                // nested fns are rare; a flat list is fine because we pick
                // the *innermost* containing span at query time.
            }
        }
        i += 1;
    }
    spans
}

fn innermost_span(spans: &[(usize, usize)], idx: usize) -> Option<usize> {
    spans
        .iter()
        .enumerate()
        .filter(|(_, &(s, e))| s <= idx && idx <= e)
        .min_by_key(|(_, &(s, e))| e - s)
        .map(|(i, _)| i)
}

/// D03 — floats must not reach artifact text through a bare `{}` /
/// `{name}` placeholder; either give an explicit precision (`{:.6}`) or
/// go through the shared formatter (`field_f64` / `render_value`).
fn rule_d03(toks: &[Token], in_test: &[bool], emit: &mut impl FnMut(u32, String)) {
    let spans = fn_spans(toks);
    // (ident, span or None=file level) for every `name: f64 | f32`.
    let mut float_idents: Vec<(String, Option<usize>)> = Vec::new();
    for i in 2..toks.len() {
        if (toks[i].is_ident("f64") || toks[i].is_ident("f32"))
            && toks[i - 1].is_punct(':')
            && toks[i - 2].kind == TokKind::Ident
        {
            float_idents.push((toks[i - 2].text.clone(), innermost_span(&spans, i)));
        }
    }

    let visible = |name: &str, at: usize| -> bool {
        let here = innermost_span(&spans, at);
        float_idents
            .iter()
            .any(|(n, sp)| n == name && (sp.is_none() || *sp == here))
    };

    let mut i = 0;
    while i + 2 < toks.len() {
        let is_fmt = !in_test[i]
            && toks[i].kind == TokKind::Ident
            && FMT_MACROS.contains(&toks[i].text.as_str())
            && toks[i + 1].is_punct('!')
            && toks[i + 2].is_punct('(');
        if !is_fmt {
            i += 1;
            continue;
        }
        // Token group of the macro call.
        let open = i + 2;
        let mut depth = 0i32;
        let mut close = open;
        while close < toks.len() {
            if toks[close].is_punct('(') {
                depth += 1;
            } else if toks[close].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            close += 1;
        }
        let group = &toks[open..close.min(toks.len())];
        if let Some(fmt) = group.iter().find(|t| t.kind == TokKind::Str) {
            // Placeholders that carry no format spec.
            let bare: Vec<String> = placeholders(&fmt.text)
                .into_iter()
                .filter(|p| !p.contains(':'))
                .collect();
            if !bare.is_empty() {
                // Inline `{name}` placeholders naming a float.
                let inline_hit = bare
                    .iter()
                    .find(|name| !name.is_empty() && visible(name, i));
                // Float-typed argument tokens feeding a bare placeholder.
                let mut arg_hit = None;
                for (k, t) in group.iter().enumerate() {
                    if t.kind != TokKind::Ident {
                        continue;
                    }
                    let idx = open + k;
                    let cast_to_float = (t.text == "f64" || t.text == "f32")
                        && k > 0
                        && group[k - 1].is_ident("as");
                    let float_var = visible(&t.text, idx)
                        // `v as i64` launders the float into an integer.
                        && !(k + 2 < group.len()
                            && group[k + 1].is_ident("as")
                            && INT_TYPES.contains(&group[k + 2].text.as_str()));
                    if cast_to_float || float_var {
                        arg_hit = Some(t.text.clone());
                        break;
                    }
                }
                if let Some(name) = inline_hit.cloned().or(arg_hit) {
                    emit(
                        toks[i].line,
                        format!(
                            "float `{name}` formatted without explicit precision; floats in \
                             artifacts need `{{:.N}}` or the shared formatter \
                             (field_f64/render_value)"
                        ),
                    );
                }
            }
        }
        i = close + 1;
    }
}

/// The inside of every `{…}` placeholder of `fmt`: `{}` yields `""`,
/// `{v}` yields `"v"`, `{v:.3}` yields `"v:.3"`; `{{`/`}}` yield nothing.
fn placeholders(fmt: &str) -> Vec<String> {
    let chars: Vec<char> = fmt.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        match chars[i] {
            '{' if chars.get(i + 1) == Some(&'{') => i += 2,
            '}' if chars.get(i + 1) == Some(&'}') => i += 2,
            '{' => {
                let mut j = i + 1;
                while j < chars.len() && chars[j] != '}' {
                    j += 1;
                }
                out.push(chars[i + 1..j.min(chars.len())].iter().collect());
                i = j + 1;
            }
            _ => i += 1,
        }
    }
    out
}

/// P01 — binaries surface I/O failures as friendly errors, not panics.
fn rule_p01(toks: &[Token], in_test: &[bool], emit: &mut impl FnMut(u32, String)) {
    for i in 2..toks.len() {
        if in_test[i] {
            continue;
        }
        let is_unwrap = toks[i].is_punct('.')
            && i + 2 < toks.len()
            && (toks[i + 1].is_ident("unwrap") || toks[i + 1].is_ident("expect"))
            && toks[i + 2].is_punct('(');
        if !is_unwrap {
            continue;
        }
        // Walk back through the statement looking for I/O vocabulary.
        let mut j = i;
        let mut io = None;
        let mut steps = 0;
        while j > 0 && steps < 80 {
            j -= 1;
            steps += 1;
            let t = &toks[j];
            if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                break;
            }
            if t.kind == TokKind::Ident && IO_EVIDENCE.contains(&t.text.as_str()) {
                // `write!` is a formatting macro, not I/O.
                if toks.get(j + 1).is_some_and(|n| n.is_punct('!')) {
                    continue;
                }
                io = Some(t.text.clone());
                break;
            }
        }
        if let Some(op) = io {
            emit(
                toks[i].line,
                format!(
                    "`.{}()` on an I/O result ({op}); print a `file: error` message and exit \
                     nonzero instead",
                    toks[i + 1].text
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str, policy: Policy<'_>) -> Vec<(u32, &'static str)> {
        check_file("test.rs", &lex(src), policy)
            .into_iter()
            .map(|d| (d.line, d.rule))
            .collect()
    }

    const ALL: Policy<'static> = Policy {
        allow: &[],
        float_fmt: true,
        io_unwrap: true,
    };

    #[test]
    fn d01_flags_wall_clock() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }";
        let got = run(src, ALL);
        assert!(got.contains(&(1, "D01")), "{got:?}");
        assert!(got.contains(&(2, "D01")), "{got:?}");
    }

    #[test]
    fn d02_flags_iteration_but_not_sorted_collects() {
        let src = "\
struct S { m: HashMap<u32, u32> }
impl S {
    fn bad(&self) -> Vec<u32> { self.m.keys().copied().collect() }
    fn good(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.m.keys().copied().collect();
        v.sort();
        v
    }
}";
        // `good` collects, then sorts its binder in a later statement.
        assert_eq!(run(src, ALL), vec![(3, "D02")]);
    }

    #[test]
    fn d02_exempts_inline_sort_and_btreemap() {
        let src = "\
fn f(m: &HashMap<u32, u32>) {
    let v: Vec<u32> = m.keys().copied().collect::<Vec<_>>().sort_unstable_by_key(|k| *k);
    let b: BTreeMap<u32, u32> = m.iter().map(|(k, v)| (*k, *v)).collect::<BTreeMap<_, _>>();
    let s: u32 = m.values().sum();
}";
        let got = run(src, ALL);
        assert!(got.iter().all(|(_, r)| *r != "D02"), "{got:?}");
    }

    #[test]
    fn d02_sees_through_aliases_and_renames() {
        // The workspace alias, a `use … as` rename and a local `type`
        // alias (of the alias) all still iterate in hasher order.
        let src = "\
use std::collections::HashMap as Table;
type Slots = FastMap<u32, u32>;
type Nested = Slots;
struct S { a: FastMap<u32, u32>, b: Table<u32, u32>, c: Nested, d: BTreeMap<u32, u32> }
impl S {
    fn a(&self) -> Vec<u32> { self.a.keys().copied().collect() }
    fn b(&self) -> Vec<u32> { self.b.values().copied().collect() }
    fn c(&self) { for (k, v) in &self.c { use_it(k, v); } }
    fn d(&self) -> Vec<u32> { self.d.keys().copied().collect() }
    fn sized() -> Vec<u32> { let m = FastMap::with_capacity_and_hasher(8, Default::default()); let v = m.into_keys().collect(); v }
    fn sorted(&self) -> Vec<u32> { self.a.keys().copied().collect::<Vec<_>>().sort() }
}";
        let got = run(src, ALL);
        let d02: Vec<u32> = got
            .iter()
            .filter(|(_, r)| *r == "D02")
            .map(|(l, _)| *l)
            .collect();
        assert_eq!(d02, vec![6, 7, 8, 10], "{got:?}");
    }

    #[test]
    fn d02_flags_for_loops() {
        let src = "fn f() { let m = HashMap::new(); for (k, v) in &m { use_it(k, v); } }";
        let got = run(src, ALL);
        assert!(got.iter().any(|(_, r)| *r == "D02"), "{got:?}");
    }

    #[test]
    fn d03_flags_bare_float_placeholder() {
        let src = "fn f(v: f64) -> String { format!(\"{v}\") }";
        assert!(run(src, ALL).contains(&(1, "D03")));
        let src = "fn f(x: u64) -> String { format!(\"{}\", x as f64) }";
        assert!(run(src, ALL).contains(&(1, "D03")));
    }

    #[test]
    fn d03_accepts_precision_int_cast_and_foreign_scope() {
        // precision spec
        assert!(run("fn f(v: f64) -> String { format!(\"{v:.6}\") }", ALL).is_empty());
        // float laundered through an integer cast
        assert!(run("fn f(v: f64) -> String { format!(\"{}\", v as i64) }", ALL).is_empty());
        // `v: f64` in one fn must not taint `v: u64` in another
        let src = "\
fn a(v: f64) -> f64 { v }
fn b(v: u64) -> String { format!(\"{v}\") }";
        assert!(run(src, ALL).is_empty());
    }

    #[test]
    fn d04_flags_threads_and_randomness() {
        let got = run(
            "fn f() { std::thread::spawn(|| {}); let r = rand::random(); }",
            ALL,
        );
        assert!(
            got.iter().filter(|(_, r)| *r == "D04").count() >= 2,
            "{got:?}"
        );
        let src = "\
fn f(x: &u8) {
    let id = thread::current().id();
    let n = available_parallelism();
    let s = format!(\"{:p}\", x);
}";
        assert_eq!(run(src, ALL), vec![(2, "D04"), (3, "D04"), (4, "D04")]);
    }

    #[test]
    fn an_allowed_kind_drops_exactly_that_kind() {
        let src = "\
fn f() {
    let t = Instant::now();
    let n = available_parallelism();
    thread::spawn(|| {});
}";
        let runner = Policy {
            allow: &[Kind::ThreadSpawn, Kind::Parallelism],
            ..ALL
        };
        assert_eq!(run(src, runner), vec![(2, "D01")]);
        let clock = Policy {
            allow: &[Kind::Clock],
            ..ALL
        };
        assert_eq!(run(src, clock), vec![(3, "D04"), (4, "D04")]);
    }

    #[test]
    fn d05_flags_folded_dump_rendering() {
        let src = "fn f(p: &SpanProfiler) { let dump = p.folded_sim(); eprint!(\"{}\", p.folded_wall()); }";
        let got = run(src, ALL);
        assert_eq!(
            got.iter().filter(|(_, r)| *r == "D05").count(),
            2,
            "{got:?}"
        );
        // A row that allows folded dumps (the exporter path) stays silent.
        let exporter = Policy {
            allow: &[Kind::Folded],
            ..ALL
        };
        assert!(run(src, exporter).is_empty());
    }

    #[test]
    fn p01_flags_unwrap_on_io_only() {
        let src = "\
fn main() {
    let text = std::fs::read_to_string(path).unwrap();
    let n: u32 = \"42\".parse().unwrap();
}";
        let got = run(src, ALL);
        assert_eq!(
            got.iter().filter(|(_, r)| *r == "P01").count(),
            1,
            "{got:?}"
        );
        assert!(got.contains(&(2, "P01")));
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t() { let i = Instant::now(); std::fs::read(p).unwrap(); }
}";
        assert!(run(src, ALL).is_empty());
    }

    #[test]
    fn pragma_suppresses_with_reason_and_errors_without() {
        let with = "\
// odlb-lint: allow(D01) — this comparison needs wall time
fn f() { let t = Instant::now(); }";
        assert!(run(with, ALL).is_empty());

        let without = "\
// odlb-lint: allow(D01)
fn f() { let t = Instant::now(); }";
        let got = run(without, ALL);
        assert!(got.contains(&(1, "S00")), "{got:?}");
        assert!(got.contains(&(2, "D01")), "{got:?}");
    }

    #[test]
    fn unused_pragma_is_an_error() {
        let src = "// odlb-lint: allow(D01) — stale\nfn f() {}";
        let got = run(src, ALL);
        assert_eq!(got, vec![(1, "S00")]);
    }

    #[test]
    fn same_line_pragma_works() {
        let src = "fn f() { let t = Instant::now(); } // odlb-lint: allow(D01) — demo only";
        assert!(run(src, ALL).is_empty());
    }
}
