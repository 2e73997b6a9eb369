//! The rule engine: token-level checks for the workspace's determinism
//! invariants.
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | D01  | no wall-clock (`Instant::now`, `SystemTime`, `std::time`) in any linted file without a [`crate::EXEMPTIONS`] row |
//! | D02  | no `HashMap`/`HashSet` named in any linted file without a row: tables go through `odlb_sim::FastMap`, which has no unordered visit to leak |
//! | D03  | no float formatted into an artifact without an explicit precision or the shared formatter |
//! | D04  | no threads, thread identity, host parallelism, ambient randomness or `{:p}` addresses in any linted file without a row |
//! | D05  | no folded-stacks dumps rendered in any linted file without a row (the validated exporter path) |
//! | P01  | no `unwrap()`/`expect()` call in non-test binary code |
//!
//! Checks are heuristic token analyses, not type checking — they are
//! tuned to have zero false positives on this workspace, and anything
//! they over-flag elsewhere can carry a reasoned
//! `// odlb-lint: allow(<rule>) — <reason>` pragma (rule S00 keeps the
//! pragma inventory honest: a reason is mandatory and a pragma that
//! suppresses nothing is itself an error).

use crate::lexer::{Lexed, TokKind, Token};
use std::collections::BTreeMap;

/// What a D01/D02/D04/D05 finding found: the unit a
/// [`crate::EXEMPTIONS`] row allows per file.
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
    /// A std hash table named (`HashMap`, `HashSet`).
    HashTable,
}

impl Kind {
    /// The rule findings of this kind report under.
    pub fn rule(self) -> &'static str {
        match self {
            Kind::Clock => "D01",
            Kind::HashTable => "D02",
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
    /// P01: `unwrap`/`expect` calls are forbidden here.
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

/// Format-like macros whose first argument is a format string.
const FMT_MACROS: [&str; 8] = [
    "format", "write", "writeln", "print", "println", "eprint", "eprintln", "panic",
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

/// D01, D02, D04, D05 — presence rules: the token that reads a clock,
/// names a std hash table, spawns or identifies a thread, asks the host
/// for its parallelism, draws ambient randomness, prints an address or
/// renders a folded-stacks dump is flagged where it stands, tagged with
/// its [`Kind`] so the file's exemption row can allow exactly that.
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
        } else if name == "HashMap" || name == "HashSet" {
            emit(
                t.line,
                Kind::HashTable,
                format!(
                    "`{name}` can be visited in hasher order; use `odlb_sim::FastMap` \
                     (lookups and key-ordered visits only) or a BTreeMap/BTreeSet"
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

/// Function spans `(fn keyword, closing brace)` in token indices. D03's
/// float-identifier tracking is scoped by them (a `v: f64` parameter of
/// one function must not mark a same-named `v: u64` in its sibling), and
/// the probe audit inserts one probe per span.
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

/// P01 — binaries surface failures as friendly errors, not panics: a
/// token ban on `.unwrap(` / `.expect(`, whatever the receiver.
fn rule_p01(toks: &[Token], in_test: &[bool], emit: &mut impl FnMut(u32, String)) {
    for (i, w) in toks.windows(3).enumerate() {
        if !in_test[i]
            && w[0].is_punct('.')
            && (w[1].is_ident("unwrap") || w[1].is_ident("expect"))
            && w[2].is_punct('(')
        {
            emit(
                w[0].line,
                format!(
                    "`.{}()` in binary code; print a `file: error` message and exit nonzero \
                     instead",
                    w[1].text
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
    fn p01_flags_every_unwrap_and_expect() {
        let src = "\
fn main() {
    let text = std::fs::read_to_string(path).unwrap();
    let n: u32 = \"42\".parse().expect(\"n\");
    let m = x.unwrap_or(1);
}";
        assert_eq!(run(src, ALL), vec![(2, "P01"), (3, "P01")]);
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
