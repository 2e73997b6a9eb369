//! `odlb-lint` — the workspace's self-hosted static-analysis pass.
//!
//! The reproduction's headline guarantees (golden trace digests,
//! byte-identical metric exports, offline tier-1 builds) rest on
//! invariants the compiler does not check. This crate encodes them as
//! lint rules over a real token stream (see [`lexer`]) plus a manifest
//! gate (see [`manifest`]), and is wired into both CI and
//! `cargo test -q` so every future change is checked.
//!
//! On top of the token rules sits a three-layer syntactic analysis:
//! [`parse`] extracts each file's item skeleton, [`graph`] links the
//! skeletons into a workspace call graph, and [`taint`] propagates
//! nondeterminism from sources to export sinks over that graph (rules
//! T01–T03), reporting full source→…→sink chains.
//!
//! Entry points: [`run_workspace`] walks a workspace root and returns
//! every diagnostic; [`analyze_sources`] does the same over in-memory
//! sources (the mutation tests use this); the `odlb-lint` binary prints
//! findings as `file:line: rule: message` (or `--format=json`) and
//! exits nonzero if any exist.

pub mod graph;
pub mod lexer;
pub mod manifest;
pub mod parse;
pub mod rules;
pub mod taint;

pub use rules::{ChainStep, Diagnostic, Policy};

use graph::FileUnit;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// One in-memory source file handed to [`analyze_sources`].
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (drives both
    /// [`policy_for`] and the call graph's crate mapping).
    pub rel: String,
    /// The file's full text.
    pub text: String,
}

/// Decides which rule families apply to the workspace-relative path
/// `rel` (always `/`-separated). Returns `None` for files the lint pass
/// skips entirely.
pub fn policy_for(rel: &str) -> Option<Policy> {
    // Lint fixtures contain violations on purpose; build artifacts and
    // vendored sources are not ours to police.
    if rel.starts_with("crates/lint/tests/fixtures/")
        || rel.starts_with("target/")
        || rel.contains("/target/")
    {
        return None;
    }
    // Integration tests, unit-test modules kept in a `tests.rs` of their
    // own, and benches may freely use wall clocks, hash iteration and
    // unwraps: they never feed artifacts.
    if rel.contains("/tests/")
        || rel.ends_with("/tests.rs")
        || rel.contains("/benches/")
        || rel.starts_with("tests/")
    {
        return None;
    }

    // D05: folded-stacks dumps leave the workspace only through the
    // validated exporter path — the profiler that renders them, the
    // exporter that defines `validate_folded`, and the experiments
    // binary that validates-then-writes. Any other call site could ship
    // a dump the validator never saw.
    let folded = rel != "crates/telemetry/src/profiler.rs"
        && rel != "crates/telemetry/src/export.rs"
        && rel != "crates/bench/src/bin/experiments.rs";
    let mut p = Policy {
        folded,
        ..Policy::default()
    };

    if rel.contains("/examples/") {
        p.timing = true;
        p.rng = true;
        return Some(p);
    }

    // D01: wall-clock time, except the overhead profiler (whose whole
    // job is measuring wall time), the live scrape endpoint (socket
    // timeouts and scrape-await deadlines are wall-clock by nature, and
    // the listener only ever reads a published copy of the exposition —
    // nothing flows back into simulation state) and the bench harness.
    let serve_side =
        rel == "crates/telemetry/src/profiler.rs" || rel == "crates/telemetry/src/serve.rs";
    p.timing = !serve_side && !rel.starts_with("crates/bench/");

    // D02/D03: crates whose output feeds digests or exported artifacts.
    let artifact_crate = ["trace", "telemetry", "metrics", "cluster", "engine"]
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")));
    p.hash_iter = artifact_crate;
    p.float_fmt = artifact_crate;

    // D04: everywhere except the seeded simulation RNG itself, the
    // scrape endpoint's listener thread (see the D01 note above for why
    // it cannot perturb determinism), and the experiment runner's
    // ordered worker pool — each of its threads owns an entire isolated
    // simulation and only `Send` results cross back, with outputs
    // committed in canonical order (parity pinned by
    // tests/parallel_parity.rs).
    p.rng = rel != "crates/sim/src/rng.rs"
        && rel != "crates/telemetry/src/serve.rs"
        && rel != "crates/bench/src/runner.rs";

    // P01: binary code only — `src/bin/*` and crate `main.rs`.
    p.io_unwrap = rel.contains("/src/bin/") || rel.ends_with("src/main.rs");

    Some(p)
}

/// Recursively collects files under `dir` whose name passes `keep`,
/// skipping `target/` and hidden directories. Results are sorted so the
/// pass itself is deterministic.
fn collect_files(dir: &Path, keep: &dyn Fn(&Path) -> bool, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_files(&path, keep, out);
        } else if keep(&path) {
            out.push(path);
        }
    }
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Lints every `.rs` file and every `Cargo.toml` under `root`. Returns
/// all diagnostics, sorted by file, line, rule. I/O errors on individual
/// files become diagnostics too — a file the linter cannot read is a
/// file the linter cannot vouch for.
pub fn run_workspace(root: &Path) -> Vec<Diagnostic> {
    let mut paths = Vec::new();
    collect_files(
        root,
        &|p| {
            p.extension().is_some_and(|e| e == "rs")
                || p.file_name().is_some_and(|n| n == "Cargo.toml")
        },
        &mut paths,
    );

    let mut out = Vec::new();
    let mut files = Vec::new();
    for path in paths {
        let rel = relative(root, &path);
        match std::fs::read_to_string(&path) {
            Ok(text) => files.push(SourceFile { rel, text }),
            Err(e) => out.push(Diagnostic {
                file: rel,
                line: 0,
                rule: "S00",
                message: format!("cannot read: {e}"),
                chain: Vec::new(),
            }),
        }
    }
    out.extend(analyze_sources(&files));
    out.sort();
    out
}

/// Runs the full pass — manifest gate, token rules, and the
/// parse → call-graph → taint pipeline — over in-memory sources.
pub fn analyze_sources(files: &[SourceFile]) -> Vec<Diagnostic> {
    analyze_sources_with(files, &taint::SANCTIONS)
}

/// [`analyze_sources`] with an explicit sanction table; the policy tests
/// use this to prove every default sanction is load-bearing.
pub fn analyze_sources_with(
    files: &[SourceFile],
    sanctions: &[taint::Sanction],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // Lex + token rules per file; keep raw (pre-pragma) findings so the
    // taint findings can join them under one pragma pass.
    let mut units: Vec<FileUnit> = Vec::new();
    let mut raw_by_file: BTreeMap<String, Vec<Diagnostic>> = BTreeMap::new();
    for f in files {
        if f.rel.ends_with("Cargo.toml") {
            out.extend(manifest::check_manifest(&f.rel, &f.text));
            continue;
        }
        let Some(policy) = policy_for(&f.rel) else {
            continue;
        };
        let lexed = lexer::lex(&f.text);
        raw_by_file
            .entry(f.rel.clone())
            .or_default()
            .extend(rules::token_rules(&f.rel, &lexed, policy));
        let parsed = parse::parse_file(&lexed);
        units.push(FileUnit {
            rel: f.rel.clone(),
            lexed,
            parsed,
        });
    }

    let call_graph = graph::build(&units);
    let taint::TaintResult {
        diagnostics: taint_diags,
        used_pragmas,
    } = taint::analyze(&units, &call_graph, sanctions);
    for d in taint_diags {
        raw_by_file.entry(d.file.clone()).or_default().push(d);
    }

    let empty = BTreeSet::new();
    for u in &units {
        let raw = raw_by_file.remove(&u.rel).unwrap_or_default();
        let extra = used_pragmas.get(&u.rel).unwrap_or(&empty);
        out.extend(rules::apply_pragmas(&u.rel, &u.lexed, raw, extra));
    }
    out.sort();
    out
}

/// Renders diagnostics as a JSON array with a stable field order
/// (`file`, `line`, `rule`, `message`, `chain`), one object per finding,
/// byte-identical across runs. Hand-rolled on purpose: the linter is
/// zero-dependency.
pub fn render_json(diags: &[Diagnostic]) -> String {
    fn esc(s: &str, out: &mut String) {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
    }
    let mut s = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n  {\"file\":\"");
        esc(&d.file, &mut s);
        s.push_str(&format!(
            "\",\"line\":{},\"rule\":\"{}\",\"message\":\"",
            d.line, d.rule
        ));
        esc(&d.message, &mut s);
        s.push_str("\",\"chain\":[");
        for (j, step) in d.chain.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str("{\"file\":\"");
            esc(&step.file, &mut s);
            s.push_str(&format!("\",\"line\":{},\"label\":\"", step.line));
            esc(&step.label, &mut s);
            s.push_str("\"}");
        }
        s.push_str("]}");
    }
    s.push_str("\n]\n");
    s
}

/// Finds the workspace root by walking up from `start` until a directory
/// containing a `Cargo.toml` with a `[workspace]` table is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_exemptions_match_the_issue() {
        // profiler and bench may read wall clocks
        assert!(
            !policy_for("crates/telemetry/src/profiler.rs")
                .unwrap()
                .timing
        );
        assert!(
            !policy_for("crates/bench/src/bin/experiments.rs")
                .unwrap()
                .timing
        );
        assert!(policy_for("crates/engine/src/engine.rs").unwrap().timing);

        // the scrape endpoint is the sanctioned home for threads and
        // socket wall-clock I/O; the rest of telemetry stays strict
        let serve = policy_for("crates/telemetry/src/serve.rs").unwrap();
        assert!(!serve.timing);
        assert!(!serve.rng);
        let registry = policy_for("crates/telemetry/src/registry.rs").unwrap();
        assert!(registry.timing);
        assert!(registry.rng);

        // artifact crates get D02/D03; others do not
        assert!(policy_for("crates/trace/src/event.rs").unwrap().float_fmt);
        assert!(
            policy_for("crates/metrics/src/collector.rs")
                .unwrap()
                .hash_iter
        );
        assert!(!policy_for("crates/sim/src/clock.rs").unwrap().hash_iter);

        // the sim RNG is the one sanctioned randomness source
        assert!(!policy_for("crates/sim/src/rng.rs").unwrap().rng);
        assert!(policy_for("crates/core/src/lib.rs").unwrap().rng);

        // the ordered worker pool is the only other sanctioned home for
        // threads; the rest of the bench crate stays strict
        assert!(!policy_for("crates/bench/src/runner.rs").unwrap().rng);
        assert!(policy_for("crates/bench/src/suite.rs").unwrap().rng);
        assert!(
            policy_for("crates/bench/src/bin/experiments.rs")
                .unwrap()
                .rng
        );

        // folded dumps leave only through the validated exporter path:
        // the profiler renders, the exporter validates, the experiments
        // binary writes — everyone else must go through them
        assert!(
            !policy_for("crates/telemetry/src/profiler.rs")
                .unwrap()
                .folded
        );
        assert!(!policy_for("crates/telemetry/src/export.rs").unwrap().folded);
        assert!(
            !policy_for("crates/bench/src/bin/experiments.rs")
                .unwrap()
                .folded
        );
        assert!(policy_for("crates/bench/src/suite.rs").unwrap().folded);
        assert!(policy_for("crates/cluster/src/driver.rs").unwrap().folded);
        assert!(
            policy_for("crates/bench/src/bin/promcheck.rs")
                .unwrap()
                .folded
        );

        // P01 applies to binaries only
        assert!(
            policy_for("crates/bench/src/bin/promcheck.rs")
                .unwrap()
                .io_unwrap
        );
        assert!(!policy_for("crates/trace/src/sink.rs").unwrap().io_unwrap);

        // fixtures and tests are skipped wholesale
        assert!(policy_for("crates/lint/tests/fixtures/d01_time.rs").is_none());
        assert!(policy_for("crates/trace/tests/golden.rs").is_none());
        assert!(policy_for("crates/cluster/src/driver/tests.rs").is_none());
    }
}
