//! `odlb-lint` — the workspace's self-hosted static-analysis pass.
//!
//! The reproduction's headline guarantees (golden trace digests,
//! byte-identical metric exports, offline tier-1 builds) rest on
//! invariants the compiler does not check. This crate encodes them as
//! lint rules over a real token stream (see [`lexer`], [`rules`]) plus a
//! manifest gate (see [`manifest`]), and is wired into both CI and
//! `cargo test -q` so every future change is checked.
//!
//! Every rule is file-local: the token that reads a clock, spawns a
//! thread or names a std hash table is flagged where it stands, in every
//! linted file, and the only files allowed such a token are the rows of
//! [`EXEMPTIONS`].
//!
//! Entry points: [`run_workspace`] walks a workspace root and returns
//! every diagnostic; [`analyze_sources`] does the same over in-memory
//! sources (the mutation tests use this); the `odlb-lint` binary prints
//! findings as `file:line: rule: message` and exits nonzero if any exist.

pub mod lexer;
pub mod manifest;
pub mod rules;

pub use rules::{Diagnostic, Kind, Policy};

use std::path::{Path, PathBuf};

/// One in-memory source file handed to [`analyze_sources`].
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (drives
    /// [`policy_for`]).
    pub rel: String,
    /// The file's full text.
    pub text: String,
}

/// One row of [`EXEMPTIONS`]: the source kinds `file` may contain.
pub struct Exemption {
    /// Workspace-relative path.
    pub file: &'static str,
    /// What D01/D02/D04/D05 do not flag there.
    pub kinds: &'static [Kind],
    /// Why nothing of those kinds can reach a deterministic artifact.
    pub reason: &'static str,
}

/// Every file-specific exemption of D01, D02, D04 and D05. A file
/// without a row may contain none of [`Kind`]; no row allows randomness,
/// thread identity or pointer addresses. `tests/workspace_clean.rs`
/// removes each kind of each row and expects a finding, so the table
/// cannot outgrow what the code needs.
pub const EXEMPTIONS: [Exemption; 6] = [
    Exemption {
        file: "crates/sim/src/hash.rs",
        kinds: &[Kind::HashTable],
        reason: "FastMap wraps the std table here and forwards only lookups and \
                 key-ordered visits, so no caller can observe the hasher's order",
    },
    Exemption {
        file: "crates/telemetry/src/profiler.rs",
        kinds: &[Kind::Clock, Kind::Folded],
        reason: "the overhead profiler's job is measuring wall time and rendering the \
                 dumps; wall figures go to stderr only and are never diffed",
    },
    Exemption {
        file: "crates/bench/src/runner.rs",
        kinds: &[Kind::ThreadSpawn, Kind::Parallelism],
        reason: "the ordered worker pool: each thread owns a whole isolated simulation, \
                 results are committed in canonical order, and the job count changes \
                 no output byte (tests/parallel_parity.rs)",
    },
    Exemption {
        file: "crates/bench/src/suite.rs",
        kinds: &[Kind::Clock],
        reason: "per-figure wall timings ride out of band in FigureOutput (stderr \
                 overhead report, benchmark/); stdout and artifacts never carry them",
    },
    Exemption {
        file: "crates/bench/src/sweep.rs",
        kinds: &[Kind::Clock],
        reason: "per-cell wall clocks are the sweep's bench payload, carried out of \
                 band in SweepOutcome; cell content hashes and merged artifacts are \
                 derived from the canonical config and simulation clock only",
    },
    Exemption {
        file: "crates/bench/src/bin/experiments.rs",
        kinds: &[Kind::Clock, Kind::Folded],
        reason: "reports elapsed wall time to stderr; it is also the one writer of \
                 dumps, after `validate_folded`",
    },
];

/// Decides what applies to the workspace-relative path `rel` (always
/// `/`-separated). Returns `None` for files the lint pass skips
/// entirely.
pub fn policy_for(rel: &str) -> Option<Policy<'static>> {
    // Lint fixtures contain violations on purpose; build artifacts and
    // vendored sources are not ours to police.
    if rel.starts_with("crates/lint/tests/fixtures/")
        || rel.starts_with("target/")
        || rel.contains("/target/")
    {
        return None;
    }
    // Integration tests, unit-test modules kept in a `tests.rs` of their
    // own, and benches may freely use wall clocks, std hash tables and
    // unwraps: they never feed artifacts.
    if rel.contains("/tests/")
        || rel.ends_with("/tests.rs")
        || rel.contains("/benches/")
        || rel.starts_with("tests/")
    {
        return None;
    }

    // D03: crates whose output feeds digests or exported artifacts.
    let artifact_crate = ["trace", "telemetry", "metrics", "cluster", "engine"]
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")));
    Some(Policy {
        allow: EXEMPTIONS
            .iter()
            .find(|e| e.file == rel)
            .map_or(&[], |e| e.kinds),
        float_fmt: artifact_crate,
        // P01: binary code only — `src/bin/*` and crate `main.rs`.
        io_unwrap: rel.contains("/src/bin/") || rel.ends_with("src/main.rs"),
    })
}

/// Recursively collects files under `dir` whose name passes `keep`,
/// skipping `target/` and hidden directories. Results are sorted so the
/// pass itself is deterministic.
pub fn collect_files(dir: &Path, keep: &dyn Fn(&Path) -> bool, out: &mut Vec<PathBuf>) {
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
            }),
        }
    }
    out.extend(analyze_sources(&files));
    out.sort();
    out
}

/// Runs the full pass — manifest gate, token rules, pragmas — over
/// in-memory sources.
pub fn analyze_sources(files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in files {
        if f.rel.ends_with("Cargo.toml") {
            out.extend(manifest::check_manifest(&f.rel, &f.text));
        } else if let Some(policy) = policy_for(&f.rel) {
            out.extend(rules::check_file(&f.rel, &lexer::lex(&f.text), policy));
        }
    }
    out.sort();
    out
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
        // every row is what its file is allowed, and one row per file
        for (i, e) in EXEMPTIONS.iter().enumerate() {
            assert_eq!(policy_for(e.file).unwrap().allow, e.kinds, "{}", e.file);
            assert!(!e.kinds.is_empty() && !e.reason.is_empty(), "{}", e.file);
            assert!(
                EXEMPTIONS[..i].iter().all(|p| p.file != e.file),
                "{}: two rows",
                e.file
            );
            // rows name files, never directories
            assert!(e.file.ends_with(".rs"), "{}", e.file);
        }
        // no row for the seeded RNG, and everything else is allowed nothing
        for rel in [
            "crates/sim/src/rng.rs",
            "crates/engine/src/engine.rs",
            "crates/telemetry/src/registry.rs",
            "crates/bench/src/experiments/fig5.rs",
            "examples/quickstart.rs",
        ] {
            assert!(policy_for(rel).unwrap().allow.is_empty(), "{rel}");
        }

        // artifact crates get D03; others do not
        assert!(policy_for("crates/trace/src/event.rs").unwrap().float_fmt);
        assert!(!policy_for("crates/sim/src/clock.rs").unwrap().float_fmt);

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
