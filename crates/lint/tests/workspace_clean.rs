//! The tier-1 enforcement hook: `cargo test -q` fails if the live
//! workspace has any lint finding, and every suppression pragma and
//! every exemption row in the tree is proven load-bearing (taking it
//! away re-surfaces a diagnostic).

use odlb_lint::{
    collect_files, find_workspace_root, lexer, policy_for, rules, run_workspace, Kind, Policy,
    EXEMPTIONS,
};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("crates/lint sits inside the workspace")
}

#[test]
fn live_workspace_is_lint_clean() {
    let diags = run_workspace(&workspace_root());
    assert!(
        diags.is_empty(),
        "workspace has lint findings:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Every pragma in live source must suppress something: rewriting it to
/// an inert comment must make the lint pass fail on that file. This is
/// what makes "deleting any one suppression pragma makes odlb-lint exit
/// nonzero" true by construction.
#[test]
fn every_live_pragma_is_load_bearing() {
    let root = workspace_root();
    let mut pragma_files = Vec::new();
    let is_rs = |p: &Path| p.extension().is_some_and(|e| e == "rs");
    collect_files(&root.join("crates"), &is_rs, &mut pragma_files);
    let mut checked = 0usize;

    for path in pragma_files {
        let rel = path
            .strip_prefix(&root)
            .unwrap()
            .to_string_lossy()
            .replace('\\', "/");
        let Some(policy) = policy_for(&rel) else {
            continue;
        };
        let text = std::fs::read_to_string(&path).unwrap();
        // Only pragmas the lexer actually parsed count (matching the raw
        // text would also hit pragma examples inside string literals).
        let pragmas = lexer::lex(&text).pragmas;

        for p in pragmas {
            let neutered = neuter_line(&text, p.line);
            let diags = rules::check_file(&rel, &lexer::lex(&neutered), policy);
            assert!(
                !diags.is_empty(),
                "{rel}:{}: neutering this pragma produced no diagnostic; it is dead weight",
                p.line
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 4,
        "expected at least the four known pragmas to be exercised, got {checked}"
    );
}

/// Every kind of every exemption row must allow something: linting the
/// row's file with that kind taken out of the row must report a finding
/// of the kind's rule. A row for a file that moved or lost its last
/// clock read fails here, so the table cannot outgrow the code.
#[test]
fn every_exemption_row_is_load_bearing() {
    let root = workspace_root();
    for row in &EXEMPTIONS {
        let text = std::fs::read_to_string(root.join(row.file))
            .unwrap_or_else(|e| panic!("{}: row names an unreadable file: {e}", row.file));
        let lexed = lexer::lex(&text);
        let policy = policy_for(row.file).expect("rows name linted files");
        for kind in row.kinds {
            let rest: Vec<Kind> = row.kinds.iter().copied().filter(|k| k != kind).collect();
            let reduced = Policy {
                allow: &rest,
                ..policy
            };
            let diags = rules::check_file(row.file, &lexed, reduced);
            assert!(
                diags.iter().any(|d| d.rule == kind.rule()),
                "{}: removing {kind:?} from the row surfaced no {}; the entry is dead weight",
                row.file,
                kind.rule()
            );
        }
    }
}

/// The manifest gate rejects an external dependency added to the root
/// manifest.
#[test]
fn manifest_gate_rejects_external_dependency() {
    let root = workspace_root();
    let mut toml = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
    toml.push_str("\n[dependencies.serde]\nversion = \"1\"\n");
    let diags = odlb_lint::manifest::check_manifest("Cargo.toml", &toml);
    assert!(
        diags.iter().any(|d| d.rule == "M01"),
        "external dependency not caught: {diags:?}"
    );
}

/// Rewrites the pragma comment on 1-based `line` into an inert comment,
/// simulating its deletion.
fn neuter_line(text: &str, line: u32) -> String {
    text.lines()
        .enumerate()
        .map(|(i, l)| {
            if (i + 1) as u32 == line {
                l.replace("odlb-lint:", "neutered:")
            } else {
                l.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}
