//! Digests the docs quote are digests the code prints: every
//! `<figure> run digest: 0x… (N events)` line in README.md and
//! EXPERIMENTS.md whose figure is part of `all` or a `*-mini` is re-run
//! through the suite and compared. (`fig-scale` is quoted too; CI runs it
//! in release mode and greps the same line.) The ablation A6 table in
//! EXPERIMENTS.md is checked the same way, row by row, and every quoted
//! section citation against the cited file's headings.

use odlb_bench::suite::{figure_info, run_suite, SuiteConfig};
use std::path::{Path, PathBuf};

/// The `(figure, quoted line)` pairs of one document.
fn quoted_digests(text: &str) -> Vec<(&'static str, String)> {
    let mut found = Vec::new();
    for line in text.lines() {
        let Some(at) = line.find(" run digest: 0x") else {
            continue;
        };
        let name = line[..at].rsplit([' ', '`']).next().unwrap_or("");
        let Some(len) = line[at..].find(')') else {
            continue;
        };
        let quoted = line[at - name.len()..=at + len].to_string();
        match figure_info(name) {
            Some(info) if info.in_all || name.ends_with("-mini") => found.push((info.name, quoted)),
            _ => {}
        }
    }
    found
}

#[test]
fn quoted_digests_match_what_the_suite_prints() {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut quoted = Vec::new();
    for doc in ["README.md", "EXPERIMENTS.md"] {
        let text = std::fs::read_to_string(format!("{root}/{doc}")).expect(doc);
        quoted.extend(quoted_digests(&text));
    }
    assert!(
        quoted.iter().any(|(name, _)| *name == "fig4"),
        "README quotes fig4's digest; found {quoted:?}"
    );
    let cfg = SuiteConfig {
        jobs: 1,
        ..Default::default()
    };
    for (name, line) in quoted {
        run_suite(&[name], &cfg, |out| {
            assert!(
                out.stdout.lines().any(|l| l == line),
                "docs quote `{line}`; {name} printed:\n{}",
                out.stdout
            );
        });
    }
}

/// EXPERIMENTS.md's A6 rows (`| rate | sampled refs | max |Δmr| | sampled
/// acceptable | same action |`) against what `ablation-mrc-sampled`
/// prints: the sampled columns move whenever the sampling hash stream does.
#[test]
fn quoted_a6_rows_match_what_the_ablation_prints() {
    let root = env!("CARGO_MANIFEST_DIR");
    let text = std::fs::read_to_string(format!("{root}/EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let quoted: Vec<Vec<&str>> = text
        .lines()
        .skip_while(|l| !l.starts_with("**A6 "))
        .skip_while(|l| !l.starts_with("|---"))
        .skip(1)
        .take_while(|l| l.starts_with('|'))
        .map(|l| l.trim_matches('|').split('|').map(str::trim).collect())
        .collect();
    assert_eq!(quoted.len(), 5, "EXPERIMENTS.md quotes five A6 rates");
    let cfg = SuiteConfig {
        jobs: 1,
        ..Default::default()
    };
    run_suite(&["ablation-mrc-sampled"], &cfg, |out| {
        // rate, sampled-refs, mean, max, exact-acc, sampl-acc, same-action
        let printed: Vec<Vec<String>> = out
            .stdout
            .lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .filter(|f| f.len() == 7 && f[0].parse::<f64>().is_ok())
            .map(|f| {
                let max: f64 = f[3].parse().expect("max |Δmr| column");
                vec![
                    f[0].into(),
                    f[1].into(),
                    format!("{max:.3}"),
                    f[5].into(),
                    f[6].into(),
                ]
            })
            .collect();
        assert_eq!(printed, quoted, "A6 printed:\n{}", out.stdout);
    });
}

/// Every `*.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// A section cited by its quoted heading — the file name, then `, "` or
/// ` "`, then the heading's first words — is a `#` heading of that file.
/// A citation may wrap: each line is read without its indentation and
/// leading `/`, `!` and `#` (comment markers), and line breaks read as one
/// space.
#[test]
fn doc_citations_name_real_headings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |p: &Path| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{p:?}: {e}"));
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let docs = ".github/workflows/ci.yml .claude/skills/verify/SKILL.md README.md DESIGN.md EXPERIMENTS.md";
    files.extend(docs.split(' ').map(|doc| root.join(doc)));
    let mut cited = 0;
    for file in &files {
        let text = read(file)
            .lines()
            .map(|l| l.trim_start().trim_start_matches(['/', '!', '#']).trim())
            .collect::<Vec<_>>()
            .join(" ");
        for form in ["DESIGN.md, \"", "DESIGN.md \"", "EXPERIMENTS.md, \""] {
            let doc = form.split([',', ' ']).next().unwrap_or(form);
            for (at, needle) in text.match_indices(form) {
                let rest = &text[at + needle.len()..];
                let title = &rest[..rest.find('"').unwrap_or(0)];
                let heading = |h: &str| {
                    h.starts_with('#') && h.trim_start_matches('#').trim().starts_with(title)
                };
                assert!(
                    read(&root.join(doc)).lines().any(heading),
                    "{file:?} cites {doc}, \"{title}\", which is no heading of {doc}"
                );
                cited += 1;
            }
        }
    }
    assert!(cited >= 10, "found only {cited} citations");
}
