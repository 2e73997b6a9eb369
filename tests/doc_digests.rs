//! Digests the docs quote are digests the code prints: every
//! `<figure> run digest: 0x… (N events)` line in README.md and
//! EXPERIMENTS.md whose figure is part of `all` or a `*-mini` is re-run
//! through the suite and compared. (`fig-scale` is quoted too; CI runs it
//! in release mode and greps the same line.)

use odlb_bench::suite::{figure_info, run_suite, SuiteConfig};

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
