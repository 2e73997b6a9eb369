//! M01 — the zero-external-dependency gate.
//!
//! Tier-1 must build with `CARGO_NET_OFFLINE=true`, so every entry in a
//! dependency table of any `Cargo.toml` must resolve inside the
//! workspace: either a `path = "…"` dependency, a `key.workspace = true`
//! inheritance, or (in `[workspace.dependencies]`) a `path` definition.
//! Anything that would hit a registry is an M01 diagnostic.
//!
//! This is a purpose-built line scanner, not a TOML parser: the
//! workspace's manifests are plain `key = value` tables, which is all we
//! accept. A manifest exotic enough to confuse the scanner should fail
//! loudly, not pass silently.

use crate::rules::Diagnostic;

/// True for `[section]` headers naming a dependency-like table, e.g.
/// `dependencies`, `dev-dependencies`, `workspace.dependencies`,
/// `target.'cfg(unix)'.dependencies`, `dependencies.odlb-core`.
fn is_dependency_section(name: &str) -> bool {
    name.split('.').any(|seg| {
        matches!(
            seg,
            "dependencies" | "dev-dependencies" | "build-dependencies"
        )
    })
}

/// Checks one manifest. `file` is the workspace-relative path used in
/// diagnostics.
pub fn check_manifest(file: &str, text: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut section = String::new();
    // For `[dependencies.foo]` sub-tables the whole table is one entry:
    // it is vendored iff any line inside is `path = …` or
    // `workspace = true`.
    let mut subtable: Option<(u32, String, bool)> = None;

    let flush_subtable = |sub: &mut Option<(u32, String, bool)>, out: &mut Vec<Diagnostic>| {
        if let Some((line, name, vendored)) = sub.take() {
            if !vendored {
                out.push(Diagnostic {
                    file: file.to_string(),
                    line,
                    rule: "M01",
                    message: format!(
                        "dependency table `[{name}]` has no `path` or `workspace = true`; \
                         external dependencies are forbidden (offline tier-1)"
                    ),
                });
            }
        }
    };

    for (idx, raw) in text.lines().enumerate() {
        let line_no = (idx + 1) as u32;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            flush_subtable(&mut subtable, &mut out);
            section = line
                .trim_start_matches('[')
                .trim_end_matches(']')
                .trim()
                .to_string();
            if is_dependency_section(&section) && section.split('.').count() > 1 {
                // `[dependencies.foo]`-style sub-table — but not
                // `[workspace.dependencies]`, where the last segment is
                // the table itself.
                let last = section.rsplit('.').next().unwrap_or("");
                if !matches!(
                    last,
                    "dependencies" | "dev-dependencies" | "build-dependencies"
                ) {
                    subtable = Some((line_no, section.clone(), false));
                }
            }
            continue;
        }
        if !is_dependency_section(&section) {
            continue;
        }

        if let Some((_, _, vendored)) = subtable.as_mut() {
            if line.starts_with("path") || line == "workspace = true" {
                *vendored = true;
            }
            continue;
        }

        // `key = value` inside a flat dependency table.
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim();
        let value = value.trim();
        let vendored = (key.ends_with(".workspace") && value.starts_with("true"))
            || value.contains("path =")
            || value.contains("path=")
            || value.contains("workspace = true")
            || value.contains("workspace=true");
        if !vendored {
            out.push(Diagnostic {
                file: file.to_string(),
                line: line_no,
                rule: "M01",
                message: format!(
                    "`{key}` in [{section}] is not a path/workspace dependency; external \
                     dependencies are forbidden (offline tier-1)"
                ),
            });
        }
    }
    flush_subtable(&mut subtable, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_and_path_deps_pass() {
        let toml = "\
[package]
name = \"x\"

[dependencies]
odlb-core = { workspace = true }
odlb-sim.workspace = true
local = { path = \"../local\" }

[workspace.dependencies]
odlb-core = { path = \"crates/core\" }
";
        assert!(check_manifest("Cargo.toml", toml).is_empty());
    }

    #[test]
    fn registry_deps_fail() {
        let toml = "\
[dependencies]
serde = \"1.0\"
rand = { version = \"0.8\", features = [\"small_rng\"] }
";
        let got = check_manifest("Cargo.toml", toml);
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(got.iter().all(|d| d.rule == "M01"));
        assert_eq!(got[0].line, 2);
        assert_eq!(got[1].line, 3);
    }

    #[test]
    fn dev_and_build_dependencies_are_gated_too() {
        let toml = "[dev-dependencies]\ncriterion = \"0.5\"\n";
        assert_eq!(check_manifest("c", toml).len(), 1);
        let toml = "[build-dependencies]\ncc = \"1\"\n";
        assert_eq!(check_manifest("c", toml).len(), 1);
    }

    #[test]
    fn dependency_subtables_need_path_or_workspace() {
        let good = "[dependencies.odlb-core]\npath = \"../core\"\n";
        assert!(check_manifest("c", good).is_empty());
        let bad = "[dependencies.serde]\nversion = \"1\"\nfeatures = [\"derive\"]\n";
        let got = check_manifest("c", bad);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].rule, "M01");
    }

    #[test]
    fn non_dependency_sections_are_ignored() {
        let toml = "[package]\nversion = \"0.1.0\"\n\n[features]\ndefault = []\n";
        assert!(check_manifest("c", toml).is_empty());
    }
}
