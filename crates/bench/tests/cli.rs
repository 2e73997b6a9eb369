//! The command-line contract: exit code and first stderr line of every
//! `experiments` usage error, `--list` against the registry, and
//! `promcheck` on malformed artifacts.

use odlb_bench::suite::REGISTRY;
use std::process::Command;

/// Runs a built binary; returns (exit code, stdout, first stderr line).
fn run(bin: &str, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(bin).args(args).output().expect("spawn");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    let first = text(&out.stderr).lines().next().unwrap_or("").to_string();
    (
        out.status.code().expect("exit code"),
        text(&out.stdout),
        first,
    )
}

fn experiments(args: &[&str]) -> (i32, String, String) {
    run(env!("CARGO_BIN_EXE_experiments"), args)
}

#[test]
fn usage_errors_exit_2_with_their_message() {
    let cases: [(&[&str], &str); 8] = [
        (&["--frobnicate"], "unexpected argument '--frobnicate'"),
        // Memoization is always on: the cold path is the library's alone.
        (
            &["sweep", "m.toml", "--no-memo"],
            "unexpected argument '--no-memo'",
        ),
        // The live-scrape plane is gone: its flag is as unknown as any.
        (&["--serve", "0"], "unexpected argument '--serve'"),
        (
            &["fig4", "--jobs", "0"],
            "--jobs requires a positive worker count",
        ),
        (
            &["fig4", "--out", "d"],
            "--out/--max-cells only apply to the sweep subcommand",
        ),
        (
            &["sweep", "m.toml", "--trace", "t"],
            "--trace/--metrics/--profile-folded only apply to figure runs",
        ),
        (
            &["sweep", "m.toml", "--metrics", "d", "--profile-folded", "p"],
            "--trace/--metrics/--profile-folded only apply to figure runs",
        ),
        // Refused before the figure runs: stdout stays empty.
        (
            &["ablation-mrc-threshold", "--trace", "t"],
            "--trace/--metrics/--profile-folded need a traced figure (see --list)",
        ),
    ];
    for (args, message) in cases {
        let (code, stdout, first) = experiments(args);
        assert_eq!((code, first.as_str()), (2, message), "{args:?}");
        assert!(stdout.is_empty(), "{args:?} printed {stdout:?}");
    }
}

#[test]
fn unknown_figure_lists_every_registry_name() {
    let (code, _, first) = experiments(&["fig7"]);
    let names: Vec<&str> = REGISTRY.iter().map(|info| info.name).collect();
    assert_eq!(code, 2);
    assert_eq!(
        first,
        format!("unknown experiment 'fig7'; valid: {} all", names.join(" "))
    );
}

#[test]
fn list_prints_one_row_per_registry_entry() {
    let (code, stdout, first) = experiments(&["--list"]);
    assert_eq!((code, first.as_str()), (0, ""));
    // Two header lines and a blank, then the registry in order.
    let rows: Vec<&str> = stdout.lines().skip(3).collect();
    assert_eq!(rows.len(), REGISTRY.len());
    for (row, info) in rows.iter().zip(&REGISTRY) {
        assert!(
            row.starts_with(info.name) && row.ends_with(info.title),
            "{row}"
        );
    }
}

/// A malformed artifact fails validation — exit 1, the first stderr line
/// naming file and line — and never panics (`a}b{c 1` used to slice out
/// of range).
#[test]
fn promcheck_names_file_and_line_of_a_malformed_artifact() {
    let dir = std::env::temp_dir().join(format!("odlb-promcheck-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (file, content, verdict) in [
        (
            "bad.prom",
            "# HELP a x\n# TYPE a gauge\na}b{c 1\n",
            "line 3: unparseable sample 'a}b{c 1'",
        ),
        (
            "bad.csv",
            "time_s,seq,metric,labels,value\n1.0,0,x,,5\n2.0,0,x\n",
            "row 2: expected 5 fields, got 3",
        ),
        (
            "bad.folded",
            "a 1\na;;b 2\n",
            "line 2: empty frame in stack 'a;;b'",
        ),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, content).unwrap();
        let path = path.display().to_string();
        let (code, stdout, first) = run(env!("CARGO_BIN_EXE_promcheck"), &[&path]);
        assert_eq!((code, first), (1, format!("{path}: INVALID: {verdict}")));
        assert!(stdout.is_empty(), "{file} printed {stdout:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
