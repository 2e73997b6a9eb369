//! The `experiments` command-line contract: exit code and first stderr
//! line of every usage error, and `--list` against the registry.

use odlb_bench::suite::REGISTRY;
use std::process::Command;

/// Runs the built binary; returns (exit code, stdout, first stderr line).
fn experiments(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    let first = text(&out.stderr).lines().next().unwrap_or("").to_string();
    (
        out.status.code().expect("exit code"),
        text(&out.stdout),
        first,
    )
}

#[test]
fn usage_errors_exit_2_with_their_message() {
    let cases: [(&[&str], &str); 6] = [
        (&["--frobnicate"], "unexpected argument '--frobnicate'"),
        // The live-scrape plane is gone: its flag is as unknown as any.
        (&["--serve", "0"], "unexpected argument '--serve'"),
        (
            &["fig4", "--jobs", "0"],
            "--jobs requires a positive worker count",
        ),
        (
            &["fig4", "--out", "d"],
            "--out/--no-memo/--max-cells only apply to the sweep subcommand",
        ),
        (
            &["sweep", "m.toml", "--trace", "t"],
            "--trace/--metrics/--profile-folded only apply to figure runs",
        ),
        (
            &["sweep", "m.toml", "--metrics", "d", "--profile-folded", "p"],
            "--trace/--metrics/--profile-folded only apply to figure runs",
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
