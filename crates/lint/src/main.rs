//! `odlb-lint` binary: lints the workspace and exits nonzero on any
//! finding. Run as `cargo run --release -p odlb-lint` (CI does) or let
//! tier-1 `cargo test -q` reach it through the `workspace_clean`
//! integration test.
//!
//! Usage: `odlb-lint [START_DIR]` — walk up from `START_DIR` (default:
//! the current directory) to the workspace root (a `Cargo.toml` with
//! `[workspace]`) and lint everything under it.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: odlb-lint [START_DIR]";

fn main() -> ExitCode {
    let mut start: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--help" || arg == "-h" {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        } else if arg.starts_with('-') || start.is_some() {
            eprintln!("odlb-lint: unexpected argument `{arg}`\n{USAGE}");
            return ExitCode::from(2);
        }
        start = Some(PathBuf::from(arg));
    }

    let start =
        start.unwrap_or_else(|| std::env::current_dir().unwrap_or_else(|_| PathBuf::from(".")));
    let Some(root) = odlb_lint::find_workspace_root(&start) else {
        eprintln!(
            "odlb-lint: no workspace root (Cargo.toml with [workspace]) above {}",
            start.display()
        );
        return ExitCode::from(2);
    };

    let diags = odlb_lint::run_workspace(&root);
    if diags.is_empty() {
        println!("odlb-lint: workspace clean");
        return ExitCode::SUCCESS;
    }
    for d in &diags {
        println!("{d}");
    }
    println!("odlb-lint: {} violation(s)", diags.len());
    ExitCode::FAILURE
}
