//! The experiment runner: regenerates every table and figure of the paper.
//!
//! ```text
//! experiments [<figure>|all]      (figure names: `experiments --list`)
//!             [--jobs <N>] [--trace <path>] [--metrics <dir>]
//!             [--profile-folded <path>]
//! experiments --list
//! experiments sweep <matrix.toml> [--out <dir>] [--jobs <N>]
//!             [--max-cells <K>]
//! ```
//!
//! `--list` prints the figure registry of `odlb_bench::suite` (name,
//! traced flag, description). Every figure is a self-contained job;
//! `--jobs <N>` runs up to `N` of them concurrently on the ordered worker
//! pool in `odlb_bench::runner` (default: one per hardware thread) and
//! commits their outputs in registry order, so stdout and every artifact
//! are byte-identical at any job count.
//!
//! The figure-only flags act on the traced figures (`traced` in
//! `--list`), which always print their run digest — the 64-bit FNV-1a
//! fold of the canonical event stream:
//!
//! - `--trace <path>` writes the event stream as JSONL (suffixed
//!   `.<figure>` when more than one figure runs).
//! - `--metrics <dir>` writes `<figure>.prom` and `<figure>.csv`; values
//!   derive from simulation state only, so same-seed runs write the same
//!   bytes. The wall-clock overhead report goes to stderr.
//! - `--profile-folded <path>` writes the merged sim-unit folded stacks
//!   (`flamegraph.pl` input), also byte-identical across runs; the
//!   wall-clock dump and flat report go to stderr.
//!
//! `sweep <matrix.toml>` runs a parameter matrix as a resumable
//! jobserver: cells are content-addressed under `<out>/cells/` (default
//! `sweep-<name>/`), completed cells are skipped on restart, cells
//! sharing a workload key replay one memoized schedule, and
//! `--max-cells <K>` stops resumably after `K` cells. Completed sweeps
//! merge `sweep.csv` + `summary.txt` in canonical cell order. See
//! EXPERIMENTS.md, "Parameter sweeps".
//!
//! A flag given to the wrong mode exits 2, as does anything unknown.

use odlb_bench::{runner, suite, sweep};
use odlb_telemetry::SpanProfiler;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

/// Prints `message` to stderr and exits with `code` (2 = usage, 1 = I/O).
fn fail(code: i32, message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(code)
}

/// The parsed value of a value-taking flag; a missing or unparsable
/// value prints `<flag> requires <what>` and exits 2.
fn flag_value<T: FromStr>(flag: &str, value: Option<String>, what: &str) -> T {
    let parsed = value.and_then(|v| v.parse().ok());
    parsed.unwrap_or_else(|| fail(2, format!("{flag} requires {what}")))
}

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut jobs: Option<usize> = None;
    let mut trace_path: Option<String> = None;
    let mut metrics_dir: Option<String> = None;
    let mut profile_folded: Option<String> = None;
    let mut list = false;
    let mut sweep_out: Option<String> = None;
    let mut max_cells: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        match flag {
            "--jobs" => {
                let n: NonZeroUsize = flag_value(flag, args.next(), "a positive worker count");
                jobs = Some(n.get());
            }
            "--trace" => trace_path = Some(flag_value(flag, args.next(), "a path")),
            "--metrics" => metrics_dir = Some(flag_value(flag, args.next(), "a directory")),
            "--profile-folded" => profile_folded = Some(flag_value(flag, args.next(), "a path")),
            "--out" => sweep_out = Some(flag_value(flag, args.next(), "a directory")),
            "--max-cells" => {
                let n: NonZeroUsize = flag_value(flag, args.next(), "a positive cell count");
                max_cells = Some(n.get());
            }
            "--list" => list = true,
            _ if positional.len() < 2 && !flag.starts_with("--") => positional.push(arg),
            _ => fail(2, format!("unexpected argument '{flag}'")),
        }
    }
    if list {
        print!("{}", suite::render_list());
        return;
    }
    let jobs = jobs.unwrap_or_else(runner::default_jobs);
    let observed = trace_path.is_some() || metrics_dir.is_some() || profile_folded.is_some();
    if positional.first().map(String::as_str) == Some("sweep") {
        let Some(matrix_path) = positional.get(1) else {
            fail(2, "usage: experiments sweep <matrix.toml> [--out <dir>] [--jobs <N>] [--max-cells <K>]");
        };
        if observed {
            fail(
                2,
                "--trace/--metrics/--profile-folded only apply to figure runs",
            );
        }
        run_sweep_command(matrix_path, jobs, sweep_out, max_cells);
        return;
    }
    if sweep_out.is_some() || max_cells.is_some() {
        fail(2, "--out/--max-cells only apply to the sweep subcommand");
    }
    let arg = positional
        .first()
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    if let Some(extra) = positional.get(1) {
        fail(2, format!("unexpected argument '{extra}'"));
    }
    let Some(selection) = suite::resolve(&arg) else {
        let names: Vec<&str> = suite::REGISTRY.iter().map(|info| info.name).collect();
        fail(
            2,
            format!("unknown experiment '{arg}'; valid: {} all", names.join(" ")),
        );
    };
    let traced = |name: &&str| suite::figure_info(name).is_some_and(|info| info.traced);
    if observed && !selection.iter().any(traced) {
        fail(
            2,
            "--trace/--metrics/--profile-folded need a traced figure (see --list)",
        );
    }
    // The metrics directory is created up front (and only it): a bad
    // `--trace` path must keep failing with a `file: error` exit, not be
    // silently papered over by creating its parent directories.
    if let Some(dir) = &metrics_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            fail(1, format!("{dir}: cannot create metrics dir: {e}"));
        }
    }
    let cfg = suite::SuiteConfig {
        jobs,
        trace_path,
        metrics_dir,
        profile: profile_folded.is_some(),
    };

    // Figures execute on the worker pool; this closure is the commit
    // side, invoked in canonical order on the main thread: print the
    // buffered stdout block, write the buffered artifacts, and fold the
    // figure's profile into the merged overhead report.
    let mut merged_profile = SpanProfiler::new();
    let mut instrumented_wall = Duration::ZERO;
    let mut any_profile = false;
    suite::run_suite(&selection, &cfg, |out| {
        print!("{}", out.stdout);
        for (path, bytes) in &out.files {
            if let Err(e) = std::fs::write(path, bytes) {
                fail(1, format!("{}: cannot write: {e}", path.display()));
            }
        }
        if let Some(profile) = &out.profile {
            merged_profile.merge(profile);
            instrumented_wall += out.wall;
            any_profile = true;
        }
    });
    if any_profile {
        // Real wall-clock timings: stderr only, so stdout stays
        // byte-identical across runs and job counts.
        eprint!("{}", merged_profile.report(instrumented_wall));
    }
    if let Some(path) = &profile_folded {
        let folded = merged_profile.folded_sim();
        if let Err(e) = odlb_telemetry::validate_folded(&folded) {
            fail(
                1,
                format!("{path}: refusing to write invalid folded dump: {e}"),
            );
        }
        if let Err(e) = std::fs::write(path, &folded) {
            fail(1, format!("{path}: cannot write: {e}"));
        }
        // The wall-clock flamegraph of the same stacks: stderr only,
        // since wall timings vary run to run.
        eprint!("{}", merged_profile.folded_wall());
        eprintln!("profile: wrote {path} ({} stacks)", folded.lines().count());
    }
}

/// `experiments sweep <matrix.toml>`: parses the matrix, runs (or
/// resumes) the sweep on the ordered worker pool, prints the
/// deterministic cell log plus completion lines. Stdout carries no
/// wall-clock content, so a given starting state prints byte-identically
/// at any `--jobs` count.
fn run_sweep_command(
    matrix_path: &str,
    jobs: usize,
    out_dir: Option<String>,
    max_cells: Option<usize>,
) {
    let text = std::fs::read_to_string(matrix_path)
        .unwrap_or_else(|e| fail(1, format!("{matrix_path}: cannot read: {e}")));
    let spec =
        sweep::parse_matrix(&text).unwrap_or_else(|e| fail(2, format!("{matrix_path}: {e}")));
    let out_dir = PathBuf::from(out_dir.unwrap_or_else(|| format!("sweep-{}", spec.name)));
    let opts = sweep::SweepOptions {
        jobs,
        out_dir,
        memo: true,
        max_cells,
    };
    let start = std::time::Instant::now();
    let outcome = sweep::run_sweep(&spec, &opts).unwrap_or_else(|e| fail(1, format!("sweep: {e}")));
    let wall = start.elapsed();
    print!("{}", outcome.log);
    let dup = if outcome.duplicates > 0 {
        format!(", {} duplicate configs dropped", outcome.duplicates)
    } else {
        String::new()
    };
    println!(
        "sweep {}: {} cells ({} cached, {} ran{dup})",
        spec.name, outcome.total_cells, outcome.skipped, outcome.ran
    );
    if outcome.interrupted {
        println!("stopped by --max-cells before completion; re-run to resume");
    } else {
        println!(
            "merged {} and {}",
            outcome.csv_path.display(),
            outcome.summary_path.display()
        );
        // Wall-derived throughput goes to stderr, keeping stdout
        // byte-identical across runs.
        eprintln!(
            "sweep {}: {} simulated events in {:.2?}",
            spec.name, outcome.events, wall
        );
    }
}
