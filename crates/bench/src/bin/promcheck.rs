//! Validates the artifacts `experiments` writes.
//!
//! ```text
//! promcheck <file.prom|file.csv|file.folded> [more ...]
//! ```
//!
//! `.prom` files (`--metrics`) are checked against the Prometheus text
//! exposition rules (every sample preceded by `# HELP`/`# TYPE`, parseable
//! finite values, integral non-negative counters, strictly increasing `le`
//! bucket bounds with non-decreasing cumulative counts, `+Inf` equal to
//! `_count`). `.csv` files (`--metrics`) are checked for the long-format
//! header, field count, non-decreasing timestamps and per-series monotone
//! counters. `.folded` files (`--profile-folded`) are checked against the
//! folded-stacks rules: `frames <count>` lines, non-empty `;`-joined
//! frames, strictly sorted by frame vector. Anything else is read as an
//! exposition. Exits non-zero if any input is unreadable or invalid.

use odlb_telemetry::{validate_csv, validate_folded, validate_prometheus};

fn main() {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: promcheck <file.prom|file.csv|file.folded> [more ...]");
        std::process::exit(2);
    }
    let mut failed = false;
    for file in &files {
        let content = match std::fs::read_to_string(file) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{file}: cannot read: {e}");
                failed = true;
                continue;
            }
        };
        let checked = if file.ends_with(".csv") {
            validate_csv(&content).map(|rows| format!("{rows} rows"))
        } else if file.ends_with(".folded") {
            validate_folded(&content)
                .map(|s| format!("{} stacks, max depth {}", s.lines, s.max_depth))
        } else {
            validate_prometheus(&content).map(|s| {
                format!(
                    "{} families, {} samples, {} histograms",
                    s.families, s.samples, s.histograms
                )
            })
        };
        match checked {
            Ok(shape) => println!("{file}: ok ({shape})"),
            Err(e) => {
                eprintln!("{file}: INVALID: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
