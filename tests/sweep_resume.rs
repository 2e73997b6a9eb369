//! Property tests for the sweep jobserver (`odlb_bench::sweep`): the
//! resumability and determinism guarantees the ISSUE pins.
//!
//! 1. **Interrupt/resume** — a sweep stopped after `K` committed cells
//!    (`max_cells: K`, which leaves exactly the on-disk state of a real
//!    interrupt, since commits happen in canonical order) resumes by
//!    skipping exactly `K` cells, and the merged `sweep.csv` +
//!    `summary.txt` (which embeds every cell digest) are byte-identical
//!    to an uninterrupted run.
//! 2. **Memoization parity** — a memoized sweep (shared schedules,
//!    prefixes and runs) at one and at two workers and a cold sweep
//!    (everything per cell) produce byte-identical artifacts: sharing may
//!    only move work, never change results.
//! 3. **Job-count parity** — `jobs = 1` and `jobs = 4` produce
//!    byte-identical artifacts *and* cell logs from the same starting
//!    state.
//!
//! Matrices come from `odlb_testkit::matrix::arbitrary_matrix`, so axis
//! shapes, key order, quoting and comments vary per case while the cell
//! arithmetic stays exact.

use odlb_bench::sweep::{parse_matrix, run_sweep, MatrixSpec, SweepOptions, SweepOutcome};
use odlb_testkit::matrix::arbitrary_matrix;
use odlb_testkit::{check, Gen};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A unique scratch directory per call, cleaned by each test's epilogue.
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "odlb-sweep-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn sweep(
    spec: &MatrixSpec,
    dir: &Path,
    jobs: usize,
    memo: bool,
    max: Option<usize>,
) -> SweepOutcome {
    run_sweep(
        spec,
        &SweepOptions {
            jobs,
            out_dir: dir.to_path_buf(),
            memo,
            max_cells: max,
        },
    )
    .expect("sweep runs")
}

fn merged_bytes(dir: &Path) -> (String, String) {
    (
        std::fs::read_to_string(dir.join("sweep.csv")).expect("sweep.csv"),
        std::fs::read_to_string(dir.join("summary.txt")).expect("summary.txt"),
    )
}

#[test]
fn interrupted_sweep_resumes_and_reproduces_merged_artifacts() {
    check("sweep_interrupt_resume", 5, |g: &mut Gen| {
        let m = arbitrary_matrix(g);
        let spec = parse_matrix(&m.toml).expect("generated matrix parses");
        let clean_dir = scratch("clean");
        let resumed_dir = scratch("resumed");

        let clean = sweep(&spec, &clean_dir, 2, true, None);
        assert_eq!(clean.total_cells, m.expected_cells);
        assert_eq!(clean.ran, m.expected_cells);
        assert!(!clean.interrupted);

        // Interrupt after K committed cells: canonical commit order means
        // max_cells K leaves exactly the state of a killed sweep.
        let k = g.usize_in(1, m.expected_cells + 1);
        let first = sweep(&spec, &resumed_dir, 2, true, Some(k));
        assert_eq!(first.ran, k.min(m.expected_cells));
        assert_eq!(first.interrupted, k < m.expected_cells);

        let resumed = sweep(&spec, &resumed_dir, 2, true, None);
        assert_eq!(
            resumed.skipped,
            k.min(m.expected_cells),
            "resume must skip every committed cell"
        );
        assert_eq!(resumed.ran, m.expected_cells - resumed.skipped);
        assert!(!resumed.interrupted);
        assert_eq!(resumed.events, clean.events);

        let (clean_csv, clean_sum) = merged_bytes(&clean_dir);
        let (res_csv, res_sum) = merged_bytes(&resumed_dir);
        assert_eq!(
            clean_csv, res_csv,
            "resumed sweep.csv must match clean run byte-for-byte"
        );
        assert_eq!(
            clean_sum, res_sum,
            "resumed summary (incl. digests) must match clean run"
        );

        let _ = std::fs::remove_dir_all(&clean_dir);
        let _ = std::fs::remove_dir_all(&resumed_dir);
    });
}

#[test]
fn memoized_and_cold_sweeps_are_byte_identical() {
    check("sweep_memo_parity", 4, |g: &mut Gen| {
        let m = arbitrary_matrix(g);
        let spec = parse_matrix(&m.toml).expect("generated matrix parses");
        let cold_dir = scratch("cold");
        let cold = sweep(&spec, &cold_dir, 2, false, None);
        let (cold_csv, cold_sum) = merged_bytes(&cold_dir);
        // Memo off is the oracle: one schedule, prefix and run per cell.
        assert_eq!(cold.work.schedules, m.expected_cells);
        assert_eq!(cold.work.runs, m.expected_cells);

        // One worker keeps every MRC-blind twin inside its job; two cut
        // a lone schedule key's cells into chunks, which may split twins.
        for jobs in [1, 2] {
            let memo_dir = scratch("memo");
            let memo = sweep(&spec, &memo_dir, jobs, true, None);
            assert_eq!(memo.events, cold.events);
            if jobs == 1 {
                assert_eq!(memo.work.schedules, m.expected_schedules);
                assert_eq!(memo.work.prefixes, m.expected_prefixes);
            }
            assert!(memo.work.runs <= m.expected_cells);

            let (memo_csv, memo_sum) = merged_bytes(&memo_dir);
            assert_eq!(
                memo_csv, cold_csv,
                "memoized schedules must replay byte-identically (jobs {jobs})"
            );
            assert_eq!(
                memo_sum, cold_sum,
                "cell digests must not depend on memoization (jobs {jobs})"
            );
            let _ = std::fs::remove_dir_all(&memo_dir);
        }
        let _ = std::fs::remove_dir_all(&cold_dir);
    });
}

#[test]
fn job_count_does_not_change_artifacts_or_log() {
    check("sweep_jobs_parity", 3, |g: &mut Gen| {
        let m = arbitrary_matrix(g);
        let spec = parse_matrix(&m.toml).expect("generated matrix parses");
        let seq_dir = scratch("seq");
        let par_dir = scratch("par");

        let seq = sweep(&spec, &seq_dir, 1, true, None);
        let par = sweep(&spec, &par_dir, 4, true, None);
        assert_eq!(
            seq.log, par.log,
            "cell log must be identical at any job count"
        );
        assert_eq!(seq.events, par.events);

        let (seq_csv, seq_sum) = merged_bytes(&seq_dir);
        let (par_csv, par_sum) = merged_bytes(&par_dir);
        assert_eq!(seq_csv, par_csv);
        assert_eq!(seq_sum, par_sum);

        let _ = std::fs::remove_dir_all(&seq_dir);
        let _ = std::fs::remove_dir_all(&par_dir);
    });
}
