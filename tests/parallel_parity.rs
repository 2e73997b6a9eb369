//! Parallel-run parity: `--jobs N` must be byte-identical to `--jobs 1`.
//!
//! The experiments suite promises that parallelism lives entirely
//! *between* isolated simulations, never inside one, so running figures
//! concurrently changes nothing observable: stdout blocks, run-digest
//! lines, `.prom`/`.csv` snapshots, and trace JSONL files all come out
//! byte for byte the same. This test drives the suite library (the same
//! registry the binary runs) over a two-figure subset — one plain figure
//! and one traced + instrumented figure — once sequentially and once on
//! four workers, with identical artifact paths, and compares everything.
//! (Commit ordering under adversarial job durations is unit-tested in
//! `odlb_bench::runner`.)

use odlb_bench::suite::{run_suite, FigureOutput, SuiteConfig};
use std::path::PathBuf;

/// fig5 (plain MRC figure) + fig3-mini (traced, instrumented, CI-scale)
/// cover both job shapes while keeping the test fast.
const SELECTION: [&str; 2] = ["fig5", "fig3-mini"];

fn run_with_jobs(jobs: usize) -> Vec<FigureOutput> {
    let cfg = SuiteConfig {
        jobs,
        // Identical (relative) artifact paths for both runs so the
        // "metrics: wrote …" stdout lines match byte for byte; payloads
        // are compared in memory, then round-tripped through disk below.
        trace_path: Some("parity-trace.jsonl".to_string()),
        metrics_dir: Some("parity-metrics".to_string()),
        profile: true,
    };
    let mut outputs = Vec::new();
    run_suite(&SELECTION, &cfg, |out| outputs.push(out));
    outputs
}

#[test]
fn four_workers_match_sequential_byte_for_byte() {
    let sequential = run_with_jobs(1);
    let parallel = run_with_jobs(4);

    assert_eq!(sequential.len(), SELECTION.len());
    assert_eq!(parallel.len(), SELECTION.len());

    for (seq, par) in sequential.iter().zip(&parallel) {
        // Commit order is the canonical selection order in both runs.
        assert_eq!(seq.name, par.name);
        assert_eq!(seq.stdout, par.stdout, "stdout block of {}", seq.name);

        // Every digest line (embedded in the block) matches exactly.
        let digest_line = |o: &FigureOutput| {
            o.stdout
                .lines()
                .find(|l| l.contains("run digest:"))
                .map(str::to_string)
        };
        assert_eq!(digest_line(seq), digest_line(par), "digest of {}", seq.name);

        // Artifact payloads — trace JSONL, .prom, .csv — byte-identical,
        // destined for identical paths.
        assert_eq!(
            seq.files.len(),
            par.files.len(),
            "artifact count of {}",
            seq.name
        );
        for ((seq_path, seq_bytes), (par_path, par_bytes)) in seq.files.iter().zip(&par.files) {
            assert_eq!(seq_path, par_path);
            assert_eq!(seq_bytes, par_bytes, "payload of {}", seq_path.display());
        }
    }

    // The sim-unit folded profile dump — merged across figures exactly
    // as the binary does — is also byte-identical, and valid.
    let merge = |outputs: &[FigureOutput]| {
        let mut merged = odlb_telemetry::SpanProfiler::new();
        for out in outputs {
            if let Some(profile) = &out.profile {
                merged.merge(profile);
            }
        }
        merged.folded_sim()
    };
    let seq_folded = merge(&sequential);
    let par_folded = merge(&parallel);
    assert_eq!(seq_folded, par_folded, "sim folded dump differs by jobs");
    let stats = odlb_telemetry::validate_folded(&seq_folded).expect("valid folded dump");
    assert!(
        stats.max_depth >= 4,
        "expected nested stacks, got depth {}",
        stats.max_depth
    );

    // The traced figure actually produced artifacts (the comparison
    // above must not pass vacuously).
    let traced = &sequential[1];
    assert_eq!(traced.name, "fig3-mini");
    assert_eq!(traced.files.len(), 3, "trace + .prom + .csv");
    assert!(traced.files.iter().all(|(_, bytes)| !bytes.is_empty()));

    // Round-trip through temp dirs, as the binary would write them, and
    // re-compare on disk.
    let base = std::env::temp_dir().join(format!("odlb-parity-{}", std::process::id()));
    let seq_dir = base.join("seq");
    let par_dir = base.join("par");
    for (dir, outputs) in [(&seq_dir, &sequential), (&par_dir, &parallel)] {
        for out in outputs.iter() {
            for (path, bytes) in &out.files {
                let dest = dir.join(path);
                std::fs::create_dir_all(dest.parent().expect("artifact paths have parents"))
                    .expect("create temp artifact dir");
                std::fs::write(&dest, bytes).expect("write temp artifact");
            }
        }
    }
    let mut rel_paths: Vec<PathBuf> = sequential
        .iter()
        .flat_map(|o| o.files.iter().map(|(p, _)| p.clone()))
        .collect();
    rel_paths.sort();
    for rel in rel_paths {
        let a = std::fs::read(seq_dir.join(&rel)).expect("read sequential artifact");
        let b = std::fs::read(par_dir.join(&rel)).expect("read parallel artifact");
        assert_eq!(a, b, "on-disk artifact {}", rel.display());
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn multi_figure_trace_paths_are_suffixed_per_figure() {
    let outputs = run_with_jobs(2);
    let trace_paths: Vec<String> = outputs
        .iter()
        .flat_map(|o| o.files.iter().map(|(p, _)| p.display().to_string()))
        .filter(|p| p.contains("parity-trace"))
        .collect();
    // Only the traced figure writes a trace, suffixed with its name
    // because the selection has more than one figure.
    assert_eq!(trace_paths, vec!["parity-trace.jsonl.fig3-mini"]);
}
