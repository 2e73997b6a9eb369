//! Self-test of the benchmark: the limits `BENCHMARK.json` must keep,
//! and one `--quick` run of the real binary checked end to end — the
//! names it prints are exactly the names the file lists, every value is
//! finite and carries its unit, and the span files parse with every
//! span's parent present.

#[path = "json.rs"]
#[allow(dead_code)]
mod json;
#[path = "spans.rs"]
#[allow(dead_code)]
mod spans;
#[path = "spec.rs"]
#[allow(dead_code)]
mod spec;

use json::Json;
use spec::Spec;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_odlb-benchmark");

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_keeps_the_contract_limits() {
    let text = include_str!("../../BENCHMARK.json");
    assert!(text.len() <= 64 * 1024);
    let doc = json::parse(text).unwrap();
    let keys: Vec<&str> = doc
        .members()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let spec = Spec::parse(text).unwrap();
    assert!((2..=8).contains(&spec.workloads.len()));
    assert!((1..=16).contains(&spec.end_to_end.len()));
    assert!((1..=128).contains(&spec.per_layer.len()));
    assert!(spec.run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&spec.run_seconds));

    let mut names: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
    names.extend(
        spec.end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str()),
    );
    for name in &names {
        assert!(name_ok(name), "bad name {name:?}");
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");

    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        let unit_ok = !m.unit.is_empty()
            && m.unit.len() <= 16
            && m.unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'));
        assert!(unit_ok, "{}: bad unit {:?}", m.name, m.unit);
    }
    let bounds: Vec<f64> = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|m| m.get("bound").and_then(Json::as_f64).expect("a bound"))
        .collect();
    for (m, bound) in spec.end_to_end.iter().zip(&bounds) {
        assert!(*bound > 0.0 && *bound <= 0.25, "{}: bound {bound}", m.name);
    }
    let setup = spec
        .end_to_end
        .iter()
        .position(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert!(spec.end_to_end[setup].unit == "s" && !spec.end_to_end[setup].higher_is_better);
    let widest = bounds.iter().copied().fold(0.0, f64::max);
    assert_eq!(bounds[setup], widest, "setup_s takes the largest bound");
    for w in doc.get("workloads").and_then(Json::as_array).unwrap() {
        let why = w.get("why").and_then(Json::as_str).unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'));
    }
}

/// Runs the binary from the package root and returns (success, stdout).
fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(BIN)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("the benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// Checks a contract result line: exactly the four keys, and exactly the
/// listed metrics, each finite and with its unit.
fn check_result_line(stdout: &str, listed: &[spec::Metric]) {
    let line = stdout.lines().next_back().expect("a result line");
    let doc = json::parse(line).expect("the last line is JSON");
    let keys: Vec<&str> = doc
        .members()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert!(doc.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
    let metrics = doc.get("metrics").and_then(Json::members).unwrap();
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = listed.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(printed, expected);
    for ((name, value), metric) in metrics.iter().zip(listed) {
        let v = value.get("value").and_then(Json::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{name}: {value:?}");
        assert_eq!(
            value.get("unit").and_then(Json::as_str),
            Some(metric.unit.as_str())
        );
    }
}

#[test]
fn a_quick_run_prints_exactly_the_listed_metrics() {
    let spec = Spec::load().unwrap();
    let t0 = Instant::now();
    let (ok, stdout) = run(&["--quick", "--trace", "1", "--seed", "5"]);
    assert!(ok, "quick run failed:\n{stdout}");
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "--quick took {:?}",
        t0.elapsed()
    );
    assert!(stdout.trim_end().ends_with("\"claim\": null"));

    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let results = std::fs::read_to_string(out.join("results-set1.json")).unwrap();
    let results = json::parse(&results).unwrap();
    let mut layer_seen: Vec<String> = Vec::new();
    for workload in &spec.workloads {
        let w = results
            .get("workloads")
            .and_then(|w| w.get(workload))
            .unwrap();
        assert_eq!(w.get("correct"), Some(&Json::Bool(true)), "{workload}");
        let e2e = w.get("end_to_end").and_then(Json::members).unwrap();
        let printed: Vec<&str> = e2e.iter().map(|(k, _)| k.as_str()).collect();
        let listed: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(printed, listed, "{workload}");
        for (name, values) in e2e {
            let values = values.as_array().unwrap();
            assert!(
                values.len() >= 3,
                "{workload}/{name}: fewer than three repeats"
            );
            for v in values {
                assert!(
                    v.as_f64().is_some_and(|x| x.is_finite() && x > 0.0),
                    "{workload}/{name}"
                );
            }
        }
        for (name, value) in w.get("per_layer").and_then(Json::members).unwrap() {
            assert!(
                spec.per_layer.iter().any(|m| m.name == *name),
                "{name} is not listed"
            );
            assert!(
                value.as_f64().is_some_and(f64::is_finite),
                "{workload}/{name}"
            );
            layer_seen.push(name.clone());
        }
        // Shares and the unattributed remainder sum to the traced wall.
        let shares: f64 = w
            .get("per_layer")
            .and_then(Json::members)
            .unwrap()
            .iter()
            .filter(|(k, _)| k.ends_with("_share"))
            .filter_map(|(_, v)| v.as_f64())
            .sum();
        assert!(
            (shares - 1.0).abs() < 1e-6,
            "{workload}: shares sum to {shares}"
        );

        let trace = std::fs::read_to_string(out.join(format!("trace-{workload}.json"))).unwrap();
        let spans = spans::validate_trace(&json::parse(&trace).unwrap()).unwrap();
        assert!(spans >= 3, "{workload}: {spans} spans");
    }
    // Every listed per-layer metric is measured by some workload; the
    // figures outside the quick selection are the one exception.
    for m in &spec.per_layer {
        let quick_skips = m.name.starts_with("bench.figure_share.");
        assert!(
            quick_skips || layer_seen.contains(&m.name),
            "{} is never measured",
            m.name
        );
    }
    one_workload_prints_the_contract_result_line(&spec);
}

/// Part of the quick-run test rather than a test of its own: both write
/// `out/trace-<workload>.json`, and tests run in parallel.
fn one_workload_prints_the_contract_result_line(spec: &Spec) {
    let base = [
        "--quick",
        "--workload",
        "tpcw_rubis_observed",
        "--seed",
        "5",
        "--seconds",
        "0",
    ];
    let (ok, stdout) = run(&[&base[..], &["--trace", "0"]].concat());
    assert!(ok, "{stdout}");
    check_result_line(&stdout, &spec.end_to_end);
    let (ok, stdout) = run(&[&base[..], &["--trace", "1"]].concat());
    assert!(ok, "{stdout}");
    check_result_line(&stdout, &spec.per_layer);
}

/// The run digest one untraced repeat reports.
fn digest_of(workload: &str, seed: &str) -> String {
    let (ok, stdout) = run(&[
        "--child",
        "plain",
        "--quick",
        "--workload",
        workload,
        "--seed",
        seed,
    ]);
    assert!(ok, "{workload} at seed {seed}:\n{stdout}");
    let doc = json::parse(stdout.lines().next_back().unwrap()).unwrap();
    doc.get("digest")
        .and_then(Json::as_str)
        .unwrap()
        .to_string()
}

#[test]
fn the_seed_drives_every_generated_input() {
    for workload in ["scale_point", "scale_write", "tpcw_rubis", "sweep_replay"] {
        let at_five = digest_of(workload, "5");
        assert_eq!(at_five, digest_of(workload, "5"), "{workload} repeats");
        assert_ne!(
            at_five,
            digest_of(workload, "6"),
            "{workload} ignores --seed"
        );
    }
    // The figures reproduce the paper's scenarios at seeds of their own.
    assert_eq!(digest_of("paper_suite", "5"), digest_of("paper_suite", "6"));
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--frobnicate"],
    ] {
        let (ok, stdout) = run(args);
        assert!(!ok && stdout.is_empty(), "{args:?}");
    }
}
