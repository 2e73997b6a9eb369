//! The simulator's benchmark: six workloads against the public APIs of
//! the workspace crates. See `benchmark/README.md` for what each
//! workload and metric is for.
//!
//! ```text
//! odlb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     One workload. The last stdout line is one JSON object with
//!     `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//!     metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! odlb-benchmark [--seed <n>] [--seconds <s>] [--repeats <r>]
//!                [--trace <0|1>] [--sets <k>] [--quick]
//!     Every workload; writes `benchmark/out/results-set<k>.json`, with
//!     the per-layer metrics too under `--trace 1`. `--sets 2` runs
//!     everything twice and compares the sets.
//! odlb-benchmark compare <a.json> <b.json>
//!     One row per (metric, workload) of two result files.
//! odlb-benchmark cliff <write-ramp|index-drop>
//!     Reproduces one of the two known cliffs the README records.
//! ```
//!
//! Every repeat of a workload runs in a child process of its own
//! (`--child`), single-threaded, so set-up and peak memory start from a
//! clean process each time. The parent spawns repeats until the timed
//! regions add up to `--seconds` (and at least `--repeats` have run) and
//! reports the median of the repeats.

mod cliffs;
mod compare;
mod json;
mod kernels;
mod spans;
mod spec;
mod stats;
mod workloads;

use json::Json;
use spec::Spec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{Ctx, Sizes};

/// The seed the README's numbers were measured with (12 is held out).
const DEFAULT_SEED: u64 = 11;
/// Fewest repeats a reported median may rest on.
const MIN_REPEATS: usize = 3;
/// A parent stops spawning repeats here, whatever `--seconds` says, to
/// stay inside the 180 s the driver gives one run.
const PARENT_BUDGET_S: f64 = 120.0;
/// glibc's initial `M_MMAP_THRESHOLD`, 128 KiB, pinned for every child
/// (see [`spawn_child`]).
const MALLOC_MMAP_THRESHOLD: &str = "131072";

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args, started) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("odlb-benchmark: {e}");
            2
        }
    };
    std::process::exit(code);
}

#[derive(Clone, Debug)]
struct Options {
    seed: u64,
    seconds: f64,
    repeats: usize,
    quick: bool,
}

fn run(args: &[String], started: Instant) -> Result<i32, String> {
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args else {
            return Err("usage: compare <a.json> <b.json>".to_string());
        };
        let spec = Spec::load()?;
        let report = compare::compare_files(&spec, Path::new(a), Path::new(b))?;
        print!("{}", report.text);
        return Ok(if report.exact_changed > 0 { 1 } else { 0 });
    }

    if let [cmd, name] = args {
        if cmd == "cliff" {
            return cliffs::run(name).map(|()| 0);
        }
    }

    let spec = Spec::load()?;
    let mut opts = Options {
        seed: DEFAULT_SEED,
        seconds: spec.run_seconds,
        repeats: MIN_REPEATS,
        quick: false,
    };
    let mut workload: Option<String> = None;
    let mut child: Option<String> = None;
    let mut trace = false;
    let mut sets = 1usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} requires {what}"));
        match arg.as_str() {
            "--workload" => workload = Some(value("a workload name")?),
            "--seed" => opts.seed = parse(&value("a number")?, "--seed")?,
            "--seconds" => opts.seconds = parse(&value("a number")?, "--seconds")?,
            "--repeats" => opts.repeats = parse(&value("a count")?, "--repeats")?,
            "--sets" => sets = parse(&value("a count")?, "--sets")?,
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--child" => child = Some(value("a mode")?),
            "--quick" => opts.quick = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !(opts.seconds >= 0.0 && opts.seconds <= 600.0) {
        return Err("--seconds must be between 0 and 600".to_string());
    }
    if opts.repeats < MIN_REPEATS {
        return Err(format!("--repeats must be at least {MIN_REPEATS}"));
    }
    if !(1..=2).contains(&sets) {
        return Err("--sets takes 1 or 2".to_string());
    }
    if let Some(w) = &workload {
        if !spec.workloads.contains(w) {
            return Err(format!(
                "unknown workload '{w}' (valid: {:?})",
                spec.workloads
            ));
        }
    }

    if let Some(mode) = child {
        let workload = workload.ok_or("--child needs --workload")?;
        return child_main(&workload, &mode, &opts, started).map(|()| 0);
    }
    match workload {
        Some(w) => contract_run(&spec, &w, &opts, trace),
        None => full_run(&spec, &opts, trace, sets),
    }
}

fn parse<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: cannot read '{text}'"))
}

/// `benchmark/out`, wherever the command is run from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn trace_path(out_dir: &Path, workload: &str) -> PathBuf {
    out_dir.join(format!("trace-{workload}.json"))
}

// ---------------------------------------------------------------------
// Child: one repeat
// ---------------------------------------------------------------------

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM line in /proc/self/status".to_string())
}

fn pairs_json(pairs: &[(String, f64)]) -> Json {
    Json::obj(pairs.iter().map(|(k, v)| (k.clone(), Json::Num(*v))))
}

/// Runs one repeat (`plain`, `traced`) or the layer kernels (`kernels`)
/// and prints one JSON line for the parent.
fn child_main(workload: &str, mode: &str, opts: &Options, started: Instant) -> Result<(), String> {
    let sizes = if opts.quick {
        Sizes::quick()
    } else {
        Sizes::full()
    };
    let out_dir = out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    if mode == "kernels" {
        let layer = kernels::run(workload, opts.seed, &sizes, opts.quick);
        println!("{}", Json::obj([("layer", pairs_json(&layer))]).render());
        return Ok(());
    }
    let traced = match mode {
        "plain" => false,
        "traced" => true,
        other => return Err(format!("unknown child mode '{other}'")),
    };
    let mut ctx = Ctx {
        seed: opts.seed,
        sizes,
        started,
        spans: traced.then(|| spans::Spans::new(format!("{workload}-seed{}", opts.seed))),
        out_dir: out_dir.clone(),
    };
    let rep = workloads::run(workload, &mut ctx)?;
    if let Some(spans) = &ctx.spans {
        let tails = rep.tails.iter().map(|(metric, tail)| {
            Json::obj([
                ("metric", Json::str(metric)),
                ("value", Json::Num(tail.value)),
                ("level", Json::Num(tail.level)),
                ("samples", Json::Num(tail.samples as f64)),
            ])
        });
        let path = trace_path(&out_dir, workload);
        std::fs::write(&path, spans.to_json(Json::Arr(tails.collect())).render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let line = Json::obj([
        ("setup_s", Json::Num(rep.setup_s)),
        ("timed_s", Json::Num(rep.timed_s)),
        ("work", Json::Num(rep.work as f64)),
        ("attempted", Json::Num(rep.attempted as f64)),
        ("failed", Json::Num(rep.failed as f64)),
        ("digest", Json::str(format!("{:016x}", rep.digest))),
        ("peak_rss_mb", Json::Num(peak_rss_mb()?)),
        ("exact", pairs_json(&rep.exact)),
        ("layer", pairs_json(&rep.layer)),
        (
            "notes",
            Json::Arr(rep.notes.iter().map(Json::str).collect()),
        ),
    ]);
    println!("{}", line.render());
    Ok(())
}

// ---------------------------------------------------------------------
// Parent: spawn repeats, check them against each other, aggregate
// ---------------------------------------------------------------------

#[derive(Clone, Debug, Default)]
struct ChildOut {
    setup_s: f64,
    timed_s: f64,
    work: f64,
    attempted: u64,
    failed: u64,
    digest: String,
    peak_rss_mb: f64,
    exact: Vec<(String, f64)>,
    layer: Vec<(String, f64)>,
    notes: Vec<String>,
}

impl ChildOut {
    fn work_per_sec(&self) -> f64 {
        self.work / self.timed_s
    }
}

fn median_rate(runs: &[ChildOut]) -> f64 {
    let rates: Vec<f64> = runs.iter().map(ChildOut::work_per_sec).collect();
    stats::median(&rates)
}

fn number_pairs(v: Option<&Json>) -> Vec<(String, f64)> {
    v.and_then(Json::members)
        .unwrap_or_default()
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect()
}

/// Spawns one child, waits for it, and reads its result line.
fn spawn_child(workload: &str, mode: &str, opts: &Options) -> Result<ChildOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--child", mode, "--workload", workload])
        .args(["--seed", &opts.seed.to_string()]);
    if opts.quick {
        cmd.arg("--quick");
    }
    // glibc raises its mmap threshold whenever a large block is freed, up
    // to 32 MiB, after which large buffers live on the brk heap and what
    // one scenario frees is not what the next one reuses: the heap of
    // `tpcw_rubis_observed` then grows from scenario to scenario, and one
    // seed peaked at 38, 44, 60 and 62 MiB in four runs. Naming the
    // threshold (at glibc's own starting value) switches the adjustment
    // off, so freed buffers go back to the system and peak RSS reads what
    // the program holds (36.2 MiB on each of those runs), not the
    // allocator's history.
    cmd.env("MALLOC_MMAP_THRESHOLD_", MALLOC_MMAP_THRESHOLD);
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child {workload}/{mode} exited with {}",
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .next_back()
        .ok_or(format!("child {workload}/{mode} printed nothing"))?;
    let doc = json::parse(line).map_err(|e| format!("child {workload}/{mode}: {e}"))?;
    let num = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    Ok(ChildOut {
        setup_s: num("setup_s"),
        timed_s: num("timed_s"),
        work: num("work"),
        attempted: num("attempted") as u64,
        failed: num("failed") as u64,
        digest: doc
            .get("digest")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
        peak_rss_mb: num("peak_rss_mb"),
        exact: number_pairs(doc.get("exact")),
        layer: number_pairs(doc.get("layer")),
        notes: doc
            .get("notes")
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|n| n.as_str().map(str::to_string))
            .collect(),
    })
}

/// One workload, measured: what the result line and the result file hold.
#[derive(Clone, Debug, Default)]
struct Measured {
    workload: String,
    attempted: u64,
    failed: u64,
    /// Checks between repeats that did not hold; any entry makes the
    /// workload incorrect.
    problems: Vec<String>,
    /// End-to-end metrics: one value per untraced repeat.
    end_to_end: Vec<(String, Vec<f64>)>,
    /// Simulated results and counts, exact for a seed.
    exact: Vec<(String, f64)>,
    /// Per-layer metrics (traced pass only).
    per_layer: Vec<(String, f64)>,
}

impl Measured {
    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Folds a batch of repeats into the totals and checks that their
    /// simulated results agree with `reference` (digest and exact
    /// values), which is how a nondeterministic run or an observer that
    /// perturbs the simulation gets caught.
    fn absorb(&mut self, what: &str, repeats: &[ChildOut], reference: &ChildOut) {
        for (i, r) in repeats.iter().enumerate() {
            self.attempted += r.attempted;
            let mut failed = r.failed;
            if r.digest != reference.digest {
                // Every interval of a run whose results differ is suspect.
                failed = r.attempted;
                self.problems.push(format!(
                    "{what} repeat {}: run digest {} differs from {}",
                    i + 1,
                    r.digest,
                    reference.digest
                ));
            }
            for (name, value) in &r.exact {
                let expected = reference.exact.iter().find(|(n, _)| n == name);
                if expected.is_some_and(|(_, e)| e != value) {
                    self.problems.push(format!(
                        "{what} repeat {}: {name} = {value} is not exact",
                        i + 1
                    ));
                }
            }
            self.failed += failed;
            self.problems.extend(
                r.notes
                    .iter()
                    .map(|n| format!("{what} repeat {}: {n}", i + 1)),
            );
        }
    }
}

/// Untraced repeats until the timed regions add up to `seconds` and at
/// least `min_repeats` have run.
fn plain_repeats(
    workload: &str,
    opts: &Options,
    min_repeats: usize,
    seconds: f64,
) -> Result<Vec<ChildOut>, String> {
    let t0 = Instant::now();
    let mut repeats = Vec::new();
    let mut timed = 0.0;
    while repeats.len() < min_repeats
        || (timed < seconds && t0.elapsed().as_secs_f64() < PARENT_BUDGET_S)
    {
        let r = spawn_child(workload, "plain", opts)?;
        timed += r.timed_s;
        repeats.push(r);
    }
    Ok(repeats)
}

/// Measures one workload. With `traced`, the per-layer pass follows the
/// untraced repeats: two traced repeats (spans, the program's profiler
/// and registry attached) and the layer kernels.
fn measure(
    workload: &str,
    opts: &Options,
    min_repeats: usize,
    seconds: f64,
    traced: bool,
) -> Result<Measured, String> {
    let plain = plain_repeats(workload, opts, min_repeats, seconds)?;
    let reference = plain[0].clone();
    let mut m = Measured {
        workload: workload.to_string(),
        exact: reference.exact.clone(),
        ..Default::default()
    };
    m.absorb("untraced", &plain, &reference);
    let values = |f: fn(&ChildOut) -> f64| plain.iter().map(f).collect::<Vec<f64>>();
    m.end_to_end = vec![
        ("setup_s".to_string(), values(|r| r.setup_s)),
        ("work_per_sec".to_string(), values(ChildOut::work_per_sec)),
        ("peak_rss_mb".to_string(), values(|r| r.peak_rss_mb)),
    ];
    let plain_rate = median_rate(&plain);

    // The observed run is the plain one with observers attached: same
    // inputs, so its simulated results must be the plain run's.
    let mut unobserved_rate = None;
    if workload == "tpcw_rubis_observed" {
        let count = if traced { 2 } else { 1 };
        let unobserved = (0..count)
            .map(|_| spawn_child("tpcw_rubis", "plain", opts))
            .collect::<Result<Vec<_>, _>>()?;
        // Only results both runs report are compared: the observed run
        // also counts its JSONL bytes.
        let mut expected = reference.clone();
        expected
            .exact
            .retain(|(n, _)| unobserved[0].exact.iter().any(|(u, _)| u == n));
        m.absorb("unobserved tpcw_rubis", &unobserved, &expected);
        unobserved_rate = Some(median_rate(&unobserved));
    }

    if traced {
        let traced_runs = (0..2)
            .map(|_| spawn_child(workload, "traced", opts))
            .collect::<Result<Vec<_>, _>>()?;
        // Observers must not move the simulation: the traced repeats are
        // held to the untraced digest, and to each other on the counts
        // only they can see.
        let mut expected = reference.clone();
        let traced_only = traced_runs[0]
            .exact
            .iter()
            .filter(|(n, _)| !reference.exact.iter().any(|(r, _)| r == n));
        expected.exact.extend(traced_only.cloned());
        m.absorb("traced", &traced_runs, &expected);
        m.exact = traced_runs[0].exact.clone();
        // The span file the last traced repeat left behind must parse,
        // every span's parent present.
        let path = trace_path(&out_dir(), workload);
        let checked = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| json::parse(&text))
            .and_then(|doc| spans::validate_trace(&doc));
        if let Err(e) = checked {
            m.problems.push(format!("{}: {e}", path.display()));
        }

        let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for r in &traced_runs {
            for (name, value) in &r.layer {
                samples.entry(name.clone()).or_default().push(*value);
            }
        }
        m.per_layer = samples
            .into_iter()
            .map(|(name, v)| (name, stats::median(&v)))
            .collect();
        m.per_layer
            .extend(spawn_child(workload, "kernels", opts)?.layer);
        m.per_layer.extend(m.exact.iter().cloned());
        m.per_layer.push((
            "harness.trace_overhead_pct".to_string(),
            100.0 * (plain_rate / median_rate(&traced_runs) - 1.0),
        ));
        if let Some(unobserved) = unobserved_rate {
            m.per_layer.push((
                "telemetry.observe_overhead_pct".to_string(),
                100.0 * (unobserved / plain_rate - 1.0),
            ));
        }
    }
    Ok(m)
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

/// Checks every value is finite and listed in `BENCHMARK.json`, and
/// returns the metrics object of a result line: every metric of `which`
/// by name, each with its unit. A per-layer metric the workload does not
/// exercise reads 0.
fn metrics_json(
    spec: &Spec,
    which: &[spec::Metric],
    values: &[(String, f64)],
) -> Result<Json, String> {
    for (name, value) in values {
        if spec.metric(name).is_none() {
            return Err(format!("metric '{name}' is not in BENCHMARK.json"));
        }
        if !value.is_finite() {
            return Err(format!("metric '{name}' is not finite: {value}"));
        }
    }
    Ok(Json::obj(which.iter().map(|metric| {
        let value = values
            .iter()
            .find(|(n, _)| *n == metric.name)
            .map_or(0.0, |(_, v)| *v);
        (
            metric.name.clone(),
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::str(&metric.unit)),
            ]),
        )
    })))
}

fn medians(end_to_end: &[(String, Vec<f64>)]) -> Vec<(String, f64)> {
    end_to_end
        .iter()
        .map(|(n, v)| (n.clone(), stats::median(v)))
        .collect()
}

/// Prints every metric of one measured workload by name, with its unit.
fn print_measured(spec: &Spec, m: &Measured) {
    let unit = |name: &str| spec.metric(name).map_or("?", |m| m.unit.as_str());
    println!(
        "{}: {} operations attempted, {} failed, {}",
        m.workload,
        m.attempted,
        m.failed,
        if m.correct() {
            "correct"
        } else {
            "NOT CORRECT"
        }
    );
    for p in &m.problems {
        println!("  problem: {p}");
    }
    for (name, v) in &m.end_to_end {
        let (lo, hi) = stats::range(v);
        println!(
            "  {name:<34} {:>16.4} {:<6} min {lo:.4} max {hi:.4} n={}",
            stats::median(v),
            unit(name),
            v.len()
        );
    }
    // In the order `BENCHMARK.json` lists them. An untraced run has no
    // per-layer pass, but its simulated results are always shown: they
    // are what a change to the simulator must leave as they are.
    let measured = if m.per_layer.is_empty() {
        println!("  simulated results, exact for the seed:");
        &m.exact
    } else {
        &m.per_layer
    };
    for metric in &spec.per_layer {
        if let Some((name, v)) = measured.iter().find(|(n, _)| *n == metric.name) {
            println!("  {name:<34} {v:>16.4} {}", metric.unit);
        }
    }
}

/// The driver's contract: one workload, one result line.
fn contract_run(spec: &Spec, workload: &str, opts: &Options, trace: bool) -> Result<i32, String> {
    let m = if trace {
        // The traced pass needs the untraced rate only to state the
        // tracing overhead; two repeats give it.
        measure(workload, opts, 2, 0.0, true)?
    } else {
        measure(workload, opts, opts.repeats, opts.seconds, false)?
    };
    print_measured(spec, &m);
    let metrics = if trace {
        metrics_json(spec, &spec.per_layer, &m.per_layer)?
    } else {
        metrics_json(spec, &spec.end_to_end, &medians(&m.end_to_end))?
    };
    let line = Json::obj([
        ("correct", Json::Bool(m.correct())),
        ("attempted", Json::Num(m.attempted.max(1) as f64)),
        ("failed", Json::Num(m.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
    Ok(if m.correct() { 0 } else { 1 })
}

fn measured_json(m: &Measured) -> Json {
    Json::obj([
        ("correct", Json::Bool(m.correct())),
        ("attempted", Json::Num(m.attempted as f64)),
        ("failed", Json::Num(m.failed as f64)),
        (
            "end_to_end",
            Json::obj(m.end_to_end.iter().map(|(n, v)| {
                (
                    n.clone(),
                    Json::Arr(v.iter().map(|x| Json::Num(*x)).collect()),
                )
            })),
        ),
        ("exact", pairs_json(&m.exact)),
        ("per_layer", pairs_json(&m.per_layer)),
    ])
}

/// Every workload, `sets` times over; writes one result file per set.
fn full_run(spec: &Spec, opts: &Options, traced: bool, sets: usize) -> Result<i32, String> {
    let out_dir = out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let seconds = if opts.quick { 0.0 } else { opts.seconds };
    let mut all_correct = true;
    let mut members = vec![Vec::new(); sets];
    for workload in &spec.workloads {
        // The sets of one workload run back to back: the box drifts in
        // speed over minutes, and sets compared with each other should
        // see the same box.
        for (set, members) in members.iter_mut().enumerate() {
            println!("== set {} of {sets}, seed {} ==", set + 1, opts.seed);
            let m = measure(workload, opts, opts.repeats, seconds, traced)?;
            // Same finiteness and naming checks as a result line.
            metrics_json(spec, &spec.end_to_end, &medians(&m.end_to_end))?;
            metrics_json(spec, &spec.per_layer, &m.per_layer)?;
            print_measured(spec, &m);
            all_correct &= m.correct();
            members.push((workload.clone(), measured_json(&m)));
        }
    }
    let mut files = Vec::new();
    for (set, members) in members.into_iter().enumerate() {
        let doc = Json::obj([
            ("seed", Json::Num(opts.seed as f64)),
            ("quick", Json::Bool(opts.quick)),
            ("workloads", Json::Obj(members)),
        ]);
        let path = out_dir.join(format!("results-set{}.json", set + 1));
        std::fs::write(&path, doc.render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        files.push(path);
    }
    let mut differences = 0;
    if let [a, b] = files.as_slice() {
        let report = compare::compare_files(spec, a, b)?;
        print!("{}", report.text);
        differences = report.regressed + report.unresolved + report.exact_changed;
    }
    println!("\"claim\": null");
    Ok(if all_correct && differences == 0 {
        0
    } else {
        1
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out(digest: &str, events: f64) -> ChildOut {
        ChildOut {
            attempted: 10,
            digest: digest.to_string(),
            exact: vec![("model.events".to_string(), events)],
            ..Default::default()
        }
    }

    #[test]
    fn a_differing_digest_fails_every_interval_of_that_repeat() {
        let reference = out("aa", 5.0);
        let mut m = Measured::default();
        m.absorb("untraced", &[out("aa", 5.0), out("bb", 5.0)], &reference);
        assert_eq!((m.attempted, m.failed), (20, 10));
        assert!(!m.correct());
        assert!(m.problems[0].contains("digest"));
    }

    #[test]
    fn an_inexact_count_is_a_problem_even_when_digests_agree() {
        let reference = out("aa", 5.0);
        let mut m = Measured::default();
        m.absorb("untraced", &[out("aa", 6.0)], &reference);
        assert_eq!(m.failed, 0);
        assert!(!m.correct());
    }

    #[test]
    fn result_lines_refuse_unknown_and_non_finite_metrics() {
        let spec = Spec::load().unwrap();
        let bad = [("no.such_metric".to_string(), 1.0)];
        assert!(metrics_json(&spec, &spec.per_layer, &bad).is_err());
        let nan = [("setup_s".to_string(), f64::NAN)];
        assert!(metrics_json(&spec, &spec.end_to_end, &nan).is_err());
        let ok = [("setup_s".to_string(), 1.5)];
        let line = metrics_json(&spec, &spec.end_to_end, &ok).unwrap();
        let names: Vec<&str> = line
            .members()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let listed: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, listed);
    }
}
