//! The figure-job registry behind the `experiments` binary.
//!
//! Every paper artifact (fig3–fig6, table1–table3, the ablations) is a
//! self-contained job: it owns an isolated simulation — its own
//! `EventQueue`, `SimRng`, tracer, and telemetry registry — and returns
//! a [`FigureOutput`] bundling its buffered stdout block, run digest
//! line, and trace/metrics artifact payloads instead of printing and
//! writing as it goes. [`run_suite`] dispatches the jobs onto the
//! ordered worker pool in [`crate::runner`]: figures may *execute* in
//! any order on any worker, but their outputs *commit* strictly in
//! canonical order, so a `--jobs N` run is byte-identical to a
//! sequential one. Parallelism lives entirely between simulations,
//! never inside one (see DESIGN.md, invariants catalogue).

use crate::experiments::*;
use crate::runner::{run_ordered, Job};
use odlb_telemetry::{SpanProfiler, Telemetry};
use odlb_trace::{DigestSink, JsonlSink};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One row of the figure table: everything the suite knows about a
/// figure/ablation — what `experiments --list` prints, what selects it,
/// and the job that runs it.
#[derive(Clone, Copy, Debug)]
pub struct FigureInfo {
    /// Registry name (the CLI selector).
    pub name: &'static str,
    /// Banner title / one-line description.
    pub title: &'static str,
    /// Runs with a tracer attached (prints a run-digest line).
    pub traced: bool,
    /// Included in the `all` selection (extras are CI-scale smoke runs
    /// and the capacity sweep).
    pub in_all: bool,
    /// Runs the figure and renders its stdout body. Paper-scale and
    /// miniature variants differ only in the arguments their rows pass.
    pub job: fn(&Observers) -> String,
}

/// The one figure table, in canonical commit order: the `all` figures
/// first, then the extras. [`ALL_FIGURES`], [`resolve`], [`render_list`],
/// the job dispatch and the CLI's valid-names text all derive from it —
/// adding a figure is one row here plus its module.
pub const REGISTRY: [FigureInfo; 16] = [
    FigureInfo {
        name: "fig5",
        title: "Fig. 5 — MRC of BestSeller (normal configuration); paper: acceptable 6982 pages",
        traced: false,
        in_all: true,
        job: |_| fig5::figure(),
    },
    FigureInfo {
        name: "fig6",
        title: "Fig. 6 — MRC of SearchItemsByRegion; paper: acceptable 7906 pages",
        traced: false,
        in_all: true,
        job: |_| fig6::figure(),
    },
    FigureInfo {
        name: "table1",
        title: "Table 1 — buffer pool management algorithms (index dropped)",
        traced: false,
        in_all: true,
        job: |_| table1::figure(),
    },
    FigureInfo {
        name: "fig3",
        title: "Fig. 3 — CPU saturation under sinusoid load",
        traced: true,
        in_all: true,
        job: |o| fig3::render(&fig3::run_observed(o, 64, 14, 50, 450, 4)),
    },
    FigureInfo {
        name: "fig4",
        title: "Fig. 4 — dropping the O_DATE index",
        traced: true,
        in_all: true,
        job: |o| fig4::render(&fig4::run_observed(o, 50, 12, 15)),
    },
    FigureInfo {
        name: "table2",
        title: "Table 2 — memory contention in a shared buffer pool",
        traced: false,
        in_all: true,
        job: |_| table2::figure(),
    },
    FigureInfo {
        name: "table3",
        title: "Table 3 — I/O contention among VM domains",
        traced: false,
        in_all: true,
        job: |_| table3::figure(),
    },
    FigureInfo {
        name: "ablation-fences",
        title: "Ablation A1 — fence multiplier sensitivity",
        traced: false,
        in_all: true,
        job: |_| ablations::figure_fences(),
    },
    FigureInfo {
        name: "ablation-weights",
        title: "Ablation A2 — impact weighting",
        traced: false,
        in_all: true,
        job: |_| ablations::figure_weights(),
    },
    FigureInfo {
        name: "ablation-coarse",
        title: "Ablation A3 — fine-grained vs coarse-grained vs CPU-only",
        traced: false,
        in_all: true,
        job: |_| ablations::figure_coarse(),
    },
    FigureInfo {
        name: "ablation-mrc-threshold",
        title: "Ablation A4 — MRC acceptability threshold vs BestSeller quota",
        traced: false,
        in_all: true,
        job: |_| ablations::figure_threshold(),
    },
    FigureInfo {
        name: "ablation-mrc-approx",
        title: "Ablation A5 — exact Mattson vs bucketed approximation",
        traced: false,
        in_all: true,
        job: |_| ablations::figure_tracker(),
    },
    FigureInfo {
        name: "ablation-mrc-sampled",
        title: "Ablation A6 — exact Mattson vs SHARDS-style sampled tracker",
        traced: false,
        in_all: true,
        job: |_| sampled::figure(),
    },
    FigureInfo {
        name: "fig3-mini",
        title: "Fig. 3 (miniature smoke run) — CPU saturation under sinusoid load",
        traced: true,
        in_all: false,
        job: |o| fig3::render(&fig3::run_observed(o, 30, 10, 30, 480, 3)),
    },
    FigureInfo {
        name: "fig-scale",
        title: "fig-scale — event hot-path scaling: 112 replicas, 1M resident sessions",
        traced: true,
        in_all: false,
        job: |o| {
            let points = [(16, 100_000, 2), (64, 400_000, 2), (112, 1_000_000, 3)];
            scale::render(&scale::run_observed(o, &points))
        },
    },
    FigureInfo {
        name: "fig-scale-mini",
        title: "fig-scale (miniature smoke run) — event hot-path scaling",
        traced: true,
        in_all: false,
        job: |o| scale::render(&scale::run_observed(o, &[(16, 10_000, 2), (32, 40_000, 2)])),
    },
];

/// The names of the registry rows whose `in_all` flag equals `in_all`,
/// in registry order; `N` must be their exact count.
const fn names_where<const N: usize>(in_all: bool) -> [&'static str; N] {
    let mut names = [""; N];
    let (mut row, mut n) = (0, 0);
    while row < REGISTRY.len() {
        if REGISTRY[row].in_all == in_all {
            names[n] = REGISTRY[row].name;
            n += 1;
        }
        row += 1;
    }
    assert!(n == N, "N must count the matching registry rows");
    names
}

/// Canonical figure order: what `all` runs, and the order outputs are
/// committed in at any job count.
pub const ALL_FIGURES: [&str; 13] = names_where(true);

/// Looks up a registry entry by name.
pub fn figure_info(name: &str) -> Option<&'static FigureInfo> {
    REGISTRY.iter().find(|i| i.name == name)
}

/// Renders the registry table behind `experiments --list`: one line per
/// figure/ablation with its traced flag and description, so
/// sweep matrices and CI selections can be authored against the real
/// registry.
pub fn render_list() -> String {
    let yn = |b: bool| if b { "yes" } else { "-" };
    let mut out = String::from("experiments registry (canonical commit order; extras last):\n\n");
    out.push_str(&format!(
        "{:<24} {:>6} {:>5}  description\n",
        "name", "traced", "all"
    ));
    for info in &REGISTRY {
        out.push_str(&format!(
            "{:<24} {:>6} {:>5}  {}\n",
            info.name,
            yn(info.traced),
            yn(info.in_all),
            info.title
        ));
    }
    out
}

/// Resolves a command-line selector into the figures it runs: `all`
/// expands to [`ALL_FIGURES`], any registry name (the extras included —
/// runs `all` does not cover) selects that figure. Unknown names resolve
/// to `None`.
pub fn resolve(arg: &str) -> Option<Vec<&'static str>> {
    if arg == "all" {
        return Some(ALL_FIGURES.to_vec());
    }
    figure_info(arg).map(|info| vec![info.name])
}

/// Shared settings for one suite invocation.
#[derive(Clone, Debug, Default)]
pub struct SuiteConfig {
    /// Worker threads; `1` (or a single-figure selection) runs and
    /// commits inline, which is exactly the sequential behaviour.
    pub jobs: usize,
    /// `--trace`: base path for the JSONL event stream, suffixed with
    /// `.<figure>` when more than one figure is selected.
    pub trace_path: Option<String>,
    /// `--metrics`: directory for `<figure>.prom` / `<figure>.csv`.
    pub metrics_dir: Option<String>,
    /// `--profile-folded`: attach a span profiler to instrumented figures
    /// even without `--metrics`, so the caller can merge and dump folded
    /// stacks.
    pub profile: bool,
}

/// Everything one figure produces, buffered so the caller can commit it
/// in canonical order regardless of execution order.
#[derive(Debug)]
pub struct FigureOutput {
    /// The figure's registry name (`fig3`, `table1`, …).
    pub name: &'static str,
    /// The complete stdout block, byte-identical to a sequential run.
    pub stdout: String,
    /// Artifact payloads to write at commit time: the trace JSONL and
    /// the `.prom`/`.csv` snapshots, with their destination paths.
    pub files: Vec<(PathBuf, Vec<u8>)>,
    /// The figure's controller-phase profile (instrumented figures
    /// only); the caller merges these into one suite-level report.
    pub profile: Option<SpanProfiler>,
    /// Wall-clock time the figure's job took to run (never in `stdout`).
    pub wall: Duration,
}

/// Runs `selection` on up to `cfg.jobs` workers, invoking `commit` once
/// per figure *in selection order* on the calling thread. Each job owns
/// an isolated simulation, so every [`FigureOutput`] — and therefore
/// everything the caller prints or writes — is byte-identical at any
/// job count.
pub fn run_suite(
    selection: &[&'static str],
    cfg: &SuiteConfig,
    mut commit: impl FnMut(FigureOutput),
) {
    let multiple = selection.len() > 1;
    let jobs: Vec<Job<FigureOutput>> = selection
        .iter()
        .map(|name| figure_job(name, cfg, multiple))
        .collect();
    run_ordered(jobs, cfg.jobs.max(1), move |_, out| commit(out));
}

/// The three-line figure banner, exactly as the sequential runner
/// printed it.
fn banner(title: &str) -> String {
    let bar = "=".repeat(78);
    format!("{bar}\n{title}\n{bar}\n")
}

/// Builds the job for one registry name (callers resolve names through
/// [`resolve`] first; an unknown name here is a programming error). A
/// traced figure runs with a digest (always), a buffered JSONL sink
/// (with `--trace`), and attached telemetry plus a profiler (with
/// `--metrics`); an untraced one is the same path with default
/// [`Observers`], no digest line and no artifacts.
fn figure_job(name: &str, cfg: &SuiteConfig, multiple: bool) -> Job<FigureOutput> {
    let info = figure_info(name).unwrap_or_else(|| panic!("figure '{name}' missing from REGISTRY"));
    let name = info.name;
    let cfg = if info.traced {
        cfg.clone()
    } else {
        SuiteConfig::default()
    };
    let trace_path = cfg
        .trace_path
        .map(|p| if multiple { format!("{p}.{name}") } else { p });
    Box::new(move || {
        let mut observers = Observers::default();
        let jsonl = trace_path
            .as_ref()
            .map(|_| observers.tracer.attach(JsonlSink::new(Vec::new())));
        let digest = info
            .traced
            .then(|| observers.tracer.attach(DigestSink::new()));
        if cfg.metrics_dir.is_some() {
            observers.telemetry = Telemetry::attached();
        }
        if cfg.metrics_dir.is_some() || cfg.profile {
            observers.profiler = Some(SpanProfiler::shared());
        }
        // Root spans: every path in the folded dumps starts
        // `experiments;<figure>;…`, so multi-figure merges stay
        // attributable per figure.
        let _suite = odlb_telemetry::enter_span(&observers.profiler, "experiments");
        let _figure = odlb_telemetry::enter_span(&observers.profiler, name);
        let start = Instant::now();
        let body = (info.job)(&observers);
        let wall = start.elapsed();
        // Close the roots before snapshotting: spans record on exit.
        drop(_figure);
        drop(_suite);

        let mut stdout = format!("{}{body}\n", banner(info.title));
        if let Some(digest) = digest {
            let d = digest.borrow();
            stdout.push_str(&format!(
                "{name} run digest: {:#018x} ({} events)\n\n",
                d.digest(),
                d.events()
            ));
        }
        let mut files = Vec::new();
        if let (Some(path), Some(sink)) = (trace_path, jsonl) {
            files.push((PathBuf::from(path), sink.borrow().writer().clone()));
        }
        if let Some(dir) = cfg.metrics_dir {
            let prom_path = Path::new(&dir).join(format!("{name}.prom"));
            let csv_path = Path::new(&dir).join(format!("{name}.csv"));
            let prom = observers.telemetry.render_prometheus().unwrap_or_default();
            let csv = observers.telemetry.render_csv().unwrap_or_default();
            stdout.push_str(&format!(
                "metrics: wrote {} and {}\n",
                prom_path.display(),
                csv_path.display()
            ));
            files.push((prom_path, prom.into_bytes()));
            files.push((csv_path, csv.into_bytes()));
        }
        FigureOutput {
            name,
            stdout,
            files,
            profile: observers.profiler.map(|p| p.borrow().clone()),
            wall,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Selectable figures that `all` does not include.
    const EXTRA_FIGURES: [&str; 3] = names_where(false);

    #[test]
    fn resolve_expands_all_in_canonical_order() {
        let all = resolve("all").unwrap();
        assert_eq!(all, ALL_FIGURES.to_vec());
    }

    #[test]
    fn render_list_covers_every_registry_row() {
        let list = render_list();
        for info in &REGISTRY {
            assert!(
                list.lines().any(|l| l.starts_with(info.name)),
                "{} row missing",
                info.name
            );
            assert!(list.contains(info.title), "{} title missing", info.name);
        }
    }

    #[test]
    fn resolve_accepts_every_registry_name_and_mini() {
        for name in ALL_FIGURES {
            assert_eq!(resolve(name).unwrap(), vec![name]);
        }
        for name in EXTRA_FIGURES {
            assert_eq!(resolve(name).unwrap(), vec![name]);
        }
        assert!(resolve("fig7").is_none());
        assert!(resolve("").is_none());
    }

    #[test]
    fn plain_figure_output_has_banner_and_trailing_blank() {
        let cfg = SuiteConfig {
            jobs: 1,
            ..Default::default()
        };
        let mut outputs = Vec::new();
        run_suite(&["ablation-mrc-threshold"], &cfg, |o| outputs.push(o));
        assert_eq!(outputs.len(), 1);
        let out = &outputs[0];
        assert_eq!(out.name, "ablation-mrc-threshold");
        assert!(out.stdout.starts_with(&"=".repeat(78)));
        assert!(out.stdout.contains("Ablation A4"));
        assert!(out.stdout.ends_with("\n\n"));
        assert!(out.files.is_empty());
        assert!(out.profile.is_none());
    }

    #[test]
    fn traced_figure_buffers_trace_and_metrics_payloads() {
        let cfg = SuiteConfig {
            jobs: 1,
            trace_path: Some("trace.jsonl".to_string()),
            metrics_dir: Some("metrics".to_string()),
            profile: false,
        };
        let mut outputs = Vec::new();
        run_suite(&["fig3-mini"], &cfg, |o| outputs.push(o));
        let out = outputs.pop().unwrap();
        assert!(out.stdout.contains("fig3-mini run digest: 0x"));
        assert!(out.stdout.contains("metrics: wrote"));
        // Single-figure selection: the trace path is not suffixed.
        let paths: Vec<String> = out
            .files
            .iter()
            .map(|(p, _)| p.display().to_string())
            .collect();
        assert_eq!(paths[0], "trace.jsonl");
        assert!(paths.contains(&format!(
            "metrics{}fig3-mini.prom",
            std::path::MAIN_SEPARATOR
        )));
        let (_, jsonl) = &out.files[0];
        assert!(!jsonl.is_empty(), "trace JSONL payload must be buffered");
        assert!(out.profile.is_some());
    }
}
