//! `experiments sweep` — the resumable parameter-matrix jobserver.
//!
//! A sweep turns a declarative matrix (seeds × replica counts × workload
//! mixes × MRC modes × controller variants, parsed from a small TOML
//! subset by [`parse_matrix`]) into cells that run on the ordered-commit
//! worker pool ([`crate::runner::run_ordered`]): cells *execute* in any
//! order on any worker but *commit* in canonical matrix order, so every
//! artifact is byte-identical at any `--jobs` count. Three layers make it
//! a jobserver rather than a for-loop:
//!
//! 1. **Content-addressed cells** — each cell's directory under
//!    `<out>/cells/` is named by the FNV-1a hash of its canonicalized
//!    config ([`CellConfig::canonical`]); a completed cell writes a
//!    `CELL_OK` manifest (canonical config, hash, run digest, row count,
//!    summary line). A restarted sweep validates manifests and skips every
//!    completed cell: interrupted studies resume in O(remaining).
//! 2. **Sharing by dependency** — each product is built once per key of
//!    exactly the config fields it reads, at three nested levels:
//!    - the open-loop **schedule** ([`odlb_workload::generate_schedule`])
//!      by [`CellConfig::schedule_key`]: seed, workload mix, clients,
//!      horizon;
//!    - the controller-free **prefix** (build, `start()`, intervals
//!      `0..=warmup`; the controller first acts on interval `warmup`'s
//!      outcome) by [`CellConfig::prefix_key`]: that plus replicas;
//!    - the **run** (the controller on the rest of the horizon) by
//!      [`CellConfig::run_key`]: that plus the controller, plus the MRC
//!      mode only for a [`ControllerBuild::ReadsMrc`] row. A
//!      [`ControllerBuild::MrcBlind`] row never sees the mode, so its
//!      cells under every mode are one run.
//!
//!    A job ([`jobs`]) is one schedule key's pending cells in
//!    first-appearance order. It generates the schedule once, runs one
//!    prefix per replica count and each distinct run on a
//!    [`Simulation::fork`] of its prefix (the prefix's last run on the
//!    prefix itself). A run yields per-interval values, a digest and an
//!    event count; every cell renders its own rows and summary from them.
//!    A job holds one schedule, one prefix and one fork at a time. With
//!    fewer schedule keys than workers, each key's cells are cut into
//!    chunks that build their own, so parallelism spans cells. With
//!    [`SweepOptions::memo`] off every job is one cell and nothing is
//!    shared — the differential oracle; byte-parity between the two paths
//!    is pinned by tests, and [`SweepOutcome::work`] counts what ran.
//! 3. **Deterministic merge** — `sweep.csv` (long format, one row per
//!    cell-interval) and `summary.txt` (one line per cell) are assembled
//!    from the on-disk cell artifacts in canonical order, so a resumed
//!    sweep reproduces an uninterrupted one byte for byte. A job commits
//!    its cells when it finishes, so a killed sweep re-runs the jobs in
//!    flight, at most one per worker.
//!
//! Simulated results never mix with wall-clock content: cell CSV rows and
//! manifests carry simulation-derived values only, while per-cell wall
//! clocks ride out of band in [`SweepOutcome`] (the `sweep_replay`
//! workload of `benchmark/` reads them).

use crate::runner::{run_ordered, Job};
use odlb_cluster::{IntervalOutcome, Simulation, SimulationConfig, MEASUREMENT_INTERVAL};
use odlb_core::{
    ClusterController, CoarseGrainedController, ControllerConfig, CpuOnlyController,
    SelectiveRetuningController, VmMigrationController,
};
use odlb_engine::EngineConfig;
use odlb_metrics::{AppId, Sla};
use odlb_mrc::MrcMode;
use odlb_sim::SimDuration;
use odlb_storage::DomainId;
use odlb_trace::{fnv1a64, DigestSink, Tracer};
use odlb_workload::rubis::{rubis_workload, RubisConfig};
use odlb_workload::synthetic::zipf_heavy_workload;
use odlb_workload::tpcw::{tpcw_workload, TpcwConfig};
use odlb_workload::{
    generate_schedule, ClientConfig, GeneratedSchedule, LoadFunction, ScheduleConfig, WorkloadSpec,
};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The load-update tick every cell (and schedule) runs on.
const TICK: SimDuration = SimDuration::from_secs(2);

/// Header of the merged long-format `sweep.csv`.
pub const CSV_HEADER: &str =
    "cell,seed,replicas,workload,mrc,controller,interval,latency_ms,throughput_qps,\
     sla_ok,actions,machines\n";

/// A workload mix a matrix may reference: its canonical spelling (what
/// configs, rows and summaries render) and its builder.
pub type WorkloadRow = (&'static str, fn() -> WorkloadSpec);

/// How a controller row builds its controller. A blind row never
/// sees the cell's MRC mode, so cells that differ only in it share one
/// run ([`CellConfig::run_key`]).
#[derive(Clone, Copy, Debug)]
pub enum ControllerBuild {
    /// Reads the MRC mode: the paper validates curves for selective
    /// retuning only (§3.3.2).
    ReadsMrc(fn(MrcMode) -> Box<dyn ClusterController>),
    /// Never reads a miss-ratio curve.
    MrcBlind(fn() -> Box<dyn ClusterController>),
}

impl ControllerBuild {
    fn build(self, mrc: MrcMode) -> Box<dyn ClusterController> {
        match self {
            ControllerBuild::ReadsMrc(build) => build(mrc),
            ControllerBuild::MrcBlind(build) => build(),
        }
    }
}

/// A controller variant a matrix may reference: its canonical spelling
/// and how it is built.
pub type ControllerRow = (&'static str, ControllerBuild);

/// The workload axis's values, one row each.
pub const WORKLOADS: &[WorkloadRow] = &[
    // TPC-W browsing mix.
    ("tpcw", || tpcw_workload(TpcwConfig::default())),
    // RUBiS bidding mix.
    ("rubis", || rubis_workload(RubisConfig::default())),
    // The generation-heavy synthetic Zipf join mix.
    ("zipf", zipf_heavy_workload),
];

/// The controller axis's values, one row each.
pub const CONTROLLERS: &[ControllerRow] = &[
    // The paper's selective retuning controller.
    (
        "selective",
        ControllerBuild::ReadsMrc(|mrc_mode| {
            Box::new(SelectiveRetuningController::new(ControllerConfig {
                mrc_mode,
            }))
        }),
    ),
    // CPU-trigger provisioning only.
    (
        "cpu-only",
        ControllerBuild::MrcBlind(|| Box::new(CpuOnlyController::new(0.85))),
    ),
    // Whole-application isolation.
    (
        "coarse",
        ControllerBuild::MrcBlind(|| Box::new(CoarseGrainedController::new())),
    ),
    // Live VM migration.
    (
        "vm-migration",
        ControllerBuild::MrcBlind(|| Box::new(VmMigrationController::new())),
    ),
];

/// The row of `table` named `s`; the error lists the valid names.
fn find_row<T: Copy>(
    what: &str,
    table: &[(&'static str, T)],
    s: &str,
) -> Result<(&'static str, T), String> {
    table.iter().copied().find(|row| row.0 == s).ok_or_else(|| {
        let valid: Vec<&str> = table.iter().map(|row| row.0).collect();
        format!("unknown {what} '{s}' (valid: {valid:?})")
    })
}

/// Parses `exact` or `sampled:<rate>`; the rate must be in `(0, 1]` and
/// spelled with at most the four decimals [`mrc_label`] keeps, so
/// distinct rates never share a label or a cell directory.
fn parse_mrc(s: &str) -> Result<MrcMode, String> {
    if s == "exact" {
        return Ok(MrcMode::Exact);
    }
    let rate = s
        .strip_prefix("sampled:")
        .and_then(|r| r.parse::<f64>().ok())
        .ok_or_else(|| format!("bad mrc '{s}' (exact | sampled:<rate>)"))?;
    if !(rate > 0.0 && rate <= 1.0) {
        return Err(format!("sampled rate {rate} outside (0, 1]"));
    }
    let mrc = MrcMode::Sampled { rate };
    let label = mrc_label(mrc);
    if label["sampled:".len()..].parse() != Ok(rate) {
        return Err(format!(
            "sampled rate {rate} does not survive its canonical spelling '{label}'"
        ));
    }
    Ok(mrc)
}

/// The canonical spelling of an MRC mode (stable under re-parsing; rates
/// rendered at fixed precision so hashing never sees float-formatting
/// drift).
fn mrc_label(mrc: MrcMode) -> String {
    match mrc {
        MrcMode::Exact => "exact".to_string(),
        MrcMode::Sampled { rate } => format!("sampled:{rate:.4}"),
    }
}

/// One parsed sweep matrix.
#[derive(Clone, Debug)]
pub struct MatrixSpec {
    /// Sweep name (labels bench records and the summary).
    pub name: String,
    /// Measurement intervals per cell.
    pub intervals: usize,
    /// Leading intervals during which the controller stays passive.
    pub warmup: usize,
    /// Offered load (constant client count).
    pub clients: usize,
    /// Seed axis.
    pub seeds: Vec<u64>,
    /// Replica-count axis (one instance per server).
    pub replicas: Vec<usize>,
    /// Workload-mix axis.
    pub workloads: Vec<WorkloadRow>,
    /// MRC-mode axis.
    pub mrc: Vec<MrcMode>,
    /// Controller axis.
    pub controllers: Vec<ControllerRow>,
}

/// One fully resolved cell of the matrix.
#[derive(Clone, Debug)]
pub struct CellConfig {
    /// Root seed (drives the schedule and the simulation).
    pub seed: u64,
    /// Servers, each hosting one replica instance.
    pub replicas: usize,
    /// Workload mix.
    pub workload: WorkloadRow,
    /// MRC tracker selection.
    pub mrc: MrcMode,
    /// Controller variant.
    pub controller: ControllerRow,
    /// Measurement intervals.
    pub intervals: usize,
    /// Passive warm-up intervals.
    pub warmup: usize,
    /// Offered load (clients).
    pub clients: usize,
}

impl CellConfig {
    /// The canonical config string: `key=value` pairs, keys sorted, one
    /// spelling per value. Equal configs hash equal; different configs
    /// differ textually.
    pub fn canonical(&self) -> String {
        format!(
            "clients={};controller={};intervals={};mrc={};replicas={};seed={};warmup={};workload={}",
            self.clients,
            self.controller.0,
            self.intervals,
            mrc_label(self.mrc),
            self.replicas,
            self.seed,
            self.warmup,
            self.workload.0,
        )
    }

    /// FNV-1a of the canonical config — the cell's content address.
    pub fn content_hash(&self) -> u64 {
        fnv1a64(self.canonical().as_bytes())
    }

    /// The cell directory name under `<out>/cells/`.
    pub fn dir_name(&self) -> String {
        format!("{:016x}", self.content_hash())
    }

    /// The schedule key: the workload plus exactly the fields
    /// [`schedule_config`] reads. Cells sharing it replay one schedule.
    fn schedule_key(&self) -> String {
        format!(
            "clients={};intervals={};seed={};workload={}",
            self.clients, self.intervals, self.seed, self.workload.0,
        )
    }

    /// The prefix key: the schedule key plus what [`run_prefix`] reads
    /// besides the schedule. Cells sharing it fork one controller-free
    /// prefix.
    fn prefix_key(&self) -> String {
        format!(
            "{};replicas={};warmup={}",
            self.schedule_key(),
            self.replicas,
            self.warmup
        )
    }

    /// The run key: the prefix key plus the controller, and the MRC mode
    /// only when the controller reads it. Cells sharing it are one
    /// simulation, rendered once per cell.
    fn run_key(&self) -> String {
        let mrc = match self.controller.1 {
            ControllerBuild::ReadsMrc(_) => mrc_label(self.mrc),
            ControllerBuild::MrcBlind(_) => "-".to_string(),
        };
        let controller = self.controller.0;
        format!("{};controller={controller};mrc={mrc}", self.prefix_key())
    }
}

/// Strips a `#` comment (quote-aware) and trims.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return line[..i].trim(),
            _ => {}
        }
    }
    line.trim()
}

/// Parses one TOML value from the subset the matrix format uses:
/// integers, `"strings"`, and flat arrays of either.
fn parse_values(key: &str, raw: &str) -> Result<Vec<String>, String> {
    let items: Vec<&str> = if let Some(inner) = raw.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or_else(|| format!("{key}: unterminated array"))?;
        inner
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect()
    } else {
        vec![raw]
    };
    items
        .into_iter()
        .map(|item| {
            if let Some(s) = item.strip_prefix('"') {
                s.strip_suffix('"')
                    .map(str::to_string)
                    .ok_or_else(|| format!("{key}: unterminated string {item}"))
            } else if item.chars().all(|c| c.is_ascii_digit()) && !item.is_empty() {
                Ok(item.to_string())
            } else {
                Err(format!("{key}: unsupported value '{item}'"))
            }
        })
        .collect()
}

fn int<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{key}: bad integer '{v}'"))
}

/// A sweep name becomes the `sweep-<name>/` output directory, so it must
/// stay one path component: `[A-Za-z0-9_-]+`.
fn sweep_name(v: &str) -> Result<String, String> {
    let ok = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b'-';
    if v.is_empty() || !v.bytes().all(ok) {
        return Err(format!("name '{v}' must match [A-Za-z0-9_-]+"));
    }
    Ok(v.to_string())
}

/// Parses every value of the axis `key`, which must have at least one.
fn axis<T>(
    key: &str,
    vals: &[String],
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    if vals.is_empty() {
        return Err(format!("axis '{key}' is empty"));
    }
    vals.iter().map(|v| parse(v)).collect()
}

/// Parses a sweep matrix from the TOML subset: top-level `key = value`
/// lines, `#` comments, integer/string scalars and flat arrays. Unknown
/// keys and section headers are errors — a typoed axis must not silently
/// produce the default matrix.
pub fn parse_matrix(text: &str) -> Result<MatrixSpec, String> {
    let mut spec = MatrixSpec {
        name: "sweep".to_string(),
        intervals: 6,
        warmup: 2,
        clients: 24,
        seeds: vec![42],
        replicas: vec![1],
        workloads: vec![WORKLOADS[0]],
        mrc: vec![MrcMode::Exact],
        controllers: vec![CONTROLLERS[0]],
    };
    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_comment(raw);
        if !line.is_empty() {
            set_key(&mut spec, line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        }
    }
    validate(&spec)?;
    Ok(spec)
}

/// Applies one non-empty `key = value` line to `spec`.
fn set_key(spec: &mut MatrixSpec, line: &str) -> Result<(), String> {
    if line.starts_with('[') {
        return Err("sections are not part of the matrix format; use top-level keys".to_string());
    }
    let (key, value) = line.split_once('=').ok_or("expected key = value")?;
    let (key, value) = (key.trim(), value.trim());
    let vals = parse_values(key, value)?;
    let single = || match &vals[..] {
        [v] => Ok(v.as_str()),
        _ => Err(format!("{key} takes one value")),
    };
    let usize_of = |v: &str| int::<usize>(key, v);
    match key {
        "name" => spec.name = sweep_name(single()?)?,
        "intervals" => spec.intervals = usize_of(single()?)?,
        "warmup" => spec.warmup = usize_of(single()?)?,
        "clients" => spec.clients = usize_of(single()?)?,
        "seeds" => spec.seeds = axis(key, &vals, |v| int(key, v))?,
        "replicas" => spec.replicas = axis(key, &vals, usize_of)?,
        "workloads" => spec.workloads = axis(key, &vals, |v| find_row("workload", WORKLOADS, v))?,
        "mrc" => spec.mrc = axis(key, &vals, parse_mrc)?,
        "controllers" => {
            spec.controllers = axis(key, &vals, |v| find_row("controller", CONTROLLERS, v))?
        }
        other => return Err(format!("unknown key '{other}'")),
    }
    Ok(())
}

fn validate(spec: &MatrixSpec) -> Result<(), String> {
    if spec.intervals == 0 {
        return Err("intervals must be at least 1".to_string());
    }
    if spec.warmup >= spec.intervals {
        return Err(format!(
            "warmup {} must be below intervals {}",
            spec.warmup, spec.intervals
        ));
    }
    if spec.clients == 0 {
        return Err("clients must be at least 1".to_string());
    }
    if spec.replicas.contains(&0) {
        return Err("replicas values must be at least 1".to_string());
    }
    Ok(())
}

/// Expands the matrix into cells in canonical order (seeds outermost,
/// controllers innermost) and drops exact-duplicate configs (repeated
/// axis values), reporting how many were dropped.
pub fn expand(spec: &MatrixSpec) -> (Vec<CellConfig>, usize) {
    let mut cells = Vec::new();
    let mut seen = BTreeMap::new();
    let mut duplicates = 0;
    for &seed in &spec.seeds {
        for &replicas in &spec.replicas {
            for &workload in &spec.workloads {
                for &mrc in &spec.mrc {
                    for &controller in &spec.controllers {
                        let cell = CellConfig {
                            seed,
                            replicas,
                            workload,
                            mrc,
                            controller,
                            intervals: spec.intervals,
                            warmup: spec.warmup,
                            clients: spec.clients,
                        };
                        if seen.insert(cell.canonical(), ()).is_some() {
                            duplicates += 1;
                        } else {
                            cells.push(cell);
                        }
                    }
                }
            }
        }
    }
    (cells, duplicates)
}

/// The schedule configuration of a cell — a pure function of its
/// [`CellConfig::schedule_key`] fields, so one schedule serves every
/// replica count and controller/MRC variant of a job.
fn schedule_config(cell: &CellConfig) -> ScheduleConfig {
    ScheduleConfig {
        seed: cell.seed,
        horizon: SimDuration::from_micros(MEASUREMENT_INTERVAL.as_micros() * cell.intervals as u64),
        load: LoadFunction::Constant(cell.clients),
        client: ClientConfig::default(),
        tick: TICK,
    }
}

/// Everything one executed cell produces. CSV rows and the summary line
/// derive from simulation state only; the wall clock rides separately.
struct CellResult {
    rows: String,
    digest: u64,
    events: u64,
    summary: String,
    wall: Duration,
}

/// What a prefix produced: its replayed app, the outcomes of intervals
/// `0..=warmup` and the trace digest so far.
struct Prefix {
    app: AppId,
    outcomes: Vec<IntervalOutcome>,
    digest: DigestSink,
}

/// One interval of a run, the values a `cell.csv` row renders.
struct IntervalRow {
    latency_ms: f64,
    tput: f64,
    ok: bool,
    actions: usize,
    machines: usize,
}

/// What one simulation past the prefix yields. Every cell sharing its
/// [`CellConfig::run_key`] renders its own rows and summary from it.
struct Run {
    intervals: Vec<IntervalRow>,
    digest: u64,
    events: u64,
}

/// Builds the cluster of `cell`'s prefix key, starts it and runs
/// intervals `0..=warmup`, which no controller touches: the controller
/// first acts on interval `warmup`'s outcome.
fn run_prefix(cell: &CellConfig, schedule: Arc<GeneratedSchedule>) -> (Simulation, Prefix) {
    let mut sim = Simulation::new(SimulationConfig {
        seed: cell.seed,
        ..Default::default()
    });
    let mut instances = Vec::with_capacity(cell.replicas);
    for _ in 0..cell.replicas {
        let server = sim.add_server(4);
        instances.push(sim.add_instance(server, DomainId(1), EngineConfig::default()));
    }
    let app = sim.add_replayed_app((cell.workload.1)(), Sla::one_second(), schedule);
    for inst in instances {
        sim.assign_replica(app, inst);
    }
    let tracer = Tracer::new();
    let digest = tracer.attach(DigestSink::new());
    sim.set_tracer(tracer);
    sim.start();
    let prefix = Prefix {
        app,
        outcomes: (0..=cell.warmup).map(|_| sim.run_interval()).collect(),
        digest: digest.borrow().clone(),
    };
    (sim, prefix)
}

/// Runs `cell`'s controller on `sim`, the state [`run_prefix`] left (or a
/// fork of it): the prefix's intervals come from its stored outcomes, the
/// rest from intervals `warmup + 1..` run here.
fn run_controller(cell: &CellConfig, mut sim: Simulation, prefix: &Prefix) -> Run {
    let app = prefix.app;
    // The digest continues the prefix's event stream.
    let tracer = Tracer::new();
    let digest = tracer.attach(prefix.digest.clone());
    sim.set_tracer(tracer.clone());
    let mut controller = cell.controller.1.build(cell.mrc);
    controller.set_tracer(tracer.clone());

    let mut intervals = Vec::with_capacity(cell.intervals);
    for interval in 0..cell.intervals {
        let outcome = (prefix.outcomes.get(interval))
            .map_or_else(|| Cow::Owned(sim.run_interval()), Cow::Borrowed);
        let actions = if interval >= cell.warmup {
            controller.on_interval(&mut sim, &outcome).len()
        } else {
            0
        };
        intervals.push(IntervalRow {
            latency_ms: outcome.app_latency[&app].map_or(f64::NAN, |l| l * 1e3),
            tput: outcome.app_throughput[&app],
            ok: !outcome.sla[&app].is_violation(),
            actions,
            machines: sim.replicas_of(app).len(),
        });
    }
    tracer.flush();
    let digest = digest.borrow().digest();
    Run {
        intervals,
        digest,
        events: sim.events_processed(),
    }
}

/// Renders `cell`'s `cell.csv` rows and summary line from `run`: only the
/// id and the `mrc` label set one cell of a run apart from another.
fn render(cell: &CellConfig, run: &Run, wall: Duration) -> CellResult {
    let id = cell.dir_name();
    let mrc = mrc_label(cell.mrc);
    let mut rows = String::new();
    let mut actions_total = 0usize;
    let mut sla_met = 0usize;
    let mut lat_weight = 0.0f64;
    let mut tput_sum = 0.0f64;
    for (interval, row) in run.intervals.iter().enumerate() {
        let &IntervalRow {
            latency_ms,
            tput,
            ok,
            actions,
            machines,
        } = row;
        actions_total += actions;
        sla_met += usize::from(ok);
        if interval >= cell.warmup && latency_ms.is_finite() {
            lat_weight += latency_ms * tput;
            tput_sum += tput;
        }
        rows.push_str(&format!(
            "{id},{},{},{},{mrc},{},{interval},{latency_ms:.3},{tput:.2},{},{actions},{machines}\n",
            cell.seed,
            cell.replicas,
            cell.workload.0,
            cell.controller.0,
            u8::from(ok),
        ));
    }
    let mean_lat = if tput_sum > 0.0 {
        lat_weight / tput_sum
    } else {
        f64::NAN
    };
    let measured = cell.intervals - cell.warmup;
    let summary = format!(
        "{id}  {:<12} {mrc:<14} {:>7.3} ms  {:>9.2} q/s  sla {sla_met}/{}  actions {actions_total:>3}  \
         digest {:#018x}",
        cell.controller.0,
        mean_lat,
        tput_sum / measured.max(1) as f64,
        cell.intervals,
        run.digest,
    );
    CellResult {
        rows,
        digest: run.digest,
        events: run.events,
        summary,
        wall,
    }
}

/// `items` grouped by `key`: groups in order of first appearance, items
/// in their order within each.
fn group_by<K: Ord>(items: &[usize], key: impl Fn(usize) -> K) -> Vec<Vec<usize>> {
    let mut slots = BTreeMap::new();
    let mut out: Vec<Vec<usize>> = Vec::new();
    for &item in items {
        let slot = *slots.entry(key(item)).or_insert(out.len());
        if slot == out.len() {
            out.push(Vec::new());
        }
        out[slot].push(item);
    }
    out
}

/// Splits `pending` (indices into `cells`, in order) into jobs: each
/// schedule key's pending cells in first-appearance order, or one cell
/// each with `memo` off. With fewer keys than `workers`, each key's
/// cells are cut into about `workers / keys` chunks, each with its own
/// schedule, so no worker idles for want of a key.
fn jobs(cells: &[CellConfig], pending: &[usize], memo: bool, workers: usize) -> Vec<Vec<usize>> {
    let out = if memo {
        group_by(pending, |i| cells[i].schedule_key())
    } else {
        pending.iter().map(|&i| vec![i]).collect()
    };
    let parts = (workers / out.len().max(1)).max(1);
    let chunks = out
        .iter()
        .flat_map(|job| job.chunks(job.len().div_ceil(parts)));
    chunks.map(<[usize]>::to_vec).collect()
}

/// What a sweep invocation simulated, counted out of band like
/// [`SweepOutcome::cell_walls`]. Forks are `runs - prefixes`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepWork {
    /// Open-loop schedules generated.
    pub schedules: usize,
    /// Controller-free prefixes run.
    pub prefixes: usize,
    /// Simulations past a prefix: one per distinct run key of a job.
    pub runs: usize,
}

/// Runs one job: the schedule once, each distinct prefix once, each
/// distinct run once on a fork of its prefix (a prefix's last run on the
/// prefix itself), and renders every cell from its run. Results come in
/// `job` order. A cell's wall clock runs from the previous cell's render,
/// so a run's first cell carries the run and whatever was built for it.
#[expect(
    clippy::disallowed_methods,
    reason = "per-cell wall clocks are the sweep's bench payload, carried out of \
              band in SweepOutcome; cell content hashes and merged artifacts are \
              derived from the canonical config and simulation clock only"
)]
fn run_job(job: &[CellConfig]) -> (Vec<CellResult>, SweepWork) {
    let mut since = Instant::now();
    let mut results: Vec<Option<CellResult>> = job.iter().map(|_| None).collect();
    let mut work = SweepWork {
        schedules: 1,
        ..SweepWork::default()
    };
    // The cells share their schedule key: any one builds the schedule.
    let first = job.first().expect("a job holds a cell");
    let schedule = Arc::new(generate_schedule(
        &(first.workload.1)(),
        &schedule_config(first),
    ));
    let positions: Vec<usize> = (0..job.len()).collect();
    for cells in group_by(&positions, |c| job[c].prefix_key()) {
        let (sim, prefix) = run_prefix(&job[cells[0]], Arc::clone(&schedule));
        let runs = group_by(&cells, |c| job[c].run_key());
        work.prefixes += 1;
        work.runs += runs.len();
        let mut finish = |twins: &[usize], run: Run| {
            for &c in twins {
                results[c] = Some(render(&job[c], &run, since.elapsed()));
                since = Instant::now();
            }
        };
        let (last, forked) = runs.split_last().expect("a prefix has a run");
        for twins in forked {
            finish(twins, run_controller(&job[twins[0]], sim.fork(), &prefix));
        }
        finish(last, run_controller(&job[last[0]], sim, &prefix));
    }
    let results = results.into_iter().map(|r| r.expect("every cell rendered"));
    (results.collect(), work)
}

/// How a sweep invocation should run.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Worker threads for cell execution.
    pub jobs: usize,
    /// Output directory (cells live under `<out>/cells/`).
    pub out_dir: PathBuf,
    /// Sharing: cells of one schedule key run as one job that builds
    /// each schedule, prefix and run once (`false` = every cell generates
    /// its own schedule and runs its own prefix and controller).
    pub memo: bool,
    /// Stop (gracefully, resumably) after this many cells committed.
    pub max_cells: Option<usize>,
}

/// What a sweep invocation produced.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Cells in the expanded (deduplicated) matrix.
    pub total_cells: usize,
    /// Exact-duplicate configs dropped during expansion.
    pub duplicates: usize,
    /// Cells skipped because a valid `CELL_OK` manifest existed.
    pub skipped: usize,
    /// Cells executed this invocation.
    pub ran: usize,
    /// True when `max_cells` stopped the sweep before completion (no
    /// merge is written; re-run to resume).
    pub interrupted: bool,
    /// Total simulated events across all cells (merged sweeps only).
    pub events: u64,
    /// Per-cell status lines in canonical order. Deterministic for a
    /// given starting state: no wall-clock content.
    pub log: String,
    /// Wall clock of every cell executed this invocation, keyed by cell
    /// directory name, in commit order. A run's first cell carries the
    /// run and the schedule and prefix built for it; its other cells only
    /// their rendering.
    pub cell_walls: Vec<(String, Duration)>,
    /// Schedules, prefixes and runs this invocation simulated.
    pub work: SweepWork,
    /// Path of the merged CSV (written unless interrupted).
    pub csv_path: PathBuf,
    /// Path of the merged summary table (written unless interrupted).
    pub summary_path: PathBuf,
}

/// Parsed-back fields of a `CELL_OK` manifest.
#[derive(Debug)]
struct Manifest {
    digest: u64,
    events: u64,
    summary: String,
}

fn manifest_text(cell: &CellConfig, res: &CellResult) -> String {
    format!(
        "canonical={}\nhash={}\ndigest={:#018x}\nevents={}\nrows={}\nsummary={}\n",
        cell.canonical(),
        cell.dir_name(),
        res.digest,
        res.events,
        cell.intervals,
        res.summary,
    )
}

/// Writes `bytes` to `path` through a sibling temp file and a rename, so
/// a killed sweep leaves the old file or the whole new one, never a
/// prefix.
fn write_atomic(path: &Path, bytes: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Reads and validates a cell's manifest. `None` means "not completed":
/// missing, cut short anywhere (every line, the last included, must end
/// in a newline), not UTF-8, rows not led by the cell's id, or written
/// for a different config (a content-hash collision in the directory
/// name would surface here as a canonical mismatch and force a re-run).
fn read_manifest(dir: &Path, cell: &CellConfig) -> Option<Manifest> {
    let text = std::fs::read_to_string(dir.join("CELL_OK")).ok()?;
    let text = text.strip_suffix('\n')?;
    let mut fields: BTreeMap<&str, &str> = BTreeMap::new();
    for line in text.lines() {
        let (k, v) = line.split_once('=')?;
        fields.insert(k, v);
    }
    if *fields.get("canonical")? != cell.canonical() || *fields.get("hash")? != cell.dir_name() {
        return None;
    }
    let rows: usize = fields.get("rows")?.parse().ok()?;
    let csv = std::fs::read_to_string(dir.join("cell.csv")).ok()?;
    let id = format!("{},", cell.dir_name());
    if !csv.ends_with('\n')
        || csv.lines().count() != rows
        || !csv.lines().all(|row| row.starts_with(&id))
    {
        return None;
    }
    let digest = fields.get("digest")?.strip_prefix("0x")?;
    Some(Manifest {
        digest: u64::from_str_radix(digest, 16).ok()?,
        events: fields.get("events")?.parse().ok()?,
        summary: fields.get("summary")?.to_string(),
    })
}

/// Runs (or resumes) a sweep. See the module docs for the layout and
/// guarantees; errors are I/O problems with the output directory.
pub fn run_sweep(spec: &MatrixSpec, opts: &SweepOptions) -> Result<SweepOutcome, String> {
    let (cells, duplicates) = expand(spec);
    let cells_dir = opts.out_dir.join("cells");
    std::fs::create_dir_all(&cells_dir)
        .map_err(|e| format!("{}: cannot create: {e}", cells_dir.display()))?;

    // Resume scan: a valid manifest marks a cell done.
    let mut done: Vec<Option<Manifest>> = cells
        .iter()
        .map(|c| read_manifest(&cells_dir.join(c.dir_name()), c))
        .collect();
    let skipped = done.iter().filter(|d| d.is_some()).count();
    let mut pending: Vec<usize> = (0..cells.len()).filter(|&i| done[i].is_none()).collect();
    let interrupted = opts.max_cells.is_some_and(|k| k < pending.len());
    if let Some(k) = opts.max_cells {
        pending.truncate(k);
    }

    let job_cells = jobs(&cells, &pending, opts.memo, opts.jobs.max(1));
    type JobResult = (Vec<CellResult>, SweepWork);
    let tasks: Vec<Job<JobResult>> = job_cells
        .iter()
        .map(|job| {
            let job: Vec<CellConfig> = job.iter().map(|&i| cells[i].clone()).collect();
            Box::new(move || run_job(&job)) as Job<JobResult>
        })
        .collect();

    let mut cell_walls = Vec::with_capacity(pending.len());
    let mut total_work = SweepWork::default();
    let mut ran_now = vec![false; cells.len()];
    let mut io_error: Option<String> = None;
    run_ordered(tasks, opts.jobs.max(1), |j, (results, work)| {
        total_work.schedules += work.schedules;
        total_work.prefixes += work.prefixes;
        total_work.runs += work.runs;
        for (&i, res) in job_cells[j].iter().zip(results) {
            if io_error.is_some() {
                return;
            }
            let dir = cells_dir.join(cells[i].dir_name());
            let commit = (|| -> std::io::Result<()> {
                std::fs::create_dir_all(&dir)?;
                write_atomic(&dir.join("cell.csv"), &res.rows)?;
                // The manifest is written last: its presence certifies the
                // cell, so a crash between the two writes re-runs the cell.
                write_atomic(&dir.join("CELL_OK"), &manifest_text(&cells[i], &res))
            })();
            if let Err(e) = commit {
                io_error = Some(format!("{}: cannot commit cell: {e}", dir.display()));
                return;
            }
            cell_walls.push((cells[i].dir_name(), res.wall));
            ran_now[i] = true;
            done[i] = Some(Manifest {
                digest: res.digest,
                events: res.events,
                summary: res.summary,
            });
        }
    });
    if let Some(e) = io_error {
        return Err(e);
    }

    // Status log, canonical order, no wall-clock content.
    let mut log = String::new();
    for (i, cell) in cells.iter().enumerate() {
        let state = match &done[i] {
            _ if ran_now[i] => "ran",
            Some(_) => "cached",
            None => "deferred",
        };
        let digest = done[i]
            .as_ref()
            .map_or("-".to_string(), |m| format!("{:#018x}", m.digest));
        log.push_str(&format!(
            "cell {} [{state:>8}] {}  digest {digest}\n",
            cell.dir_name(),
            cell.canonical(),
        ));
    }

    let mut outcome = SweepOutcome {
        total_cells: cells.len(),
        duplicates,
        skipped,
        ran: cell_walls.len(),
        interrupted,
        events: 0,
        log,
        cell_walls,
        work: total_work,
        csv_path: opts.out_dir.join("sweep.csv"),
        summary_path: opts.out_dir.join("summary.txt"),
    };
    if interrupted {
        return Ok(outcome);
    }

    // Deterministic merge: every artifact is read back from disk in
    // canonical cell order, so fresh, resumed and re-merged sweeps write
    // byte-identical files at any job count.
    let mut csv = String::from(CSV_HEADER);
    let mut summary = format!("sweep {}: {} cells\n", spec.name, cells.len());
    for cell in &cells {
        let dir = cells_dir.join(cell.dir_name());
        let manifest = read_manifest(&dir, cell)
            .ok_or_else(|| format!("{}: manifest vanished during merge", dir.display()))?;
        let rows = std::fs::read_to_string(dir.join("cell.csv"))
            .map_err(|e| format!("{}: cannot read cell.csv: {e}", dir.display()))?;
        csv.push_str(&rows);
        summary.push_str(&manifest.summary);
        summary.push('\n');
        outcome.events += manifest.events;
    }
    summary.push_str(&format!("total simulated events: {}\n", outcome.events));
    for (path, text) in [(&outcome.csv_path, csv), (&outcome.summary_path, summary)] {
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = r#"
        # controller comparison at two seeds
        name = "mini"
        intervals = 3
        warmup = 1
        clients = 6
        seeds = [1, 2]
        workloads = ["zipf"]
        controllers = ["selective", "coarse"]
    "#;

    #[test]
    fn parser_reads_the_subset_and_applies_defaults() {
        let m = parse_matrix(MINI).unwrap();
        assert_eq!(m.name, "mini");
        assert_eq!(m.intervals, 3);
        assert_eq!(m.warmup, 1);
        assert_eq!(m.clients, 6);
        assert_eq!(m.seeds, vec![1, 2]);
        assert_eq!(m.replicas, vec![1], "default axis");
        assert_eq!(m.mrc, vec![MrcMode::Exact], "default axis");
        // Rows compare by name: a builder's fn pointer has no stable identity.
        let workloads: Vec<&str> = m.workloads.iter().map(|r| r.0).collect();
        let controllers: Vec<&str> = m.controllers.iter().map(|r| r.0).collect();
        assert_eq!(
            (workloads, controllers),
            (vec!["zipf"], vec!["selective", "coarse"])
        );
        let (cells, dup) = expand(&m);
        assert_eq!(cells.len(), 4);
        assert_eq!(dup, 0);
    }

    #[test]
    fn parser_rejects_unknown_keys_sections_and_bad_values() {
        assert!(parse_matrix("bogus = 1")
            .unwrap_err()
            .contains("unknown key"));
        assert!(parse_matrix("[matrix]").unwrap_err().contains("sections"));
        assert!(parse_matrix("controllers = [\"tivoli\"]")
            .unwrap_err()
            .contains("unknown controller"));
        assert!(parse_matrix("workloads = [\"tpcc\"]")
            .unwrap_err()
            .contains("unknown workload"));
        assert!(parse_matrix("mrc = [\"sampled:2.0\"]")
            .unwrap_err()
            .contains("outside"));
        assert!(parse_matrix("intervals = 2\nwarmup = 2")
            .unwrap_err()
            .contains("warmup"));
        assert!(parse_matrix("seeds = []").unwrap_err().contains("empty"));
        // The bucketed tracker is no longer a mode; the error says what is.
        let err = parse_matrix("clients = 8\nmrc = [\"bucketed\"]").unwrap_err();
        assert!(err.starts_with("line 2: ") && err.contains("exact | sampled:<rate>"));
        // A name becomes `sweep-<name>/`: one path component only.
        for name in ["/../../tmp/x", "a/b", "..", "a b", ""] {
            let err = parse_matrix(&format!("name = \"{name}\"")).unwrap_err();
            assert!(err.starts_with("line 1: ") && err.contains("[A-Za-z0-9_-]+"));
        }
        assert_eq!(
            parse_matrix("name = \"ok_Name-1\"").unwrap().name,
            "ok_Name-1"
        );
        // Rates that alias (or vanish) at the canonical four decimals.
        for rate in ["0.10001", "0.10004", "0.00001"] {
            let err = parse_matrix(&format!("\nmrc = [\"sampled:{rate}\"]")).unwrap_err();
            assert!(err.starts_with("line 2: ") && err.contains("canonical spelling"));
        }
        assert!(parse_matrix("mrc = [\"sampled:0.1\", \"sampled:0.0125\"]").is_ok());
    }

    #[test]
    fn canonicalization_is_stable_and_discriminating() {
        let m = parse_matrix(MINI).unwrap();
        let (cells, _) = expand(&m);
        let canon: Vec<String> = cells.iter().map(|c| c.canonical()).collect();
        for (i, a) in canon.iter().enumerate() {
            for b in canon.iter().skip(i + 1) {
                assert_ne!(a, b, "distinct configs must canonicalise apart");
            }
        }
        // Re-parsing the same text yields identical hashes (cache keys
        // survive process restarts).
        let (again, _) = expand(&parse_matrix(MINI).unwrap());
        for (a, b) in cells.iter().zip(&again) {
            assert_eq!(a.content_hash(), b.content_hash());
            assert_eq!(a.dir_name().len(), 16);
        }
        // Sampled rates canonicalise at fixed precision.
        assert_eq!(
            mrc_label(parse_mrc("sampled:0.1").unwrap()),
            "sampled:0.1000"
        );
    }

    /// Row names are unique, and each parses back to its own row.
    #[test]
    fn row_names_are_unique_and_parse_back() {
        fn check<T: Copy>(what: &str, table: &[(&'static str, T)]) {
            for (i, row) in table.iter().enumerate() {
                assert!(table[..i].iter().all(|r| r.0 != row.0), "{what} {}", row.0);
                assert_eq!(find_row(what, table, row.0).map(|r| r.0), Ok(row.0));
            }
        }
        check("workload", WORKLOADS);
        check("controller", CONTROLLERS);
    }

    #[test]
    fn sharing_keys_follow_what_each_product_reads() {
        let base = CellConfig {
            seed: 1,
            replicas: 2,
            workload: WORKLOADS[0],
            mrc: MrcMode::Exact,
            controller: CONTROLLERS[0],
            intervals: 4,
            warmup: 1,
            clients: 10,
        };
        let with = |edit: fn(&mut CellConfig)| {
            let mut cell = base.clone();
            edit(&mut cell);
            cell
        };
        let sampled = with(|c| c.mrc = MrcMode::Sampled { rate: 0.1 });
        let coarse = with(|c| c.controller = CONTROLLERS[2]);
        let coarse_sampled = with(|c| {
            c.controller = CONTROLLERS[2];
            c.mrc = MrcMode::Sampled { rate: 0.1 };
        });
        let three = with(|c| c.replicas = 3);
        // Every variant is its own cell.
        for cell in [&sampled, &coarse, &coarse_sampled, &three] {
            assert_ne!(base.content_hash(), cell.content_hash());
        }
        // The schedule never reads replicas, controller or MRC mode ...
        for cell in [&sampled, &coarse_sampled, &three] {
            assert_eq!(base.schedule_key(), cell.schedule_key());
        }
        // ... the prefix reads replicas ...
        assert_eq!(base.prefix_key(), coarse_sampled.prefix_key());
        assert_ne!(base.prefix_key(), three.prefix_key());
        // ... and a run reads the MRC mode only through selective retuning.
        assert_ne!(base.run_key(), sampled.run_key());
        assert_ne!(base.run_key(), coarse.run_key());
        assert_eq!(coarse.run_key(), coarse_sampled.run_key());
    }

    /// The benchmark's matrix: 6 schedule keys × 16 cells.
    const BENCH: &str = "seeds = [11, 12]\nreplicas = [1, 3]\nmrc = [\"exact\", \"sampled:0.1\"]\n\
        workloads = [\"tpcw\", \"rubis\", \"zipf\"]\n\
        controllers = [\"selective\", \"cpu-only\", \"coarse\", \"vm-migration\"]";

    #[test]
    fn jobs_are_each_schedule_keys_pending_cells_in_first_appearance_order() {
        let (cells, _) = expand(&parse_matrix(BENCH).unwrap());
        let all: Vec<usize> = (0..cells.len()).collect();
        let sizes = |pending: &[usize], memo: bool, workers: usize| -> Vec<usize> {
            jobs(&cells, pending, memo, workers)
                .iter()
                .map(Vec::len)
                .collect()
        };
        assert_eq!(sizes(&all, true, 1), vec![16; 6]);
        // Seed 11's TPC-W cells at one replica, then at three.
        let tpcw: Vec<usize> = (0..8).chain(24..32).collect();
        assert_eq!(jobs(&cells, &all, true, 6)[0], tpcw);
        // `--max-cells 13` cuts the second job; the resume runs it first,
        // since its key appears first among the pending cells.
        assert_eq!(sizes(&all[..13], true, 1), vec![8, 5]);
        assert_eq!(sizes(&all[13..], true, 1), vec![11, 16, 8, 16, 16, 16]);
        // Memo off: every cell generates and runs its own prefix.
        assert_eq!(sizes(&all, false, 1), vec![1; 96]);
        // Fewer schedule keys than workers: each key's cells are cut in
        // chunks.
        assert_eq!(sizes(&all[..8], true, 3), vec![3, 3, 2]);
        assert_eq!(sizes(&all[..16], true, 8), vec![2; 8]);
        assert_eq!(jobs(&cells, &all[..16], true, 5).concat(), &all[..16]);
    }

    /// A temporary directory per tag, removed by the caller.
    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("odlb-sweep-{tag}-{}", std::process::id()))
    }

    fn sweep_into(spec: &MatrixSpec, dir: &Path, memo: bool) -> SweepOutcome {
        let opts = SweepOptions {
            jobs: 1,
            out_dir: dir.to_path_buf(),
            memo,
            max_cells: None,
        };
        run_sweep(spec, &opts).unwrap()
    }

    #[test]
    fn a_sweep_simulates_each_schedule_prefix_and_run_once() {
        // 16 cells: 1 schedule key, 2 prefix keys, and per prefix
        // selective under two MRC modes plus the three blind baselines.
        let m = parse_matrix(
            "intervals = 2\nwarmup = 0\nclients = 2\nreplicas = [1, 2]\n\
             workloads = [\"zipf\"]\nmrc = [\"exact\", \"sampled:0.1\"]\n\
             controllers = [\"selective\", \"cpu-only\", \"coarse\", \"vm-migration\"]",
        )
        .unwrap();
        let (shared_dir, cold_dir) = (temp_dir("shared"), temp_dir("cold"));
        let shared = sweep_into(&m, &shared_dir, true);
        let cold = sweep_into(&m, &cold_dir, false);
        assert_eq!((shared.ran, cold.ran), (16, 16));
        let count = |schedules, prefixes, runs| SweepWork {
            schedules,
            prefixes,
            runs,
        };
        assert_eq!(shared.work, count(1, 2, 10));
        assert_eq!(cold.work, count(16, 16, 16));
        for file in ["sweep.csv", "summary.txt"] {
            let read = |dir: &Path| std::fs::read(dir.join(file)).unwrap();
            assert_eq!(read(&shared_dir), read(&cold_dir), "{file}");
        }
        std::fs::remove_dir_all(&shared_dir).unwrap();
        std::fs::remove_dir_all(&cold_dir).unwrap();
    }

    /// A blind row's cells under two MRC modes, each simulated on its own
    /// (memo off), must agree on everything but the id and `mrc` columns:
    /// a baseline that starts reading MRC state fails here. 100 TPC-W
    /// clients on two replicas violate the SLA from the first interval,
    /// so every baseline is asked to act (VM migration does).
    #[test]
    fn mrc_blind_rows_do_not_move_with_the_mrc_mode() {
        let blind = CONTROLLERS
            .iter()
            .filter(|row| matches!(row.1, ControllerBuild::MrcBlind(_)));
        for row in blind {
            let m = parse_matrix(&format!(
                "intervals = 4\nwarmup = 1\nclients = 100\nreplicas = [2]\n\
                 workloads = [\"tpcw\"]\nmrc = [\"exact\", \"sampled:0.1\"]\n\
                 controllers = [\"{}\"]",
                row.0
            ))
            .unwrap();
            let dir = temp_dir(row.0);
            sweep_into(&m, &dir, false);
            let (cells, _) = expand(&m);
            let seen: Vec<(u64, Vec<String>)> = cells
                .iter()
                .map(|cell| {
                    let cell_dir = dir.join("cells").join(cell.dir_name());
                    let manifest = read_manifest(&cell_dir, cell).unwrap();
                    let csv = std::fs::read_to_string(cell_dir.join("cell.csv")).unwrap();
                    // Drop the `cell` and `mrc` columns.
                    let rows = csv.lines().map(|line| {
                        let cols: Vec<&str> = line.split(',').collect();
                        [&cols[1..4], &cols[5..]].concat().join(",")
                    });
                    (manifest.digest, rows.collect())
                })
                .collect();
            assert_eq!(seen[0], seen[1], "{} moved with the MRC mode", row.0);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn duplicate_axis_values_collapse() {
        let m = parse_matrix("seeds = [5, 5]\nintervals = 2\nwarmup = 0").unwrap();
        let (cells, dup) = expand(&m);
        assert_eq!(cells.len(), 1);
        assert_eq!(dup, 1);
    }

    #[test]
    fn manifest_round_trips_and_rejects_mismatches_and_cuts() {
        let m =
            parse_matrix("intervals = 2\nwarmup = 0\nclients = 2\nworkloads = [\"zipf\"]").unwrap();
        let (cells, _) = expand(&m);
        let cell = &cells[0];
        let id = cell.dir_name();
        let res = CellResult {
            rows: format!("{id},r1\n{id},r2\n"),
            digest: 0xdead_beef,
            events: 123,
            summary: "summary line".to_string(),
            wall: Duration::ZERO,
        };
        let dir = std::env::temp_dir().join(format!("odlb-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let text = manifest_text(cell, &res);
        write_atomic(&dir.join("cell.csv"), &res.rows).unwrap();
        write_atomic(&dir.join("CELL_OK"), &text).unwrap();
        assert!(!dir.join("CELL_OK.tmp").exists(), "temp file renamed away");
        let m = read_manifest(&dir, cell).expect("valid manifest");
        assert_eq!(m.digest, 0xdead_beef);
        assert_eq!(m.events, 123);
        assert_eq!(m.summary, "summary line");
        // A manifest cut at any byte is rejected, never half-read.
        for cut in 0..text.len() {
            std::fs::write(dir.join("CELL_OK"), &text[..cut]).unwrap();
            let read = read_manifest(&dir, cell);
            assert!(read.is_none(), "cut at byte {cut} parsed as {read:?}");
        }
        std::fs::write(dir.join("CELL_OK"), &text).unwrap();
        // A different config must not claim this cell.
        let mut other = cell.clone();
        other.seed += 1;
        assert!(read_manifest(&dir, &other).is_none());
        // So does a row file cut at any byte, inside the last row included,
        // or holding another cell's rows.
        for cut in 0..res.rows.len() {
            std::fs::write(dir.join("cell.csv"), &res.rows[..cut]).unwrap();
            assert!(read_manifest(&dir, cell).is_none(), "cell.csv cut at {cut}");
        }
        let foreign = res.rows.replace(&id, &other.dir_name());
        std::fs::write(dir.join("cell.csv"), foreign).unwrap();
        assert!(read_manifest(&dir, cell).is_none(), "another cell's rows");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
