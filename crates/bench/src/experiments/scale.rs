//! fig-scale — event hot-path scaling sweep (replicas × sessions).
//!
//! Not a paper figure: a capacity study of the reimplementation itself.
//! Each row runs an isolated cluster at a fixed (replica count, resident
//! session count) point on the timing-wheel event core, with the
//! hierarchical (rack → cluster) interval aggregation, and reports how
//! many events the driver dispatched. The top row is the headline
//! regime: **112 replicas with 1,000,000 concurrent sessions**, every
//! session resident in the event queue as a think-time or in-flight
//! event.
//!
//! The rendered table is fully deterministic (no wall-clock content), so
//! suite runs are byte-identical at any `--jobs` count; events/sec for
//! this regime is `work_per_sec` of the `scale_point` / `scale_write`
//! workloads in `benchmark/`.

use super::Observers;
use odlb_cluster::{Simulation, SimulationConfig};
use odlb_engine::EngineConfig;
use odlb_metrics::{AppId, ServerId, Sla};
use odlb_sim::SimDuration;
use odlb_storage::{DomainId, SpaceId};
use odlb_workload::{AccessPattern, ClientConfig, LoadFunction, QueryClassSpec, WorkloadSpec};

/// Applications per row; sessions and replicas split evenly across them.
const APPS: usize = 4;
/// Database instances per physical server.
const INSTANCES_PER_SERVER: usize = 4;
/// Instances per aggregation rack (hierarchical interval close).
const RACK_SIZE: usize = 16;

/// One (replicas, sessions) point of the sweep.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Database instances in the cluster.
    pub replicas: usize,
    /// Resident client sessions (cluster-wide).
    pub sessions: usize,
    /// Measurement intervals run.
    pub intervals: usize,
    /// Events the driver dispatched over the whole row.
    pub events: u64,
    /// Final-interval cluster throughput (queries/s, all apps).
    pub throughput: f64,
    /// Final-interval throughput-weighted mean latency (ms).
    pub latency_ms: f64,
}

/// The sweep, largest row last.
#[derive(Clone, Debug)]
pub struct ScaleResult {
    /// One row per (replicas, sessions) point.
    pub rows: Vec<ScaleRow>,
}

impl ScaleResult {
    /// Events dispatched across the whole sweep.
    pub fn total_events(&self) -> u64 {
        self.rows.iter().map(|r| r.events).sum()
    }
}

/// A deliberately cheap point-access workload: the sweep stresses the
/// *event core* (queue, routing, aggregation), not the storage model, so
/// queries touch one hot page and the per-query CPU is small. A thin
/// write slice keeps the read-one-write-all apply path exercised.
fn scale_workload(app: AppId) -> WorkloadSpec {
    let space = SpaceId(app.0);
    WorkloadSpec {
        name: format!("scale-{}", app.0),
        app,
        classes: vec![
            QueryClassSpec {
                name: "PointRead",
                sql: "SELECT v FROM kv WHERE k = ?",
                weight: 0.99,
                pattern: AccessPattern::UniformLookup {
                    space,
                    table_pages: 512,
                    count: 1,
                },
                cpu_base: SimDuration::from_micros(150),
                cpu_per_page: SimDuration::from_micros(20),
                is_write: false,
            },
            QueryClassSpec {
                name: "PointWrite",
                sql: "UPDATE kv SET v = ? WHERE k = ?",
                weight: 0.01,
                pattern: AccessPattern::UniformLookup {
                    space,
                    table_pages: 512,
                    count: 1,
                },
                cpu_base: SimDuration::from_micros(200),
                cpu_per_page: SimDuration::from_micros(25),
                is_write: true,
            },
        ],
    }
}

/// Builds one sweep point, not yet started: `replicas` instances (over
/// `replicas / INSTANCES_PER_SERVER` servers) and `sessions` resident
/// clients with ~200 s think times. Long think times are what make the
/// session count a *queue residency* figure: nearly every session sits
/// in the event queue as a pending `ClientIssue` at any instant.
pub fn cluster(seed: u64, replicas: usize, sessions: usize) -> Simulation {
    assert_eq!(replicas % (APPS * INSTANCES_PER_SERVER), 0);
    let mut sim = Simulation::new(SimulationConfig {
        seed,
        rack_size: RACK_SIZE,
        ..Default::default()
    });
    let servers = replicas / INSTANCES_PER_SERVER;
    for _ in 0..servers {
        // Plenty of cores and a wide stripe: the sweep must stay
        // event-core-bound, not model a saturated cluster.
        sim.add_server_with_disk(
            8,
            odlb_storage::DiskModel {
                positioning: SimDuration::from_micros(200),
                transfer_per_page: SimDuration::from_micros(20),
            },
        );
    }
    let engine = EngineConfig {
        pool_pages: 2_048,
        // Small MRC windows bound per-instance memory at 112 replicas.
        window_capacity: 8_192,
        ..Default::default()
    };
    let mut instances = Vec::with_capacity(replicas);
    for i in 0..replicas {
        let server = ServerId((i / INSTANCES_PER_SERVER) as u32);
        instances.push(sim.add_instance(server, DomainId(1), engine));
    }
    for a in 0..APPS {
        let app = sim.add_app(
            scale_workload(AppId(a as u32)),
            Sla::one_second(),
            ClientConfig {
                think_time_mean: SimDuration::from_secs(200),
                load_noise: 0.0,
            },
            LoadFunction::Constant(sessions / APPS),
        );
        // Each app owns an even share of the instances.
        let per_app = replicas / APPS;
        for &inst in &instances[a * per_app..(a + 1) * per_app] {
            sim.assign_replica(app, inst);
        }
    }
    sim
}

/// Runs one sweep point of [`cluster`] for `intervals` × 10 s
/// measurement intervals.
fn run_row(
    observers: &Observers,
    seed: u64,
    replicas: usize,
    sessions: usize,
    intervals: usize,
) -> ScaleRow {
    let mut sim = cluster(seed, replicas, sessions);
    observers.attach(&mut sim);
    sim.start();
    let mut throughput = 0.0;
    let mut latency_ms = 0.0;
    for _ in 0..intervals {
        let outcome = sim.run_interval();
        let mut lat_weight = 0.0;
        throughput = 0.0;
        for (app, tput) in &outcome.app_throughput {
            throughput += tput;
            if let Some(Some(lat)) = outcome.app_latency.get(app) {
                lat_weight += lat * tput;
            }
        }
        latency_ms = if throughput > 0.0 {
            lat_weight / throughput * 1e3
        } else {
            f64::NAN
        };
    }
    ScaleRow {
        replicas,
        sessions,
        intervals,
        events: sim.events_processed(),
        throughput,
        latency_ms,
    }
}

/// Runs one row per `(replicas, sessions, intervals)` point. Telemetry
/// and the profiler attach to the last (headline) row only, so the
/// metrics artifacts describe the largest regime.
pub fn run_observed(observers: &Observers, points: &[(usize, usize, usize)]) -> ScaleResult {
    let mut rows = Vec::with_capacity(points.len());
    for (i, &(replicas, sessions, intervals)) in points.iter().enumerate() {
        let row_observers = if i + 1 == points.len() {
            observers.clone()
        } else {
            Observers::traced(observers.tracer.clone())
        };
        rows.push(run_row(
            &row_observers,
            9_2026 + i as u64,
            replicas,
            sessions,
            intervals,
        ));
    }
    observers.tracer.flush();
    ScaleResult { rows }
}

/// Renders the sweep table. Deterministic by construction: event counts
/// and simulated metrics only, never wall-clock throughput.
pub fn render(r: &ScaleResult) -> String {
    let mut out = String::new();
    out.push_str("fig-scale: event hot-path scaling (timing wheel, hierarchical aggregation)\n");
    out.push_str(&format!(
        "{:>9}  {:>10}  {:>10}  {:>12}  {:>12}  {:>12}\n",
        "replicas", "sessions", "intervals", "events", "tput(q/s)", "latency(ms)"
    ));
    for row in &r.rows {
        out.push_str(&format!(
            "{:>9}  {:>10}  {:>10}  {:>12}  {:>12.0}  {:>12.3}\n",
            row.replicas, row.sessions, row.intervals, row.events, row.throughput, row.latency_ms
        ));
    }
    out.push_str(&format!(
        "\ntotal events dispatched: {}\n",
        r.total_events()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mini_sweep_is_deterministic_and_processes_every_session() {
        let mini = [(16, 10_000, 2), (32, 40_000, 2)];
        let a = run_observed(&Observers::default(), &mini);
        let b = run_observed(&Observers::default(), &mini);
        assert_eq!(render(&a), render(&b), "sweep must be run-to-run stable");
        for row in &a.rows {
            // Every session issues at least once in the first interval
            // (and completes), so events strictly exceed 2 × sessions.
            assert!(
                row.events > 2 * row.sessions as u64,
                "row {row:?} dispatched too few events"
            );
            assert!(row.throughput > 0.0);
            assert!(row.latency_ms.is_finite());
        }
    }
}
