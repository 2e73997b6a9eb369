//! The discrete-event simulation driver.
//!
//! [`Simulation`] owns the whole testbed: physical servers (CPU stations +
//! domain-0 I/O paths), database instances (engines), per-application
//! schedulers and closed-loop client pools. It advances one *measurement
//! interval* at a time: [`Simulation::run_interval`] processes all events
//! up to the next interval boundary, closes every engine's statistics
//! interval, evaluates SLAs, and returns an [`IntervalOutcome`]. A
//! controller (the `odlb-core` crate or a baseline) then inspects the
//! outcome and applies actions — quotas, class placements, provisioning —
//! through the driver's mutation API before the next interval runs.
//! This mirrors the paper's decision managers acting between measurement
//! intervals.
//!
//! This file holds the state; the behaviour is one `impl Simulation`
//! block per job in the sub-modules: `actuator` (topology and the
//! controller-facing mutation API), `event_loop` (`run_interval` →
//! `handle` → `dispatch_spec` → `execute_on`), `interval` (interval
//! close), `export` (telemetry export at interval close) and `replay`
//! (pregenerated-schedule replay).

mod actuator;
mod event_loop;
mod export;
mod interval;
mod replay;
#[cfg(test)]
mod tests;

use crate::scheduler::Scheduler;
use crate::topology::InstanceId;
use odlb_engine::DbEngine;
use odlb_metrics::{AppId, IntervalReport, QueryLogRecord, ServerId, Sla, SlaOutcome};
use odlb_sim::{EventQueue, SimDuration, SimRng, SimTime};
use odlb_storage::{DomainId, PageId, SharedIoPath};
use odlb_telemetry::{SharedSpanProfiler, Telemetry};
use odlb_trace::Tracer;
use odlb_workload::{ClientPool, GeneratedSchedule, WorkloadSpec};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The measurement interval: SLA checks, signature refresh and diagnosis
/// happen once per interval (§3), and every figure counts time in them.
pub const MEASUREMENT_INTERVAL: SimDuration = SimDuration::from_secs(10);

/// Driver-level parameters.
#[derive(Clone, Copy, Debug)]
pub struct SimulationConfig {
    /// Root seed; every stochastic stream derives from it.
    pub seed: u64,
    /// How often client-pool sizes track the load function.
    pub load_update_interval: SimDuration,
    /// Instances per rack for the hierarchical interval close
    /// ([`crate::aggregate`]). `0` (the default) folds everything into
    /// one cluster-wide rack, which reproduces the historical flat
    /// aggregation bit for bit; large clusters set a real rack size so
    /// partial sums fold rack-by-rack.
    pub rack_size: usize,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            seed: 42,
            load_update_interval: SimDuration::from_secs(2),
            rack_size: 0,
        }
    }
}

/// The client parked beside a query no session waits on (a replica apply,
/// a replayed query). Client ids count up from zero per application, and
/// admission refuses to hand out this top value.
const NO_CLIENT: u32 = u32::MAX;

/// A queued event: 16 bytes, because every resident session holds one.
/// Applications, instances, clients and in-flight records travel as `u32`
/// indices.
#[derive(Clone)]
enum Event {
    ClientIssue {
        app: u32,
        client: u32,
    },
    QueryDone {
        app: u32,
        instance: u32,
        /// The query's parked record and client (see [`InFlight`]).
        record: u32,
    },
    ReplicaReady {
        app: u32,
        instance: u32,
    },
    LoadTick,
    /// Dispatch the next query of a replayed app's pregenerated
    /// schedule. One such event is in flight per replayed app; each
    /// dispatch chains the next.
    ReplayIssue {
        app: u32,
    },
}

/// The log records of the queries in flight, each beside its issuing
/// client or [`NO_CLIENT`], parked between dispatch and the `QueryDone`
/// that commits them, so the queue carries an index instead of 68 bytes.
/// Freed slots are reused first: the slab is as long as the most queries
/// ever in flight at once, not the number of resident sessions.
#[derive(Clone, Default)]
struct InFlight {
    records: Vec<(QueryLogRecord, u32)>,
    free: Vec<u32>,
}

impl InFlight {
    fn park(&mut self, record: QueryLogRecord, client: u32) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.records[slot as usize] = (record, client);
            return slot;
        }
        self.records.push((record, client));
        u32::try_from(self.records.len() - 1).expect("fewer than 2^32 queries in flight")
    }

    fn take(&mut self, slot: u32) -> (QueryLogRecord, u32) {
        self.free.push(slot);
        self.records[slot as usize]
    }

    fn live(&self) -> usize {
        self.records.len() - self.free.len()
    }
}

/// Cursor over a shared pregenerated schedule (see
/// [`Simulation::add_replayed_app`]). The schedule itself is behind an
/// `Arc` so many isolated simulations can replay one generation.
#[derive(Clone)]
struct ReplayState {
    schedule: Arc<GeneratedSchedule>,
    /// Index of the next query to dispatch.
    next: usize,
}

#[derive(Clone)]
struct ServerState {
    cpu: odlb_sim::Station,
    io: SharedIoPath,
}

#[derive(Clone)]
struct InstanceState {
    server: usize,
    domain: DomainId,
    engine: DbEngine,
    outstanding: usize,
    ready: bool,
    /// Permanently removed from service (never resurrected by an
    /// in-flight `ReplicaReady`).
    retired: bool,
}

#[derive(Clone)]
struct AppState {
    spec: WorkloadSpec,
    sla: Sla,
    clients: ClientPool,
    scheduler: Scheduler,
    rng: SimRng,
    /// Clients currently in their issue→complete→think loop.
    active_clients: usize,
    /// Desired number of clients (from the load function).
    target_clients: usize,
    /// Next client id to hand out.
    next_client: u32,
    /// Queries issued this interval (drives the `had_load` SLA input).
    offered_this_interval: u64,
    /// `Some` for apps replaying a pregenerated schedule instead of
    /// running the closed-loop client pool.
    replay: Option<ReplayState>,
}

/// Per-server utilisation over the closed interval.
#[derive(Clone, Copy, Debug)]
pub struct ServerSnapshot {
    /// Which server.
    pub server: ServerId,
    /// CPU utilisation in [0, 1].
    pub cpu_utilisation: f64,
    /// Disk (domain-0 back-end) utilisation in [0, 1].
    pub io_utilisation: f64,
}

/// Everything a controller needs about one closed measurement interval.
#[derive(Clone, Debug)]
pub struct IntervalOutcome {
    /// Interval start.
    pub start: SimTime,
    /// Interval end.
    pub end: SimTime,
    /// Per-instance interval reports (per-class metric vectors).
    pub reports: BTreeMap<InstanceId, IntervalReport>,
    /// Per-application mean latency (seconds) across its instances.
    pub app_latency: BTreeMap<AppId, Option<f64>>,
    /// Per-application throughput (queries/s) summed over instances.
    pub app_throughput: BTreeMap<AppId, f64>,
    /// Per-application SLA outcome.
    pub sla: BTreeMap<AppId, SlaOutcome>,
    /// Per-server vmstat-style utilisations.
    pub servers: Vec<ServerSnapshot>,
}

/// The simulated cluster.
pub struct Simulation {
    config: SimulationConfig,
    queue: EventQueue<Event>,
    in_flight: InFlight,
    servers: Vec<ServerState>,
    instances: Vec<InstanceState>,
    apps: Vec<AppState>,
    now: SimTime,
    last_tick: SimTime,
    started: bool,
    tracer: Tracer,
    telemetry: Telemetry,
    /// The exporter's handle cache: one registry lookup per series.
    series: export::SeriesCache,
    profiler: Option<SharedSpanProfiler>,
    interval_seq: u64,
    /// Recycled page buffer for sampled query specs: each issued query
    /// borrows it via [`WorkloadSpec::sample_query_into`] and hands it
    /// back after dispatch, so steady-state sampling never allocates.
    spec_pages: Vec<PageId>,
    /// Events dispatched since construction (events/sec accounting).
    events_processed: u64,
}

impl Simulation {
    /// Creates an empty cluster.
    pub fn new(config: SimulationConfig) -> Self {
        Simulation {
            config,
            queue: EventQueue::new(),
            in_flight: InFlight::default(),
            servers: Vec::new(),
            instances: Vec::new(),
            apps: Vec::new(),
            now: SimTime::ZERO,
            last_tick: SimTime::ZERO,
            started: false,
            tracer: Tracer::new(),
            telemetry: Telemetry::inactive(),
            series: export::SeriesCache::default(),
            profiler: None,
            interval_seq: 0,
            spec_pages: Vec::new(),
            events_processed: 0,
        }
    }

    /// Total events dispatched by the loop since construction — the
    /// numerator of the events/sec scaling benchmark.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Installs a decision-trace handle. The driver emits
    /// `interval_closed` and `sla_evaluated` events at the end of every
    /// measurement interval; a controller holding a clone of the same
    /// tracer emits the diagnosis and action events in between.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Installs a telemetry handle: every interval close then writes the
    /// series of `export` (per instance×class, pool, app, server, domain)
    /// and records one registry snapshot.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
        self.series = export::SeriesCache::default();
    }

    /// Installs a span profiler. The driver opens one `interval` span
    /// per [`Simulation::run_interval`] and an `engine_execute` span per
    /// dispatched query; existing and future engines and every server's
    /// I/O path share the same profiler, so their spans nest under the
    /// driver's. Observation-only: results, traces and artifacts are
    /// byte-identical with or without a profiler attached.
    pub fn set_profiler(&mut self, profiler: SharedSpanProfiler) {
        for inst in self.instances.iter_mut() {
            inst.engine.set_profiler(profiler.clone());
        }
        for srv in self.servers.iter_mut() {
            srv.io.set_profiler(profiler.clone());
        }
        self.profiler = Some(profiler);
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// A copy of the model — queue, in-flight queries, servers, engines,
    /// applications with their RNG streams and replay cursors, clock and
    /// counters — that runs on exactly as this simulation would. It
    /// carries no observers: a fresh inactive tracer, inactive telemetry,
    /// no profiler. (`Simulation` is not `Clone`: a clone would share
    /// those sinks.) Panics if a profiler or active telemetry is attached,
    /// since engines, pools and I/O paths hold clones of the profiler.
    pub fn fork(&self) -> Simulation {
        let observed = self.profiler.is_some() || self.telemetry.is_active();
        assert!(
            !observed,
            "cannot fork a simulation with a profiler or telemetry"
        );
        Simulation {
            queue: self.queue.clone(),
            in_flight: self.in_flight.clone(),
            servers: self.servers.clone(),
            instances: self.instances.clone(),
            apps: self.apps.clone(),
            now: self.now,
            last_tick: self.last_tick,
            started: self.started,
            interval_seq: self.interval_seq,
            events_processed: self.events_processed,
            ..Simulation::new(self.config)
        }
    }
}
