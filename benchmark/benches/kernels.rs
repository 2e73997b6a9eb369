//! Layer kernels: one layer's public API driven directly, timed per
//! operation, on the workload's own query and page stream.
//!
//! A kernel isolates what a whole-simulation run mixes together: the
//! README lists, for each kernel, which end-to-end metric it should move
//! on which workload. Every timing is the median over [`BATCHES`]
//! batches of a fixed operation count; inputs come from the seed.

use crate::workloads::{scale_workload, Sizes};
use odlb_bufferpool::PartitionedPool;
use odlb_cluster::aggregate::aggregate_cluster;
use odlb_cluster::{InstanceId, Scheduler, Simulation, SimulationConfig};
use odlb_engine::{DbEngine, EngineConfig};
use odlb_metrics::{
    AppId, ClassId, ClassStatsCollector, IntervalReport, MetricVector, PrivateLogBuffer,
    QueryLogRecord, ServerId, Sla, WindowRegistry,
};
use odlb_mrc::{MattsonTracker, MrcMode, SampledTracker};
use odlb_outlier::{detect, OutlierConfig};
use odlb_sim::{EventQueue, SimDuration, SimRng, SimTime, Station};
use odlb_storage::{DiskModel, DomainId, IoKind, PageId, SharedIoPath};
use odlb_telemetry::{enter_span, SpanProfiler, Telemetry};
use odlb_trace::{DigestSink, JsonlSink, TraceEvent, Tracer};
use odlb_workload::tpcw::{tpcw_workload, TpcwConfig};
use odlb_workload::{
    generate_schedule, ClientConfig, GeneratedSchedule, LoadFunction, ScheduleConfig, WorkloadSpec,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 5;

/// The regime a workload puts the layers in.
struct Params {
    /// Events resident in the queue (one per session).
    resident: usize,
    /// Mean think time: how far ahead events are scheduled.
    think: SimDuration,
    /// The query and page stream.
    spec: WorkloadSpec,
    pool_pages: usize,
    window_capacity: usize,
    /// Replicas a query of one application is routed over.
    replicas: usize,
    /// Instances reporting at every interval close.
    instances: usize,
    rack_size: usize,
    /// Operations per batch.
    ops: usize,
}

fn params(workload: &str, sizes: &Sizes, quick: bool) -> Params {
    let ops = if quick { 2_000 } else { 50_000 };
    let scale = |sessions: usize, write_weight: f64| Params {
        resident: sessions,
        think: SimDuration::from_secs(200),
        spec: scale_workload(AppId(0), write_weight),
        pool_pages: 2_048,
        window_capacity: 8_192,
        replicas: sizes.scale_replicas / 4,
        instances: sizes.scale_replicas,
        rack_size: 16,
        ops,
    };
    match workload {
        "scale_point" => scale(sizes.scale_point_sessions, 0.01),
        "scale_write" => scale(sizes.scale_write_sessions, 0.20),
        // The paged regime: TPC-W's stream against the default engine.
        // `paper_suite` mostly runs this mix; `sweep_replay` runs it at
        // up to three replicas.
        _ => Params {
            resident: if workload == "sweep_replay" {
                sizes.sweep_clients
            } else {
                125
            },
            think: ClientConfig::default().think_time_mean,
            spec: tpcw_workload(TpcwConfig::default()),
            pool_pages: 8_192,
            window_capacity: if quick { 8_192 } else { 100_000 },
            replicas: if workload == "sweep_replay" { 3 } else { 2 },
            instances: if workload == "sweep_replay" { 3 } else { 2 },
            rack_size: 0,
            ops,
        },
    }
}

/// Median nanoseconds per operation over [`BATCHES`] batches; `f` runs
/// one batch of `ops` operations.
fn ns_per_op(ops: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    crate::stats::median(&samples)
}

/// Median milliseconds of one call of `f`.
fn ms_per_call(mut f: impl FnMut()) -> f64 {
    ns_per_op(1, &mut f) / 1e6
}

/// A short run of the workload's cluster shape with telemetry attached:
/// its interval reports feed the aggregation and detection kernels, its
/// registry the export kernels.
fn capture(p: &Params, seed: u64) -> (Vec<BTreeMap<InstanceId, IntervalReport>>, Telemetry) {
    let mut sim = Simulation::new(SimulationConfig {
        seed,
        rack_size: p.rack_size,
        ..Default::default()
    });
    let engine = EngineConfig {
        pool_pages: p.pool_pages,
        window_capacity: p.window_capacity.min(8_192),
        ..Default::default()
    };
    let instances: Vec<InstanceId> = (0..p.instances)
        .map(|i| {
            if i % 4 == 0 {
                sim.add_server(8);
            }
            sim.add_instance(ServerId((i / 4) as u32), DomainId(1), engine)
        })
        .collect();
    // One application per `replicas` instances, as the workloads assign.
    for (a, group) in instances.chunks(p.replicas.max(1)).enumerate() {
        let mut spec = p.spec.clone();
        spec.app = AppId(a as u32);
        let app = sim.add_app(
            spec,
            Sla::one_second(),
            ClientConfig::default(),
            LoadFunction::Constant(20),
        );
        for &inst in group {
            sim.assign_replica(app, inst);
        }
    }
    let telemetry = Telemetry::attached();
    sim.set_telemetry(telemetry.clone());
    sim.start();
    let reports = (0..3).map(|_| sim.run_interval().reports).collect();
    (reports, telemetry)
}

/// Every page the schedule touches, in order, with its query's class.
fn page_stream(spec: &WorkloadSpec, schedule: &GeneratedSchedule) -> Vec<(ClassId, PageId)> {
    schedule
        .queries
        .iter()
        .enumerate()
        .flat_map(|(i, q)| {
            let class = spec.class_id(q.class as usize);
            schedule.pages_of(i).iter().map(move |&p| (class, p))
        })
        .collect()
}

pub fn run(workload: &str, seed: u64, sizes: &Sizes, quick: bool) -> Vec<(String, f64)> {
    let p = params(workload, sizes, quick);
    let ops = p.ops;
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| out.push((name.to_string(), value));
    let mut rng = SimRng::new(seed).split(77);
    let think_us = p.think.as_micros() as f64;

    // ---- sim -----------------------------------------------------------
    {
        // The session ramp: one load tick admits every session, each
        // staggered uniformly inside the 2 s tick.
        let tick_us = SimulationConfig::default().load_update_interval.as_micros();
        let stamps: Vec<SimTime> = (0..p.resident)
            .map(|_| SimTime::from_micros(rng.below(tick_us)))
            .collect();
        let fills = ops.div_ceil(p.resident);
        put(
            "sim.queue_ramp_ns",
            ns_per_op(fills * p.resident, || {
                for _ in 0..fills {
                    let mut q = EventQueue::new();
                    for (i, &t) in stamps.iter().enumerate() {
                        q.schedule(t, i as u64);
                    }
                    black_box(q.len());
                }
            }),
        );
        // Steady state: every pop reschedules its session one think time
        // out, at the workload's resident depth.
        let mut q = EventQueue::new();
        for i in 0..p.resident {
            q.schedule(
                SimTime::from_micros(rng.exponential(think_us) as u64),
                i as u64,
            );
        }
        let delays: Vec<SimDuration> = (0..ops)
            .map(|_| SimDuration::from_micros(rng.exponential(think_us) as u64))
            .collect();
        put(
            "sim.queue_hold_ns",
            ns_per_op(ops, || {
                for d in &delays {
                    let (t, session) = q.pop().expect("queue stays resident");
                    q.schedule(t + *d, black_box(session));
                }
            }),
        );
        let mut cpu = Station::new(8);
        let mut now = SimTime::ZERO;
        put(
            "sim.station_submit_ns",
            ns_per_op(ops, || {
                for _ in 0..ops {
                    now += SimDuration::from_micros(25);
                    black_box(cpu.submit(now, SimDuration::from_micros(170)));
                }
            }),
        );
    }

    // ---- workload ------------------------------------------------------
    {
        let mut buf = Vec::new();
        put(
            "workload.sample_ns",
            ns_per_op(ops, || {
                for _ in 0..ops {
                    let q = p.spec.sample_query_into(&mut rng, std::mem::take(&mut buf));
                    buf = black_box(q).pages;
                }
            }),
        );
    }
    let schedule_cfg = ScheduleConfig {
        seed,
        horizon: SimDuration::from_secs(if quick { 10 } else { 60 }),
        load: LoadFunction::Constant(24),
        client: ClientConfig::default(),
        tick: SimulationConfig::default().load_update_interval,
    };
    let schedule = generate_schedule(&p.spec, &schedule_cfg);
    put(
        "workload.schedule_gen_ns",
        ns_per_op(schedule.len().max(1), || {
            black_box(generate_schedule(&p.spec, &schedule_cfg));
        }),
    );
    let stream = page_stream(&p.spec, &schedule);
    assert!(!stream.is_empty(), "the schedule touches pages");
    let stream_ops = stream.len().min(ops * 4);
    let stream = &stream[..stream_ops];

    // ---- storage -------------------------------------------------------
    {
        let mut io = SharedIoPath::new(DiskModel::default());
        let mut now = SimTime::ZERO;
        put(
            "storage.read_ns",
            ns_per_op(ops, || {
                for _ in 0..ops {
                    now += SimDuration::from_millis(10);
                    black_box(io.read(DomainId(1), now, IoKind::Random, 1, false));
                }
            }),
        );
    }

    // ---- bufferpool ----------------------------------------------------
    {
        let mut pool = PartitionedPool::new(p.pool_pages);
        put(
            "bufferpool.access_ns",
            ns_per_op(stream_ops, || {
                for &(class, page) in stream {
                    black_box(pool.access(class, page));
                }
            }),
        );
    }

    // ---- mrc -----------------------------------------------------------
    {
        let mut exact = MattsonTracker::new(p.pool_pages);
        put(
            "mrc.exact_access_ns",
            ns_per_op(stream_ops, || {
                for &(_, page) in stream {
                    black_box(exact.access(page));
                }
            }),
        );
        let mut sampled = SampledTracker::new(p.pool_pages, 0.1);
        put(
            "mrc.sampled_access_ns",
            ns_per_op(stream_ops, || {
                for &(_, page) in stream {
                    black_box(sampled.access(page));
                }
            }),
        );
        // A controller recompute: one class's full access window.
        let mut window = odlb_metrics::AccessWindow::new(p.window_capacity);
        for &(_, page) in stream.iter().cycle().take(p.window_capacity) {
            window.push(page);
        }
        put(
            "mrc.recompute_ms",
            ms_per_call(|| {
                black_box(window.compute_mrc_with(MrcMode::Exact, p.pool_pages));
            }),
        );
    }

    // ---- metrics -------------------------------------------------------
    {
        let classes = p.spec.class_ids();
        let records: Vec<QueryLogRecord> = (0..ops)
            .map(|i| QueryLogRecord {
                class: classes[i % classes.len()],
                completed_at: SimTime::from_micros(i as u64),
                latency: SimDuration::from_micros(500 + (i % 97) as u64),
                page_accesses: 12,
                buffer_misses: (i % 3) as u64,
                io_requests: (i % 3) as u64,
                readaheads: 0,
                lock_wait: SimDuration::ZERO,
            })
            .collect();
        // The engine's commit path: private log buffer, batch into the
        // collector, hand the batch back.
        let mut logbuf = PrivateLogBuffer::new(EngineConfig::default().logbuf_capacity);
        let mut collector = ClassStatsCollector::new(SimTime::ZERO);
        put(
            "metrics.record_ns",
            ns_per_op(ops, || {
                for r in &records {
                    if let Some(batch) = logbuf.log(*r) {
                        collector.record_batch(&batch);
                        logbuf.recycle(batch);
                    }
                }
            }),
        );
        put(
            "metrics.logbuf_flushes",
            logbuf.flushes() as f64 / BATCHES as f64,
        );
        // One close per reporting instance, every class populated.
        let mut end = SimTime::ZERO;
        let closes = if quick { 20 } else { 200 };
        let mut close_ns = Vec::with_capacity(closes);
        for _ in 0..closes {
            for r in &records[..classes.len() * 4] {
                collector.record(r);
            }
            end += SimDuration::from_secs(10);
            let t0 = Instant::now();
            black_box(collector.close_interval(end));
            close_ns.push(t0.elapsed().as_nanos() as f64);
        }
        put("metrics.close_ns", crate::stats::median(&close_ns));
        let mut windows = WindowRegistry::new(p.window_capacity);
        put(
            "metrics.window_push_ns",
            ns_per_op(stream_ops, || {
                for &(class, page) in stream {
                    windows.push(class, page);
                }
            }),
        );
    }

    // ---- cluster / outlier / telemetry on captured reports ---------------
    let (captured, telemetry) = capture(&p, seed);
    let last = captured.last().expect("three intervals");
    {
        let calls = (ops / p.instances.max(1)).clamp(10, 2_000);
        put(
            "cluster.aggregate_ns",
            ns_per_op(calls, || {
                for _ in 0..calls {
                    black_box(aggregate_cluster(last, p.rack_size));
                }
            }),
        );
        let (current, stable): (
            BTreeMap<ClassId, MetricVector>,
            BTreeMap<ClassId, MetricVector>,
        ) = {
            let first = captured.first().expect("three intervals");
            let of = |reports: &BTreeMap<InstanceId, IntervalReport>| {
                reports
                    .values()
                    .next()
                    .map(|r| r.per_class.clone())
                    .unwrap_or_default()
            };
            (of(last), of(first))
        };
        let config = OutlierConfig::default();
        let calls = (ops / 50).max(10);
        put(
            "outlier.detect_ns",
            ns_per_op(calls, || {
                for _ in 0..calls {
                    black_box(detect(&config, &current, |c| stable.get(&c).copied()));
                }
            }),
        );
        let replicas: Vec<InstanceId> = (0..p.replicas as u32).map(InstanceId).collect();
        let scheduler = Scheduler::new(AppId(0), replicas);
        let loads: Vec<usize> = (0..p.replicas).map(|i| (i * 7) % 5).collect();
        let class = p.spec.class_id(0);
        put(
            "cluster.route_read_ns",
            ns_per_op(ops, || {
                for _ in 0..ops {
                    black_box(scheduler.route_read(class, |i| loads[i.0 as usize]));
                }
            }),
        );
        put(
            "cluster.route_write_ns",
            ns_per_op(ops, || {
                for _ in 0..ops {
                    black_box(scheduler.route_write(class, |i| loads[i.0 as usize]));
                }
            }),
        );
    }
    {
        let mut seq = 1_000;
        put(
            "telemetry.snapshot_ms",
            ms_per_call(|| {
                seq += 1;
                telemetry.snapshot(seq * 10_000_000, seq);
            }),
        );
        put(
            "telemetry.render_prom_ms",
            ms_per_call(|| {
                black_box(telemetry.render_prometheus());
            }),
        );
        put(
            "telemetry.render_csv_ms",
            ms_per_call(|| {
                black_box(telemetry.render_csv());
            }),
        );
        let inactive = Telemetry::inactive();
        put(
            "telemetry.inactive_handle_ns",
            ns_per_op(ops, || {
                for _ in 0..ops {
                    black_box(inactive.counter("odlb_queries_total", "Queries completed.", &[]));
                }
            }),
        );
        let profiler = Some(SpanProfiler::shared());
        put(
            "telemetry.span_ns",
            ns_per_op(ops, || {
                for _ in 0..ops {
                    black_box(enter_span(&profiler, "kernel"));
                }
            }),
        );
    }

    // ---- engine --------------------------------------------------------
    {
        let mut engine = DbEngine::new(
            EngineConfig {
                pool_pages: p.pool_pages,
                window_capacity: p.window_capacity,
                ..Default::default()
            },
            SimTime::ZERO,
        );
        let mut cpu = Station::new(8);
        let mut io = SharedIoPath::new(DiskModel::default());
        let mut now = SimTime::ZERO;
        let mut buf = Vec::new();
        let engine_ops = ops / 5;
        put(
            "engine.execute_ns",
            ns_per_op(engine_ops, || {
                for _ in 0..engine_ops {
                    now += SimDuration::from_millis(5);
                    let q = p.spec.sample_query_into(&mut rng, std::mem::take(&mut buf));
                    let result = engine.execute(now, &q, &mut cpu, &mut io, DomainId(1));
                    engine.commit_record(result.record);
                    buf = q.pages;
                }
            }),
        );
    }

    // ---- trace ---------------------------------------------------------
    {
        let event = |i: usize| TraceEvent::SlaEvaluated {
            end_us: i as u64 * 10_000_000,
            app: (i % 4) as u32,
            latency_s: Some(0.25 + (i % 10) as f64 * 0.01),
            throughput_qps: 61.5,
            violated: i.is_multiple_of(7),
        };
        let tracer = Tracer::new();
        let _digest = tracer.attach(DigestSink::new());
        put(
            "trace.digest_emit_ns",
            ns_per_op(ops, || {
                for i in 0..ops {
                    tracer.emit(event(i));
                }
            }),
        );
        let tracer = Tracer::new();
        let _jsonl = tracer.attach(JsonlSink::new(Vec::new()));
        put(
            "trace.jsonl_emit_ns",
            ns_per_op(ops, || {
                for i in 0..ops {
                    tracer.emit(event(i));
                }
            }),
        );
    }

    // ---- bench ---------------------------------------------------------
    {
        let jobs = 1_000;
        put(
            "bench.runner_dispatch_ns",
            ns_per_op(jobs, || {
                let batch: Vec<odlb_bench::runner::Job<usize>> = (0..jobs)
                    .map(|i| Box::new(move || i) as odlb_bench::runner::Job<usize>)
                    .collect();
                let mut sum = 0;
                odlb_bench::runner::run_ordered(batch, 1, |_, v| sum += v);
                black_box(sum);
            }),
        );
    }

    out
}
