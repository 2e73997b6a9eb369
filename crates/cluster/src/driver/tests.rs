use super::*;
use crate::topology::ProvisionError;
use odlb_engine::EngineConfig;
use odlb_metrics::ClassId;
use odlb_metrics::MetricKind;
use odlb_workload::tpcw::{tpcw_workload, TpcwConfig};
use odlb_workload::{ClientConfig, LoadFunction};

fn small_sim(clients: usize) -> (Simulation, AppId) {
    let mut sim = Simulation::new(SimulationConfig {
        seed: 7,
        ..Default::default()
    });
    let server = sim.add_server(4);
    let inst = sim.add_instance(server, DomainId(1), EngineConfig::default());
    let app = sim.add_app(
        tpcw_workload(TpcwConfig::default()),
        Sla::one_second(),
        ClientConfig::default(),
        LoadFunction::Constant(clients),
    );
    sim.assign_replica(app, inst);
    sim.start();
    (sim, app)
}

/// Attaches a fresh telemetry registry to `sim`.
fn observe(sim: &mut Simulation) -> Telemetry {
    let t = Telemetry::attached();
    sim.set_telemetry(t.clone());
    t
}

/// Every resident session is one queued `Event`: its size, plus the
/// queue's 8-byte fire time, is the per-session memory of the scale
/// regime (24 bytes in release).
#[test]
fn event_is_16_bytes() {
    assert_eq!(std::mem::size_of::<Event>(), 16);
}

/// The client id of a session is a `u32` whose top value is
/// [`NO_CLIENT`]: the last id admission hands out is the one below it,
/// and the next admission panics instead of minting a session that
/// would silently stop re-issuing.
#[test]
#[should_panic(expected = "at most u32::MAX sessions")]
fn admission_refuses_the_no_client_id() {
    let mut sim = Simulation::new(SimulationConfig::default());
    let server = sim.add_server(4);
    let inst = sim.add_instance(server, DomainId(1), EngineConfig::default());
    let app = sim.add_app(
        tpcw_workload(TpcwConfig::default()),
        Sla::one_second(),
        ClientConfig::default(),
        LoadFunction::Step {
            before: 1,
            after: 2,
            at: SimTime::from_secs(15),
        },
    );
    sim.assign_replica(app, inst);
    sim.apps[0].next_client = NO_CLIENT - 1;
    sim.start();
    sim.run_interval();
    assert_eq!(
        sim.apps[0].active_clients, 1,
        "the first admission succeeds"
    );
    assert_eq!(sim.apps[0].next_client, NO_CLIENT);
    sim.run_interval();
}

/// Every session holds exactly one queued event, through replica
/// applies and closed-loop completions alike: at each close the queue
/// holds Σ active sessions, one `QueryDone` per live slab slot parked
/// with [`NO_CLIENT`] (the read-one-write-all applies) and the
/// `LoadTick`. An apply that re-issued a session, or a completion that
/// re-issued none or another, breaks the count.
#[test]
fn every_session_holds_one_queued_event_through_the_slab() {
    let mut sim = Simulation::new(SimulationConfig {
        seed: 27,
        ..Default::default()
    });
    // TPC-W writes ~20% of its queries; each fans out to two applies.
    let app = sim.add_app(
        tpcw_workload(TpcwConfig::default()),
        Sla::one_second(),
        ClientConfig {
            think_time_mean: SimDuration::from_millis(300),
            load_noise: 0.0,
        },
        LoadFunction::Constant(60),
    );
    for _ in 0..3 {
        let server = sim.add_server(4);
        let inst = sim.add_instance(server, DomainId(1), EngineConfig::default());
        sim.assign_replica(app, inst);
    }
    sim.start();
    let mut applies = 0;
    for _ in 0..6 {
        sim.run_interval();
        // Live slots parked with NO_CLIENT: all such slots but the freed.
        let slab = &sim.in_flight;
        let no_client = |slot: usize| slab.records[slot].1 == NO_CLIENT;
        let parked = (0..slab.records.len()).filter(|&s| no_client(s)).count()
            - slab.free.iter().filter(|&&s| no_client(s as usize)).count();
        let sessions: usize = sim.apps.iter().map(|a| a.active_clients).sum();
        assert_eq!(sim.queue.len(), sessions + parked + 1);
        applies += parked;
    }
    assert!(applies > 0, "replica applies were in flight at some close");
}

/// The Table 2 shape — TPC-W on one instance, RUBiS joining inside it at
/// t = 80 s — for 20 intervals. Every close runs the driver's
/// conservation assertion (parked records = Σ outstanding; debug builds),
/// and the slab must stay as small as the most queries ever in flight:
/// one per client here, against thousands of queries dispatched.
#[test]
fn in_flight_slab_recycles_slots_and_conserves_queries() {
    use odlb_workload::rubis::{rubis_workload, RubisConfig};
    let (tpcw_clients, rubis_clients) = (45, 80);
    // No load noise: the client populations are exact, so they bound
    // the queries in flight.
    let clients = ClientConfig {
        load_noise: 0.0,
        ..Default::default()
    };
    let mut sim = Simulation::new(SimulationConfig {
        seed: 2_2007,
        ..Default::default()
    });
    let server = sim.add_server(4);
    let inst = sim.add_instance(server, DomainId(1), EngineConfig::default());
    let tpcw = sim.add_app(
        tpcw_workload(TpcwConfig::default()),
        Sla::one_second(),
        clients,
        LoadFunction::Constant(tpcw_clients),
    );
    let rubis = sim.add_app(
        rubis_workload(RubisConfig {
            app: AppId(1),
            ..Default::default()
        }),
        Sla::one_second(),
        clients,
        LoadFunction::Step {
            before: 0,
            after: rubis_clients,
            at: SimTime::from_secs(80),
        },
    );
    sim.assign_replica(tpcw, inst);
    sim.assign_replica(rubis, inst);
    sim.start();
    for _ in 0..20 {
        sim.run_interval();
        let outstanding: usize = sim.instances.iter().map(|i| i.outstanding).sum();
        assert_eq!(sim.in_flight.live(), outstanding);
        assert!(sim.in_flight.records.len() <= tpcw_clients + rubis_clients);
    }
    assert!(
        sim.events_processed() > 20 * (tpcw_clients + rubis_clients) as u64,
        "far more queries than slab slots"
    );
    assert!(!sim.in_flight.records.is_empty());
}

#[test]
fn light_load_meets_sla() {
    let (mut sim, app) = small_sim(5);
    let mut last = None;
    for _ in 0..6 {
        last = Some(sim.run_interval());
    }
    let outcome = last.unwrap();
    assert_eq!(outcome.sla[&app], SlaOutcome::Met);
    assert!(outcome.app_throughput[&app] > 1.0, "queries flow");
    let lat = outcome.app_latency[&app].unwrap();
    assert!(lat < 1.0, "latency {lat}");
}

#[test]
fn interval_boundaries_advance_clock() {
    let (mut sim, _) = small_sim(2);
    let o1 = sim.run_interval();
    let o2 = sim.run_interval();
    assert_eq!(o1.end, SimTime::from_secs(10));
    assert_eq!(o2.start, SimTime::from_secs(10));
    assert_eq!(o2.end, SimTime::from_secs(20));
    assert_eq!(sim.now(), SimTime::from_secs(20));
}

#[test]
fn per_class_metrics_are_populated() {
    let (mut sim, app) = small_sim(10);
    sim.run_interval();
    let outcome = sim.run_interval();
    let report = outcome.reports.values().next().unwrap();
    assert!(report.per_class.len() >= 5, "several classes observed");
    for (class, v) in &report.per_class {
        assert_eq!(class.app, app);
        assert!(v[MetricKind::Throughput] > 0.0);
        assert!(v[MetricKind::PageAccesses] > 0.0);
    }
}

#[test]
fn replication_balances_reads() {
    let mut sim = Simulation::new(SimulationConfig {
        seed: 9,
        ..Default::default()
    });
    let s1 = sim.add_server(4);
    let s2 = sim.add_server(4);
    let i1 = sim.add_instance(s1, DomainId(1), EngineConfig::default());
    let i2 = sim.add_instance(s2, DomainId(1), EngineConfig::default());
    let app = sim.add_app(
        tpcw_workload(TpcwConfig::default()),
        Sla::one_second(),
        ClientConfig::default(),
        LoadFunction::Constant(20),
    );
    sim.assign_replica(app, i1);
    sim.assign_replica(app, i2);
    sim.start();
    sim.run_interval();
    let outcome = sim.run_interval();
    let t1 = outcome.reports[&i1].app_throughput(app);
    let t2 = outcome.reports[&i2].app_throughput(app);
    assert!(t1 > 0.0 && t2 > 0.0, "both replicas serve ({t1}, {t2})");
}

#[test]
fn writes_reach_every_replica() {
    let mut sim = Simulation::new(SimulationConfig::default());
    let s1 = sim.add_server(4);
    let s2 = sim.add_server(4);
    let i1 = sim.add_instance(s1, DomainId(1), EngineConfig::default());
    let i2 = sim.add_instance(s2, DomainId(1), EngineConfig::default());
    let app = sim.add_app(
        tpcw_workload(TpcwConfig::default()),
        Sla::one_second(),
        ClientConfig::default(),
        LoadFunction::Constant(10),
    );
    sim.assign_replica(app, i1);
    sim.assign_replica(app, i2);
    sim.start();
    sim.run_interval();
    let outcome = sim.run_interval();
    // The write class ShoppingCart (index 5) must appear on BOTH
    // replicas even though reads of it go to one.
    let write_class = ClassId::new(app, 5);
    for inst in [i1, i2] {
        let has = outcome.reports[&inst].per_class.contains_key(&write_class);
        assert!(has, "write class missing on {inst}");
    }
}

#[test]
fn class_pinning_confines_reads() {
    let mut sim = Simulation::new(SimulationConfig::default());
    let s1 = sim.add_server(4);
    let s2 = sim.add_server(4);
    let i1 = sim.add_instance(s1, DomainId(1), EngineConfig::default());
    let i2 = sim.add_instance(s2, DomainId(1), EngineConfig::default());
    let app = sim.add_app(
        tpcw_workload(TpcwConfig::default()),
        Sla::one_second(),
        ClientConfig::default(),
        LoadFunction::Constant(15),
    );
    sim.assign_replica(app, i1);
    sim.assign_replica(app, i2);
    // Pin the read-only BestSeller class (index 8) to replica 2.
    let bs = ClassId::new(app, 8);
    sim.place_class(app, bs, vec![i2]);
    sim.start();
    for _ in 0..3 {
        sim.run_interval();
    }
    let outcome = sim.run_interval();
    assert!(
        !outcome.reports[&i1].per_class.contains_key(&bs),
        "pinned read-only class must not run on replica 1"
    );
    assert!(outcome.reports[&i2].per_class.contains_key(&bs));
}

#[test]
fn provisioning_adds_capacity_after_delay() {
    let (mut sim, app) = small_sim(10);
    assert_eq!(sim.replicas_of(app).len(), 1);
    // No second server yet: provisioning must fail.
    assert_eq!(
        sim.provision_replica(app),
        Err(ProvisionError::NoFreeServer)
    );
    sim.add_server(4);
    let new = sim.provision_replica(app).expect("free server available");
    // Not yet ready.
    assert_eq!(sim.replicas_of(app).len(), 1);
    sim.run_interval(); // 10 s > 20 s? no — one more interval
    sim.run_interval();
    assert_eq!(sim.replicas_of(app).len(), 2, "ready after the delay");
    assert_eq!(sim.replicas_of(app)[1], new);
}

#[test]
fn load_function_grows_population() {
    let mut sim = Simulation::new(SimulationConfig {
        seed: 3,
        ..Default::default()
    });
    let s = sim.add_server(4);
    let i = sim.add_instance(s, DomainId(1), EngineConfig::default());
    let app = sim.add_app(
        tpcw_workload(TpcwConfig::default()),
        Sla::one_second(),
        ClientConfig {
            think_time_mean: SimDuration::from_millis(500),
            load_noise: 0.0,
        },
        LoadFunction::Step {
            before: 2,
            after: 30,
            at: SimTime::from_secs(20),
        },
    );
    sim.assign_replica(app, i);
    sim.start();
    sim.run_interval();
    let before = sim.run_interval();
    sim.run_interval();
    sim.run_interval();
    let after = sim.run_interval();
    let t_before = before.app_throughput[&app];
    let t_after = after.app_throughput[&app];
    assert!(
        t_after > t_before * 3.0,
        "throughput should scale with clients: {t_before} -> {t_after}"
    );
}

#[test]
fn set_class_weight_removes_class_from_mix() {
    let (mut sim, app) = small_sim(10);
    sim.set_class_weight(app, 8, 0.0);
    for _ in 0..2 {
        sim.run_interval();
    }
    let outcome = sim.run_interval();
    let bs = ClassId::new(app, 8);
    for report in outcome.reports.values() {
        assert!(!report.per_class.contains_key(&bs));
    }
}

#[test]
fn retired_replica_stops_serving() {
    let mut sim = Simulation::new(SimulationConfig::default());
    let s1 = sim.add_server(4);
    let s2 = sim.add_server(4);
    let i1 = sim.add_instance(s1, DomainId(1), EngineConfig::default());
    let i2 = sim.add_instance(s2, DomainId(1), EngineConfig::default());
    let app = sim.add_app(
        tpcw_workload(TpcwConfig::default()),
        Sla::one_second(),
        ClientConfig::default(),
        LoadFunction::Constant(10),
    );
    sim.assign_replica(app, i1);
    sim.assign_replica(app, i2);
    sim.start();
    sim.run_interval();
    sim.retire_replica(app, i2);
    assert_eq!(sim.replicas_of(app), vec![i1]);
    sim.run_interval(); // drain
    let outcome = sim.run_interval();
    assert_eq!(
        outcome.reports[&i2].app_throughput(app),
        0.0,
        "retired replica serves nothing"
    );
    assert!(outcome.reports[&i1].app_throughput(app) > 0.0);
}

#[test]
fn telemetry_snapshots_align_with_intervals() {
    let (mut sim, app) = small_sim(8);
    let t = observe(&mut sim);
    for _ in 0..3 {
        sim.run_interval();
    }
    let prom = t.render_prometheus().unwrap();
    odlb_telemetry::validate_prometheus(&prom).expect("valid exposition");
    assert!(prom.contains(&format!("odlb_app_throughput_qps{{app=\"{app}\"}}")));
    assert!(
        prom.contains(&format!("odlb_app_latency_p95_us{{app=\"{app}\"}}")),
        "interval tail-latency gauge from the merged class histograms"
    );
    assert!(prom.contains("odlb_instance_queue_depth{instance=\"inst0\"}"));
    assert!(prom.contains("odlb_server_cpu_utilisation{server=\"srv0\"}"));
    assert!(prom.contains("odlb_io_requests_total{domain=\"1\",machine=\"srv0\"}"));
    let csv = t.render_csv().unwrap();
    odlb_telemetry::validate_csv(&csv).expect("valid csv");
    let snaps = t.with_registry(|r| r.snapshots().len()).unwrap();
    assert_eq!(snaps, 3, "one snapshot per closed interval");
    // Snapshots are stamped with the interval seq, so CSV rows join
    // to `interval_closed` trace events.
    assert!(csv.contains("10.000000,0,"));
    assert!(csv.contains("20.000000,1,"));
    assert!(csv.contains("30.000000,2,"));
}

#[test]
fn cluster_histograms_merge_per_class_counts_across_replicas() {
    let (mut sim, app) = small_sim(8);
    let second = sim.add_instance(ServerId(0), DomainId(1), EngineConfig::default());
    sim.assign_replica(app, second);
    let t = observe(&mut sim);
    for _ in 0..3 {
        sim.run_interval();
    }
    let (per_instance, cluster): (u64, u64) = t
        .with_registry(|r| {
            let mut per_instance = 0;
            let mut cluster = 0;
            for row in r.sample_rows() {
                if row.name == "odlb_query_latency_us_count" {
                    per_instance += row.value as u64;
                }
                if row.name == "odlb_cluster_query_latency_us_count" {
                    cluster += row.value as u64;
                }
            }
            (per_instance, cluster)
        })
        .unwrap();
    assert!(cluster > 0, "merged histogram must carry samples");
    assert_eq!(
        cluster, per_instance,
        "cluster-wide counts must equal the sum over replicas"
    );
    let prom = t.render_prometheus().unwrap();
    odlb_telemetry::validate_prometheus(&prom).expect("valid exposition");
    assert!(prom.contains("odlb_cluster_query_latency_us_count{class=\""));
}

#[test]
fn telemetry_records_per_class_latency_and_counters() {
    let (mut sim, _) = small_sim(8);
    let t = observe(&mut sim);
    let outcome = sim.run_interval();
    let prom = t.render_prometheus().unwrap();
    let report = &outcome.reports[&InstanceId(0)];
    assert!(report.per_class.len() >= 5, "several classes observed");
    for (class, v) in &report.per_class {
        let queries = report.latency_histograms[class].count();
        for (series, value) in [
            ("odlb_queries_total", queries),
            ("odlb_query_latency_us_count", queries),
            (
                "odlb_page_accesses_total",
                v[MetricKind::PageAccesses] as u64,
            ),
            (
                "odlb_buffer_misses_total",
                v[MetricKind::BufferMisses] as u64,
            ),
            (
                "odlb_query_io_requests_total",
                v[MetricKind::IoRequests] as u64,
            ),
            ("odlb_readaheads_total", v[MetricKind::ReadAheads] as u64),
        ] {
            let line = format!("{series}{{class=\"{class}\",instance=\"inst0\"}} {value}\n");
            assert!(prom.contains(&line), "missing {line}");
        }
    }
}

#[test]
fn export_telemetry_reports_partitions_and_evictions() {
    let (mut sim, _) = small_sim(8);
    let t = observe(&mut sim);
    let quotaed = ClassId::new(AppId(0), 8);
    sim.set_quota(InstanceId(0), quotaed, 512).unwrap();
    sim.run_interval();
    let prom = t.render_prometheus().unwrap();
    let pool = sim.instances[0].engine.pool();
    assert!(prom.contains("odlb_pool_pages{instance=\"inst0\",partition=\"general\"} 7680\n"));
    assert!(prom.contains("odlb_pool_pages{instance=\"inst0\",partition=\"app0#8\"} 512\n"));
    for (class, _, resident) in pool.partitions() {
        let partition = class.map_or("general".to_string(), |c| c.to_string());
        assert!(prom.contains(&format!(
            "odlb_pool_resident_pages{{instance=\"inst0\",partition=\"{partition}\"}} {resident}\n"
        )));
    }
    assert!(pool.evictions() > 0, "BestSeller overflows its 512 pages");
    let evictions = pool.evictions();
    assert!(prom.contains(&format!(
        "odlb_pool_evictions_total{{instance=\"inst0\"}} {evictions}\n"
    )));
}

#[test]
fn export_telemetry_is_monotone_and_deterministic() {
    let run = || {
        let (mut sim, app) = small_sim(8);
        // A second VM domain on the same machine, added first-to-last so
        // the sorted export order differs from insertion order.
        let second = sim.add_instance(ServerId(0), DomainId(0), EngineConfig::default());
        sim.assign_replica(app, second);
        let t = observe(&mut sim);
        sim.run_interval();
        sim.run_interval();
        let domains = sim.servers[0].io.domain_counters();
        (
            t.render_prometheus().unwrap(),
            t.render_csv().unwrap(),
            domains,
        )
    };
    let (prom, csv, domains) = run();
    assert_eq!(
        domains.iter().map(|(d, _)| d.0).collect::<Vec<_>>(),
        vec![0, 1]
    );
    for (domain, io) in &domains {
        assert!(io.requests > 0, "both domains read");
        for (series, value) in [
            ("odlb_io_requests_total", io.requests),
            ("odlb_io_pages_total", io.pages),
            ("odlb_io_readahead_requests_total", io.readahead_requests),
        ] {
            let line = format!(
                "{series}{{domain=\"{}\",machine=\"srv0\"}} {value}\n",
                domain.0
            );
            assert!(prom.contains(&line), "missing {line}");
        }
    }
    // The CSV validator rejects any `_total` series that decreases.
    odlb_telemetry::validate_csv(&csv).expect("monotone counters");
    let again = run();
    assert_eq!((prom, csv), (again.0, again.1));
}

/// The p95 gauge is the 0.95 quantile of the flat merge of the app's
/// class histograms across instances, whatever the rack grouping.
#[test]
fn app_p95_gauge_is_the_flat_merge_quantile_at_any_rack_size() {
    for rack_size in [0, 4] {
        let mut sim = Simulation::new(SimulationConfig {
            seed: 7,
            rack_size,
            ..Default::default()
        });
        let app = sim.add_app(
            tpcw_workload(TpcwConfig::default()),
            Sla::one_second(),
            ClientConfig::default(),
            LoadFunction::Constant(30),
        );
        for _ in 0..5 {
            let server = sim.add_server(4);
            let inst = sim.add_instance(server, DomainId(1), EngineConfig::default());
            sim.assign_replica(app, inst);
        }
        let t = observe(&mut sim);
        sim.start();
        sim.run_interval();
        let outcome = sim.run_interval();
        let mut flat = odlb_telemetry::LogLinearHistogram::default();
        for report in outcome.reports.values() {
            assert!(
                !report.latency_histograms.is_empty(),
                "every replica serves"
            );
            report
                .latency_histograms
                .values()
                .for_each(|h| flat.merge(h));
        }
        let gauge = t
            .with_registry(|r| r.sample_rows())
            .unwrap()
            .into_iter()
            .find(|row| row.name == "odlb_app_latency_p95_us")
            .expect("p95 gauge written");
        assert_eq!(Some(gauge.value as u64), flat.quantile(0.95), "{rack_size}");
    }
}

#[test]
fn telemetry_does_not_perturb_results() {
    let run = |attach: bool| {
        let (mut sim, app) = small_sim(8);
        if attach {
            observe(&mut sim);
        }
        for _ in 0..3 {
            sim.run_interval();
        }
        let o = sim.run_interval();
        (o.app_throughput[&app], o.app_latency[&app])
    };
    assert_eq!(run(false), run(true), "telemetry must be observation-only");
}

#[test]
fn profiling_does_not_perturb_results() {
    let run = |attach: bool| {
        let (mut sim, app) = small_sim(8);
        if attach {
            sim.set_profiler(odlb_telemetry::SpanProfiler::shared());
        }
        for _ in 0..3 {
            sim.run_interval();
        }
        let o = sim.run_interval();
        (o.app_throughput[&app], o.app_latency[&app])
    };
    assert_eq!(run(false), run(true), "profiling must be observation-only");
}

#[test]
fn sim_folded_profile_is_deterministic_and_nested() {
    let run = || {
        let profiler = odlb_telemetry::SpanProfiler::shared();
        let (mut sim, _) = small_sim(8);
        sim.set_profiler(profiler.clone());
        for _ in 0..3 {
            sim.run_interval();
        }
        let folded = profiler.borrow().folded_sim();
        folded
    };
    let folded = run();
    assert_eq!(folded, run(), "sim folded dump must be run-invariant");
    let stats = odlb_telemetry::validate_folded(&folded).expect("valid folded dump");
    assert!(stats.max_depth >= 3, "driver spans nest: {folded}");
    assert!(folded.contains("interval;engine_execute;pages;storage_read "));
    assert!(folded.contains("interval;close_interval "));
}

#[test]
fn replayed_app_serves_the_whole_schedule_deterministically() {
    use odlb_workload::{generate_schedule, ScheduleConfig};
    let spec = tpcw_workload(TpcwConfig::default());
    let schedule = Arc::new(generate_schedule(
        &spec,
        &ScheduleConfig {
            seed: 17,
            horizon: SimDuration::from_secs(30),
            load: LoadFunction::Constant(6),
            client: ClientConfig::default(),
            tick: SimDuration::from_secs(2),
        },
    ));
    assert!(!schedule.is_empty());
    let run = |servers: usize| {
        let mut sim = Simulation::new(SimulationConfig {
            seed: 17,
            ..Default::default()
        });
        let mut insts = Vec::new();
        for _ in 0..servers {
            let s = sim.add_server(4);
            insts.push(sim.add_instance(s, DomainId(1), EngineConfig::default()));
        }
        let app = sim.add_replayed_app(
            tpcw_workload(TpcwConfig::default()),
            Sla::one_second(),
            Arc::clone(&schedule),
        );
        for inst in insts {
            sim.assign_replica(app, inst);
        }
        sim.start();
        let mut offered = 0.0;
        let mut last = None;
        for _ in 0..3 {
            let o = sim.run_interval();
            offered += o.app_throughput[&app] * 10.0;
            last = Some(o);
        }
        (offered.round() as u64, last.unwrap().app_latency[&app])
    };
    let (a_count, a_lat) = run(1);
    let (b_count, b_lat) = run(1);
    assert_eq!(
        (a_count, a_lat),
        (b_count, b_lat),
        "replay is deterministic"
    );
    // Every scheduled arrival within the simulated horizon is served
    // (completions may trail arrivals slightly, hence the tolerance).
    let arrivals = schedule.len() as u64;
    assert!(
        a_count > arrivals * 9 / 10,
        "served {a_count} of {arrivals} scheduled queries"
    );
    // The identical offered load runs against a different cluster
    // size without regenerating anything.
    let (two_replicas, _) = run(2);
    assert!(two_replicas > arrivals * 9 / 10);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let (mut sim, app) = small_sim(8);
        for _ in 0..3 {
            sim.run_interval();
        }
        let o = sim.run_interval();
        (o.app_throughput[&app], o.app_latency[&app])
    };
    assert_eq!(run(), run());
}
