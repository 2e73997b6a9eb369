//! Golden decision-trace regression tests.
//!
//! Each scenario runs a miniature, fully seeded experiment with the
//! decision tracer attached and pins (a) the run digest bit-for-bit and
//! (b) the key decision subsequence the paper's narrative predicts. Any
//! behavioural drift — an extra provisioning, a different quota, a
//! reordered diagnosis — changes the digest; the subsequence assertions
//! then say *what* drifted.
//!
//! If a deliberate behaviour change lands, re-run with `--nocapture`,
//! verify the printed decision stream is the intended one, and update the
//! pinned digest.

use odlb::cluster::{Simulation, SimulationConfig};
use odlb::core::{
    ClusterController, CoarseGrainedController, CpuOnlyController, VmMigrationController,
};
use odlb::engine::EngineConfig;
use odlb::metrics::{AppId, Sla};
use odlb::sim::SimDuration;
use odlb::storage::DomainId;
use odlb::trace::{fnv1a64, DigestSink, MemorySink, TraceEvent, Tracer};
use odlb::workload::synthetic::cpu_bound_workload;
use odlb::workload::{generate_schedule, ClientConfig, LoadFunction, ScheduleConfig};
use odlb_bench::experiments::{fig3, fig4, scale, Observers};
use odlb_bench::suite::{run_suite, SuiteConfig};
use odlb_bench::sweep::WORKLOADS;

/// Fig. 3 miniature (seed 3_2007 inside `fig3::run_observed`): sinusoid load
/// on 3 servers, 30 intervals with 10 warm-up.
const FIG3_GOLDEN_DIGEST: u64 = 0x3566ce12d71c2a53;
/// Fig. 4 miniature (seed 4_2007 inside `fig4::run_observed`): 50 clients,
/// 12 stable intervals, 12 recovery intervals after the index drop.
const FIG4_GOLDEN_DIGEST: u64 = 0x7404072f86507903;

/// Baseline miniature (seed 13_2007): 60 clients of a cache-resident
/// CPU-bound workload saturate a 1-core server with two spare servers in
/// the pool, 12 intervals. Digests computed at the commit before the
/// controllers moved onto the shared skeleton.
const CPU_ONLY_GOLDEN_DIGEST: u64 = 0xa31d80aaa0eef12f;
const COARSE_GOLDEN_DIGEST: u64 = 0x31126e884b092fa4;
const VM_MIGRATION_GOLDEN_DIGEST: u64 = 0xea674a848f68bb7a;

/// `fig-scale-mini` (seeds 9_2026 + row inside `scale::run_observed`): the
/// only pin on the queue-at-depth driver path — 10k and 40k sessions
/// resident in the event queue. Digest and rendered rows computed at
/// `c6fe0e9`, the commit before the event queue became a timing wheel.
const SCALE_MINI_GOLDEN_DIGEST: u64 = 0x65028ee607a8324f;
const SCALE_MINI_GOLDEN_ROWS: &str = "
       16       10000           2         22299            53         0.175
       32       40000           2         90419           212         0.173

total events dispatched: 112718
";

/// Runs `scenario` under a fresh tracer; returns the run digest and the
/// full event stream.
fn traced(scenario: impl FnOnce(Tracer)) -> (u64, Vec<TraceEvent>) {
    let tracer = Tracer::new();
    let memory = tracer.attach(MemorySink::new());
    let digest = tracer.attach(DigestSink::new());
    scenario(tracer);
    let events = memory.borrow().events().to_vec();
    let d = digest.borrow().digest();
    (d, events)
}

fn run_fig3() -> (u64, Vec<TraceEvent>) {
    traced(|tracer| {
        drop(fig3::run_observed(
            &Observers::traced(tracer),
            30,
            10,
            30,
            480,
            3,
        ))
    })
}

fn run_fig4() -> (u64, Vec<TraceEvent>) {
    traced(|tracer| drop(fig4::run_observed(&Observers::traced(tracer), 50, 12, 12)))
}

/// Runs the baseline miniature under `controller`; returns the digest and
/// the applied actions as `(kind, interval-end seconds)`.
fn run_baseline(mut controller: impl ClusterController) -> (u64, Vec<(&'static str, u64)>) {
    let (digest, events) = traced(|tracer| {
        let mut sim = Simulation::new(SimulationConfig {
            seed: 13_2007,
            ..Default::default()
        });
        let first = sim.add_server(1);
        sim.add_server(1);
        sim.add_server(2);
        let inst = sim.add_instance(first, DomainId(1), EngineConfig::default());
        let app = sim.add_app(
            cpu_bound_workload(AppId(0), 64, 8),
            Sla::new(SimDuration::from_millis(150)),
            ClientConfig {
                think_time_mean: SimDuration::from_millis(100),
                load_noise: 0.0,
            },
            LoadFunction::Constant(60),
        );
        sim.assign_replica(app, inst);
        sim.set_tracer(tracer.clone());
        controller.set_tracer(tracer.clone());
        sim.start();
        for _ in 0..12 {
            let outcome = sim.run_interval();
            controller.on_interval(&mut sim, &outcome);
        }
        tracer.flush();
    });
    let actions = events.iter().filter_map(|e| match e {
        TraceEvent::ActionApplied { kind, end_us, .. } => Some((*kind, end_us / 1_000_000)),
        _ => None,
    });
    (digest, actions.collect())
}

fn dump(events: &[TraceEvent]) {
    for e in events {
        println!("{}", e.to_json());
    }
}

#[test]
fn fig3_digest_and_provisioning_sequence_are_stable() {
    let (digest, events) = run_fig3();

    // The interval stream itself: 30 closes, strictly ordered.
    let closes: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::IntervalClosed { seq, .. } => Some(*seq),
            _ => None,
        })
        .collect();
    assert_eq!(closes, (0..30).collect::<Vec<u64>>());

    // The paper's fig. 3 narrative: the sinusoid peak saturates the CPU
    // and the controller reacts by provisioning at least one replica,
    // strictly after the warm-up (first 10 intervals = 100 s).
    let provisions: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::ActionApplied {
                kind: "provisioned_replica",
                end_us,
                ..
            } => Some(*end_us),
            _ => None,
        })
        .collect();
    if provisions.is_empty() {
        dump(&events);
        panic!("the sinusoid peak must trigger replica provisioning");
    }
    assert!(
        provisions.iter().all(|&t| t > 100_000_000),
        "provisioning before the controller was enabled: {provisions:?}"
    );
    // Fixed seed ⇒ the first provisioning interval is pinned exactly
    // (interval 11, t=110s: the first post-warm-up interval already
    // shows the rising slope saturating the single replica).
    assert_eq!(provisions[0], 110_000_000, "first provisioning moved");

    // SLA evaluations fire every interval for the single app.
    let sla_count = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::SlaEvaluated { .. }))
        .count();
    assert_eq!(sla_count, 30);

    if digest != FIG3_GOLDEN_DIGEST {
        dump(&events);
        panic!(
            "fig3 digest drifted: got {digest:#018x}, pinned {FIG3_GOLDEN_DIGEST:#018x} \
             ({} events)",
            events.len()
        );
    }
}

#[test]
fn fig4_digest_and_quota_sequence_are_stable() {
    let (digest, events) = run_fig4();

    // The paper's fig. 4 narrative after the O_DATE index drop:
    // (1) outlier findings flag BestSeller (template 8) as degraded;
    let bestseller_findings: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::OutlierFinding {
                    template: 8,
                    degradation: true,
                    ..
                }
            )
        })
        .collect();
    if bestseller_findings.is_empty() {
        dump(&events);
        panic!("BestSeller must be flagged as a degraded outlier");
    }

    // (2) MRC validation singles BestSeller out as changed;
    assert!(
        events.iter().any(|e| matches!(
            e,
            TraceEvent::MrcValidation {
                template: 8,
                changed: true,
                ..
            }
        )),
        "BestSeller's recomputed MRC must read as changed"
    );

    // (3) the remedy is a quota on BestSeller, on the shared instance.
    let quota = events.iter().find_map(|e| match e {
        TraceEvent::ActionApplied {
            kind: "set_quota",
            template: Some(8),
            pages,
            instance,
            ..
        } => Some((*pages, *instance)),
        _ => None,
    });
    let Some((pages, instance)) = quota else {
        dump(&events);
        panic!("the controller must quota BestSeller");
    };
    assert_eq!(instance, Some(0), "single-instance scenario");
    let pages = pages.expect("set_quota carries its page grant");
    assert!(pages > 0, "quota must grant pages");

    if digest != FIG4_GOLDEN_DIGEST {
        dump(&events);
        panic!(
            "fig4 digest drifted: got {digest:#018x}, pinned {FIG4_GOLDEN_DIGEST:#018x} \
             ({} events)",
            events.len()
        );
    }
}

/// The three coarse remedies on one scenario: each acts on the first
/// violated interval, rests its three-interval cooldown, and acts again
/// (coarse: provision, then pin the whole app once the replica serves).
#[test]
fn baseline_digests_and_action_sequences_are_stable() {
    let (digest, actions) = run_baseline(CpuOnlyController::new(0.85));
    assert_eq!(actions, [10, 40].map(|t| ("provisioned_replica", t)));
    assert_eq!(digest, CPU_ONLY_GOLDEN_DIGEST, "cpu-only digest drifted");

    let (digest, actions) = run_baseline(CoarseGrainedController::new());
    let isolations = [10, 40].map(|t| [("provisioned_replica", t), ("coarse_fallback", t + 20)]);
    assert_eq!(actions, isolations.concat());
    assert_eq!(digest, COARSE_GOLDEN_DIGEST, "coarse digest drifted");

    let (digest, actions) = run_baseline(VmMigrationController::new());
    assert_eq!(actions, [10, 40, 70, 100].map(|t| ("migrated_vm", t)));
    assert_eq!(digest, VM_MIGRATION_GOLDEN_DIGEST, "vm digest drifted");
}

#[test]
fn scale_mini_rows_and_digest_are_stable() {
    let mut table = String::new();
    let (digest, events) = traced(|tracer| {
        let points = [(16, 10_000, 2), (32, 40_000, 2)];
        table = scale::render(&scale::run_observed(&Observers::traced(tracer), &points));
    });
    assert!(
        table.ends_with(SCALE_MINI_GOLDEN_ROWS),
        "fig-scale-mini rows drifted:\n{table}"
    );
    assert_eq!(events.len(), 20, "fig-scale-mini trace length drifted");
    assert_eq!(
        digest, SCALE_MINI_GOLDEN_DIGEST,
        "fig-scale-mini digest drifted: got {digest:#018x}"
    );
}

/// FNV-1a and line count of `fig3-mini`'s sim-unit folded dump, as
/// `experiments fig3-mini --profile-folded` writes it: calls and units of
/// every driver, engine and controller span path. The CI profile step
/// only diffs one job count against another, which a miscount made the
/// same way at both would pass.
const FIG3_MINI_FOLDED_SIM: (u64, usize) = (0xc5b2264deddce170, 13);

#[test]
fn fig3_mini_sim_profile_is_stable() {
    let cfg = SuiteConfig {
        jobs: 1,
        trace_path: None,
        metrics_dir: None,
        profile: true,
    };
    let mut folded = String::new();
    run_suite(&["fig3-mini"], &cfg, |out| {
        folded = out.profile.expect("profiled figure").folded_sim();
    });
    let pin = (fnv1a64(folded.as_bytes()), folded.lines().count());
    assert_eq!(
        pin, FIG3_MINI_FOLDED_SIM,
        "fig3-mini sim folded dump drifted: got ({:#018x}, {}):\n{folded}",
        pin.0, pin.1
    );
}

/// FNV-1a of every sweep workload's open-loop schedule at one fixed
/// config (seed 11, 24 clients, 60 s, 2 s ticks): the `queries` then the
/// `pages`, field by field. A workload-model or sampler change that moves
/// one draw moves its row.
const SCHEDULE_GOLDEN: [(&str, u64); 3] = [
    ("tpcw", 0x12a03c7c2cc3ae23),
    ("rubis", 0x0f3e7a4d21376550),
    ("zipf", 0x19d4e8c6acb249b7),
];

#[test]
fn schedule_bytes_are_stable_for_every_sweep_workload() {
    let cfg = ScheduleConfig {
        seed: 11,
        horizon: SimDuration::from_secs(60),
        load: LoadFunction::Constant(24),
        client: ClientConfig::default(),
        tick: SimDuration::from_secs(2),
    };
    let digests: Vec<(&str, u64)> = WORKLOADS
        .iter()
        .map(|&(name, build)| {
            let schedule = generate_schedule(&build(), &cfg);
            let mut bytes = Vec::new();
            for q in &schedule.queries {
                bytes.extend(q.at.as_micros().to_le_bytes());
                for field in [q.class, q.page_start, q.page_len, q.lock_prefix] {
                    bytes.extend(field.to_le_bytes());
                }
            }
            for page in &schedule.pages {
                bytes.extend(page.space.0.to_le_bytes());
                bytes.extend(page.page_no().to_le_bytes());
            }
            (name, fnv1a64(&bytes))
        })
        .collect();
    assert_eq!(
        digests, SCHEDULE_GOLDEN,
        "a sweep workload's schedule drifted"
    );
}

#[test]
fn golden_runs_are_reproducible_within_process() {
    // The digests above are pinned constants; this guards the weaker but
    // independent property that two in-process runs agree (no hidden
    // global state leaks between simulations).
    assert_eq!(run_fig4().0, run_fig4().0);
}
