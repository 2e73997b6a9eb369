//! Trace determinism: the whole point of the run digest is that equal
//! seeds produce byte-identical decision traces, and different seeds
//! produce (in practice) different ones. This exercises the full driver +
//! controller stack under a tracer with all three sink kinds attached.

use odlb::cluster::{Simulation, SimulationConfig};
use odlb::core::{ClusterController, ControllerConfig, SelectiveRetuningController};
use odlb::engine::EngineConfig;
use odlb::metrics::Sla;
use odlb::storage::DomainId;
use odlb::trace::{DigestSink, JsonlSink, MemorySink, Tracer};
use odlb::workload::tpcw::{tpcw_workload, TpcwConfig};
use odlb::workload::{ClientConfig, LoadFunction};

/// Runs a small contended scenario end to end, returning the JSONL bytes
/// and the digest of its decision trace.
fn traced_run(seed: u64, intervals: usize) -> (Vec<u8>, u64, u64) {
    let tracer = Tracer::new();
    let jsonl = tracer.attach(JsonlSink::new(Vec::new()));
    let digest = tracer.attach(DigestSink::new());
    let memory = tracer.attach(MemorySink::new());

    let mut sim = Simulation::new(SimulationConfig {
        seed,
        ..Default::default()
    });
    let server = sim.add_server(2);
    let inst = sim.add_instance(server, DomainId(1), EngineConfig::default());
    let app = sim.add_app(
        tpcw_workload(TpcwConfig::default()),
        Sla::one_second(),
        ClientConfig::default(),
        LoadFunction::Constant(40),
    );
    sim.assign_replica(app, inst);
    sim.set_tracer(tracer.clone());
    sim.start();

    let mut controller = SelectiveRetuningController::new(ControllerConfig::default());
    controller.set_tracer(tracer.clone());
    for _ in 0..intervals {
        let outcome = sim.run_interval();
        controller.on_interval(&mut sim, &outcome);
    }
    tracer.flush();

    let events = digest.borrow().events();
    assert_eq!(
        events,
        memory.borrow().events().len() as u64,
        "every sink sees the same stream"
    );
    let bytes = jsonl.borrow().writer().clone();
    let d = digest.borrow().digest();
    (bytes, d, events)
}

#[test]
fn equal_seeds_give_byte_identical_traces_and_equal_digests() {
    let (bytes_a, digest_a, events_a) = traced_run(42, 8);
    let (bytes_b, digest_b, events_b) = traced_run(42, 8);
    assert!(events_a > 0, "the run must emit events");
    assert_eq!(events_a, events_b);
    assert_eq!(digest_a, digest_b, "equal seeds must fold to equal digests");
    assert_eq!(bytes_a, bytes_b, "the JSONL streams must be byte-identical");
    // And the digest really is the fold of those bytes.
    assert_eq!(digest_a, odlb::trace::fnv1a64(&bytes_a));
}

#[test]
fn different_seeds_give_different_digests() {
    let (_, digest_a, _) = traced_run(42, 8);
    let (_, digest_b, _) = traced_run(43, 8);
    assert_ne!(
        digest_a, digest_b,
        "different client arrival streams must produce different traces"
    );
}

#[test]
fn trace_jsonl_is_parseable_line_by_line() {
    let (bytes, _, events) = traced_run(42, 4);
    let text = String::from_utf8(bytes).expect("canonical JSON is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len() as u64, events);
    let mut last_end = 0u64;
    for line in lines {
        assert!(line.starts_with("{\"event\":\""), "line: {line}");
        assert!(line.ends_with('}'), "line: {line}");
        // Events are time-ordered: extract the end_us field.
        let end_us: u64 = line
            .split("\"end_us\":")
            .nth(1)
            .and_then(|rest| {
                rest.chars()
                    .take_while(|c| c.is_ascii_digit())
                    .collect::<String>()
                    .parse()
                    .ok()
            })
            .expect("every event carries end_us");
        assert!(end_us >= last_end, "events must be time-ordered");
        last_end = end_us;
    }
}
