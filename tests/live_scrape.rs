//! End-to-end tests for the live observability plane: a run with a
//! scrape endpoint attached serves the current exposition over a real
//! socket, and serving is strictly observation-side — artifacts and
//! decision-trace digests stay byte-identical with or without it.

use odlb::telemetry::{validate_prometheus, MetricsServer, SpanProfiler, Telemetry};
use odlb::trace::{DigestSink, Tracer};
use odlb_bench::experiments::{fig3, Observers};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::rc::Rc;

/// One HTTP GET against the endpoint; returns (status line, body).
fn scrape(port: u16, target: &str) -> (String, String) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("split response");
    let status = head.lines().next().unwrap_or_default().to_string();
    (status, body.to_string())
}

/// The scaled-down fig3 run the determinism tests use, with an optional
/// live endpoint attached the same way `experiments --serve` wires it.
fn run(server: Option<Rc<MetricsServer>>) -> (String, String, u64) {
    let tracer = Tracer::new();
    let digest = tracer.attach(DigestSink::new());
    let mut telemetry = Telemetry::attached();
    if let Some(server) = server {
        telemetry = telemetry.with_server(server);
    }
    let observers = Observers {
        tracer,
        telemetry: telemetry.clone(),
        profiler: Some(SpanProfiler::shared()),
    };
    fig3::run_observed(&observers, 12, 4, 20, 150, 2);
    let prom = telemetry.render_prometheus().expect("attached");
    let csv = telemetry.render_csv().expect("attached");
    let d = digest.borrow().digest();
    (prom, csv, d)
}

#[test]
fn live_endpoint_serves_the_current_exposition() {
    let server = Rc::new(MetricsServer::bind(0).expect("bind ephemeral"));
    let port = server.port();
    let (prom, _, _) = run(Some(server.clone()));

    let (status, body) = scrape(port, "/metrics");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    // The served copy is the exposition published at the last interval
    // snapshot — the same thing `render_prometheus` returns after the run.
    assert_eq!(body, prom);
    let stats = validate_prometheus(&body).expect("served exposition must validate");
    assert!(stats.families > 0, "served exposition must not be empty");
    assert!(body.contains("odlb_app_throughput_qps"));
    assert!(
        body.contains("odlb_cluster_query_latency_us_count"),
        "cluster-wide merged histogram missing from live exposition"
    );
    assert!(server.scrape_count() >= 1);

    let (status, _) = scrape(port, "/other");
    assert!(status.starts_with("HTTP/1.1 404"), "{status}");
}

#[test]
fn serving_leaves_artifacts_and_digests_identical() {
    let (prom_plain, csv_plain, digest_plain) = run(None);
    let server = Rc::new(MetricsServer::bind(0).expect("bind"));
    // Scrape traffic racing the run must not perturb it either: hit the
    // endpoint once mid-setup before the run even starts.
    let _ = scrape(server.port(), "/metrics");
    let (prom_served, csv_served, digest_served) = run(Some(server));

    assert_eq!(digest_plain, digest_served, "serving changed the digest");
    assert_eq!(
        prom_plain, prom_served,
        "serving changed the .prom artifact"
    );
    assert_eq!(csv_plain, csv_served, "serving changed the .csv artifact");
}
