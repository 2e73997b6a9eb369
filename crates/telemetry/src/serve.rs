//! The live observability plane: a zero-dependency HTTP listener that
//! serves the current Prometheus exposition at `GET /metrics`, so a
//! running experiment can be scraped instead of snapshotted to files.
//!
//! Design: the simulation is single-threaded and deterministic; the
//! listener must never feed back into it. The server therefore owns a
//! *published copy* of the exposition behind a `Mutex<String>` — the
//! simulation thread pushes a freshly rendered exposition into it at
//! every interval snapshot (see [`crate::Telemetry::snapshot`]), and
//! the listener thread only ever reads that copy. No lock, socket or
//! wall-clock state is visible to the simulation: attaching a server
//! leaves `.prom`/`.csv` artifacts and golden trace digests
//! byte-identical (pinned by `tests/live_scrape.rs`).
//!
//! This module is the one home for threads and wall-clock socket I/O in
//! the telemetry crate: its row in `odlb_lint::EXEMPTIONS` allows clock
//! reads (D01) and threads (D04) here and nothing else, because serving
//! is strictly observation-side.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// State shared between the simulation thread and the listener thread.
struct Shared {
    /// The latest published exposition body.
    body: Mutex<String>,
    /// Completed `GET /metrics` responses since bind.
    scrapes: AtomicU64,
    /// Set by `Drop` to stop the accept loop.
    stop: AtomicBool,
}

/// A tiny single-purpose HTTP/1.1 server bound to `127.0.0.1`.
///
/// Routes: `GET /metrics` returns the last published exposition with
/// `Content-Type: text/plain; version=0.0.4`; everything else is 404.
/// One request per connection (`Connection: close`), which is all a
/// Prometheus-style scraper needs.
pub struct MetricsServer {
    shared: Arc<Shared>,
    port: u16,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `127.0.0.1:port` (0 = ephemeral) and starts the listener
    /// thread. The served body is empty until [`MetricsServer::publish`].
    pub fn bind(port: u16) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let port = listener.local_addr()?.port();
        let shared = Arc::new(Shared {
            body: Mutex::new(String::new()),
            scrapes: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let thread_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("odlb-metrics-serve".to_string())
            .spawn(move || accept_loop(listener, thread_shared))?;
        Ok(MetricsServer {
            shared,
            port,
            thread: Some(thread),
        })
    }

    /// The bound port (useful with `bind(0)`).
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Replaces the served exposition body.
    pub fn publish(&self, body: String) {
        if let Ok(mut b) = self.shared.body.lock() {
            *b = body;
        }
    }

    /// Completed `GET /metrics` responses since bind.
    pub fn scrape_count(&self) -> u64 {
        self.shared.scrapes.load(Ordering::SeqCst)
    }

    /// Blocks until at least `n` scrapes have completed or `timeout`
    /// elapses; returns whether the target was reached. Lets a run hold
    /// its exposition live just long enough for an external scraper
    /// (the CI smoke test) without sleeping a fixed worst-case delay.
    pub fn await_scrapes(&self, n: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.scrape_count() < n {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        true
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(("127.0.0.1", self.port));
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => handle_connection(stream, &shared),
            Err(_) => continue,
        }
    }
}

/// Reads one request (bounded, with a read timeout so a stalled client
/// cannot wedge the listener) and answers it.
fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let mut req = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                req.extend_from_slice(&buf[..n]);
                if req.windows(4).any(|w| w == b"\r\n\r\n") || req.len() > 8192 {
                    break;
                }
            }
            // Timeout or reset: answer whatever arrived.
            Err(_) => break,
        }
    }
    let request = String::from_utf8_lossy(&req);
    let request_line = request.lines().next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or_default();
    let path = parts.next().unwrap_or_default();
    let path = path.split('?').next().unwrap_or_default();

    if method == "GET" && path == "/metrics" {
        let body = shared.body.lock().map(|b| b.clone()).unwrap_or_default();
        let ok = write_response(
            &mut stream,
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &body,
        );
        if ok {
            shared.scrapes.fetch_add(1, Ordering::SeqCst);
        }
    } else {
        write_response(&mut stream, "404 Not Found", "text/plain", "not found\n");
    }
}

fn write_response(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) -> bool {
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes()).is_ok()
        && stream.write_all(body.as_bytes()).is_ok()
        && stream.flush().is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(port: u16, target: &str) -> (String, String) {
        let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
        )
        .expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let (head, body) = response.split_once("\r\n\r\n").expect("split response");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_published_body_on_metrics() {
        let server = MetricsServer::bind(0).expect("bind ephemeral");
        assert_ne!(server.port(), 0);
        server.publish("# HELP x y\n# TYPE x counter\nx 1\n".to_string());
        let (head, body) = request(server.port(), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        assert_eq!(body, "# HELP x y\n# TYPE x counter\nx 1\n");
        assert_eq!(server.scrape_count(), 1);
    }

    #[test]
    fn publish_replaces_the_body() {
        let server = MetricsServer::bind(0).expect("bind");
        server.publish("first\n".to_string());
        server.publish("second\n".to_string());
        let (_, body) = request(server.port(), "/metrics");
        assert_eq!(body, "second\n");
    }

    #[test]
    fn unknown_paths_are_404_and_not_counted() {
        let server = MetricsServer::bind(0).expect("bind");
        let (head, _) = request(server.port(), "/other");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        assert_eq!(server.scrape_count(), 0);
    }

    #[test]
    fn await_scrapes_times_out_and_succeeds() {
        let server = MetricsServer::bind(0).expect("bind");
        assert!(!server.await_scrapes(1, Duration::from_millis(50)));
        server.publish(String::new());
        let _ = request(server.port(), "/metrics");
        assert!(server.await_scrapes(1, Duration::from_secs(5)));
    }

    #[test]
    fn drop_shuts_the_listener_down() {
        let server = MetricsServer::bind(0).expect("bind");
        let port = server.port();
        drop(server);
        // The port is released: a fresh bind to it succeeds (or the
        // connect below fails) — either way nothing is listening.
        let rebound = TcpListener::bind(("127.0.0.1", port));
        assert!(rebound.is_ok(), "listener thread must release the port");
    }
}
