//! Trace sinks: where decision-trace events go.

use crate::event::TraceEvent;
use odlb_sim::hash::Fnv1a;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::hash::Hasher;
use std::io::Write;
use std::rc::Rc;

/// A destination for trace events.
pub trait TraceSink {
    /// Receives one event.
    fn emit(&mut self, event: &TraceEvent);

    /// Flushes buffered output (no-op for in-memory sinks).
    fn flush(&mut self) {}
}

/// A shared, dynamically typed sink handle as stored by a `Tracer`.
pub type SharedSink = Rc<RefCell<dyn TraceSink>>;

/// Bounded in-memory sink keeping the most recent events.
///
/// Tests and live dashboards read the retained window back after (or
/// during) a run; when the buffer is full the oldest event is dropped.
#[derive(Clone, Debug)]
pub struct RingBufferSink {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    /// Total events ever emitted (including dropped ones).
    seen: u64,
}

impl RingBufferSink {
    /// Creates a ring retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingBufferSink {
            capacity,
            events: VecDeque::with_capacity(capacity.min(1024)),
            seen: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> &VecDeque<TraceEvent> {
        &self.events
    }

    /// Total events emitted over the sink's lifetime.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

impl TraceSink for RingBufferSink {
    fn emit(&mut self, event: &TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event.clone());
        self.seen += 1;
    }
}

/// Writes one canonical JSON object per line to any `io::Write`.
pub struct JsonlSink<W: Write> {
    writer: W,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer }
    }

    /// Borrows the inner writer (e.g. to read back an in-memory buffer
    /// while the sink stays attached to a tracer).
    pub fn writer(&self) -> &W {
        &self.writer
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn emit(&mut self, event: &TraceEvent) {
        // I/O errors must not perturb the simulation.
        let _ = self.writer.write_all(event.to_json().as_bytes());
        let _ = self.writer.write_all(b"\n");
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

/// Folds the canonical event stream into a stable 64-bit digest.
///
/// The digest is 64-bit FNV-1a over exactly the bytes a [`JsonlSink`]
/// would write (each event's canonical JSON line plus `\n`). Equal
/// digests ⇒ byte-identical decision traces; any behavioural drift in a
/// seeded run changes the digest.
#[derive(Clone, Debug, Default)]
pub struct DigestSink {
    state: Fnv1a,
    events: u64,
}

impl DigestSink {
    /// Creates an empty digest (offset-basis state).
    pub fn new() -> Self {
        DigestSink::default()
    }

    /// The digest over everything emitted so far.
    pub fn digest(&self) -> u64 {
        self.state.finish()
    }

    /// Events folded in so far.
    pub fn events(&self) -> u64 {
        self.events
    }
}

impl TraceSink for DigestSink {
    fn emit(&mut self, event: &TraceEvent) {
        self.state.write(event.to_json().as_bytes());
        self.state.write(b"\n");
        self.events += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ActionKind;
    use crate::fnv1a64;

    fn ev(seq: u64) -> TraceEvent {
        TraceEvent::IntervalClosed {
            seq,
            start_us: seq * 10,
            end_us: (seq + 1) * 10,
            instances: 1,
            classes: 1,
        }
    }

    #[test]
    fn ring_drops_oldest_beyond_capacity() {
        let mut ring = RingBufferSink::new(3);
        for i in 0..5 {
            ring.emit(&ev(i));
        }
        assert_eq!(ring.seen(), 5);
        let seqs: Vec<u64> = ring
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::IntervalClosed { seq, .. } => *seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(&ev(0));
        sink.emit(&TraceEvent::ActionApplied {
            end_us: 20,
            kind: ActionKind::ProvisionedReplica,
            app: Some(0),
            instance: Some(2),
            template: None,
            pages: None,
            detail: "provisioned inst2 for app0".to_string(),
        });
        let text = std::str::from_utf8(sink.writer()).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(line.starts_with("{\"event\":\""));
            assert!(line.ends_with('}'));
        }
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = DigestSink::new();
        let mut b = DigestSink::new();
        a.emit(&ev(0));
        a.emit(&ev(1));
        b.emit(&ev(1));
        b.emit(&ev(0));
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.events(), 2);
    }

    #[test]
    fn digest_equals_hash_of_jsonl_stream() {
        let events = [ev(0), ev(1), ev(2)];
        let mut digest = DigestSink::new();
        let mut jsonl = JsonlSink::new(Vec::new());
        for e in &events {
            digest.emit(e);
            jsonl.emit(e);
        }
        assert_eq!(digest.digest(), fnv1a64(jsonl.writer()));
    }
}
