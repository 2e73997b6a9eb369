//! # odlb-trace — decision-trace observability
//!
//! The paper's contribution is a *decision sequence*: which query-class
//! contexts get flagged as outliers, which MRC validations fire, and which
//! narrow action (quota, re-placement, provisioning, release, isolation)
//! the controller picks each measurement interval. This crate makes that
//! sequence a first-class, machine-readable artifact:
//!
//! * [`TraceEvent`] — one structured record per decision-relevant moment:
//!   interval close, SLA evaluation, per-metric outlier findings, MRC
//!   validation verdicts, and every applied control action.
//! * [`TraceSink`] — where events go. Ships with three implementations:
//!   [`RingBufferSink`] (bounded in-memory readback for tests and live
//!   inspection), [`JsonlSink`] (one canonical JSON object per line, for
//!   offline analysis), and [`DigestSink`] (folds the canonical event
//!   stream into a stable 64-bit FNV-1a digest — two runs produced the
//!   same decisions iff their digests match).
//! * [`Tracer`] — a cheaply cloneable fan-out handle the simulation
//!   driver, the controller and the baselines all share. An unattached
//!   tracer is free: emission sites skip event construction entirely.
//!
//! The crate depends only on `odlb-sim`, for [`fnv1a64`] (re-exported
//! here). Event payloads are plain integers, floats and interned strings,
//! so every layer of the workspace (cluster driver, controller,
//! baselines, experiment harness) can emit without dependency cycles.
//!
//! ## Digest semantics
//!
//! [`DigestSink`] hashes each event's canonical JSON line (exactly the
//! bytes [`JsonlSink`] writes, including the trailing newline) with
//! 64-bit FNV-1a. The simulation clock is integer microseconds and every
//! stochastic stream derives from `SimulationConfig.seed`, so a digest is
//! reproducible bit-for-bit across runs and platforms: golden tests pin
//! one digest per scenario and any behavioural drift — an extra
//! provisioning, a different quota, a reordered diagnosis — changes it.

pub mod event;
pub mod sink;

pub use event::{ActionKind, TraceEvent};
pub use odlb_sim::hash::fnv1a64;
pub use sink::{DigestSink, JsonlSink, RingBufferSink, SharedSink, TraceSink};

use std::cell::RefCell;
use std::rc::Rc;

/// A cheaply cloneable handle fanning events out to attached sinks.
///
/// Cloning shares the sink set (the driver and the controller hold clones
/// of the same tracer). With no sinks attached, [`Tracer::is_active`] is
/// false and emission sites skip building events altogether.
#[derive(Clone, Default)]
pub struct Tracer {
    sinks: Rc<RefCell<Vec<SharedSink>>>,
}

impl Tracer {
    /// Creates a tracer with no sinks (inactive until one is attached).
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Attaches a sink, returning a shared handle for later readback
    /// (ring buffers and digests are read after the run completes).
    pub fn attach<S: TraceSink + 'static>(&self, sink: S) -> Rc<RefCell<S>> {
        let handle = Rc::new(RefCell::new(sink));
        self.sinks.borrow_mut().push(handle.clone());
        handle
    }

    /// True when at least one sink is attached.
    pub fn is_active(&self) -> bool {
        !self.sinks.borrow().is_empty()
    }

    /// Sends one event to every attached sink.
    pub fn emit(&self, event: TraceEvent) {
        for sink in self.sinks.borrow().iter() {
            sink.borrow_mut().emit(&event);
        }
    }

    /// Flushes every attached sink (file sinks buffer).
    pub fn flush(&self) {
        for sink in self.sinks.borrow().iter() {
            sink.borrow_mut().flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_event() -> TraceEvent {
        TraceEvent::ActionApplied {
            end_us: 180_000_000,
            kind: ActionKind::SetQuota,
            app: Some(0),
            instance: Some(1),
            template: Some(8),
            pages: Some(3695),
            detail: "quota: app0#8 limited to 3695 pages on inst1".to_string(),
        }
    }

    #[test]
    fn fanout_reaches_every_sink() {
        let tracer = Tracer::new();
        let ring = tracer.attach(RingBufferSink::new(16));
        let digest = tracer.attach(DigestSink::new());
        assert!(tracer.is_active());
        tracer.emit(sample_event());
        assert_eq!(ring.borrow().events().len(), 1);
        assert_eq!(digest.borrow().events(), 1);
    }

    #[test]
    fn clones_share_the_sink_set() {
        let tracer = Tracer::new();
        let clone = tracer.clone();
        let ring = tracer.attach(RingBufferSink::new(4));
        clone.emit(sample_event());
        assert_eq!(ring.borrow().events().len(), 1);
    }

    #[test]
    fn digest_matches_jsonl_bytes() {
        // The digest must hash exactly what the JSONL sink writes.
        let tracer = Tracer::new();
        let digest = tracer.attach(DigestSink::new());
        let events = [sample_event(), sample_event()];
        let mut bytes = Vec::new();
        for e in &events {
            tracer.emit(e.clone());
            bytes.extend_from_slice(e.to_json().as_bytes());
            bytes.push(b'\n');
        }
        assert_eq!(digest.borrow().digest(), fnv1a64(&bytes));
    }
}
