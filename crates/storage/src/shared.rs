//! The Xen domain-0 shared I/O path.
//!
//! Xen's split-driver model routes every guest domain's block I/O through
//! the control domain (domain-0), so domains that are isolated in CPU and
//! memory still contend at the storage back-end. The paper's Table 3 shows
//! exactly this: two I/O-intensive RUBiS instances in separate domains on
//! one physical machine collapse to a third of their standalone throughput.
//!
//! [`SharedIoPath`] models that back-end: one [`Disk`] shared by all
//! domains of a physical machine, with per-domain I/O accounting that the
//! diagnosis layer reads to attribute interference.

use crate::disk::{Disk, DiskModel, IoCounters, IoKind};
use odlb_sim::station::Admission;
use odlb_sim::{SimDuration, SimTime};
use odlb_telemetry::{enter_span, span_units, SharedSpanProfiler};
use std::collections::BTreeMap;

/// Identifies a VM domain on one physical machine. Domain 0 is the control
/// domain; guests are 1, 2, ….
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DomainId(pub u32);

/// One physical machine's storage back-end, shared by its VM domains.
#[derive(Clone, Debug)]
pub struct SharedIoPath {
    disk: Disk,
    per_domain: BTreeMap<DomainId, IoCounters>,
    profiler: Option<SharedSpanProfiler>,
}

impl SharedIoPath {
    /// Creates a shared path over a disk with the given model.
    pub fn new(model: DiskModel) -> Self {
        SharedIoPath {
            disk: Disk::new(model),
            per_domain: BTreeMap::new(),
            profiler: None,
        }
    }

    /// Installs a span profiler: every read records a `storage_read`
    /// span whose sim units are the request's simulated service time
    /// (microseconds). Observation-only.
    pub fn set_profiler(&mut self, profiler: SharedSpanProfiler) {
        self.profiler = Some(profiler);
    }

    /// Submits a read on behalf of `domain`. All domains share one FCFS
    /// queue — this is where cross-domain interference comes from.
    pub fn read(
        &mut self,
        domain: DomainId,
        now: SimTime,
        kind: IoKind,
        pages: u64,
        readahead: bool,
    ) -> Admission {
        let _span = enter_span(&self.profiler, "storage_read");
        let entry = self.per_domain.entry(domain).or_default();
        entry.requests += 1;
        entry.pages += pages;
        if readahead {
            entry.readahead_requests += 1;
        }
        let adm = self.disk.read(now, kind, pages);
        span_units(&self.profiler, adm.completion.since(adm.start).as_micros());
        adm
    }

    /// Counters summed over all domains.
    pub fn total_counters(&self) -> IoCounters {
        let mut total = IoCounters::default();
        for c in self.per_domain.values() {
            total.absorb(*c);
        }
        total
    }

    /// Back-end utilisation since the last probe.
    pub fn utilisation_since_snapshot(&mut self, now: SimTime) -> f64 {
        self.disk.utilisation_since_snapshot(now)
    }

    /// Mean queueing delay at the back-end over all requests.
    pub fn mean_wait(&self) -> SimDuration {
        self.disk.mean_wait()
    }

    /// Cumulative per-domain counters, domains in sorted order.
    pub fn domain_counters(&self) -> Vec<(DomainId, IoCounters)> {
        self.per_domain.iter().map(|(d, c)| (*d, *c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domains_share_one_queue() {
        let mut path = SharedIoPath::new(DiskModel::default());
        let a = path.read(DomainId(1), SimTime::ZERO, IoKind::Random, 1, false);
        let b = path.read(DomainId(2), SimTime::ZERO, IoKind::Random, 1, false);
        // Domain 2's request waits behind domain 1's: interference.
        assert_eq!(b.start, a.completion);
    }

    #[test]
    fn per_domain_accounting() {
        let mut path = SharedIoPath::new(DiskModel::default());
        for _ in 0..3 {
            path.read(DomainId(1), SimTime::ZERO, IoKind::Random, 2, false);
        }
        path.read(DomainId(2), SimTime::ZERO, IoKind::Sequential, 64, true);
        let d1 = path.per_domain.get(&DomainId(1)).unwrap();
        let d2 = path.per_domain.get(&DomainId(2)).unwrap();
        assert_eq!(d1.requests, 3);
        assert_eq!(d1.pages, 6);
        assert_eq!(d2.readahead_requests, 1);
        assert_eq!(path.total_counters().requests, 4);
    }
}
