//! Single-spindle disk with a parametric service-time model and FCFS queue.

use odlb_sim::station::Admission;
use odlb_sim::{SimDuration, SimTime, Station};

/// Whether a request is positioned randomly (pays seek + rotation) or
/// continues a sequential stream (transfer only).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// Random access: head movement plus rotational delay plus transfer.
    Random,
    /// Sequential access: transfer only (the head is already positioned).
    Sequential,
}

/// Service-time parameters for one spindle.
///
/// Defaults approximate the striped 15K RPM SCSI storage of the paper's
/// Dell PowerEdge era: ~2.5 ms average positioning, ~105 MB/s streaming,
/// so a random 16 KiB page costs ~2.65 ms and a sequential page ~0.15 ms.
#[derive(Clone, Copy, Debug)]
pub struct DiskModel {
    /// Seek + rotational latency paid once per random request.
    pub positioning: SimDuration,
    /// Transfer time per 16 KiB page.
    pub transfer_per_page: SimDuration,
}

impl Default for DiskModel {
    fn default() -> Self {
        DiskModel {
            positioning: SimDuration::from_micros(2_500),
            transfer_per_page: SimDuration::from_micros(150),
        }
    }
}

impl DiskModel {
    /// Service time for a request of `pages` contiguous pages.
    pub fn service_time(&self, kind: IoKind, pages: u64) -> SimDuration {
        let transfer = self.transfer_per_page * pages;
        match kind {
            IoKind::Random => self.positioning + transfer,
            IoKind::Sequential => transfer,
        }
    }
}

/// Running I/O counters for one VM domain of a [`crate::SharedIoPath`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoCounters {
    /// Block read requests issued (one per `SharedIoPath::read` call).
    pub requests: u64,
    /// Pages transferred.
    pub pages: u64,
    /// Of which issued by the read-ahead engine.
    pub readahead_requests: u64,
}

impl IoCounters {
    /// Adds another counter set into this one.
    pub fn absorb(&mut self, other: IoCounters) {
        self.requests += other.requests;
        self.pages += other.pages;
        self.readahead_requests += other.readahead_requests;
    }
}

/// A disk: a [`DiskModel`] in front of a single-server FCFS station.
#[derive(Clone, Debug)]
pub struct Disk {
    model: DiskModel,
    station: Station,
}

impl Disk {
    /// Creates a disk with the given service-time model.
    pub fn new(model: DiskModel) -> Self {
        Disk {
            model,
            station: Station::new(1),
        }
    }

    /// Submits a read of `pages` contiguous pages arriving at `now`;
    /// returns FCFS start/completion.
    pub fn read(&mut self, now: SimTime, kind: IoKind, pages: u64) -> Admission {
        self.station
            .submit(now, self.model.service_time(kind, pages))
    }

    /// Utilisation since the previous probe (see
    /// [`Station::utilisation_since_snapshot`]).
    pub fn utilisation_since_snapshot(&mut self, now: SimTime) -> f64 {
        self.station.utilisation_since_snapshot(now)
    }

    /// Mean queueing delay over all requests.
    pub fn mean_wait(&self) -> SimDuration {
        self.station.mean_wait()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DomainId, SharedIoPath};

    #[test]
    fn random_pays_positioning_sequential_does_not() {
        let m = DiskModel::default();
        let r = m.service_time(IoKind::Random, 1);
        let s = m.service_time(IoKind::Sequential, 1);
        assert_eq!(r, SimDuration::from_micros(2_650));
        assert_eq!(s, SimDuration::from_micros(150));
    }

    #[test]
    fn multi_page_transfer_scales() {
        let m = DiskModel::default();
        assert_eq!(
            m.service_time(IoKind::Sequential, 64),
            SimDuration::from_micros(64 * 150)
        );
    }

    #[test]
    fn requests_queue_fcfs() {
        let mut d = Disk::new(DiskModel::default());
        let a = d.read(SimTime::ZERO, IoKind::Random, 1);
        let b = d.read(SimTime::ZERO, IoKind::Random, 1);
        assert_eq!(a.completion, SimTime::from_micros(2_650));
        assert_eq!(b.start, a.completion);
        assert_eq!(b.completion, SimTime::from_micros(5_300));
    }

    #[test]
    fn counters_track_traffic() {
        // The disk keeps no tally; its shared path counts every request.
        let mut d = SharedIoPath::new(DiskModel::default());
        d.read(DomainId(1), SimTime::ZERO, IoKind::Random, 1, false);
        d.read(DomainId(2), SimTime::ZERO, IoKind::Sequential, 64, true);
        let c = d.total_counters();
        assert_eq!(c.requests, 2);
        assert_eq!(c.pages, 65);
        assert_eq!(c.readahead_requests, 1);
    }

    #[test]
    fn counters_absorb() {
        let mut a = IoCounters {
            requests: 1,
            pages: 2,
            readahead_requests: 0,
        };
        a.absorb(IoCounters {
            requests: 3,
            pages: 4,
            readahead_requests: 5,
        });
        assert_eq!(
            a,
            IoCounters {
                requests: 4,
                pages: 6,
                readahead_requests: 5
            }
        );
    }
}
