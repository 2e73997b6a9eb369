//! FCFS multi-server queueing stations.
//!
//! A [`Station`] models a resource with `c` identical servers and a shared
//! FIFO queue — the textbook abstraction for a `c`-way CPU socket or a disk
//! spindle. Instead of simulating the queue with explicit events, the
//! station computes each job's start and completion times analytically at
//! arrival (valid for FCFS with known service demands): the caller then
//! schedules a single completion event. This keeps the event count per
//! query O(1) while producing exact FCFS queueing delays — the mechanism
//! behind the paper's CPU-saturation (Fig. 3) and I/O-interference
//! (Table 3) behaviours.

use crate::time::{SimDuration, SimTime};

/// The outcome of submitting a job to a station.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Admission {
    /// When service begins (>= arrival time).
    pub start: SimTime,
    /// When service completes.
    pub completion: SimTime,
}

/// A `c`-server FCFS queueing station.
#[derive(Clone, Debug)]
pub struct Station {
    /// Earliest time each server becomes free, kept as a small unsorted
    /// vector (`c` is 1–8 in practice; linear scans beat a heap there).
    free_at: Vec<SimTime>,
    /// Cumulative busy time across all servers, for utilisation probes.
    busy: SimDuration,
    /// Jobs admitted since creation.
    jobs: u64,
    /// Cumulative queueing delay.
    total_wait: SimDuration,
    /// Busy time at the last `snapshot()` call.
    busy_at_snapshot: SimDuration,
    /// Clock value at the last `snapshot()` call.
    snapshot_at: SimTime,
}

impl Station {
    /// Creates a station with `servers` identical servers.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "a station needs at least one server");
        Station {
            free_at: vec![SimTime::ZERO; servers],
            busy: SimDuration::ZERO,
            jobs: 0,
            total_wait: SimDuration::ZERO,
            busy_at_snapshot: SimDuration::ZERO,
            snapshot_at: SimTime::ZERO,
        }
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.free_at.len()
    }

    /// Submits a job arriving at `now` with the given service demand and
    /// returns its start/completion times. FCFS: the job takes the server
    /// that frees earliest.
    pub fn submit(&mut self, now: SimTime, service: SimDuration) -> Admission {
        let idx = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .map(|(i, _)| i)
            .expect("station has servers");
        let start = self.free_at[idx].max(now);
        let completion = start + service;
        self.free_at[idx] = completion;
        self.busy += service;
        self.jobs += 1;
        self.total_wait += start.since(now);
        Admission { start, completion }
    }

    /// Total jobs admitted since creation.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Mean queueing delay over all admitted jobs.
    pub fn mean_wait(&self) -> SimDuration {
        if self.jobs == 0 {
            SimDuration::ZERO
        } else {
            self.total_wait / self.jobs
        }
    }

    /// Utilisation (busy-server-time / capacity-time) since the last
    /// snapshot, then resets the snapshot to `now`. A value near 1.0 means
    /// the station is saturated.
    pub fn utilisation_since_snapshot(&mut self, now: SimTime) -> f64 {
        let interval = now.since(self.snapshot_at);
        let busy_delta = self.busy.saturating_sub(self.busy_at_snapshot);
        self.busy_at_snapshot = self.busy;
        self.snapshot_at = now;
        let capacity = interval.as_secs_f64() * self.servers() as f64;
        if capacity <= 0.0 {
            0.0
        } else {
            // Busy time can exceed the interval when service extends past
            // `now` (work already booked); clamp for a sane gauge.
            (busy_delta.as_secs_f64() / capacity).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }
    fn dur(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn single_server_fifo_backlog() {
        let mut st = Station::new(1);
        let a = st.submit(us(0), dur(100));
        assert_eq!(a.start, us(0));
        assert_eq!(a.completion, us(100));
        // Arrives while the first job is in service: waits.
        let b = st.submit(us(50), dur(100));
        assert_eq!(b.start, us(100));
        assert_eq!(b.completion, us(200));
    }

    #[test]
    fn idle_server_starts_immediately() {
        let mut st = Station::new(1);
        st.submit(us(0), dur(100));
        let b = st.submit(us(500), dur(10));
        assert_eq!(b.start, us(500));
        assert_eq!(b.completion, us(510));
    }

    #[test]
    fn multi_server_parallelism() {
        let mut st = Station::new(2);
        let a = st.submit(us(0), dur(100));
        let b = st.submit(us(0), dur(100));
        // Two servers: both start at once.
        assert_eq!(a.start, us(0));
        assert_eq!(b.start, us(0));
        // Third job waits for the earliest completion.
        let c = st.submit(us(10), dur(50));
        assert_eq!(c.start, us(100));
    }

    #[test]
    fn utilisation_tracks_busy_fraction() {
        let mut st = Station::new(1);
        st.submit(us(0), dur(500_000));
        let u = st.utilisation_since_snapshot(us(1_000_000));
        assert!((u - 0.5).abs() < 1e-9, "u={u}");
        // Second interval with no work: utilisation 0.
        let u2 = st.utilisation_since_snapshot(us(2_000_000));
        assert_eq!(u2, 0.0);
    }

    #[test]
    fn utilisation_clamps_at_one_under_saturation() {
        let mut st = Station::new(1);
        for i in 0..10 {
            st.submit(us(i * 10), dur(1_000_000));
        }
        let u = st.utilisation_since_snapshot(us(1_000_000));
        assert_eq!(u, 1.0);
    }

    #[test]
    fn mean_wait_accumulates() {
        let mut st = Station::new(1);
        st.submit(us(0), dur(100)); // wait 0
        st.submit(us(0), dur(100)); // wait 100
        st.submit(us(0), dur(100)); // wait 200
        assert_eq!(st.mean_wait(), dur(100));
        assert_eq!(st.jobs(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_panics() {
        Station::new(0);
    }
}
