//! Per-thread private log buffers (paper §4).
//!
//! "To avoid locking overhead, we create a private logging buffer per
//! thread. We log the specified counts, statistics and unique page
//! accesses per query class. Finally, we flush the logs to disk only when
//! the buffer is full or if the thread is being shutdown."
//!
//! The simulated engine follows the same discipline: each worker owns a
//! [`PrivateLogBuffer`]; completed queries append a [`QueryLogRecord`];
//! the buffer hands back a drained batch when it fills, and the engine
//! forwards batches to the per-server [`crate::ClassStatsCollector`].

use crate::ids::ClassId;
use odlb_sim::{SimDuration, SimTime};

/// Everything the instrumentation records about one completed query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryLogRecord {
    /// The query's class (template) — the accounting unit.
    pub class: ClassId,
    /// Completion time.
    pub completed_at: SimTime,
    /// End-to-end latency.
    pub latency: SimDuration,
    /// Buffer pool page accesses performed.
    pub page_accesses: u64,
    /// Buffer pool misses incurred.
    pub buffer_misses: u64,
    /// I/O block requests issued.
    pub io_requests: u64,
    /// Read-ahead requests issued on this query's behalf.
    pub readaheads: u64,
    /// Time spent waiting for page locks before execution could proceed.
    pub lock_wait: SimDuration,
}

/// A fixed-capacity, single-owner log buffer.
#[derive(Clone, Debug)]
pub struct PrivateLogBuffer {
    records: Vec<QueryLogRecord>,
    /// Recycled batch storage: callers hand drained batches back via
    /// [`PrivateLogBuffer::recycle`], so steady-state flushing swaps two
    /// fixed buffers instead of allocating one per flush.
    spare: Vec<QueryLogRecord>,
    capacity: usize,
    flushes: u64,
}

impl PrivateLogBuffer {
    /// Creates a buffer that flushes after `capacity` records.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "buffer must hold at least one record");
        PrivateLogBuffer {
            records: Vec::with_capacity(capacity),
            spare: Vec::new(),
            capacity,
            flushes: 0,
        }
    }

    /// Appends a record. Returns the drained batch when the buffer just
    /// filled, `None` otherwise — the caller forwards batches to the
    /// collector, mirroring the paper's flush-on-full design.
    pub fn log(&mut self, record: QueryLogRecord) -> Option<Vec<QueryLogRecord>> {
        self.records.push(record);
        if self.records.len() >= self.capacity {
            self.flushes += 1;
            Some(std::mem::replace(
                &mut self.records,
                std::mem::take(&mut self.spare),
            ))
        } else {
            None
        }
    }

    /// Drains whatever is buffered (thread shutdown / interval close).
    pub fn flush(&mut self) -> Vec<QueryLogRecord> {
        if !self.records.is_empty() {
            self.flushes += 1;
        }
        std::mem::replace(&mut self.records, std::mem::take(&mut self.spare))
    }

    /// Returns a consumed batch's storage for reuse by the next flush.
    pub fn recycle(&mut self, mut batch: Vec<QueryLogRecord>) {
        batch.clear();
        self.spare = batch;
    }

    /// Number of flushes performed (full + explicit).
    pub fn flushes(&self) -> u64 {
        self.flushes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::AppId;

    fn rec(template: u32) -> QueryLogRecord {
        QueryLogRecord {
            class: ClassId::new(AppId(0), template),
            completed_at: SimTime::from_secs(1),
            latency: SimDuration::from_millis(100),
            page_accesses: 10,
            buffer_misses: 2,
            io_requests: 2,
            readaheads: 0,
            lock_wait: SimDuration::ZERO,
        }
    }

    #[test]
    fn flushes_exactly_when_full() {
        let mut buf = PrivateLogBuffer::new(3);
        assert!(buf.log(rec(1)).is_none());
        assert!(buf.log(rec(2)).is_none());
        let batch = buf.log(rec(3)).expect("third record fills the buffer");
        assert_eq!(batch.len(), 3);
        assert!(buf.flush().is_empty(), "the full flush drained everything");
        assert_eq!(buf.flushes(), 1);
    }

    #[test]
    fn explicit_flush_drains_partial() {
        let mut buf = PrivateLogBuffer::new(10);
        buf.log(rec(1));
        buf.log(rec(2));
        let batch = buf.flush();
        assert_eq!(batch.len(), 2);
        assert!(buf.flush().is_empty(), "second flush is empty");
        assert_eq!(buf.flushes(), 1, "empty flush not counted");
    }

    #[test]
    fn records_round_trip_unchanged() {
        let mut buf = PrivateLogBuffer::new(1);
        let r = rec(7);
        let batch = buf.log(r).unwrap();
        assert_eq!(batch[0], r);
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn zero_capacity_rejected() {
        PrivateLogBuffer::new(0);
    }

    #[test]
    fn recycled_batches_ping_pong_between_two_buffers() {
        let mut buf = PrivateLogBuffer::new(2);
        buf.log(rec(1));
        let first = buf.log(rec(2)).unwrap();
        let ptr = first.as_ptr();
        buf.recycle(first);
        buf.log(rec(3));
        let second = buf.log(rec(4)).unwrap();
        buf.recycle(second);
        buf.log(rec(5));
        let third = buf.log(rec(6)).unwrap();
        assert_eq!(third.len(), 2);
        // Steady state alternates between two fixed allocations: the
        // third flush hands back the first flush's storage.
        assert_eq!(third.as_ptr(), ptr);
    }
}
