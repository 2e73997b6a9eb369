//! # odlb-bufferpool — LRU buffer pool with per-class quotas
//!
//! The simulated InnoDB buffer pool. The paper instruments MySQL/InnoDB to
//! tie hit/miss/read-ahead statistics to query classes, and alleviates
//! memory interference by "enforcing a fixed quota allocation for the
//! respective query class" — a dedicated partition of the pool — while all
//! other classes keep sharing the rest (§3.3.2, Table 1).
//!
//! * [`LruList`] — an O(1) LRU list whose links live in its page table, the
//!   replacement policy under everything; one per partition, counting
//!   the pages capacity pressure evicts from it.
//! * [`PartitionedPool`] — the quota mechanism: a *general* partition plus
//!   dedicated per-class partitions carved out of it, with prefetch
//!   (read-ahead) insertion; the paper's Table 1 compares exactly
//!   `shared` vs `partitioned` vs `exclusive` configurations of this
//!   structure. Per-class hits and misses ride each query's log record,
//!   not the pool.

pub mod lru;
pub mod partitioned;

pub use lru::{LruList, Reference};
pub use partitioned::{AccessOutcome, ClassAccess, PartitionedPool, QuotaError};
