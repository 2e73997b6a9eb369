//! # odlb-storage — disk model, shared I/O paths, read-ahead
//!
//! The storage substrate under the simulated database engines. It provides:
//!
//! * [`PageId`] / [`SpaceId`] — page addressing shared with the buffer pool.
//! * [`PageTable`] — a page → value map indexed by page number, not by
//!   hash: the buffer pool's LRU index and the Mattson replay's
//!   last-access table.
//! * [`DiskModel`] — a parametric service-time model (seek + rotation +
//!   per-page transfer, with a sequential-access discount) for a single
//!   spindle.
//! * [`Disk`] — a [`DiskModel`] attached to a FCFS queueing station;
//!   submitting requests yields exact FCFS completion times, so I/O wait
//!   grows when tenants contend for the spindle.
//! * [`SharedIoPath`] — the Xen *domain-0* abstraction: several VM domains
//!   funnel their I/O through one back-end disk with per-domain accounting.
//!   This is the mechanism behind the paper's Table 3 (two RUBiS instances
//!   in two domains collapse each other's throughput through domain-0).
//! * [`ReadAheadDetector`] — InnoDB-style linear read-ahead: when a query
//!   class touches enough sequentially increasing pages inside one extent,
//!   the next extent is prefetched. The paper monitors the *number of
//!   read-ahead requests* per query class as one of its outlier metrics
//!   (Fig. 4(d)): a query that degenerates into large scans shows a sharp
//!   read-ahead spike.

pub mod disk;
pub mod page;
pub mod page_table;
pub mod readahead;
pub mod shared;

pub use disk::{Disk, DiskModel, IoKind};
pub use page::{PageId, SpaceId};
pub use page_table::{PageTable, TableValue};
pub use readahead::{ConsumerRuns, ReadAheadDetector, EXTENT_PAGES};
pub use shared::{DomainId, SharedIoPath};
