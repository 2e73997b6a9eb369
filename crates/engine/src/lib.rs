//! # odlb-engine — the simulated database engine
//!
//! Stands in for the MySQL/InnoDB instances of the paper's testbed. Each
//! [`DbEngine`] owns a (possibly partitioned) buffer pool, an InnoDB-style
//! read-ahead detector, per-class access windows for MRC recomputation, and
//! the per-thread private log buffer instrumentation from the paper's §4.
//!
//! Queries arrive as [`QuerySpec`]s — a query class plus the page-access
//! sequence and CPU demand its execution generates (produced by the
//! workload models in `odlb-workload`). [`DbEngine::execute`] plays the
//! access sequence through the buffer pool, charges misses and read-ahead
//! to the server's shared disk path, charges computation to the server's
//! CPU station, and returns the query's completion time together with its
//! instrumentation record.

pub mod engine;
pub mod locks;
pub mod query;

pub use engine::{DbEngine, EngineConfig, ExecutionResult};
pub use locks::LockManager;
pub use query::QuerySpec;
