//! # odlb-cluster — the replicated database cluster substrate
//!
//! Reimplements the paper's cluster architecture (Fig. 2):
//!
//! * A **scheduler tier** with one [`Scheduler`] per application,
//!   implementing read-one-write-all replication and *per-query-class*
//!   placement and load balancing — the paper's fine-grained scheduling
//!   unit (§3.2). The controller pins a re-placed class to one replica.
//! * A **resource manager** making global replica-allocation decisions
//!   (which database instances an application runs on, provisioning new
//!   ones from the free pool with a realistic copy/warm-up delay).
//! * **Physical servers** (multi-core FCFS CPU stations + a shared
//!   domain-0 I/O path), hosting one or more **database instances**
//!   ([`odlb_engine::DbEngine`]s), possibly in separate VM domains.
//! * The **simulation driver** ([`Simulation`], a [`Model`] plus its
//!   observers) — the discrete-event loop gluing client sessions,
//!   schedulers, engines and servers together. It runs one *measurement
//!   interval* at a time and hands the interval's
//!   per-instance reports and SLA outcomes back to the caller, so a
//!   controller (the `odlb-core` crate, or a baseline) can diagnose and
//!   act between intervals exactly like the paper's decision managers.

pub mod aggregate;
pub mod driver;
pub mod scheduler;
pub mod topology;

pub use aggregate::AppAggregate;
pub use driver::{
    Actuation, Applied, IntervalOutcome, Model, ServerSnapshot, Simulation, SimulationConfig,
    WorkCounts, MEASUREMENT_INTERVAL,
};
pub use scheduler::Scheduler;
pub use topology::InstanceId;
