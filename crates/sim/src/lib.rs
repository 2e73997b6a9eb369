//! # odlb-sim — deterministic discrete-event simulation kernel
//!
//! The substrate under every experiment in this repository. The paper's
//! evaluation ran on a physical cluster; we reproduce its dynamics on a
//! deterministic discrete-event simulator so that every figure and table can
//! be regenerated bit-for-bit from a seed.
//!
//! The kernel provides:
//!
//! * [`SimTime`] / [`SimDuration`] — a microsecond-resolution virtual clock.
//! * [`EventQueue`] — a stable (FIFO within equal timestamps) queue of
//!   user-defined events: a hierarchical timing wheel on the digits of
//!   the timestamp, O(1) push and amortized O(1) pop at any depth and
//!   under any arrival distribution.
//! * [`rng::SimRng`] — a seeded, splittable PRNG plus the samplers the
//!   workload models need (uniform, exponential, Zipf, Gaussian).
//! * [`station::Station`] — a multi-server FCFS queueing station used to
//!   model CPU sockets and disks. Latency under load emerges from queueing
//!   at these stations, exactly the mechanism behind the paper's CPU
//!   saturation and I/O interference scenarios.
//! * [`hash`] — the workspace's one FNV-1a and one splitmix64: fixed,
//!   platform-independent functions for digests, content addresses,
//!   sampling and seeding.
//! * [`stats`] — the integer-exact nearest-rank quantile rule the
//!   telemetry histograms use.
//!
//! ```
//! use odlb_sim::{EventQueue, SimTime, SimDuration};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Tick(u32) }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(5), Ev::Tick(1));
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(2), Ev::Tick(0));
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(t, SimTime::from_micros(2_000));
//! assert_eq!(ev, Ev::Tick(0));
//! ```

pub mod hash;
pub mod queue;
pub mod rng;
pub mod station;
pub mod stats;
pub mod time;

pub use queue::EventQueue;
pub use rng::SimRng;
pub use station::Station;
pub use time::{SimDuration, SimTime};
