//! # odlb-core — the selective retuning controller (the paper's contribution)
//!
//! Implements §3's fine-grained resource allocation and load balancing
//! algorithm on top of the cluster substrate:
//!
//! 1. **Stable-state recording** — after every interval in which an
//!    application's SLA was continuously met, refresh the per-(instance,
//!    class) stable state signatures.
//! 2. **Diagnosis on violation** — first rule out CPU saturation (which
//!    gets reactive replica provisioning); otherwise run IQR outlier
//!    detection over the weighted per-class metric impacts on every
//!    instance hosting the application.
//! 3. **Memory interference** — for outlier contexts with memory-related
//!    counters (and for newly scheduled classes), recompute the MRC from
//!    the class's recent access window; classes whose parameters changed
//!    significantly (or that are new) are *problem classes*. If every
//!    class on the instance can be given its acceptable memory, enforce a
//!    quota for the problem classes and keep their placement; otherwise
//!    re-place the biggest problem class on another replica of its
//!    application (provisioning one if needed).
//! 4. **Top-k fallback** — when no outlier stands out, investigate the
//!    top-k heavyweight memory classes the same way.
//! 5. **I/O interference** — when the disk saturates without CPU or
//!    memory causes, migrate query contexts away from the hot server in
//!    decreasing order of I/O rate.
//! 6. **Coarse-grained fallback** — if violations persist despite
//!    fine-grained actions, fall back to whole-application isolation,
//!    exactly what the baseline systems would have done first.
//!
//! Every controller is the shared loop in [`skeleton`] (cooldowns, SLA
//! walk, deferred pins, tracing) around a [`Strategy`]: [`controller`]
//! holds the paper's rule, [`baseline`] the baselines it argues against
//! (CPU-trigger-only provisioning à la Tivoli, always-isolate
//! coarse-grained, live VM migration) for ablation A3.

pub mod actions;
pub mod baseline;
pub mod config;
pub mod controller;
pub mod memory;
pub mod skeleton;

pub use actions::Action;
pub use baseline::{CoarseGrainedController, CpuOnlyController, VmMigrationController};
pub use config::ControllerConfig;
pub use controller::SelectiveRetuningController;
pub use skeleton::{ClusterController, Controller, Interval, Strategy, Verdict};
