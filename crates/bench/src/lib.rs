//! # odlb-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation (§5), plus the
//! ablations from DESIGN.md. Each experiment is a library function taking
//! a scale knob, so the integration tests can run miniature versions and
//! the `experiments` binary runs the full-scale ones and prints the same
//! rows/series the paper reports.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`experiments::fig3`] | Fig. 3(a)–(c): sinusoid load, machine allocation, latency |
//! | [`experiments::fig4`] | Fig. 4(a)–(d): per-class deviation ratios after the `O_DATE` drop |
//! | [`experiments::fig5`] | Fig. 5: MRC of BestSeller (normal configuration) |
//! | [`experiments::fig6`] | Fig. 6: MRC of RUBiS SearchItemsByRegion |
//! | [`experiments::table1`] | Table 1: shared vs partitioned vs exclusive buffer pool |
//! | [`experiments::table2`] | Table 2: shared-pool memory contention and recovery |
//! | [`experiments::table3`] | Table 3: I/O contention between VM domains |
//! | [`experiments::ablations`] | A1 fences, A2 weights, A3 fine-vs-coarse, A4 threshold, A5 tracker |
//!
//! [`suite`] wraps every figure as a self-contained job returning a
//! [`suite::FigureOutput`], and [`runner`] provides the ordered worker
//! pool that runs those jobs concurrently (`experiments --jobs N`) while
//! committing outputs in canonical sequential order — a parallel run is
//! byte-identical to a sequential one. [`sweep`] builds on the same pool:
//! a resumable parameter-matrix jobserver (`experiments sweep`) with
//! content-addressed cell caching and shared-trace memoization.

mod bucketed;
pub mod experiments;
pub mod runner;
pub mod suite;
pub mod sweep;

pub use experiments::*;
