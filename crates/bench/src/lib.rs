//! # adaptdb-bench
//!
//! The benchmark harness regenerating every figure of the paper's
//! evaluation (§7). Each figure has a function in [`figures`] and a thin
//! binary in `src/bin/`; `repro_all` runs the lot and prints the series
//! next to the paper's qualitative expectations. EXPERIMENTS.md records
//! a captured run.
//!
//! Scales are micro (see DESIGN.md §6): absolute numbers are simulated
//! seconds on the simulated cluster, so only *shapes* — who wins, by
//! what factor, where crossovers sit — are comparable to the paper.

pub mod figures;
pub mod harness;
pub mod report;

pub use harness::{parse_args, print_table, BenchOpts, Stopwatch};
pub use report::{Fields, Report};
