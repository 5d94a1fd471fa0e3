//! # themis-bench
//!
//! The harness that regenerates every table and figure of the THEMIS
//! evaluation (§7) and runs the fairness/robustness gates. The
//! [`experiments`] table declares every experiment once; `src/bin/experiments.rs`
//! is the CLI over it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
pub mod experiments;
pub mod figures;
pub mod scenarios;
pub mod table;
