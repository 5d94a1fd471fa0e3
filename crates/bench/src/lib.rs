//! # themis-bench
//!
//! The harness that regenerates every table and figure of the THEMIS
//! evaluation (§7) and runs the fairness/robustness gates. See the
//! README's "Regenerating the evaluation" for the experiment list and
//! `src/bin/experiments.rs` for the CLI.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
pub mod figures;
pub mod scenarios;
pub mod table;
