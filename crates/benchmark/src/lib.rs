//! # themis-benchmark
//!
//! The benchmark contract of the root `BENCHMARK.json`: four fixed
//! workloads ([`workloads`]), the end-to-end metrics measured from outside
//! the program ([`run`]), the correctness checks every run must pass
//! ([`checks`]), and a separate traced run ([`layers`]) whose per-layer
//! numbers come from a `/proc` thread sampler ([`procfs`]) and a
//! single-threaded layer replay ([`replay`]) recording spans ([`trace`]).
//! See the crate's `README.md` for definitions and how to read a trace.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checks;
pub mod layers;
pub mod procfs;
pub mod replay;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
