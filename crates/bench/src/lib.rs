//! Experiment-reproduction harness for the `selfstab` workspace.
//!
//! The [`experiments`] module regenerates, in paper-style rows, every
//! figure and claim of Farahat & Ebnenasir (ICDCS 2012) that DESIGN.md
//! indexes as E1–E13, plus the ablations. The `repro` binary drives it:
//!
//! ```text
//! cargo run -p selfstab-bench --bin repro --release            # everything
//! cargo run -p selfstab-bench --bin repro --release -- e3 e11  # selected
//! ```
//!
//! Criterion benchmarks live under `benches/` and cover the scaling
//! experiment (E12) and campaign throughput; each writes a `BENCH_*.json`
//! file at the repo root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod timing;
