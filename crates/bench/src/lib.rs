//! # cd-bench — the reproduction harness
//!
//! One experiment per table/figure of the paper's evaluation (see
//! `DESIGN.md` for the index), plus Criterion microbenches for the kernels.
//! The `repro` binary drives the experiments:
//!
//! ```text
//! repro table1 --scale small
//! repro all --scale tiny
//! ```

#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod runner;
pub mod snapshot;
