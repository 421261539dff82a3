//! # cd-baselines — the comparison algorithms from the paper's evaluation
//!
//! * [`sequential`] — a faithful port of the original sequential Louvain
//!   method of Blondel et al. (the Table 1 / Fig. 3 baseline), plus the
//!   adaptive-threshold variant used in Fig. 4.
//! * [`parallel_cpu`] — a fine-grained synchronous shared-memory parallel
//!   Louvain in the style of Lu et al.'s OpenMP implementation (Fig. 7).
//! * [`colored`] — the coloring-based variant of Lu et al. (independent
//!   color classes swept in order, as described in the paper's Section 3).
//! * [`plm`] — asynchronous parallel local moving in the style of Staudt &
//!   Meyerhenke's PLM (Section 5 comparison).

#![warn(missing_docs)]

pub mod colored;
pub mod parallel_cpu;
pub mod plm;
pub mod result;
pub mod sequential;
mod stages;

pub use colored::{louvain_colored, ColoredConfig};
pub use parallel_cpu::{louvain_parallel_cpu, ParallelCpuConfig};
pub use plm::{louvain_plm, PlmConfig};
pub use result::{LouvainResult, StageStats};
pub use sequential::{louvain_sequential, one_level, SequentialConfig};
