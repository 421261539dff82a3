//! # cd-gpusim — a SIMT execution-model simulator
//!
//! This crate stands in for the CUDA runtime and device of the paper
//! ("Community Detection on the GPU", Naim et al.): it provides the exact
//! execution-model primitives the paper's kernels are written against —
//! lockstep thread groups of 4/8/16/32/128 lanes, 128-thread blocks scheduled
//! across parallel workers, global memory with `atomicAdd`/CAS, per-block
//! shared-memory budgets, Thrust-style device-wide collectives — plus the
//! hardware counters (`nvprof` replacement) the paper's profiling section
//! relies on: active-lane fractions, atomic/CAS traffic, memory transactions,
//! and a first-order cycle model.
//!
//! Blocks run concurrently on a persistent work-claiming thread pool, so
//! algorithms written against this simulator get real multicore speedups;
//! lanes within a group execute in lockstep on one worker, which is
//! semantically identical to SIMD execution and lets the simulator account
//! divergence.
//!
//! ```
//! use cd_gpusim::{Device, DeviceConfig, GlobalU32, Profile};
//!
//! let dev = Device::new(DeviceConfig::tesla_k40m().with_profile(Profile::Instrumented));
//! let counts = GlobalU32::zeroed(4);
//! dev.launch_threads("histogram", 1000, |ctx, t| {
//!     ctx.atomic_add_u32(&counts, t % 4, 1);
//! });
//! assert_eq!(counts.to_vec(), vec![250, 250, 250, 250]);
//! assert!(dev.metrics().kernel("histogram").unwrap().counters.atomic_adds == 1000);
//! ```
//!
//! Observability is pluggable: see [`profile`] for the
//! `Instrumented`/`Racecheck`/`Parallel` split between execution semantics
//! and accounting, [`racecheck`] for the happens-before hazard detector the
//! second profile turns on, and [`schedule`] for the block scheduler every
//! profile runs its launches on.

#![warn(missing_docs)]

pub mod config;
pub mod fault;
pub mod group;
pub mod launch;
pub mod memory;
pub mod metrics;
pub mod pool;
pub mod profile;
pub mod racecheck;
pub mod schedule;
pub mod thrust;

pub use config::DeviceConfig;
pub use fault::{FaultPlan, FaultStats, LaunchError};
pub use group::{GroupCtx, VALID_GROUP_LANES};
pub use launch::{Device, Exec};
pub use memory::{GlobalF64, GlobalU32, GlobalU64};
pub use metrics::{BlockCounters, KernelMetrics, MetricsReport};
pub use pool::{PoolStats, PooledF64, PooledU32, PooledU64};
pub use profile::{ConfigError, ExecutionProfile, Instrumented, Parallel, Profile, Racecheck};
pub use racecheck::{AccessKind, MemSpace, RaceClass, RaceReport};
