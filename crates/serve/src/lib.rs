//! # cd-serve — a batched community-detection service
//!
//! The serving layer over the GPU Louvain reproduction: an asynchronous job
//! API with admission control, a device-pool scheduler, and a
//! content-addressed result cache. The paper computes one clustering of one
//! graph; this crate asks what it takes to *operate* that computation —
//! many concurrent requests, bounded memory, explicit backpressure, and
//! reproducible results under load.
//!
//! ## Architecture
//!
//! ```text
//!   submit ──► admission ──► bounded priority queue ──► placement ──► run
//!               │  │              (SubmissionQueue)     (DevicePool)   │
//!               │  └─ coalesce onto identical in-flight job            │
//!               └─ content-addressed cache hit (ResultCache) ◄── insert┘
//! ```
//!
//! * **Admission control** — the queue is bounded; a submit past the bound
//!   returns [`Rejected::QueueFull`] synchronously. Backpressure is an API
//!   answer, not a timeout.
//! * **Scheduling** — jobs are placed on one of N simulated device slots by
//!   their [`cd_core::estimated_device_bytes`] footprint (best fit,
//!   deterministic ties). Jobs too large for any single device run the
//!   exclusive multi-device path with its failover/degradation ladder.
//! * **Content addressing** — results are keyed by a structural hash of the
//!   CSR plus the result-affecting options. The hash is paid once per graph
//!   allocation the server holds (a resubmitted `Arc` finds it in the base
//!   registry's reverse index) and once per submit of any other
//!   allocation. A repeat submission is answered from the cache; an
//!   identical *in-flight* submission coalesces onto the running job. Both
//!   paths hand out the same `Arc`, so reuse is bit-identical by
//!   construction.
//! * **Cooperative lifecycle** — cancellation and deadlines are observed at
//!   the dequeue checkpoint and at every stage checkpoint of the gated
//!   driver; a run is never interrupted mid-stage.
//! * **Incremental jobs** — [`Server::submit_delta`] submits a
//!   [`cd_graph::DeltaBatch`] against a previously seen base. The content
//!   key chains the base hash with the batch hash, so resubmitted delta
//!   chains warm-hit the cache link by link; a resident base result seeds
//!   the warm-start driver so the run re-evaluates only the touched
//!   frontier.
//!
//! ## Quick start
//!
//! ```
//! use cd_serve::{JobOptions, Server, ServerConfig};
//! use cd_graph::gen::cliques;
//! use std::sync::Arc;
//!
//! let mut server = Server::new(ServerConfig::test_manual()); // workers = 0
//! let graph = Arc::new(cliques(4, 8, true));
//! let id = server.submit(Arc::clone(&graph), JobOptions::default()).unwrap();
//! server.run_until_idle(); // manual mode: the caller drives execution
//! let outcome = server.await_result(id);
//! let result = outcome.result().expect("completed");
//! assert!(result.modularity > 0.6);
//!
//! // Same content again: served from the cache, same Arc, zero compute.
//! let again = server.submit(graph, JobOptions::default()).unwrap();
//! let cached = server.await_result(again);
//! assert!(Arc::ptr_eq(result, cached.result().unwrap()));
//! ```
//!
//! With `workers > 0` (the default), submission returns immediately and the
//! worker pool runs jobs concurrently; [`Server::await_result`] blocks
//! until the job settles. The closed-loop load generator ([`loadgen`])
//! replays a seeded trace of the workload suite against a server — the
//! `repro serve` experiment uses it to produce `BENCH_serve.json` and to
//! verify end-to-end determinism by replaying the trace twice. The
//! open-loop generator ([`loadgen::run_open_loop`]) submits on a Poisson
//! arrival schedule instead, driving the server *past* saturation — the
//! `repro overload` experiment uses it to locate the knee and verify that
//! overload sheds (deadline expiry at five checkpoints, estimator-based
//! [`Rejected::WontMeetDeadline`]) rather than corrupts. Device circuit
//! breakers ([`BreakerConfig`]) quarantine failing devices, and the result
//! cache persists across restarts ([`Server::snapshot_cache_to`] /
//! [`ServerConfig::cache_snapshot`]).

#![warn(missing_docs)]

pub mod cache;
pub mod hash;
pub mod job;
pub mod loadgen;
pub mod metrics;
pub mod persist;
pub mod queue;
pub mod scheduler;
pub mod server;

pub use cache::{CacheStats, ResultCache};
pub use cd_core::Algorithm;
pub use hash::{chained_graph_hash, delta_hash, options_hash, structural_hash, CacheKey, Fnv1a};
pub use job::{
    DeltaBase, DeviceFault, ExecPath, JobId, JobOptions, JobOutcome, JobStatus, Priority, Rejected,
    ServeResult,
};
pub use loadgen::{
    distinct_rings, labels_fnv, run_open_loop, run_trace, suggested_device_bytes, JobRecord,
    OpenLoopConfig, OpenLoopReport, TraceConfig, TraceReport,
};
pub use metrics::{LatencyStats, ServeMetrics};
pub use persist::{RestoreError, SnapshotEntry};
pub use queue::SubmissionQueue;
pub use scheduler::{BreakerConfig, DevicePool, DeviceSlotStats, Placement};
pub use server::{Server, ServerConfig};
