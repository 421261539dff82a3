//! # cd-core — GPU Louvain community detection
//!
//! Implementation of "Community Detection on the GPU" (Naim, Manne,
//! Halappanavar, Tumeo; IPDPS 2017) on the [`cd_gpusim`] SIMT simulator: the
//! first Louvain formulation that parallelizes the access to *individual
//! edges*, load-balancing by binning vertices by degree and scaling the
//! thread-group width per bin.
//!
//! ## Quick start
//!
//! ```
//! use cd_core::{louvain_gpu, GpuLouvainConfig};
//! use cd_gpusim::Device;
//! use cd_graph::gen::cliques;
//!
//! let graph = cliques(4, 8, true); // four 8-cliques in a chain
//! let dev = Device::k40m();
//! let result = louvain_gpu(&dev, &graph, &GpuLouvainConfig::paper_default()).unwrap();
//! assert!(result.modularity > 0.6);
//! assert_eq!(result.partition.num_communities(), 4);
//! ```
//!
//! The phases are exposed individually ([`modopt`], [`aggregate`]) for
//! benchmarking, and the configuration carries the paper's threshold pair and
//! the ablation switches (`Relaxed` updates, `ForceGlobal` hash placement,
//! `NodeCentric` assignment).

#![warn(missing_docs)]

pub mod aggregate;
pub mod algorithm;
mod bucketed;
pub mod config;
pub mod dev_graph;
pub mod halo;
pub mod hashtable;
pub mod labelprop;
pub mod louvain;
pub mod modopt;
pub mod multi_gpu;
pub mod primes;
pub mod recovery;
pub mod refine;
pub mod schedule;

pub use aggregate::{aggregate as aggregate_graph, AggregateOutcome};
pub use algorithm::{detect_communities, detect_communities_gated, Algorithm};
pub use cd_graph::ThresholdSchedule;
pub use config::{
    BucketSpec, GpuLouvainConfig, HashPlacement, RetryPolicy, ThreadAssignment, UpdateStrategy,
    AGG_BUCKETS, MODOPT_BUCKETS,
};
pub use dev_graph::DeviceGraph;
pub use halo::{halo_move_host, halo_move_pass, HaloView};
pub use hashtable::TableOverflow;
pub use labelprop::{label_propagation, label_propagation_gated, LpaMode};
pub use louvain::{
    estimated_device_bytes, leiden_gpu, leiden_gpu_gated, louvain_gpu, louvain_gpu_gated,
    louvain_gpu_with_schedule, louvain_warm_start, louvain_warm_start_gated, GpuLouvainError,
    GpuLouvainResult, GpuStageStats, StageAbort, StageCheckpoint,
};
pub use modopt::{modularity_optimization, modularity_optimization_seeded, OptOutcome, WarmSeed};
pub use multi_gpu::{louvain_multi_gpu, MultiGpuConfig, MultiGpuResult};
pub use recovery::{retry_transient, DeviceFleet, RecoveryAction};
pub use refine::refine_communities;
pub use schedule::WidthSchedule;
