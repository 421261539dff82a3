//! # cd-graph — graph substrate for the GPU Louvain reproduction
//!
//! Weighted undirected graphs in CSR form, deterministic synthetic
//! generators for every graph family in the paper's evaluation, graph I/O
//! (edge lists and MatrixMarket), and sequential reference implementations of
//! modularity (Eq. 1), modularity gain (Eq. 2), and graph aggregation — the
//! ground truth every parallel kernel in this workspace is validated against.
//!
//! See the conventions on [`Csr`] for how self-loops and `2m` are accounted;
//! they match the original sequential Louvain implementation.

#![warn(missing_docs)]

pub mod builder;
pub mod coloring;
pub mod compare;
pub mod components;
pub mod contract;
pub mod csr;
pub mod delta;
pub mod gen;
pub mod io;
pub mod modularity;
pub mod partition;
pub mod schedule;
pub mod scratch;
pub mod shard;
pub mod stats;
pub mod subgraph;

pub use builder::{csr_from_edges, csr_from_unit_edges, GraphBuilder};
pub use coloring::{greedy_coloring, parallel_coloring, Coloring};
pub use compare::{adjusted_rand_index, nmi};
pub use components::{component_labels, component_stats, ComponentStats, UnionFind};
pub use contract::contract;
pub use csr::{Csr, VertexId, Weight};
pub use delta::{
    apply_delta, AppliedDelta, DeltaBatch, DeltaBuilder, DeltaError, DeltaOp, VersionedCsr,
};
pub use modularity::{community_aggregates, modularity, modularity_gain, modularity_of_labels};
pub use partition::{Dendrogram, Partition};
pub use schedule::ThresholdSchedule;
pub use scratch::NeighborScratch;
pub use shard::{
    bfs_owners, bfs_owners_lazy, contiguous_owners, edge_cut_members, edge_cut_owners, shard_stats,
    Shard, ShardStats, ShardStrategy, ShardedCsr,
};
pub use stats::{bucket_of_degree, degree_stats, DegreeStats, PAPER_DEGREE_BUCKETS};
pub use subgraph::{block_ranges, induced_subgraph, InducedSubgraph};
