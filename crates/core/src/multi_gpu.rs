//! Coarse-grained multi-device Louvain — the paper's Section 6 outlook:
//! "our algorithm can also be used as a building block in a distributed
//! memory implementation of the Louvain method using multi-GPUs."
//!
//! The scheme follows the hybrid of Cheong et al. (the multi-GPU Louvain the
//! paper's related-work section describes):
//!
//! 1. partition the vertices into `d` blocks, one per device;
//! 2. each device runs the single-GPU algorithm on its *induced* subgraph
//!    (inter-partition edges are invisible during this phase — the source of
//!    the up-to-9 % modularity loss that work reports);
//! 3. the full graph is contracted by the union of the local clusterings
//!    (cut edges re-enter here), and one device refines the contracted graph
//!    with the single-GPU algorithm;
//! 4. the final partition is the composition of both levels.
//!
//! Each simulated device is independent; blocks of all devices share the
//! host's worker pool, which models devices working concurrently.
//!
//! # Fault tolerance
//!
//! The devices form one [`DeviceFleet`], whose fault-plan seeds are salted
//! with the device index so devices fail independently. Each block, and
//! then the refinement, runs on the fleet's recovery ladder
//! ([`crate::recovery`]): its home device with in-driver stage retries, then
//! the next healthy device, then — when every device is down — the host's
//! sequential Louvain baseline. Every such action is reported in
//! [`MultiGpuResult::recovery`], and the fault counts of all devices are
//! merged into [`MultiGpuResult::faults`].

use crate::config::{GpuLouvainConfig, RetryPolicy};
use crate::louvain::{louvain_gpu, GpuLouvainError};
use crate::recovery::{DeviceFleet, RecoveryAction};
use cd_baselines::{louvain_sequential, SequentialConfig};
use cd_gpusim::{DeviceConfig, FaultStats};
use cd_graph::{
    contract, edge_cut_members, induced_subgraph, modularity, Csr, Partition, VertexId,
};
use std::fmt::Display;
use std::time::{Duration, Instant};

/// Configuration of a multi-device run.
#[derive(Clone, Debug)]
pub struct MultiGpuConfig {
    /// Number of simulated devices (clamped to at least 1).
    pub num_devices: usize,
    /// Per-device algorithm configuration (including the in-driver
    /// [`RetryPolicy`] each device applies before its block fails over).
    pub gpu: GpuLouvainConfig,
    /// Device model used for every device. Its fault-plan seed is salted
    /// per device so devices draw independent fault schedules.
    pub device: DeviceConfig,
    /// Degrade to the host's sequential Louvain when no healthy device can
    /// run a block (on by default). When off, an all-devices-down state
    /// propagates the last device error instead.
    pub sequential_fallback: bool,
}

impl MultiGpuConfig {
    /// `d` K40m-like devices with the paper-default algorithm settings.
    pub fn k40m(num_devices: usize) -> Self {
        Self {
            num_devices,
            gpu: GpuLouvainConfig::paper_default(),
            device: DeviceConfig::tesla_k40m(),
            sequential_fallback: true,
        }
    }

    /// Returns the configuration with the given per-stage retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.gpu.retry = retry;
        self
    }
}

/// Result of a multi-device run.
#[derive(Clone, Debug)]
pub struct MultiGpuResult {
    /// Final communities of the original vertices.
    pub partition: Partition,
    /// Modularity of the final partition on the input graph.
    pub modularity: f64,
    /// Per-device local results (over the induced subgraphs).
    pub local_modularities: Vec<f64>,
    /// Total edge weight cut by the initial partitioning (invisible to the
    /// local phases).
    pub cut_weight: f64,
    /// Vertices of the merged (contracted) graph handed to the refinement
    /// device.
    pub merged_vertices: usize,
    /// Wall time of the slowest local phase (devices run concurrently).
    pub local_time: Duration,
    /// Wall time of the merge + refinement phase.
    pub merge_time: Duration,
    /// Recovery actions taken, in order. Empty on a fault-free run.
    pub recovery: Vec<RecoveryAction>,
    /// Fault counts merged across every device of the run.
    pub faults: FaultStats,
}

/// A completed local clustering, whichever engine produced it.
struct LocalOutcome {
    partition: Partition,
    modularity: f64,
}

/// Runs coarse-grained multi-device Louvain on `graph`.
pub fn louvain_multi_gpu(
    graph: &Csr,
    cfg: &MultiGpuConfig,
) -> Result<MultiGpuResult, GpuLouvainError> {
    let n = graph.num_vertices();
    if n == 0 {
        return Ok(MultiGpuResult {
            partition: Partition::from_vec(Vec::new()),
            modularity: 0.0,
            local_modularities: Vec::new(),
            cut_weight: 0.0,
            merged_vertices: 0,
            local_time: Duration::ZERO,
            merge_time: Duration::ZERO,
            recovery: Vec::new(),
            faults: FaultStats::default(),
        });
    }

    // One simulated device per block, plus one for refinement.
    let num_blocks = cfg.num_devices.max(1).min(n);
    let mut fleet = DeviceFleet::new(&cfg.device, num_blocks + 1)?;

    // ---- phase 1: local clustering per device -----------------------------
    // The edge-cut partitioner keeps the historical contiguous split unless
    // a BFS-growth candidate measurably lowers the cut fraction — fewer cut
    // edges means less structure invisible to the local phases, which is
    // where this path loses quality.
    let local_start = Instant::now();
    let (blocks, _stats) = edge_cut_members(graph, num_blocks);
    let mut local_results: Vec<(Vec<VertexId>, LocalOutcome)> = Vec::new();
    let mut cut_weight = 0.0;
    let mut local_modularities = Vec::new();
    for (bi, members) in blocks.iter().enumerate() {
        if members.is_empty() {
            continue;
        }
        let sub = induced_subgraph(graph, members);
        let local = cluster(&mut fleet, bi, format_args!("block {bi}"), &sub.graph, cfg)?;
        cut_weight += sub.cut_weight;
        local_modularities.push(local.modularity);
        local_results.push((sub.members, local));
    }
    let local_time = local_start.elapsed();

    // ---- phase 2: merge local clusterings into a global labeling ----------
    // Local community ids are disjoint across devices after offsetting.
    let merge_start = Instant::now();
    let mut global = vec![0 as VertexId; n];
    let mut offset: VertexId = 0;
    for (members, res) in &local_results {
        let mut max_label = 0;
        for (local, &orig) in members.iter().enumerate() {
            let label = res.partition.community_of(local as VertexId);
            max_label = max_label.max(label);
            global[orig as usize] = offset + label;
        }
        offset += max_label + 1;
    }
    let global = Partition::from_vec(global);

    // ---- phase 3: contract the full graph and refine on one device --------
    let (merged, merged_map) = contract(graph, &global);
    let refined = cluster(&mut fleet, num_blocks, "refine", &merged, cfg)?;
    let merge_time = merge_start.elapsed();

    // ---- compose the final partition ---------------------------------------
    let partition = merged_map.compose(&refined.partition);
    let q = modularity(graph, &partition);

    let faults = fleet.fault_stats();
    Ok(MultiGpuResult {
        partition,
        modularity: q,
        local_modularities,
        cut_weight,
        merged_vertices: merged.num_vertices(),
        local_time,
        merge_time,
        recovery: fleet.into_log(),
        faults,
    })
}

/// Clusters one work item on the fleet's recovery ladder, with the host's
/// sequential Louvain baseline as the last resort when enabled.
fn cluster(
    fleet: &mut DeviceFleet,
    home: usize,
    scope: impl Display,
    graph: &Csr,
    cfg: &MultiGpuConfig,
) -> Result<LocalOutcome, GpuLouvainError> {
    fleet.run(
        home,
        scope,
        |dev| {
            let res = louvain_gpu(dev, graph, &cfg.gpu)?;
            Ok(LocalOutcome { partition: res.partition, modularity: res.modularity })
        },
        cfg.sequential_fallback.then_some(|| {
            let seq = louvain_sequential(graph, &SequentialConfig::original());
            LocalOutcome { partition: seq.partition, modularity: seq.modularity }
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cd_gpusim::Device;
    use cd_graph::gen::{cliques, planted_partition};

    #[test]
    fn single_device_matches_plain_gpu_quality() {
        let pg = planted_partition(6, 30, 0.4, 0.02, 5);
        let single =
            louvain_gpu(&Device::k40m(), &pg.graph, &GpuLouvainConfig::paper_default()).unwrap();
        let multi = louvain_multi_gpu(&pg.graph, &MultiGpuConfig::k40m(1)).unwrap();
        // One device sees the whole graph; the extra refinement pass can only
        // help.
        assert!(
            multi.modularity >= single.modularity - 1e-9,
            "multi(1) {:.4} vs single {:.4}",
            multi.modularity,
            single.modularity
        );
        assert_eq!(multi.cut_weight, 0.0);
        assert!(multi.recovery.is_empty());
        assert_eq!(multi.faults.injected(), 0);
    }

    #[test]
    fn quality_degrades_gracefully_with_devices() {
        // The coarse-grained scheme loses a bounded amount of modularity as
        // the partition cuts more edges (Cheong et al. report up to 9%).
        let pg = planted_partition(8, 32, 0.4, 0.01, 9);
        let single = louvain_multi_gpu(&pg.graph, &MultiGpuConfig::k40m(1)).unwrap();
        for d in [2usize, 4] {
            let multi = louvain_multi_gpu(&pg.graph, &MultiGpuConfig::k40m(d)).unwrap();
            assert!(
                multi.modularity > 0.85 * single.modularity,
                "{d} devices: Q {:.4} vs single-device {:.4}",
                multi.modularity,
                single.modularity
            );
            assert!(multi.cut_weight > 0.0, "{d}-way block partition must cut edges");
            assert_eq!(multi.local_modularities.len(), d);
        }
    }

    #[test]
    fn cliques_survive_aligned_partitioning() {
        // Clique boundaries align with block boundaries: no quality loss.
        let g = cliques(4, 8, true);
        let multi = louvain_multi_gpu(&g, &MultiGpuConfig::k40m(4)).unwrap();
        for c in 0..4u32 {
            let base = c * 8;
            for v in 1..8u32 {
                assert_eq!(
                    multi.partition.community_of(base),
                    multi.partition.community_of(base + v)
                );
            }
        }
        assert!(multi.modularity > 0.6);
    }

    #[test]
    fn aligned_cliques_pin_the_contiguous_cut() {
        // Regression pin for the edge-cut partitioner swap: on the
        // clique-aligned fixture the historical contiguous split is already
        // optimal (only bridge edges cut), so the chooser must keep it —
        // same cut, same exact clique recovery, no quality regression.
        let g = cliques(4, 8, true);
        let (_, stats) = cd_graph::edge_cut_owners(&g, 4);
        let cont = cd_graph::shard_stats(
            &g,
            &cd_graph::contiguous_owners(g.num_vertices(), 4),
            4,
            cd_graph::ShardStrategy::Contiguous,
        );
        assert!(stats.cut_arcs <= cont.cut_arcs);
        let multi = louvain_multi_gpu(&g, &MultiGpuConfig::k40m(4)).unwrap();
        assert!(
            (multi.cut_weight - stats.cut_weight).abs() < 1e-12,
            "phase 1 must see exactly the chosen partition's cut ({} vs {})",
            multi.cut_weight,
            stats.cut_weight
        );
        assert!(multi.modularity > 0.6, "Q = {}", multi.modularity);
    }

    #[test]
    fn edge_cut_partitioning_reassembles_interleaved_cliques() {
        // Two 16-cliques interleaved by vertex id. The old contiguous split
        // cut both cliques in half, so no local phase ever saw either one
        // whole; the edge-cut partitioner follows the edges, reassembles
        // them, and the 2-device run cuts nothing at all.
        let size = 16u32;
        let mut edges = Vec::new();
        for c in 0..2u32 {
            for a in 0..size {
                for b in (a + 1)..size {
                    edges.push((2 * a + c, 2 * b + c, 1.0));
                }
            }
        }
        let g = cd_graph::csr_from_edges(2 * size as usize, &edges);
        let multi = louvain_multi_gpu(&g, &MultiGpuConfig::k40m(2)).unwrap();
        assert_eq!(multi.cut_weight, 0.0, "both cliques must land whole on one device");
        for v in (2..2 * size).step_by(2) {
            assert_eq!(multi.partition.community_of(0), multi.partition.community_of(v));
        }
        for v in (3..2 * size).step_by(2) {
            assert_eq!(multi.partition.community_of(1), multi.partition.community_of(v));
        }
        // Two equal disconnected cliques: Q = 1/2 exactly.
        assert!((multi.modularity - 0.5).abs() < 1e-9, "Q = {}", multi.modularity);
    }

    #[test]
    fn more_devices_than_vertices() {
        let g = cliques(1, 4, false);
        let multi = louvain_multi_gpu(&g, &MultiGpuConfig::k40m(16)).unwrap();
        assert_eq!(multi.partition.len(), 4);
    }

    #[test]
    fn zero_devices_is_clamped_to_one() {
        let g = cliques(2, 5, true);
        let multi = louvain_multi_gpu(&g, &MultiGpuConfig::k40m(0)).unwrap();
        assert_eq!(multi.local_modularities.len(), 1);
        assert!(multi.modularity > 0.0);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(0);
        let r = louvain_multi_gpu(&g, &MultiGpuConfig::k40m(2)).unwrap();
        assert_eq!(r.modularity, 0.0);
    }
}
