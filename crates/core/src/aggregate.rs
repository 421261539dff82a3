//! The aggregation (contraction) phase — Algorithm 3 of the paper.
//!
//! Four sub-tasks, all on device:
//!
//! 1. community sizes and degree-sum upper bounds (`comSize`, `comDegree`)
//!    via atomic accumulation;
//! 2. a consecutive numbering of the non-empty communities (`newID`) via a
//!    prefix sum;
//! 3. storage layout for the new graph (`edgePos`, `vertexStart`) via prefix
//!    sums, plus the `com` array ordering vertices by community;
//! 4. `mergeCommunity` per community — bucketed by expected work exactly like
//!    `computeMove` — hashing every member's neighbor communities, then
//!    compacting the resulting edge lists into the final CSR.

use crate::bucketed::{launch_bounded, launch_open_ended, sort_open_ended};
use crate::config::{GpuLouvainConfig, AGG_BUCKETS};
use crate::dev_graph::DeviceGraph;
use crate::hashtable::{HashTable, TableOverflow};
use crate::louvain::GpuLouvainError;
use crate::schedule::WidthSchedule;
use cd_gpusim::{
    dispatch_profile, Device, ExecutionProfile, GlobalF64, GlobalU32, GlobalU64, GroupCtx,
};

/// Kernel names per community bucket, hoisted so no per-phase `format!`
/// allocation happens on the merge path.
const MERGE_KERNELS: [&str; 3] = ["merge_community_b1", "merge_community_b2", "merge_community_b3"];

/// Work-to-width mapping of the merge kernels; const evaluation validates
/// the bucket-table shape at build time.
const AGG_WIDTHS: WidthSchedule = WidthSchedule::new(&AGG_BUCKETS);

/// Output of the aggregation phase.
#[derive(Clone, Debug)]
pub struct AggregateOutcome {
    /// The contracted graph.
    pub graph: DeviceGraph,
    /// For every *old* vertex, the id of the new vertex (renumbered
    /// community) it was merged into — one dendrogram level.
    pub vertex_map: Vec<u32>,
}

/// Contracts `g` under the community labeling `comm`.
///
/// Alg. 3 sizes `comSize`/`comDegree`/`newID` by the vertex count: community
/// ids are vertex ids (every phase starts from the singleton partition), so
/// they must be `< n` — a violation (a corrupted label) is reported as
/// [`GpuLouvainError::InvalidLabels`] instead of indexing out of bounds.
pub fn aggregate(
    dev: &Device,
    g: &DeviceGraph,
    comm: &[u32],
    cfg: &GpuLouvainConfig,
) -> Result<AggregateOutcome, GpuLouvainError> {
    // One runtime dispatch per phase; the kernels below are monomorphized
    // for the selected profile.
    dispatch_profile!(dev.profile(), P => aggregate_typed::<P>(dev, g, comm, cfg))
}

/// [`aggregate`] monomorphized for one execution profile.
fn aggregate_typed<P: ExecutionProfile>(
    dev: &Device,
    g: &DeviceGraph,
    comm: &[u32],
    cfg: &GpuLouvainConfig,
) -> Result<AggregateOutcome, GpuLouvainError> {
    let n = g.num_vertices();
    if comm.len() != n {
        return Err(GpuLouvainError::InvariantViolation {
            stage: "aggregate",
            detail: format!("labeling has {} entries for {n} vertices", comm.len()),
        });
    }
    if let Some((index, &label)) = comm.iter().enumerate().find(|&(_, &c)| (c as usize) >= n) {
        return Err(GpuLouvainError::InvalidLabels { index, label, num_vertices: n });
    }
    if n == 0 {
        return Ok(AggregateOutcome {
            graph: DeviceGraph::from_parts(vec![0], Vec::new(), Vec::new()),
            vertex_map: Vec::new(),
        });
    }

    // ---- (i) community sizes and degree sums (Alg. 3 lines 2-6) ----------
    // All scratch buffers of this phase come from the device buffer pool and
    // are recycled across phases.
    let com_size = dev.pool_u32(n);
    let com_degree = dev.pool_u64(n);
    dev.exec::<P>()
        .try_launch_threads("aggregate_sizes", n, |ctx, i| {
            let c = comm[i] as usize;
            ctx.global_read_coalesced(2);
            ctx.atomic_add_u32(&com_size, c, 1);
            ctx.atomic_add_u64(&com_degree, c, g.degree(i) as u64);
        })
        .map_err(GpuLouvainError::Launch)?;
    let com_size = com_size.to_vec();
    let com_degree = com_degree.to_vec();

    // ---- (ii) consecutive new ids (lines 7-12) ----------------------------
    let mut new_id: Vec<usize> = com_size.iter().map(|&s| usize::from(s > 0)).collect();
    let new_n = dev.exclusive_scan_usize(&mut new_id);

    // ---- (iii) storage layout (lines 13-19) -------------------------------
    // edgePos: where each community's (upper-bound sized) edge scratch
    // begins.
    let mut edge_pos: Vec<usize> = com_degree.iter().map(|&d| d as usize).collect();
    let scratch_len = dev.exclusive_scan_usize(&mut edge_pos);
    // vertexStart: where each community's member list begins.
    let mut vertex_start: Vec<usize> = com_size.iter().map(|&s| s as usize).collect();
    dev.exclusive_scan_usize(&mut vertex_start);
    let cursor = dev.pool_u64(n);
    cursor.copy_from_slice(&vertex_start.iter().map(|&v| v as u64).collect::<Vec<_>>());
    let com = dev.pool_u32(n);
    dev.exec::<P>()
        .try_launch_threads("aggregate_order_vertices", n, |ctx, i| {
            let c = comm[i] as usize;
            let slot = ctx.atomic_add_u64(&cursor, c, 1) as usize;
            com.store(slot, i as u32);
            ctx.global_write_scattered(1);
        })
        .map_err(GpuLouvainError::Launch)?;
    let mut com = com.to_vec();
    canonical_member_order(&mut com, &vertex_start, &com_size);

    // ---- (iv) merge communities, bucketed by expected work ----------------
    // Scratch edge store (upper-bound layout), then per-new-vertex counts.
    let scratch_targets = dev.pool_u32(scratch_len);
    let scratch_weights = dev.pool_f64(scratch_len);
    let new_deg = dev.pool_u64(new_n);

    let community_ids: Vec<u32> = (0..n as u32).filter(|&c| com_size[c as usize] > 0).collect();

    let merge_ctx = MergeContext {
        g,
        comm,
        com: &com,
        com_size: &com_size,
        vertex_start: &vertex_start,
        edge_pos: &edge_pos,
        new_id: &new_id,
        scratch_targets: &scratch_targets,
        scratch_weights: &scratch_weights,
        new_deg: &new_deg,
    };

    // `mergeCommunity` tracks no per-lane best.
    let attempt = |ctx: &mut GroupCtx<P>,
                   table: &mut HashTable<'_>,
                   _: &mut [(f64, u32)],
                   c: usize| { merge_attempt(ctx, &merge_ctx, table, c) };
    let mut lo = 0usize;
    for (bucket_idx, &spec) in AGG_WIDTHS.buckets().iter().enumerate() {
        let hi = spec.max_work;
        let mut ids = dev.copy_if(&community_ids, |&c| {
            let d = com_degree[c as usize] as usize;
            d > lo && d <= hi
        });
        lo = hi;
        if ids.is_empty() {
            continue;
        }
        let kernel = MERGE_KERNELS[bucket_idx];
        if spec.is_open_ended() {
            let slots = sort_open_ended(dev, &mut ids, |c| com_degree[c as usize] as usize)?;
            launch_open_ended(dev, cfg, kernel, &ids, &slots, attempt)?;
        } else {
            let task_id = |_: &mut GroupCtx<P>, task: usize| ids[task] as usize;
            launch_bounded(dev, cfg, kernel, ids.len(), spec, task_id, attempt)?;
        }
    }

    // ---- compaction: gather scratch ranges into the final CSR -------------
    let new_deg = new_deg.to_vec();
    let mut offsets: Vec<usize> = new_deg.iter().map(|&d| d as usize).collect();
    offsets.push(0);
    let total_arcs = dev.exclusive_scan_usize(&mut offsets[..new_n]);
    offsets[new_n] = total_arcs;

    let final_targets = dev.pool_u32(total_arcs);
    let final_weights = dev.pool_f64(total_arcs);
    {
        let offsets = &offsets;
        let new_deg = &new_deg;
        dev.exec::<P>()
            .try_launch_tasks(
                "aggregate_compact",
                community_ids.len(),
                32,
                0,
                || (),
                |ctx, _, t| {
                    let c = community_ids[t] as usize;
                    let nid = new_id[c];
                    let count = new_deg[nid] as usize;
                    let src = edge_pos[c];
                    let dst = offsets[nid];
                    ctx.strided_steps(count.max(1));
                    ctx.global_read_coalesced(2 * count);
                    ctx.global_write_coalesced(2 * count);
                    for e in 0..count {
                        final_targets.store(dst + e, scratch_targets.load(src + e));
                        final_weights.store(dst + e, scratch_weights.load(src + e));
                    }
                },
            )
            .map_err(GpuLouvainError::Launch)?;
    }

    // ---- per-vertex dendrogram level --------------------------------------
    let vertex_map_dev = dev.pool_u32(n);
    dev.exec::<P>()
        .try_launch_threads("aggregate_vertex_map", n, |ctx, i| {
            vertex_map_dev.store(i, new_id[comm[i] as usize] as u32);
            ctx.global_read_scattered(1);
            ctx.global_write_coalesced(1);
        })
        .map_err(GpuLouvainError::Launch)?;

    Ok(AggregateOutcome {
        graph: DeviceGraph::from_parts(offsets, final_targets.to_vec(), final_weights.to_vec()),
        vertex_map: vertex_map_dev.to_vec(),
    })
}

/// Puts every community's member list in ascending vertex id. The atomic
/// cursor of `aggregate_order_vertices` places members in the order workers
/// claim blocks, which at more than one thread varies run to run and with
/// it the f64 summation order of `mergeCommunity`. One thread claims blocks
/// in vertex order, so there every list is already sorted and this only
/// checks it; like the extraction sort, it is host-side and charges
/// nothing.
fn canonical_member_order(com: &mut [u32], vertex_start: &[usize], com_size: &[u32]) {
    for (&start, &size) in vertex_start.iter().zip(com_size) {
        let members = &mut com[start..start + size as usize];
        if !members.is_sorted() {
            members.sort_unstable();
        }
    }
}

/// Read-only context shared by the merge kernels.
struct MergeContext<'a> {
    g: &'a DeviceGraph,
    comm: &'a [u32],
    com: &'a [u32],
    com_size: &'a [u32],
    vertex_start: &'a [usize],
    edge_pos: &'a [usize],
    new_id: &'a [usize],
    scratch_targets: &'a GlobalU32,
    scratch_weights: &'a GlobalF64,
    new_deg: &'a GlobalU64,
}

/// `mergeCommunity` body for one community: hash every member's neighbor
/// communities, then write the (new-id-relabeled, sorted) adjacency into the
/// community's scratch range. A full hash table aborts with [`TableOverflow`]
/// before anything is written; [`crate::bucketed::with_table_retry`]
/// retries with a larger table.
fn merge_attempt<P: ExecutionProfile>(
    ctx: &mut GroupCtx<P>,
    mc: &MergeContext<'_>,
    t: &mut HashTable<'_>,
    c: usize,
) -> Result<(), TableOverflow> {
    t.reset(ctx);
    // Cooperative reset must complete on every warp before any warp starts
    // inserting (racecheck: W-A hazard without it). Sub-warp groups are
    // warp-synchronous and skip the barrier.
    if ctx.lanes() > 32 {
        ctx.barrier();
    }

    let start = mc.vertex_start[c];
    let size = mc.com_size[c] as usize;
    ctx.global_read_coalesced(size + 3);

    // Hash all members' edges. Members are processed one after another; each
    // member's edges are strided across the group's lanes (Section 4.1: "all
    // threads participate in the processing of each vertex").
    for &v in &mc.com[start..start + size] {
        let v = v as usize;
        let deg = mc.g.degree(v);
        ctx.strided_steps(deg);
        ctx.global_read_coalesced(2 * deg);
        ctx.global_read_scattered(deg);
        for (&j, &w) in mc.g.neighbors(v).iter().zip(mc.g.edge_weights(v)) {
            let cj = mc.comm[j as usize];
            t.try_insert_add(ctx, cj, w)?;
        }
    }

    // All warps must finish inserting before the extraction scan reads the
    // slots with plain loads (racecheck: A-R hazard without the barrier).
    if ctx.lanes() > 32 {
        ctx.barrier();
    }
    // Extract, relabel to new vertex ids, sort for a canonical CSR, and write
    // to the community's scratch range. On the device this is the
    // marked-entry prefix-sum compaction described in the paper; the sort is
    // the simulator's way of fixing a canonical edge order. New ids are
    // distinct per community, so sorting the table's claimed slots by new id
    // fixes the order without copying the entries out.
    t.note_scan(ctx);
    t.sort_filled_by_key(|cj| mc.new_id[cj as usize]);
    let count = t.len();
    ctx.strided_steps(count);

    let base = mc.edge_pos[c];
    for (e, (cj, w)) in t.iter_filled().enumerate() {
        mc.scratch_targets.store(base + e, mc.new_id[cj as usize] as u32);
        mc.scratch_weights.store(base + e, w);
    }
    ctx.global_write_coalesced(2 * count);
    mc.new_deg.store(mc.new_id[c], count as u64);
    ctx.global_write_scattered(1);
    // End-of-task barrier: the next community's reset must not overtake this
    // community's extraction scan.
    if ctx.lanes() > 32 {
        ctx.barrier();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cd_gpusim::DeviceConfig;
    use cd_graph::gen::{add_random_edges, cliques, cycle};
    use cd_graph::{contract, modularity, Csr, Partition};

    fn dev() -> Device {
        Device::new(DeviceConfig::tesla_k40m())
    }

    /// Checks the GPU contraction against the sequential reference, modulo
    /// the (different but consistent) renumbering orders.
    fn assert_matches_reference(g: &Csr, comm: &[u32]) {
        let d = dev();
        let dg = DeviceGraph::from_csr(g);
        let out = aggregate(&d, &dg, comm, &GpuLouvainConfig::paper_default()).unwrap();
        let gpu_graph = out.graph.to_csr();

        let p = Partition::from_vec(comm.to_vec());
        let (ref_graph, ref_map) = contract(g, &p);

        assert_eq!(gpu_graph.num_vertices(), ref_graph.num_vertices());
        assert_eq!(gpu_graph.num_arcs(), ref_graph.num_arcs());
        // Map reference new-ids -> gpu new-ids through any original vertex.
        let k = ref_graph.num_vertices();
        let mut perm = vec![u32::MAX; k];
        for v in 0..g.num_vertices() {
            let r = ref_map.community_of(v as u32) as usize;
            let q = out.vertex_map[v];
            assert!(perm[r] == u32::MAX || perm[r] == q, "inconsistent vertex map");
            perm[r] = q;
        }
        // Compare adjacency of each new vertex through the permutation.
        for r in 0..k as u32 {
            let q = perm[r as usize];
            let mut ref_adj: Vec<(u32, f64)> =
                ref_graph.edges(r).map(|(t, w)| (perm[t as usize], w)).collect();
            ref_adj.sort_unstable_by_key(|&(t, _)| t);
            let gpu_adj: Vec<(u32, f64)> = gpu_graph.edges(q).collect();
            assert_eq!(ref_adj.len(), gpu_adj.len(), "vertex {r}/{q} degree");
            for (a, b) in ref_adj.iter().zip(&gpu_adj) {
                assert_eq!(a.0, b.0);
                assert!((a.1 - b.1).abs() < 1e-9, "weight {} vs {}", a.1, b.1);
            }
        }
    }

    #[test]
    fn matches_reference_on_cliques() {
        let g = cliques(4, 5, true);
        let comm: Vec<u32> = (0..20).map(|v| (v / 5) * 5).collect(); // non-compact ids
        assert_matches_reference(&g, &comm);
    }

    #[test]
    fn matches_reference_on_random_partitions() {
        let g = add_random_edges(&cycle(150), 300, 7);
        for seed in 0..3u32 {
            let comm: Vec<u32> = (0..150u32).map(|v| (v * 31 + seed * 7) % 11).collect();
            assert_matches_reference(&g, &comm);
        }
    }

    #[test]
    fn matches_reference_with_self_loops_and_weights() {
        let g = cd_graph::csr_from_edges(
            6,
            &[
                (0, 1, 2.0),
                (1, 2, 0.5),
                (2, 0, 1.5),
                (3, 4, 1.0),
                (4, 5, 2.5),
                (1, 1, 3.0),
                (2, 4, 1.0),
            ],
        );
        assert_matches_reference(&g, &[0, 0, 0, 1, 1, 1]);
        assert_matches_reference(&g, &[5, 5, 2, 2, 0, 0]);
    }

    #[test]
    fn modularity_invariant_under_gpu_aggregation() {
        let g = add_random_edges(&cycle(120), 200, 3);
        let comm: Vec<u32> = (0..120u32).map(|v| v % 9).collect();
        let d = dev();
        let out =
            aggregate(&d, &DeviceGraph::from_csr(&g), &comm, &GpuLouvainConfig::paper_default())
                .unwrap();
        let q_before = modularity(&g, &Partition::from_vec(comm));
        let cg = out.graph.to_csr();
        let q_after = modularity(&cg, &Partition::singleton(cg.num_vertices()));
        assert!((q_before - q_after).abs() < 1e-9, "{q_before} vs {q_after}");
    }

    #[test]
    fn isolated_vertices_become_empty_new_vertices() {
        let mut b = cd_graph::GraphBuilder::new(4);
        b.add_unit_edge(0, 1);
        let g = b.build(); // vertices 2, 3 isolated
        let d = dev();
        let out = aggregate(
            &d,
            &DeviceGraph::from_csr(&g),
            &[0, 0, 2, 3],
            &GpuLouvainConfig::paper_default(),
        )
        .unwrap();
        assert_eq!(out.graph.num_vertices(), 3);
        assert_eq!(out.graph.num_arcs(), 1); // one merged self-loop edge
        let cg = out.graph.to_csr();
        assert_eq!(cg.self_loop(out.vertex_map[0]), 2.0);
    }

    #[test]
    fn member_lists_are_put_in_ascending_vertex_order() {
        // Communities {0: 3 members, 1: empty, 2: 1 member, 3: 4 members},
        // each list permuted as a multi-threaded cursor might leave it.
        let com_size = [3, 0, 1, 4];
        let vertex_start = [0, 3, 3, 4];
        let mut com = vec![9, 2, 5, 7, 8, 1, 6, 3];
        canonical_member_order(&mut com, &vertex_start, &com_size);
        assert_eq!(com, vec![2, 5, 9, 7, 1, 3, 6, 8]);
        // Already canonical lists are left as they are.
        let before = com.clone();
        canonical_member_order(&mut com, &vertex_start, &com_size);
        assert_eq!(com, before);
    }

    #[test]
    fn single_community_collapse() {
        let g = cliques(1, 6, false);
        let d = dev();
        let out =
            aggregate(&d, &DeviceGraph::from_csr(&g), &[0; 6], &GpuLouvainConfig::paper_default())
                .unwrap();
        assert_eq!(out.graph.num_vertices(), 1);
        let cg = out.graph.to_csr();
        assert_eq!(cg.self_loop(0), g.total_weight_2m());
    }
}
