//! The shard-local `computeMove` pass of the out-of-core (`cd-dist`) path.
//!
//! One **halo move pass** evaluates, for every vertex a shard *owns*, the
//! same modularity-gain decision as the single-device `computeMove` kernel
//! ([`crate::modopt`]) — launched through the same degree-bucketed
//! hash-table scaffolding (`crate::bucketed`: bucket ladder, table
//! placement, capacity-overflow retry), with the same [`GAIN_EPS`] tie
//! rules and singleton ordering rule — against a *frozen* snapshot of
//! global state:
//!
//! * `labels[l]` — the **global** community id of every local vertex
//!   (owned and ghost alike), as of the previous superstep;
//! * `comm_slot[l]` — the slot of that community in the shard's community
//!   table, and `comm_vol`/`comm_size` — the table itself: the globally
//!   folded volume `a_c` and size of every community any local vertex
//!   belongs to, one slot each.
//!
//! A community lookup is a slot gather plus a table read — two scattered
//! reads, whatever the table size. The slots are shard-private storage
//! positions: the kernel hashes, compares and proposes global community ids
//! only, so slot numbering never reaches a decision.
//!
//! Because communities are identified by their global ids and the tables
//! are global folds, a vertex's proposal is a pure function of (its full
//! adjacency row, the previous superstep's global labeling, the global
//! community aggregates). The shard decomposition only decides *where* the
//! proposal is computed, never *what* it is — which is the heart of the
//! sharded driver's bit-identical-across-K guarantee (see DESIGN.md,
//! "Sharded execution").
//!
//! The synchronous (double-buffered) update this models is the
//! [`crate::config::UpdateStrategy::Relaxed`] discipline: all proposals of
//! a superstep are evaluated against the same snapshot and committed at
//! once by the driver.

use crate::bucketed::{HostBins, MODOPT_WIDTHS};
use crate::config::GpuLouvainConfig;
use crate::dev_graph::DeviceGraph;
use crate::hashtable::{HashTable, TableOverflow};
use crate::louvain::GpuLouvainError;
use crate::modopt::GAIN_EPS;
use cd_gpusim::{dispatch_profile, Device, ExecutionProfile, GroupCtx, PooledU32};

/// Kernel names per degree bucket.
const HALO_MOVE_KERNELS: [&str; 7] = [
    "halo_move_b1",
    "halo_move_b2",
    "halo_move_b3",
    "halo_move_b4",
    "halo_move_b5",
    "halo_move_b6",
    "halo_move_b7",
];

/// Modeled scattered reads of one community lookup: the local vertex's
/// slot, then the table entry.
const LOOKUP_READS: usize = 2;

/// A shard's frozen view of one superstep. All slices are host-resident
/// (like `OptState::k`); the kernels charge the reads they model.
#[derive(Clone, Copy)]
pub struct HaloView<'a> {
    /// The shard-local graph: owned rows carry full adjacency in ascending
    /// global-id order, ghost rows are empty.
    pub graph: &'a DeviceGraph,
    /// Local ids of the owned vertices, ascending.
    pub owned: &'a [u32],
    /// Weighted degree `k_i` of each owned vertex, aligned with `owned`.
    pub k: &'a [f64],
    /// Global community id of every local vertex (previous superstep).
    pub labels: &'a [u32],
    /// Exclusive bound on every global community id: the level graph's
    /// vertex count.
    pub label_bound: usize,
    /// Table slot of every local vertex's community, aligned with `labels`.
    pub comm_slot: &'a [u32],
    /// Globally folded community volume `a_c` per table slot.
    pub comm_vol: &'a [f64],
    /// Globally folded community size per table slot.
    pub comm_size: &'a [u32],
    /// `2m` of the (global) level graph.
    pub two_m: f64,
}

impl<'a> HaloView<'a> {
    /// Volume `a_c` of local vertex `l`'s community.
    fn vol(&self, l: usize) -> f64 {
        self.comm_vol[self.comm_slot[l] as usize]
    }

    /// Size of local vertex `l`'s community.
    fn size(&self, l: usize) -> u32 {
        self.comm_size[self.comm_slot[l] as usize]
    }
}

/// Runs one halo move pass on `dev`, returning the proposed global
/// community id of every owned vertex (aligned with `view.owned`).
/// Degree-0 owned vertices keep their current label.
pub fn halo_move_pass(
    dev: &Device,
    view: &HaloView<'_>,
    cfg: &GpuLouvainConfig,
) -> Result<Vec<u32>, GpuLouvainError> {
    if view.graph.num_vertices() >= u32::MAX as usize {
        return Err(GpuLouvainError::TooManyVertices(view.graph.num_vertices()));
    }
    if view.owned.is_empty() || view.two_m <= 0.0 {
        return Ok(view.owned.iter().map(|&l| view.labels[l as usize]).collect());
    }
    dispatch_profile!(dev.profile(), P => halo_typed::<P>(dev, view, cfg))
}

/// [`halo_move_pass`] monomorphized for one execution profile.
fn halo_typed<P: ExecutionProfile>(
    dev: &Device,
    view: &HaloView<'_>,
    cfg: &GpuLouvainConfig,
) -> Result<Vec<u32>, GpuLouvainError> {
    let n_owned = view.owned.len();
    let proposals = dev.pool_u32(n_owned);
    // Seed every proposal with the stay decision so unbinned (degree-0)
    // vertices never move.
    dev.exec::<P>()
        .try_launch_threads("halo_init", n_owned, |ctx, pos| {
            ctx.global_read_coalesced(1);
            ctx.global_read_scattered(1);
            proposals.store(pos, view.labels[view.owned[pos] as usize]);
            ctx.global_write_coalesced(1);
        })
        .map_err(GpuLouvainError::Launch)?;

    // Degree bins over owned positions (ascending position == ascending
    // global id, so the bins — like everything else — are K-independent).
    let bins = HostBins::build(dev, 0..n_owned as u32, |pos| {
        view.graph.degree(view.owned[pos as usize] as usize)
    })?;
    // Keys are global community ids, all below the level's vertex count.
    bins.launch(dev, cfg, &HALO_MOVE_KERNELS, view.label_bound, |ctx, table, lane_best, pos| {
        move_attempt::<P>(ctx, view, &proposals, table, lane_best, pos)
    })?;
    Ok(proposals.to_vec())
}

/// One gain evaluation: hash the neighborhood's global community labels,
/// track per-lane bests on the running `e_{i→c}` sums (the lane observing a
/// slot's final update sees the full sum, and partial observations can
/// never beat it — `computeMove`'s exactness argument), reduce, and stage
/// the winner. `a_c` and community sizes come from the shard's frozen
/// community table, reached through each local vertex's slot, instead of
/// dense global arrays — the only structural difference from the
/// single-device kernel.
fn move_attempt<P: ExecutionProfile>(
    ctx: &mut GroupCtx<P>,
    view: &HaloView<'_>,
    proposals: &PooledU32<'_>,
    table: &mut HashTable<'_>,
    lane_best: &mut [(f64, u32)],
    pos: usize,
) -> Result<(), TableOverflow> {
    let i = view.owned[pos] as usize;
    let g = view.graph;
    let deg = g.degree(i);
    let ci = view.labels[i];
    let ki = view.k[pos];
    let m = view.two_m / 2.0;
    let lanes = ctx.lanes();

    table.reset(ctx);
    for lb in lane_best[..lanes].iter_mut() {
        *lb = (f64::NEG_INFINITY, u32::MAX);
    }
    // Same hazard structure as `compute_move_attempt` (racecheck: W-A after
    // the cooperative reset).
    if lanes > 32 {
        ctx.barrier();
    }

    ctx.global_read_coalesced(2); // offsets
    ctx.global_read_scattered(1 + LOOKUP_READS); // labels[i] + size(ci) lookup
    let i_singleton = view.size(i) == 1;

    let nbrs = g.neighbors(i);
    let ws = g.edge_weights(i);
    ctx.strided_steps(deg);
    ctx.global_read_coalesced(2 * deg); // edges + weights
    ctx.global_read_scattered(deg); // label gathers

    let mut lane = lanes - 1;
    for idx in 0..deg {
        lane += 1;
        if lane == lanes {
            lane = 0;
        }
        let j = nbrs[idx] as usize;
        if j == i {
            continue; // self-loop: contributes to neither stay nor move
        }
        let w = ws[idx];
        let cj = view.labels[j];
        let running = table.try_insert_add(ctx, cj, w)?;
        if cj == ci {
            continue; // home community: the stay option, evaluated below
        }
        // Singleton ordering rule, on global community ids: a singleton may
        // only join another singleton community with a smaller id.
        if i_singleton && cj >= ci && view.size(j) == 1 {
            ctx.global_read_scattered(LOOKUP_READS);
            continue;
        }
        let a_cj = view.vol(j);
        ctx.global_read_scattered(LOOKUP_READS);
        let gain = running / m - ki * a_cj / (2.0 * m * m);
        let lb = &mut lane_best[lane];
        if gain > lb.0 + GAIN_EPS || ((gain - lb.0).abs() <= GAIN_EPS && cj < lb.1) {
            *lb = (gain, cj);
        }
    }

    let best = ctx.reduce_best(&lane_best[..lanes]);
    let e_home = table.get(ctx, ci);
    ctx.global_read_scattered(LOOKUP_READS);
    let stay = e_home / m - ki * (view.vol(i) - ki) / (2.0 * m * m);
    let target = match best {
        Some((gain, c)) if c != u32::MAX && gain > stay + GAIN_EPS => c,
        _ => ci,
    };
    proposals.store(pos, target);
    ctx.global_write_coalesced(1);
    // End-of-task barrier (racecheck: R-W against the next task's reset).
    if lanes > 32 {
        ctx.barrier();
    }
    Ok(())
}

/// Sequential host reference of [`halo_move_pass`] — the degraded-mode
/// fallback of the sharded driver and the differential-test oracle. It
/// replays the kernel's exact observation structure (insertion order,
/// per-lane best slots, reduction order), so its proposals are bit-identical
/// to the device pass on every profile.
pub fn halo_move_host(view: &HaloView<'_>) -> Vec<u32> {
    let mut proposals: Vec<u32> = view.owned.iter().map(|&l| view.labels[l as usize]).collect();
    if view.two_m <= 0.0 {
        return proposals;
    }
    let m = view.two_m / 2.0;
    let mut running: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
    for (pos, &l) in view.owned.iter().enumerate() {
        let i = l as usize;
        let g = view.graph;
        let deg = g.degree(i);
        if deg == 0 {
            continue;
        }
        let ci = view.labels[i];
        let ki = view.k[pos];
        let lanes = MODOPT_WIDTHS.width_for(deg);
        let i_singleton = view.size(i) == 1;
        running.clear();
        let mut lane_best = vec![(f64::NEG_INFINITY, u32::MAX); lanes];
        let nbrs = g.neighbors(i);
        let ws = g.edge_weights(i);
        let mut lane = lanes - 1;
        for idx in 0..deg {
            lane += 1;
            if lane == lanes {
                lane = 0;
            }
            let j = nbrs[idx] as usize;
            if j == i {
                continue;
            }
            let cj = view.labels[j];
            let e = running.entry(cj).or_insert(0.0);
            *e += ws[idx];
            let e = *e;
            if cj == ci || (i_singleton && cj >= ci && view.size(j) == 1) {
                continue;
            }
            let gain = e / m - ki * view.vol(j) / (2.0 * m * m);
            let lb = &mut lane_best[lane];
            if gain > lb.0 + GAIN_EPS || ((gain - lb.0).abs() <= GAIN_EPS && cj < lb.1) {
                *lb = (gain, cj);
            }
        }
        // reduce_best's fold: strictly-greater gain wins, exact ties break
        // toward the smaller community id, lane order left-to-right.
        let best = lane_best.iter().copied().reduce(|a, b| {
            if b.0 > a.0 || (b.0 == a.0 && b.1 < a.1) {
                b
            } else {
                a
            }
        });
        let e_home = running.get(&ci).copied().unwrap_or(0.0);
        let stay = e_home / m - ki * (view.vol(i) - ki) / (2.0 * m * m);
        if let Some((gain, c)) = best {
            if c != u32::MAX && gain > stay + GAIN_EPS {
                proposals[pos] = c;
            }
        }
    }
    proposals
}

#[cfg(test)]
mod tests {
    use super::*;
    use cd_gpusim::DeviceConfig;
    use cd_graph::gen::{cliques, planted_partition};
    use cd_graph::Csr;

    fn dev() -> Device {
        Device::new(DeviceConfig::tesla_k40m())
    }

    /// Whole-graph "single shard" view with singleton communities.
    fn singleton_view<'a>(
        dg: &'a DeviceGraph,
        owned: &'a [u32],
        k: &'a [f64],
        labels: &'a [u32],
        comm_slot: &'a [u32],
        comm_vol: &'a [f64],
        comm_size: &'a [u32],
    ) -> HaloView<'a> {
        HaloView {
            graph: dg,
            owned,
            k,
            labels,
            label_bound: dg.num_vertices(),
            comm_slot,
            comm_vol,
            comm_size,
            two_m: dg.total_weight_m() * 2.0,
        }
    }

    #[allow(clippy::type_complexity)]
    fn singleton_state(g: &Csr) -> (Vec<u32>, Vec<f64>, Vec<u32>, Vec<u32>, Vec<f64>, Vec<u32>) {
        let n = g.num_vertices();
        let owned: Vec<u32> = (0..n as u32).collect();
        let k: Vec<f64> = (0..n as u32).map(|v| g.weighted_degree(v)).collect();
        let labels: Vec<u32> = (0..n as u32).collect();
        let comm_slot = owned.clone();
        let comm_vol = k.clone();
        let comm_size = vec![1u32; n];
        (owned, k, labels, comm_slot, comm_vol, comm_size)
    }

    #[test]
    fn kernel_matches_host_reference() {
        let g = planted_partition(4, 20, 0.4, 0.05, 3).graph;
        let dg = DeviceGraph::from_csr(&g);
        let (owned, k, labels, comm_slot, comm_vol, comm_size) = singleton_state(&g);
        let view = singleton_view(&dg, &owned, &k, &labels, &comm_slot, &comm_vol, &comm_size);
        let cfg = GpuLouvainConfig::paper_default();
        let dev_out = halo_move_pass(&dev(), &view, &cfg).unwrap();
        let host_out = halo_move_host(&view);
        assert_eq!(dev_out, host_out);
    }

    #[test]
    fn proposals_pull_cliques_together() {
        let g = cliques(3, 6, true);
        let dg = DeviceGraph::from_csr(&g);
        let (owned, k, labels, comm_slot, comm_vol, comm_size) = singleton_state(&g);
        let view = singleton_view(&dg, &owned, &k, &labels, &comm_slot, &comm_vol, &comm_size);
        let out = halo_move_pass(&dev(), &view, &GpuLouvainConfig::paper_default()).unwrap();
        // From singletons the singleton ordering rule pins vertex 0 (no
        // smaller-id candidate exists) and lets every other non-bridge
        // vertex move to a smaller-id community inside its own clique —
        // exactly `computeMove`'s first-iteration behavior.
        assert_eq!(out[0], 0);
        for (v, &p) in out.iter().enumerate() {
            if v % 6 != 0 {
                assert!(p < v as u32, "vertex {v} proposed {p}");
                assert_eq!(p as usize / 6, v / 6, "vertex {v} left its clique");
            }
        }
    }

    #[test]
    fn degree_zero_and_empty_cases() {
        let g = Csr::empty(3);
        let dg = DeviceGraph::from_csr(&g);
        let (owned, k, labels, comm_slot, comm_vol, comm_size) = singleton_state(&g);
        let view = singleton_view(&dg, &owned, &k, &labels, &comm_slot, &comm_vol, &comm_size);
        let out = halo_move_pass(&dev(), &view, &GpuLouvainConfig::paper_default()).unwrap();
        assert_eq!(out, labels);
    }
}
