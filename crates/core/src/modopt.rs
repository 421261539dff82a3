//! The modularity-optimization phase — Algorithms 1 and 2 of the paper.
//!
//! Each iteration launches one `computeMove` kernel per degree bucket
//! ([`crate::config::MODOPT_BUCKETS`]) through the shared bucketed launcher
//! (`crate::bucketed`), with thread-group width scaled to the bucket's
//! degrees and hash tables in shared memory for all but the open-ended
//! bucket. After each bucket the new community labels are
//! committed and the community volumes `a_c` updated, so later buckets see
//! earlier buckets' moves (the paper's middle ground between fully
//! synchronous and fully asynchronous updating; the `Relaxed` strategy defers
//! all commits to the end of the iteration).
//!
//! The hot loop is frontier-proportional: bucket membership is fixed within a
//! phase (degrees do not change between aggregations), so the full bins are
//! built by one `bin_vertices` pass per phase, and pruned iterations rebin
//! only the active frontier (`bin_frontier`, one pass over the vertices
//! marked by the previous iteration's commits) instead of re-scanning all
//! vertices once per bucket. Modularity is tracked incrementally from
//! committed-move deltas and verified against a full device recompute every
//! [`GpuLouvainConfig::resync_interval`] iterations (see [`commit`]).

use crate::bucketed::{
    grown_table_size, launch_bounded, launch_open_ended, sort_open_ended, Scratch, MODOPT_WIDTHS,
};
use crate::config::{GpuLouvainConfig, ThreadAssignment, UpdateStrategy, MODOPT_BUCKETS};
use crate::dev_graph::DeviceGraph;
use crate::hashtable::{HashTable, TableOverflow, TableSpace, TableStorage};
use crate::louvain::GpuLouvainError;
use crate::primes::table_size_for;
use cd_gpusim::{
    dispatch_profile, Device, ExecutionProfile, GlobalU32, GroupCtx, PooledF64, PooledU32,
};
use std::time::{Duration, Instant};

/// Tie tolerance on modularity-gain comparisons (shared with the halo pass).
pub(crate) const GAIN_EPS: f64 = 1e-15;

/// Shard count for the logically-single-cell commit accumulators (`moves`,
/// `q_delta`). Hardware coalesces same-address atomics in the L2 atomic
/// units; the simulator's host threads do not, so every mover hammering one
/// cache line serializes the whole launch. Spreading the updates across
/// shards keeps the counted cost identical (same number of atomics, just to
/// different cells) while removing the contention artifact. Folds read the
/// shards in fixed index order, so results are deterministic — and exact on
/// integer-weighted graphs, where every partial sum is an integer below 2⁵³.
const ACC_SHARDS: usize = 64;

/// Tolerance of the incremental-modularity resync check. The incremental
/// value is exact up to f64 atomic rounding on integer-weighted graphs, so a
/// larger discrepancy means drift on adversarial weights or corrupted device
/// state — both handled by failing the stage (transient, retried).
const RESYNC_EPS: f64 = 1e-9;

/// Kernel names per degree bucket, hoisted so the hot loop does not allocate
/// a fresh `format!` string per bucket per iteration.
const COMPUTE_MOVE_KERNELS: [&str; 7] = [
    "compute_move_b1",
    "compute_move_b2",
    "compute_move_b3",
    "compute_move_b4",
    "compute_move_b5",
    "compute_move_b6",
    "compute_move_b7",
];

/// Result of one modularity-optimization phase.
#[derive(Clone, Debug)]
pub struct OptOutcome {
    /// Final community label of every vertex.
    pub comm: Vec<u32>,
    /// Modularity of the final labeling.
    pub modularity: f64,
    /// Iterations executed.
    pub iterations: usize,
    /// Wall time per iteration (drives the paper's per-stage breakdowns and
    /// the TEPS figure, whose denominator is the first iteration).
    pub iter_times: Vec<Duration>,
    /// Total vertex moves committed.
    pub moves: usize,
}

/// Device-resident optimization state. All buffers come from the device
/// buffer pool and return to it when the phase ends.
pub(crate) struct OptState<'d> {
    /// `C` — current community of each vertex.
    pub comm: PooledU32<'d>,
    /// `newComm` — staged destination of each vertex. Invariant: outside a
    /// compute→commit window, `new_comm[v] == comm[v]` for every vertex —
    /// which is what lets [`commit`] identify the movers of its own commit
    /// set by inequality.
    pub new_comm: PooledU32<'d>,
    /// Best labeling observed so far (device-side snapshot, copied to the
    /// host once at phase end instead of `to_vec()` per improvement).
    pub best_comm: PooledU32<'d>,
    /// Number of vertices in each community (drives the singleton rule).
    pub comm_size: PooledU32<'d>,
    /// `a_c` — community volumes.
    pub ac: PooledF64<'d>,
    /// `k_i` — weighted degrees (constant within a phase).
    pub k: Vec<f64>,
    /// Incremental-modularity accumulators, sharded to [`ACC_SHARDS`]:
    /// cells `[0, ACC_SHARDS)` collect Δ(Σ inside-arc weight), cells
    /// `[ACC_SHARDS, 2·ACC_SHARDS)` collect Δ(Σ a_c²), both written by
    /// [`commit`] and folded (in fixed index order) once per iteration.
    pub q_delta: PooledF64<'d>,
    /// Move counter for the current commit, sharded to [`ACC_SHARDS`].
    pub moves: PooledU32<'d>,
    /// Frontier membership flags (CAS 0→1 dedups concurrent marks).
    pub marked: PooledU32<'d>,
    /// Compacted list of marked vertices, appended by [`commit`] and consumed
    /// by [`Bins::bin_frontier`] at the start of the next iteration.
    pub frontier: PooledU32<'d>,
    /// Single-cell length of `frontier`.
    pub frontier_len: PooledU32<'d>,
}

impl<'d> OptState<'d> {
    fn new<P: ExecutionProfile>(dev: &'d Device, g: &DeviceGraph) -> Result<Self, GpuLouvainError> {
        let n = g.num_vertices();
        let k = compute_weighted_degrees::<P>(dev, g)?;
        let s = Self {
            comm: dev.pool_u32(n),
            new_comm: dev.pool_u32(n),
            best_comm: dev.pool_u32(n),
            comm_size: dev.pool_u32(n),
            ac: dev.pool_f64(n),
            k,
            q_delta: dev.pool_f64(2 * ACC_SHARDS),
            moves: dev.pool_u32(ACC_SHARDS),
            marked: dev.pool_u32(n),
            frontier: dev.pool_u32(n),
            frontier_len: dev.pool_u32(1),
        };
        let k_ref = &s.k;
        dev.exec::<P>()
            .try_launch_threads("init_opt_state", n, |ctx, v| {
                s.comm.store(v, v as u32);
                s.new_comm.store(v, v as u32);
                s.best_comm.store(v, v as u32);
                s.comm_size.store(v, 1);
                s.ac.store(v, k_ref[v]);
                ctx.global_write_coalesced(5);
            })
            .map_err(GpuLouvainError::Launch)?;
        Ok(s)
    }

    /// Like [`OptState::new`] but seeded from a previous labeling instead of
    /// singletons: every vertex starts in `labels[v]`, with the community
    /// sizes and volumes accumulated atomically (the pool hands out
    /// zero-filled buffers, so one additive pass suffices). The caller must
    /// have validated `labels` (length `n`, every entry `< n`).
    fn new_seeded<P: ExecutionProfile>(
        dev: &'d Device,
        g: &DeviceGraph,
        labels: &[u32],
    ) -> Result<Self, GpuLouvainError> {
        let n = g.num_vertices();
        debug_assert_eq!(labels.len(), n);
        let k = compute_weighted_degrees::<P>(dev, g)?;
        let s = Self {
            comm: dev.pool_u32(n),
            new_comm: dev.pool_u32(n),
            best_comm: dev.pool_u32(n),
            comm_size: dev.pool_u32(n),
            ac: dev.pool_f64(n),
            k,
            q_delta: dev.pool_f64(2 * ACC_SHARDS),
            moves: dev.pool_u32(ACC_SHARDS),
            marked: dev.pool_u32(n),
            frontier: dev.pool_u32(n),
            frontier_len: dev.pool_u32(1),
        };
        let k_ref = &s.k;
        dev.exec::<P>()
            .try_launch_threads("init_warm_state", n, |ctx, v| {
                let c = labels[v];
                s.comm.store(v, c);
                s.new_comm.store(v, c);
                s.best_comm.store(v, c);
                ctx.global_write_coalesced(3);
                ctx.atomic_add_u32(&s.comm_size, c as usize, 1);
                ctx.atomic_add_f64(&s.ac, c as usize, k_ref[v]);
            })
            .map_err(GpuLouvainError::Launch)?;
        Ok(s)
    }

    /// Preloads the frontier machinery with an explicit vertex set (the
    /// delta-touched vertices of a warm start): sets the membership flags
    /// and the compacted list exactly as a previous iteration's commits
    /// would have, so the first [`Bins::bin_frontier`] consumes it.
    fn inject_frontier<P: ExecutionProfile>(
        &self,
        dev: &Device,
        frontier: &[u32],
    ) -> Result<(), GpuLouvainError> {
        if !frontier.is_empty() {
            dev.exec::<P>()
                .try_launch_threads("seed_frontier", frontier.len(), |ctx, t| {
                    let v = frontier[t];
                    self.marked.store(v as usize, 1);
                    self.frontier.store(t, v);
                    ctx.global_write_scattered(2);
                })
                .map_err(GpuLouvainError::Launch)?;
        }
        self.frontier_len.store(0, frontier.len() as u32);
        Ok(())
    }
}

/// A warm-start seed for one optimization phase: the labeling to resume from
/// and the frontier of vertices whose neighborhoods changed since that
/// labeling was computed. Only frontier vertices (and whatever their moves
/// mark) are re-evaluated — the phase is O(frontier), not O(n), per
/// iteration.
#[derive(Clone, Copy, Debug)]
pub struct WarmSeed<'a> {
    /// Community label per vertex (length `n`, every label `< n`).
    pub labels: &'a [u32],
    /// Vertices whose adjacency changed; the initial re-evaluation frontier.
    pub frontier: &'a [u32],
}

/// Computes `k_i` for every vertex (Alg. 1 line 2).
pub(crate) fn compute_weighted_degrees<P: ExecutionProfile>(
    dev: &Device,
    g: &DeviceGraph,
) -> Result<Vec<f64>, GpuLouvainError> {
    let n = g.num_vertices();
    let out = dev.pool_f64(n);
    dev.exec::<P>()
        .try_launch_tasks(
            "compute_k",
            n,
            4,
            0,
            || (),
            |ctx, _, i| {
                let deg = g.degree(i);
                ctx.strided_steps(deg.max(1));
                ctx.global_read_coalesced(deg + 2);
                let s: f64 = g.edge_weights(i).iter().sum();
                out.store(i, s);
                ctx.global_write_coalesced(1);
            },
        )
        .map_err(GpuLouvainError::Launch)?;
    Ok(out.to_vec())
}

/// The two device-reduced parts of the modularity:
/// `inside = Σ_i e_{i→C(i)}` (directed-arc weight inside communities) and
/// `Σ_c a_c²`, so `Q = inside / 2m − Σa² / (2m)²`. Both reductions read
/// device buffers directly — no host staging copy.
pub(crate) fn device_modularity_parts<P: ExecutionProfile>(
    dev: &Device,
    g: &DeviceGraph,
    state: &OptState<'_>,
) -> Result<(f64, f64), GpuLouvainError> {
    let n = g.num_vertices();
    if g.two_m == 0.0 {
        return Ok((0.0, 0.0));
    }
    let partial = dev.pool_f64(n);
    dev.exec::<P>()
        .try_launch_tasks(
            "modularity_partials",
            n,
            4,
            0,
            || (),
            |ctx, _, i| {
                let ci = state.comm.load(i);
                let deg = g.degree(i);
                ctx.strided_steps(deg.max(1));
                ctx.global_read_coalesced(2 * deg + 2);
                ctx.global_read_scattered(deg); // community gathers
                let mut s = 0.0;
                for (&j, &w) in g.neighbors(i).iter().zip(g.edge_weights(i)) {
                    if state.comm.load(j as usize) == ci {
                        s += w;
                    }
                }
                partial.store(i, s);
                ctx.global_write_coalesced(1);
            },
        )
        .map_err(GpuLouvainError::Launch)?;
    let inside = dev.reduce_sum_f64_global(&partial);
    let sum_asq = dev.transform_reduce_f64_global(&state.ac, |a| a * a);
    Ok((inside, sum_asq))
}

/// Modularity of the current labeling, fully recomputed on device.
#[cfg(test)]
pub(crate) fn device_modularity<P: ExecutionProfile>(
    dev: &Device,
    g: &DeviceGraph,
    state: &OptState<'_>,
) -> Result<f64, GpuLouvainError> {
    let two_m = g.two_m;
    if two_m == 0.0 {
        return Ok(0.0);
    }
    let (inside, sum_asq) = device_modularity_parts::<P>(dev, g, state)?;
    Ok(inside / two_m - sum_asq / (two_m * two_m))
}

/// Returns the degree bucket of a vertex with degree `d >= 1`.
fn bucket_index(d: usize) -> usize {
    MODOPT_WIDTHS.bucket_for(d)
}

/// Per-bucket vertex-id bins, device-resident. Bucket membership is a pure
/// function of degree, so within a phase the full bins are built once
/// (`bin_vertices`); pruned iterations overwrite the arrays with the active
/// frontier in a single `bin_frontier` pass whose cost is O(frontier).
struct Bins<'d> {
    /// Per-bucket id arrays, each sized to the bucket's full membership (a
    /// pruned frontier is always a subset).
    ids: Vec<PooledU32<'d>>,
    /// Seven scatter cursors for the binning kernels.
    cursors: PooledU32<'d>,
    /// Current number of valid ids per bucket.
    counts: [usize; 7],
    /// Full (unpruned) membership count per bucket.
    full_counts: [usize; 7],
    /// Bucket-7 ids in the launch order: degree-descending, ties by vertex
    /// id. Sorted once per phase; pruned subsets reuse it via `b7_rank`.
    b7_sorted: Vec<u32>,
    /// Hash-table slots per entry of `b7_sorted`, resolved once per phase.
    b7_slots: Vec<usize>,
    /// Position of each vertex in `b7_sorted` (`u32::MAX` off-bucket), so a
    /// pruned subset is ordered by rank instead of re-sorted by degree.
    b7_rank: Vec<u32>,
}

impl<'d> Bins<'d> {
    fn new<P: ExecutionProfile>(dev: &'d Device, g: &DeviceGraph) -> Result<Self, GpuLouvainError> {
        let n = g.num_vertices();
        let mut full_counts = [0usize; 7];
        for v in 0..n {
            let d = g.degree(v);
            if d > 0 {
                full_counts[bucket_index(d)] += 1;
            }
        }
        let ids: Vec<PooledU32<'d>> = full_counts.iter().map(|&c| dev.pool_u32(c.max(1))).collect();
        let cursors = dev.pool_u32(MODOPT_BUCKETS.len());
        {
            let ids_ref: Vec<&GlobalU32> = ids.iter().map(|p| &**p).collect();
            let cursors_ref: &GlobalU32 = &cursors;
            dev.exec::<P>()
                .try_launch_threads("bin_vertices", n, |ctx, v| {
                    let d = g.degree(v);
                    ctx.global_read_coalesced(2);
                    if d == 0 {
                        return;
                    }
                    let b = bucket_index(d);
                    let pos = ctx.atomic_add_u32(cursors_ref, b, 1);
                    ids_ref[b].store(pos as usize, v as u32);
                    ctx.global_write_scattered(1);
                })
                .map_err(GpuLouvainError::Launch)?;
        }
        cursors.fill(0);
        let mut b7_sorted: Vec<u32> = (0..full_counts[6]).map(|t| ids[6].load(t)).collect();
        let b7_slots = sort_open_ended(dev, &mut b7_sorted, |v| g.degree(v as usize))?;
        let mut b7_rank = vec![u32::MAX; n];
        for (r, &v) in b7_sorted.iter().enumerate() {
            b7_rank[v as usize] = r as u32;
        }
        Ok(Self { ids, cursors, counts: full_counts, full_counts, b7_sorted, b7_slots, b7_rank })
    }

    /// Consumes the frontier built by the previous iteration's commits and
    /// scatters it into the per-bucket id arrays — one pass over the frontier
    /// replacing the seven full-vertex `copy_if` scans. Clears the membership
    /// flags in the same pass.
    fn bin_frontier<P: ExecutionProfile>(
        &mut self,
        dev: &Device,
        g: &DeviceGraph,
        state: &OptState<'_>,
    ) -> Result<(), GpuLouvainError> {
        let f_len = state.frontier_len.load(0) as usize;
        if f_len > 0 {
            // The frontier arrives in commit order (append order of the
            // marking CAS winners). Sort it ascending so the per-bucket id
            // arrays keep the same vertex order as the full `bin_vertices`
            // pass — computeMove then walks CSR rows in id order, which is
            // what the coalescing (and the host caches) are laid out for.
            let mut sorted: Vec<u32> = (0..f_len).map(|t| state.frontier.load(t)).collect();
            dev.sort_by_key(&mut sorted, |&v| v);
            for (t, &v) in sorted.iter().enumerate() {
                state.frontier.store(t, v);
            }
            let ids_ref: Vec<&GlobalU32> = self.ids.iter().map(|p| &**p).collect();
            let cursors_ref: &GlobalU32 = &self.cursors;
            dev.exec::<P>()
                .try_launch_threads("bin_frontier", f_len, |ctx, t| {
                    let v = state.frontier.load(t) as usize;
                    ctx.global_read_coalesced(1);
                    state.marked.store(v, 0);
                    let d = g.degree(v);
                    ctx.global_read_scattered(1);
                    ctx.global_write_scattered(1);
                    if d == 0 {
                        return;
                    }
                    let b = bucket_index(d);
                    let pos = ctx.atomic_add_u32(cursors_ref, b, 1);
                    ids_ref[b].store(pos as usize, v as u32);
                    ctx.global_write_scattered(1);
                })
                .map_err(GpuLouvainError::Launch)?;
        }
        state.frontier_len.store(0, 0);
        for b in 0..MODOPT_BUCKETS.len() {
            self.counts[b] = self.cursors.load(b) as usize;
            debug_assert!(self.counts[b] <= self.full_counts[b]);
        }
        self.cursors.fill(0);
        Ok(())
    }
}

/// Runs one full modularity-optimization phase and returns the labeling.
///
/// Fails with [`GpuLouvainError::Launch`] when a kernel launch fails (a
/// fault-injecting device; see [`cd_gpusim::FaultPlan`]), with
/// [`GpuLouvainError::DegreeOverflow`] when a vertex degree exceeds the
/// hash-table prime ladder, and with [`GpuLouvainError::InvariantViolation`]
/// when the incrementally-tracked modularity disagrees with a full device
/// recompute at a resync point (float drift or corrupted device state). The
/// phase has no partial output on failure — the driver re-runs it from the
/// stage's input labeling.
pub fn modularity_optimization(
    dev: &Device,
    g: &DeviceGraph,
    cfg: &GpuLouvainConfig,
    threshold: f64,
) -> Result<OptOutcome, GpuLouvainError> {
    // One runtime dispatch per phase; every kernel below is monomorphized
    // for the selected profile, so the Parallel path carries no per-access
    // accounting branches.
    dispatch_profile!(dev.profile(), P => {
        modularity_optimization_typed::<P>(dev, g, cfg, threshold, None)
    })
}

/// [`modularity_optimization`] resumed from a [`WarmSeed`] instead of the
/// singleton labeling: the phase starts at the seed's communities and only
/// re-bins the seed frontier (plus whatever its moves mark), so an empty or
/// quickly-draining frontier ends the phase after one near-free iteration.
/// The caller must have validated the seed labels.
pub fn modularity_optimization_seeded(
    dev: &Device,
    g: &DeviceGraph,
    cfg: &GpuLouvainConfig,
    threshold: f64,
    seed: &WarmSeed<'_>,
) -> Result<OptOutcome, GpuLouvainError> {
    dispatch_profile!(dev.profile(), P => {
        modularity_optimization_typed::<P>(dev, g, cfg, threshold, Some(seed))
    })
}

/// [`modularity_optimization`] monomorphized for one execution profile.
fn modularity_optimization_typed<P: ExecutionProfile>(
    dev: &Device,
    g: &DeviceGraph,
    cfg: &GpuLouvainConfig,
    threshold: f64,
    seed: Option<&WarmSeed<'_>>,
) -> Result<OptOutcome, GpuLouvainError> {
    let n = g.num_vertices();
    let state = match seed {
        Some(s) => OptState::new_seeded::<P>(dev, g, s.labels)?,
        None => OptState::new::<P>(dev, g)?,
    };
    if n == 0 || g.two_m == 0.0 {
        return Ok(OptOutcome {
            comm: state.comm.to_vec(),
            modularity: 0.0,
            iterations: 0,
            iter_times: Vec::new(),
            moves: 0,
        });
    }

    let two_m = g.two_m;
    let q_of = |inside: f64, sum_asq: f64| inside / two_m - sum_asq / (two_m * two_m);
    // Incrementally-tracked modularity parts; seeded by one full recompute.
    let (mut inside, mut sum_asq) = device_modularity_parts::<P>(dev, g, &state)?;
    let mut bins = match cfg.assignment {
        ThreadAssignment::DegreeBinned => Some(Bins::new::<P>(dev, g)?),
        ThreadAssignment::NodeCentric => None,
    };
    // A warm seed narrows the first iteration to the injected frontier and
    // forces frontier marking on — later iterations reuse the pruned bins,
    // so without marking, vertices outside the seed frontier could never be
    // re-evaluated. Node-centric assignment has no bins to narrow; it warm
    // starts from the seeded labels alone.
    let seeded_binned = seed.is_some() && bins.is_some();
    let pruning = cfg.pruning || seeded_binned;
    if let (Some(s), Some(bins)) = (seed, bins.as_mut()) {
        state.inject_frontier::<P>(dev, s.frontier)?;
        bins.bin_frontier::<P>(dev, g, &state)?;
    }
    let mut iterations = 0usize;
    let mut iter_times = Vec::new();
    let mut total_moves = 0usize;
    // A fully synchronous iteration can *decrease* modularity (vertices
    // moving toward each other's old communities). The loop still terminates
    // on the paper's gain-below-threshold rule, but the phase returns the
    // best labeling observed so the result is never worse than its starting
    // point.
    let mut best_q = q_of(inside, sum_asq);
    let mut stagnant = 0usize;
    // True when commits happened since the last full recompute — while false,
    // the tracked parts are bit-identical to the seeding recompute, so a
    // resync could not observe drift and is skipped. Matters because the
    // driver probes converged levels with one-iteration zero-move calls.
    let mut dirty = false;
    // Termination: the phase ends once the realized modularity has failed to
    // improve by more than the threshold for `patience` consecutive
    // iterations. Per-bucket updates behave like the sequential algorithm
    // (patience 1 = Alg. 1's gain-below-threshold rule); the fully
    // synchronous Relaxed strategy oscillates transiently while its
    // *predicted* gains stay positive, so it gets room to recover — which is
    // exactly the up-to-10x extra optimization time the paper measured for
    // this variant.
    let patience = match cfg.update_strategy {
        UpdateStrategy::PerBucket => 1,
        UpdateStrategy::Relaxed => 12,
    };
    // Movers committed by the previous iteration — the density signal for
    // the adaptive modularity tracking below. Initialized to n: the first
    // iteration of a phase moves a large fraction of the vertices, where a
    // single full recompute is cheaper than walking every mover's arcs. A
    // seeded phase evaluates only the frontier, so it starts from that size
    // and gets incremental tracking from the first iteration.
    let mut last_moves = if seeded_binned { seed.map_or(n, |s| s.frontier.len()) } else { n };

    while iterations < cfg.max_iterations {
        iterations += 1;
        let iter_start = Instant::now();
        let mut iter_moves = 0usize;
        // Incremental tracking pays ~two gathers per mover arc; a full
        // recompute pays one pass over all n + m. Break-even sits near half
        // the vertices moving, so track deltas unless the previous
        // iteration's commit was that dense (deterministic input, so the
        // trajectory stays reproducible).
        let track_deltas = last_moves * 2 < n;

        match (cfg.assignment, bins.as_mut()) {
            (ThreadAssignment::DegreeBinned, Some(bins)) => {
                if pruning && iterations > 1 {
                    // Rebin only the vertices marked by the previous
                    // iteration's commits — O(frontier), not O(7n).
                    bins.bin_frontier::<P>(dev, g, &state)?;
                }
                let attempt = |ctx: &mut GroupCtx<P>,
                               table: &mut HashTable<'_>,
                               lane_best: &mut [(f64, u32)],
                               i: usize| {
                    compute_move_attempt(ctx, g, &state, table, lane_best, i)
                };
                for (bucket_idx, &spec) in MODOPT_BUCKETS.iter().enumerate() {
                    let count = bins.counts[bucket_idx];
                    if count == 0 {
                        continue;
                    }
                    let kernel = COMPUTE_MOVE_KERNELS[bucket_idx];
                    if spec.is_open_ended() {
                        let pruned = count < bins.full_counts[6];
                        let (sub_ids, sub_slots);
                        let (b7_ids, b7_slots): (&[u32], &[usize]) = if pruned {
                            let mut sub: Vec<u32> =
                                (0..count).map(|t| bins.ids[6].load(t)).collect();
                            dev.sort_by_key(&mut sub, |&v| bins.b7_rank[v as usize]);
                            sub_slots = sub
                                .iter()
                                .map(|&v| bins.b7_slots[bins.b7_rank[v as usize] as usize])
                                .collect::<Vec<_>>();
                            sub_ids = sub;
                            (&sub_ids, &sub_slots)
                        } else {
                            (&bins.b7_sorted, &bins.b7_slots)
                        };
                        launch_open_ended(dev, cfg, kernel, n, b7_ids, b7_slots, attempt)?;
                    } else {
                        let ids = &bins.ids[bucket_idx];
                        let task_id = |ctx: &mut GroupCtx<P>, task: usize| {
                            ctx.global_read_coalesced(1);
                            ids.load(task) as usize
                        };
                        launch_bounded(dev, cfg, kernel, n, count, spec, task_id, attempt)?;
                    }
                    if cfg.update_strategy == UpdateStrategy::PerBucket {
                        iter_moves += commit::<P>(
                            dev,
                            g,
                            &state,
                            Some((&bins.ids[bucket_idx], count)),
                            pruning,
                            track_deltas,
                        )?;
                    }
                }
            }
            _ => {
                compute_move_node_centric::<P>(dev, g, &state)?;
            }
        }

        if cfg.update_strategy == UpdateStrategy::Relaxed
            || cfg.assignment == ThreadAssignment::NodeCentric
        {
            // One commit over all vertices: the deltas pass must read a
            // consistent pre-commit labeling for every neighbor, which
            // per-bucket sequential commits would destroy here.
            iter_moves += commit::<P>(dev, g, &state, None, pruning, track_deltas)?;
        }

        total_moves += iter_moves;
        if track_deltas {
            // Fold this iteration's committed deltas into the tracked parts
            // (fixed shard order keeps the fold deterministic).
            for s in 0..ACC_SHARDS {
                inside += state.q_delta.load(s);
                sum_asq += state.q_delta.load(ACC_SHARDS + s);
                state.q_delta.store(s, 0.0);
                state.q_delta.store(ACC_SHARDS + s, 0.0);
            }
            dirty |= iter_moves > 0;
            if dirty && cfg.resync_interval > 0 && iterations.is_multiple_of(cfg.resync_interval) {
                let (full_inside, full_sum_asq) = device_modularity_parts::<P>(dev, g, &state)?;
                resync_check(q_of(inside, sum_asq), q_of(full_inside, full_sum_asq), iterations)?;
                inside = full_inside;
                sum_asq = full_sum_asq;
                dirty = false;
            }
        } else {
            // Dense iteration: the commit kernels skipped delta accounting;
            // the recompute is both the q source and a fresh drift anchor.
            let (full_inside, full_sum_asq) = device_modularity_parts::<P>(dev, g, &state)?;
            inside = full_inside;
            sum_asq = full_sum_asq;
            dirty = false;
        }
        last_moves = iter_moves;
        let q_new = q_of(inside, sum_asq);
        iter_times.push(iter_start.elapsed());
        if q_new > best_q + threshold {
            stagnant = 0;
        } else {
            stagnant += 1;
        }
        if q_new > best_q {
            best_q = q_new;
            dev.exec::<P>()
                .try_launch_threads("snapshot_best", n, |ctx, v| {
                    state.best_comm.store(v, state.comm.load(v));
                    ctx.global_read_coalesced(1);
                    ctx.global_write_coalesced(1);
                })
                .map_err(GpuLouvainError::Launch)?;
        }
        if iter_moves == 0 || stagnant >= patience {
            break;
        }
    }

    // End-of-phase resync: bound drift before the value leaves the phase.
    // Skipped when nothing was committed since the last full recompute — the
    // tracked parts still ARE that recompute's values.
    if dirty {
        let (full_inside, full_sum_asq) = device_modularity_parts::<P>(dev, g, &state)?;
        resync_check(q_of(inside, sum_asq), q_of(full_inside, full_sum_asq), iterations)?;
    }

    Ok(OptOutcome {
        comm: state.best_comm.to_vec(),
        modularity: best_q,
        iterations,
        iter_times,
        moves: total_moves,
    })
}

/// Fails the stage when the incremental modularity drifted away from the
/// full recompute (or device state was corrupted under fault injection).
fn resync_check(q_inc: f64, q_full: f64, iteration: usize) -> Result<(), GpuLouvainError> {
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // deliberate: NaN must fail the check
    if !((q_inc - q_full).abs() <= RESYNC_EPS) {
        return Err(GpuLouvainError::InvariantViolation {
            stage: "optimize",
            detail: format!(
                "incremental modularity {q_inc} != recomputed {q_full} at iteration {iteration}"
            ),
        });
    }
    Ok(())
}

/// The body of Algorithm 2 for one vertex: hash the neighborhood, track
/// per-lane bests, reduce, and stage the decision in `newComm`. A full hash
/// table aborts the attempt with [`TableOverflow`] before any state is
/// staged; [`crate::bucketed::with_table_retry`] retries with a larger table.
fn compute_move_attempt<P: ExecutionProfile>(
    ctx: &mut GroupCtx<P>,
    g: &DeviceGraph,
    state: &OptState<'_>,
    table: &mut HashTable<'_>,
    lane_best: &mut [(f64, u32)],
    i: usize,
) -> Result<(), TableOverflow> {
    let deg = g.degree(i);
    let ci = state.comm.load(i);
    let ki = state.k[i];
    let m = g.total_weight_m();
    let lanes = ctx.lanes();

    table.reset(ctx);
    for lb in lane_best[..lanes].iter_mut() {
        *lb = (f64::NEG_INFINITY, u32::MAX);
    }
    // The reset is a cooperative plain-store fill; when the group spans
    // multiple warps they drift apart afterwards, so the inserts below need a
    // barrier against the reset (racecheck: W-A hazard without it). Sub-warp
    // groups are warp-synchronous and need none.
    if lanes > 32 {
        ctx.barrier();
    }

    ctx.global_read_coalesced(2); // offsets
    ctx.global_read_scattered(2); // C[i], comm_size[C[i]]
    let i_singleton = state.comm_size.load(ci as usize) == 1;

    let nbrs = g.neighbors(i);
    let ws = g.edge_weights(i);
    ctx.strided_steps(deg);
    ctx.global_read_coalesced(2 * deg); // edges + weights
    ctx.global_read_scattered(deg); // C[j] gathers

    // Lane of arc `idx` is `idx % lanes`, tracked incrementally so the hot
    // loop carries no division.
    let mut lane = lanes - 1;
    for idx in 0..deg {
        lane += 1;
        if lane == lanes {
            lane = 0;
        }
        let j = nbrs[idx] as usize;
        if j == i {
            continue; // self-loop: excluded from e terms (C(i)\{i})
        }
        let w = ws[idx];
        let cj = state.comm.load(j);
        let running = table.try_insert_add(ctx, cj, w)?;
        if cj == ci {
            continue; // home community: the stay option, evaluated below
        }
        // Singleton ordering rule: a singleton vertex may only join another
        // singleton community with a smaller id (prevents neighbor singletons
        // from swapping forever).
        if i_singleton && cj >= ci && state.comm_size.load(cj as usize) == 1 {
            ctx.global_read_scattered(1);
            continue;
        }
        let a_cj = state.ac.load(cj as usize);
        ctx.global_read_scattered(1);
        // Candidate term of Eq. (2); the shared parts cancel across
        // candidates. `running` only grows, so the lane that performs the
        // final update of a slot observes the full e_{i→cj} — the maximum
        // over all partial observations is exact.
        let gain = running / m - ki * a_cj / (2.0 * m * m);
        let lb = &mut lane_best[lane];
        if gain > lb.0 + GAIN_EPS || ((gain - lb.0).abs() <= GAIN_EPS && cj < lb.1) {
            *lb = (gain, cj);
        }
    }

    // No explicit barrier before the reduction: `reduce_best` is itself a
    // block-wide collective (built on __syncthreads when the group spans
    // warps), so every lane's inserts happen-before the `get` below.
    let best = ctx.reduce_best(&lane_best[..lanes]);
    let e_home = table.get(ctx, ci);
    let stay = e_home / m - ki * (state.ac.load(ci as usize) - ki) / (2.0 * m * m);
    let target = match best {
        Some((gain, c)) if c != u32::MAX && gain > stay + GAIN_EPS => c,
        _ => ci,
    };
    state.new_comm.store(i, target);
    ctx.global_write_coalesced(1);
    // End-of-task barrier: the next task's table reset must not overtake this
    // task's home-community lookup (racecheck: R-W hazard without it).
    if lanes > 32 {
        ctx.barrier();
    }
    Ok(())
}

/// Node-centric ablation: one lane per vertex walks its whole adjacency
/// sequentially (the assignment every earlier parallel Louvain used). Blocks
/// of 128 vertices; warp divergence is the max-degree straggler effect.
fn compute_move_node_centric<P: ExecutionProfile>(
    dev: &Device,
    g: &DeviceGraph,
    state: &OptState<'_>,
) -> Result<(), GpuLouvainError> {
    let n = g.num_vertices();
    let block_threads = dev.config().block_threads();
    let warp = dev.config().warp_size;
    let n_blocks = n.div_ceil(block_threads);
    let max_deg = dev.max_usize(&(0..n).map(|v| g.degree(v)).collect::<Vec<_>>()).unwrap_or(0);
    let scratch_slots = table_size_for(max_deg.max(1))?;
    let slots_per_vertex: Vec<usize> =
        (0..n).map(|v| table_size_for(g.degree(v).max(1))).collect::<Result<_, _>>()?;
    let slots_ref = &slots_per_vertex;
    dev.exec::<P>()
        .try_launch_blocks(
            "compute_move_node_centric",
            n_blocks,
            |_| Scratch::new::<P>(scratch_slots, n),
            |ctx, scratch| {
                let lo = ctx.block_id * block_threads;
                let hi = (lo + block_threads).min(n);
                let mut w_lo = lo;
                while w_lo < hi {
                    let w_hi = (w_lo + warp).min(hi);
                    // The warp advances in lockstep until its slowest lane (the
                    // highest-degree vertex) finishes.
                    let warp_max = (w_lo..w_hi).map(|v| g.degree(v)).max().unwrap_or(0) as u64;
                    let warp_sum: u64 = (w_lo..w_hi).map(|v| g.degree(v) as u64).sum();
                    ctx.steps(warp_max, warp_sum);
                    #[allow(clippy::needless_range_loop)] // i is a vertex id, not just an index
                    for i in w_lo..w_hi {
                        let Scratch { table, lane_best } = scratch;
                        node_centric_move_one(
                            ctx,
                            g,
                            state,
                            table,
                            slots_ref[i],
                            &mut lane_best[0],
                            i,
                        );
                        ctx.finish_task();
                    }
                    w_lo = w_hi;
                }
            },
        )
        .map_err(GpuLouvainError::Launch)
}

/// Single-lane variant of [`crate::bucketed::with_table_retry`]: the same
/// overflow-retry loop around the per-vertex attempt, but over a private
/// table that is always in global memory, so no shared-to-global fallback
/// is counted.
fn node_centric_move_one<P: ExecutionProfile>(
    ctx: &mut GroupCtx<P>,
    g: &DeviceGraph,
    state: &OptState<'_>,
    storage: &mut TableStorage,
    mut slots: usize,
    best: &mut (f64, u32),
    i: usize,
) {
    loop {
        // Each lane owns this vertex's table exclusively: borrow it as
        // private so the race detector doesn't misread the sequential
        // per-vertex reuse as cross-warp sharing.
        let mut table = storage.table_private(slots, TableSpace::Global);
        match node_centric_attempt(ctx, g, state, &mut table, best, i) {
            Ok(()) => return,
            Err(TableOverflow { .. }) => {
                slots = grown_table_size(slots);
            }
        }
    }
}

/// Single-lane body of Algorithm 2 (no strided accounting — the caller
/// charges warp-level divergence).
fn node_centric_attempt<P: ExecutionProfile>(
    ctx: &mut GroupCtx<P>,
    g: &DeviceGraph,
    state: &OptState<'_>,
    table: &mut HashTable<'_>,
    best: &mut (f64, u32),
    i: usize,
) -> Result<(), TableOverflow> {
    let deg = g.degree(i);
    let ci = state.comm.load(i);
    let ki = state.k[i];
    let m = g.total_weight_m();
    table.reset(ctx);
    *best = (f64::NEG_INFINITY, u32::MAX);
    let i_singleton = state.comm_size.load(ci as usize) == 1;
    ctx.global_read_coalesced(2 * deg + 2);
    ctx.global_read_scattered(deg + 2);
    let nbrs = g.neighbors(i);
    let ws = g.edge_weights(i);
    for idx in 0..deg {
        let j = nbrs[idx] as usize;
        if j == i {
            continue;
        }
        let cj = state.comm.load(j);
        let running = table.try_insert_add(ctx, cj, ws[idx])?;
        if cj == ci || (i_singleton && cj >= ci && state.comm_size.load(cj as usize) == 1) {
            continue;
        }
        let gain = running / m - ki * state.ac.load(cj as usize) / (2.0 * m * m);
        ctx.global_read_scattered(1);
        if gain > best.0 + GAIN_EPS || ((gain - best.0).abs() <= GAIN_EPS && cj < best.1) {
            *best = (gain, cj);
        }
    }
    let e_home = table.get(ctx, ci);
    let stay = e_home / m - ki * (state.ac.load(ci as usize) - ki) / (2.0 * m * m);
    let target = if best.1 != u32::MAX && best.0 > stay + GAIN_EPS { best.1 } else { ci };
    state.new_comm.store(i, target);
    ctx.global_write_coalesced(1);
    Ok(())
}

/// Commits staged moves for a commit set (Alg. 1 lines 8-9) and updates
/// `a_c` and the community sizes incrementally (lines 10-11). `ids` is a
/// device id array with a count, or `None` for all vertices.
///
/// Two kernels: `commit_deltas` reads the still-consistent pre-commit
/// labeling to account this commit's modularity change, then
/// `update_communities` publishes `newComm`. For every moved vertex the
/// deltas pass walks its arcs and accumulates
/// `Δinside += f·w·([new(i)=c'(j)] − [old(i)=c(j)])` with `f = 1` when `j`
/// moves in the same commit (it accounts its own arc) and `f = 2` otherwise
/// (i accounts both directions); a neighbor moves in this commit iff
/// `newComm[j] != C[j]` (the [`OptState::new_comm`] invariant). The `Σ a_c²`
/// change telescopes from the previous-value-returning volume atomics:
/// each `a ← a + δ` contributes `2aδ + δ²` regardless of interleaving.
///
/// `track_deltas = false` (a dense commit, where the caller recomputes the
/// modularity parts wholesale afterwards) runs a single fused
/// `commit_publish` kernel instead: with no deltas to stage against the
/// pre-commit labeling, nothing reads another vertex's label, so volumes,
/// sizes, frontier marks (the arcs are walked only to mark) and the label
/// publish happen in one pass.
///
/// With pruning, every moved vertex marks itself and its neighbors into the
/// frontier consumed by the next iteration's [`Bins::bin_frontier`]. Returns
/// the number of vertices that moved.
fn commit<P: ExecutionProfile>(
    dev: &Device,
    g: &DeviceGraph,
    state: &OptState<'_>,
    ids: Option<(&GlobalU32, usize)>,
    pruning: bool,
    track_deltas: bool,
) -> Result<usize, GpuLouvainError> {
    let count = ids.map_or(g.num_vertices(), |(_, c)| c);
    if count == 0 {
        return Ok(0);
    }
    for s in 0..ACC_SHARDS {
        state.moves.store(s, 0);
    }
    let ids = ids.map(|(a, _)| a);
    if !track_deltas {
        // Dense commit: with no delta accounting to stage against the
        // pre-commit labeling, nothing here reads another vertex's label —
        // volumes, sizes, frontier marks, and the label publish fuse into
        // one kernel, halving the launches and id-array scans of the
        // two-pass form.
        dev.exec::<P>()
            .try_launch_threads("commit_publish", count, |ctx, t| {
                let i = match ids {
                    Some(a) => {
                        ctx.global_read_coalesced(1);
                        a.load(t) as usize
                    }
                    None => t,
                };
                let old = state.comm.load(i);
                let new = state.new_comm.load(i);
                ctx.global_read_scattered(2);
                if old == new {
                    return;
                }
                let shard = t & (ACC_SHARDS - 1);
                ctx.atomic_add_u32(&state.moves, shard, 1);
                let ki = state.k[i];
                ctx.atomic_add_f64(&state.ac, old as usize, -ki);
                ctx.atomic_add_f64(&state.ac, new as usize, ki);
                ctx.atomic_add_u32(&state.comm_size, old as usize, u32::MAX); // -1
                ctx.atomic_add_u32(&state.comm_size, new as usize, 1);
                if pruning {
                    let deg = g.degree(i);
                    ctx.strided_steps(deg.max(1));
                    ctx.global_read_coalesced(deg + 2);
                    for &j in g.neighbors(i) {
                        let j = j as usize;
                        if j != i {
                            mark_frontier(ctx, state, j);
                        }
                    }
                    mark_frontier(ctx, state, i);
                    ctx.global_write_scattered(1 + deg);
                }
                state.comm.store(i, new);
                ctx.global_write_scattered(1);
            })
            .map_err(GpuLouvainError::Launch)?;
        return Ok((0..ACC_SHARDS).map(|s| state.moves.load(s) as usize).sum());
    }
    dev.exec::<P>()
        .try_launch_threads("commit_deltas", count, |ctx, t| {
            let i = match ids {
                Some(a) => {
                    ctx.global_read_coalesced(1);
                    a.load(t) as usize
                }
                None => t,
            };
            let old = state.comm.load(i);
            let new = state.new_comm.load(i);
            ctx.global_read_scattered(2);
            if old == new {
                return;
            }
            let shard = t & (ACC_SHARDS - 1);
            ctx.atomic_add_u32(&state.moves, shard, 1);
            let ki = state.k[i];
            let prev_old = ctx.atomic_add_f64_prev(&state.ac, old as usize, -ki);
            let prev_new = ctx.atomic_add_f64_prev(&state.ac, new as usize, ki);
            // (a−k)² − a² = −2ak + k²;  (a+k)² − a² = 2ak + k².
            let d_asq = (ki - 2.0 * prev_old) * ki + (ki + 2.0 * prev_new) * ki;
            ctx.atomic_add_f64(&state.q_delta, ACC_SHARDS + shard, d_asq);
            ctx.atomic_add_u32(&state.comm_size, old as usize, u32::MAX); // -1 (wrapping)
            ctx.atomic_add_u32(&state.comm_size, new as usize, 1);
            let deg = g.degree(i);
            ctx.strided_steps(deg.max(1));
            ctx.global_read_coalesced(2 * deg + 2);
            ctx.global_read_scattered(2 * deg); // C[j] + newComm[j] gathers
            let mut d_inside = 0.0;
            for (&j, &w) in g.neighbors(i).iter().zip(g.edge_weights(i)) {
                let j = j as usize;
                if j == i {
                    continue; // self-loop arcs never change sides (and `i` is
                              // marked below regardless)
                }
                let cj_old = state.comm.load(j);
                let cj_new = state.new_comm.load(j);
                // Arcs that stay on the same side contribute an exact +0.0, so
                // skipping them leaves the accumulated sum bit-identical.
                if (new == cj_new) != (old == cj_old) {
                    let factor = if cj_new != cj_old { 1.0 } else { 2.0 };
                    let after = (new == cj_new) as u32 as f64;
                    let before = (old == cj_old) as u32 as f64;
                    d_inside += factor * w * (after - before);
                }
                if pruning {
                    mark_frontier(ctx, state, j);
                }
            }
            if d_inside != 0.0 {
                ctx.atomic_add_f64(&state.q_delta, shard, d_inside);
            }
            if pruning {
                mark_frontier(ctx, state, i);
                ctx.global_write_scattered(1 + deg);
            }
        })
        .map_err(GpuLouvainError::Launch)?;
    dev.exec::<P>()
        .try_launch_threads("update_communities", count, |ctx, t| {
            let i = match ids {
                Some(a) => {
                    ctx.global_read_coalesced(1);
                    a.load(t) as usize
                }
                None => t,
            };
            let new = state.new_comm.load(i);
            ctx.global_read_scattered(2);
            if state.comm.load(i) != new {
                state.comm.store(i, new);
                ctx.global_write_scattered(1);
            }
        })
        .map_err(GpuLouvainError::Launch)?;
    Ok((0..ACC_SHARDS).map(|s| state.moves.load(s) as usize).sum())
}

/// Adds `v` to the frontier exactly once (CAS on the membership flag; the
/// winner appends to the compacted list).
///
/// Test-and-test-and-set: the hardware CAS fetches the line regardless, so
/// the plain pre-read models the same single `atomicCAS` — but host-side it
/// skips the locked RMW for already-marked vertices, which dominate once the
/// frontier densifies. Counter parity with a bare CAS is kept explicitly:
/// one CAS op per call, a failure whenever the vertex was already claimed.
fn mark_frontier<P: ExecutionProfile>(ctx: &mut GroupCtx<P>, state: &OptState<'_>, v: usize) {
    if state.marked.load(v) != 0 {
        ctx.note_cas(1, 1);
        return;
    }
    if ctx.cas_u32(&state.marked, v, 0, 1).is_ok() {
        let pos = ctx.atomic_add_u32(&state.frontier_len, 0, 1);
        state.frontier.store(pos as usize, v as u32);
        ctx.global_write_scattered(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HashPlacement;
    use cd_gpusim::{DeviceConfig, Instrumented, Profile};
    use cd_graph::gen::{cliques, star};
    use cd_graph::{modularity as host_modularity, Partition};

    fn dev() -> Device {
        Device::new(DeviceConfig::tesla_k40m())
    }

    /// Counter-asserting tests must hold regardless of the CD_GPUSIM_PROFILE
    /// environment default, so they pin the instrumented profile.
    fn instrumented_dev() -> Device {
        Device::new(DeviceConfig::tesla_k40m().with_profile(Profile::Instrumented))
    }

    #[test]
    fn weighted_degrees_match_host() {
        let g = cd_graph::csr_from_edges(4, &[(0, 1, 2.0), (1, 2, 1.5), (3, 3, 4.0)]);
        let dg = DeviceGraph::from_csr(&g);
        let k = compute_weighted_degrees::<Instrumented>(&dev(), &dg).unwrap();
        for v in 0..4u32 {
            assert!((k[v as usize] - g.weighted_degree(v)).abs() < 1e-12);
        }
    }

    #[test]
    fn device_modularity_matches_host_on_singletons() {
        let g = cliques(3, 5, true);
        let dg = DeviceGraph::from_csr(&g);
        let d = dev();
        let state = OptState::new::<Instrumented>(&d, &dg).unwrap();
        let q_dev = device_modularity::<Instrumented>(&d, &dg, &state).unwrap();
        let q_host = host_modularity(&g, &Partition::singleton(g.num_vertices()));
        assert!((q_dev - q_host).abs() < 1e-12, "{q_dev} vs {q_host}");
    }

    #[test]
    fn one_phase_finds_cliques() {
        let g = cliques(4, 6, true);
        let dg = DeviceGraph::from_csr(&g);
        let d = dev();
        let out =
            modularity_optimization(&d, &dg, &GpuLouvainConfig::paper_default(), 1e-6).unwrap();
        for c in 0..4u32 {
            let base = (c * 6) as usize;
            for v in 1..6usize {
                assert_eq!(out.comm[base], out.comm[base + v], "clique {c} split");
            }
        }
        let q_host = host_modularity(&g, &Partition::from_vec(out.comm.clone()));
        assert!((out.modularity - q_host).abs() < 1e-9);
        assert!(out.modularity > 0.6);
    }

    #[test]
    fn phase_modularity_never_decreases_much() {
        let g = cd_graph::gen::planted_partition(5, 30, 0.4, 0.02, 11).graph;
        let dg = DeviceGraph::from_csr(&g);
        let d = dev();
        let q0 = {
            let state = OptState::new::<Instrumented>(&d, &dg).unwrap();
            device_modularity::<Instrumented>(&d, &dg, &state).unwrap()
        };
        let out =
            modularity_optimization(&d, &dg, &GpuLouvainConfig::paper_default(), 1e-6).unwrap();
        assert!(out.modularity > q0);
        assert_eq!(out.iter_times.len(), out.iterations);
    }

    #[test]
    fn singleton_rule_on_star() {
        // All leaves are singletons pointing at the hub; the rule must let
        // them join the hub (hub community id 0 < leaf ids) without leaf-leaf
        // oscillation.
        let g = star(40);
        let dg = DeviceGraph::from_csr(&g);
        let d = dev();
        let out =
            modularity_optimization(&d, &dg, &GpuLouvainConfig::paper_default(), 1e-6).unwrap();
        assert!(out.iterations < 30);
        let distinct: std::collections::HashSet<u32> = out.comm.iter().copied().collect();
        assert!(distinct.len() <= 2, "star should collapse, got {distinct:?}");
    }

    #[test]
    fn relaxed_strategy_reaches_similar_quality() {
        let g = cd_graph::gen::planted_partition(4, 25, 0.5, 0.02, 7).graph;
        let dg = DeviceGraph::from_csr(&g);
        let d = dev();
        let mut cfg = GpuLouvainConfig::paper_default();
        let per_bucket = modularity_optimization(&d, &dg, &cfg, 1e-6).unwrap();
        cfg.update_strategy = UpdateStrategy::Relaxed;
        let relaxed = modularity_optimization(&d, &dg, &cfg, 1e-6).unwrap();
        assert!(
            relaxed.modularity > 0.9 * per_bucket.modularity,
            "relaxed {} vs per-bucket {}",
            relaxed.modularity,
            per_bucket.modularity
        );
    }

    #[test]
    fn node_centric_matches_quality() {
        let g = cd_graph::gen::planted_partition(4, 25, 0.5, 0.02, 9).graph;
        let dg = DeviceGraph::from_csr(&g);
        let d = dev();
        let mut cfg = GpuLouvainConfig::paper_default();
        cfg.assignment = ThreadAssignment::NodeCentric;
        let out = modularity_optimization(&d, &dg, &cfg, 1e-6).unwrap();
        let q_host = host_modularity(&g, &Partition::from_vec(out.comm.clone()));
        assert!((out.modularity - q_host).abs() < 1e-9);
        assert!(out.modularity > 0.4);
    }

    #[test]
    fn force_global_same_result_as_shared() {
        let g = cliques(3, 8, true);
        let dg = DeviceGraph::from_csr(&g);
        let d = dev();
        let a = modularity_optimization(&d, &dg, &GpuLouvainConfig::paper_default(), 1e-6).unwrap();
        let mut cfg = GpuLouvainConfig::paper_default();
        cfg.hash_placement = HashPlacement::ForceGlobal;
        let b = modularity_optimization(&d, &dg, &cfg, 1e-6).unwrap();
        assert_eq!(a.comm, b.comm, "hash placement must not change results");
    }

    #[test]
    fn empty_graph() {
        let dg = DeviceGraph::from_csr(&cd_graph::Csr::empty(3));
        let out =
            modularity_optimization(&dev(), &dg, &GpuLouvainConfig::paper_default(), 1e-6).unwrap();
        assert_eq!(out.comm, vec![0, 1, 2]);
        assert_eq!(out.modularity, 0.0);
    }

    #[test]
    fn pruning_preserves_quality_and_reduces_work() {
        let g = cd_graph::gen::planted_partition(6, 40, 0.4, 0.01, 21).graph;
        let dg = DeviceGraph::from_csr(&g);

        let d_full = instrumented_dev();
        let full = modularity_optimization(&d_full, &dg, &GpuLouvainConfig::paper_default(), 1e-6)
            .unwrap();
        let full_tasks: u64 = d_full
            .metrics()
            .kernels()
            .iter()
            .filter(|(n, _)| n.starts_with("compute_move"))
            .map(|(_, k)| k.counters.tasks)
            .sum();

        let d_pruned = instrumented_dev();
        let mut cfg = GpuLouvainConfig::paper_default();
        cfg.pruning = true;
        let pruned = modularity_optimization(&d_pruned, &dg, &cfg, 1e-6).unwrap();
        let pruned_tasks: u64 = d_pruned
            .metrics()
            .kernels()
            .iter()
            .filter(|(n, _)| n.starts_with("compute_move"))
            .map(|(_, k)| k.counters.tasks)
            .sum();

        assert!(
            pruned.modularity > 0.98 * full.modularity,
            "pruned Q {:.4} vs full {:.4}",
            pruned.modularity,
            full.modularity
        );
        assert!(
            pruned_tasks < full_tasks,
            "pruning should evaluate fewer vertices ({pruned_tasks} vs {full_tasks})"
        );
    }

    #[test]
    fn binning_is_frontier_proportional() {
        let g = cd_graph::gen::planted_partition(6, 40, 0.4, 0.01, 21).graph;
        let dg = DeviceGraph::from_csr(&g);
        let n = dg.num_vertices() as u64;
        let d = instrumented_dev();
        let mut cfg = GpuLouvainConfig::paper_default();
        cfg.pruning = true;
        let out = modularity_optimization(&d, &dg, &cfg, 1e-6).unwrap();
        assert!(out.iterations >= 2, "need at least one pruned iteration");
        let m = d.metrics();
        // The seven per-bucket full-vertex scans are gone entirely.
        assert!(m.kernel("thrust::copy_if").is_none(), "no copy_if in the opt hot loop");
        // The O(n) pass runs once per phase, not once per iteration.
        let bv = m.kernel("bin_vertices").unwrap();
        assert_eq!(bv.launches, 1);
        assert!(bv.counters.lane_slots >= n);
        // Pruned rebinning touches only the frontier: strictly less work than
        // rescanning all vertices each pruned iteration, in lane slots and
        // global reads.
        let bf = m.kernel("bin_frontier").unwrap();
        let pruned_iters = (out.iterations - 1) as u64;
        assert!(bf.counters.lane_slots < bv.counters.lane_slots * pruned_iters);
        assert!(bf.counters.global_reads < bv.counters.global_reads * pruned_iters);
    }

    #[test]
    fn incremental_modularity_matches_full_recompute() {
        // resync_interval = 1 makes every iteration assert
        // |Q_inc − Q_full| ≤ 1e-9 inside the phase, under both update
        // strategies and both pruning settings.
        for strategy in [UpdateStrategy::PerBucket, UpdateStrategy::Relaxed] {
            for pruning in [false, true] {
                let g = cd_graph::gen::planted_partition(5, 30, 0.4, 0.02, 11).graph;
                let dg = DeviceGraph::from_csr(&g);
                let d = dev();
                let mut cfg = GpuLouvainConfig::paper_default();
                cfg.update_strategy = strategy;
                cfg.pruning = pruning;
                cfg.resync_interval = 1;
                let out = modularity_optimization(&d, &dg, &cfg, 1e-6).unwrap();
                let q_host = host_modularity(&g, &Partition::from_vec(out.comm.clone()));
                assert!(
                    (out.modularity - q_host).abs() < 1e-9,
                    "{strategy:?} pruning={pruning}: {} vs host {q_host}",
                    out.modularity
                );
            }
        }
    }

    #[test]
    fn incremental_modularity_matches_under_node_centric() {
        let g = cd_graph::gen::planted_partition(4, 25, 0.5, 0.02, 9).graph;
        let dg = DeviceGraph::from_csr(&g);
        let d = dev();
        let mut cfg = GpuLouvainConfig::paper_default();
        cfg.assignment = ThreadAssignment::NodeCentric;
        cfg.resync_interval = 1;
        let out = modularity_optimization(&d, &dg, &cfg, 1e-6).unwrap();
        let q_host = host_modularity(&g, &Partition::from_vec(out.comm.clone()));
        assert!((out.modularity - q_host).abs() < 1e-9);
    }

    #[test]
    fn resync_detects_corrupted_state() {
        // Corrupt a community volume between phases of the public API's
        // machinery: run one compute step, poison `ac`, and check the resync
        // trips with a transient (retryable) error.
        let g = cliques(3, 6, true);
        let dg = DeviceGraph::from_csr(&g);
        let d = dev();
        let state = OptState::new::<Instrumented>(&d, &dg).unwrap();
        let (inside, sum_asq) = device_modularity_parts::<Instrumented>(&d, &dg, &state).unwrap();
        state.ac.store(0, state.ac.load(0) + 1000.0);
        let (inside2, sum_asq2) = device_modularity_parts::<Instrumented>(&d, &dg, &state).unwrap();
        let two_m = dg.two_m;
        let q = |i: f64, s: f64| i / two_m - s / (two_m * two_m);
        let err = resync_check(q(inside, sum_asq), q(inside2, sum_asq2), 1).unwrap_err();
        assert!(err.is_transient(), "resync mismatch must be retryable");
        assert!(matches!(err, GpuLouvainError::InvariantViolation { stage: "optimize", .. }));
    }

    #[test]
    fn opt_state_buffers_come_from_the_pool() {
        let g = cliques(3, 6, true);
        let dg = DeviceGraph::from_csr(&g);
        let d = dev();
        modularity_optimization(&d, &dg, &GpuLouvainConfig::paper_default(), 1e-6).unwrap();
        let first = *d.metrics().pool();
        assert!(first.misses > 0, "phase allocates through the pool");
        // A second phase on the same device reuses the released buffers.
        modularity_optimization(&d, &dg, &GpuLouvainConfig::paper_default(), 1e-6).unwrap();
        let second = *d.metrics().pool();
        assert!(second.hits > first.hits, "second phase must recycle: {second:?}");
        assert!(second.bytes_recycled > 0);
    }
}
