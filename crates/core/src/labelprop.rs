//! Label-propagation kernels — the fast, modularity-free end of the
//! algorithm portfolio.
//!
//! Both variants run on the same CSR + label-buffer machinery as the Louvain
//! kernels and launch their hash-table weighted vote through the same
//! degree-bucketed launcher as `computeMove` (`crate::bucketed`): each
//! vertex adopts the label carrying the largest incident edge weight, ties
//! broken deterministically toward the *smallest* label id.
//!
//! - **Synchronous** ([`LpaMode::Sync`]): double-buffered. Every vertex votes
//!   against the previous iteration's labeling (`labels`), stages its
//!   decision in a separate buffer (`staged`), and a commit kernel publishes
//!   all decisions at once. Fully deterministic, but susceptible to the
//!   classic two-coloring swap on bipartite-like structures — the loop keeps
//!   the labeling from two iterations back and, on detecting a period-2
//!   cycle, breaks it with one asymmetric half-commit (only label
//!   *decreases* are published), which is deterministic and strictly
//!   monotone, so the cycle cannot re-form.
//! - **Asynchronous** ([`LpaMode::Async`]): in-place at chunk granularity.
//!   Vertices are processed in [`ASYNC_CHUNKS`] fixed id-ordered chunks;
//!   each chunk votes against the *live* labeling (seeing every earlier
//!   chunk's commits within the same sweep) and publishes before the next
//!   chunk starts. A literal per-vertex in-place update would be both racy
//!   (read-neighbor/write-self in one launch) and schedule-dependent; the
//!   chunked Gauss–Seidel form keeps the asynchronous fixed-point behavior
//!   while staying race-free and bit-identical across execution profiles
//!   and thread counts. The in-sweep visibility also breaks bipartite
//!   oscillation without extra machinery.
//!
//! Determinism across all three execution profiles follows the same argument
//! as `computeMove`: hash-table running sums accumulate in lockstep lane
//! order within one task, the lane performing a slot's final update observes
//! the full vote weight (partial observations can never beat it), and
//! [`cd_gpusim::GroupCtx::reduce_best`] breaks exact ties toward the smaller
//! label id.

use crate::bucketed::HostBins;
use crate::config::GpuLouvainConfig;
use crate::dev_graph::DeviceGraph;
use crate::hashtable::{HashTable, TableOverflow};
use crate::louvain::{
    estimated_device_bytes, GpuLouvainError, GpuLouvainResult, GpuStageStats, StageAbort,
    StageCheckpoint,
};
use crate::recovery::retry_stage;
use cd_gpusim::{dispatch_profile, Device, ExecutionProfile, GroupCtx, PooledU32};
use cd_graph::{modularity, Csr, Dendrogram, Partition};
use std::time::{Duration, Instant};

/// Which update schedule a label-propagation run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LpaMode {
    /// Double-buffered: all vertices vote against the previous iteration's
    /// labeling, commits publish once per iteration.
    Sync,
    /// Chunked in-place: vertices vote in fixed id-ordered chunks, each
    /// chunk seeing all earlier chunks' commits within the same sweep.
    Async,
}

/// Kernel names per degree bucket, hoisted like `COMPUTE_MOVE_KERNELS`. The
/// vote runs on `computeMove`'s bucket ladder: its work is one hash insert
/// per arc, exactly `computeMove`'s access pattern minus the gain
/// arithmetic.
const LPA_VOTE_KERNELS: [&str; 7] = [
    "lpa_vote_b1",
    "lpa_vote_b2",
    "lpa_vote_b3",
    "lpa_vote_b4",
    "lpa_vote_b5",
    "lpa_vote_b6",
    "lpa_vote_b7",
];

/// Shard count for the sharded iteration counters (same contention argument
/// as the modularity phase's accumulators).
const LPA_SHARDS: usize = 64;

/// Fixed chunk count of the asynchronous sweep. Chunk boundaries are a pure
/// function of `n`, so the visit order — and therefore the result — is
/// independent of profile and thread count.
pub const ASYNC_CHUNKS: usize = 8;

/// Counter layout in [`LpaState::counters`]: staged label changes.
const CTR_STAGED: usize = 0;
/// Counter layout: staged labels differing from the labeling two
/// iterations back (zero while changes are staged = period-2 cycle).
const CTR_CYCLE: usize = LPA_SHARDS;
/// Counter layout: committed label changes.
const CTR_COMMITTED: usize = 2 * LPA_SHARDS;

/// Device-resident label-propagation state.
struct LpaState<'d> {
    /// Current label of every vertex.
    labels: PooledU32<'d>,
    /// Staged decision of the current vote pass. Invariant outside a
    /// vote→commit window: `staged[v] == labels[v]` for unbinned (degree-0)
    /// vertices, so the commit pass never moves them.
    staged: PooledU32<'d>,
    /// The labeling two iterations back (sync mode's cycle detector).
    prev2: PooledU32<'d>,
    /// Sharded counters: `[CTR_STAGED..)`, `[CTR_CYCLE..)`,
    /// `[CTR_COMMITTED..)`.
    counters: PooledU32<'d>,
}

impl<'d> LpaState<'d> {
    fn new<P: ExecutionProfile>(dev: &'d Device, n: usize) -> Result<Self, GpuLouvainError> {
        let s = Self {
            labels: dev.pool_u32(n),
            staged: dev.pool_u32(n),
            prev2: dev.pool_u32(n),
            counters: dev.pool_u32(3 * LPA_SHARDS),
        };
        dev.exec::<P>()
            .try_launch_threads("lpa_init", n, |ctx, v| {
                s.labels.store(v, v as u32);
                s.staged.store(v, v as u32);
                s.prev2.store(v, v as u32);
                ctx.global_write_coalesced(3);
            })
            .map_err(GpuLouvainError::Launch)?;
        Ok(s)
    }

    /// Folds one sharded counter in fixed index order.
    fn fold(&self, base: usize) -> usize {
        (base..base + LPA_SHARDS).map(|s| self.counters.load(s) as usize).sum()
    }
}

/// One weighted vote: hash the neighborhood's labels, track per-lane bests
/// on the *running* sums, reduce, and stage the winner. Comparisons are
/// exact (no epsilon): vote totals of integer-weighted graphs are exact,
/// and a partial observation of a label is strictly below that label's
/// final observation, so the maximum over all partial observations equals
/// the true per-label total.
fn vote_attempt<P: ExecutionProfile>(
    ctx: &mut GroupCtx<P>,
    g: &DeviceGraph,
    state: &LpaState<'_>,
    table: &mut HashTable<'_>,
    lane_best: &mut [(f64, u32)],
    i: usize,
) -> Result<(), TableOverflow> {
    let deg = g.degree(i);
    let li = state.labels.load(i);
    let lanes = ctx.lanes();

    table.reset(ctx);
    for lb in lane_best[..lanes].iter_mut() {
        *lb = (f64::NEG_INFINITY, u32::MAX);
    }
    // Same hazard structure as `compute_move_attempt`: a multi-warp group
    // drifts apart after the cooperative table reset, so the inserts below
    // need a barrier against it (racecheck: W-A). Sub-warp groups are
    // warp-synchronous.
    if lanes > 32 {
        ctx.barrier();
    }

    ctx.global_read_coalesced(2); // offsets
    ctx.global_read_scattered(1); // labels[i]
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
        let w = ws[idx];
        // A self-loop votes for the vertex's own current label — it never
        // pulls the vertex anywhere and only adds inertia, which is the
        // sensible reading of "neighboring label" for j == i.
        let lj = if j == i { li } else { state.labels.load(j) };
        let running = table.try_insert_add(ctx, lj, w)?;
        let lb = &mut lane_best[lane];
        if running > lb.0 || (running == lb.0 && lj < lb.1) {
            *lb = (running, lj);
        }
    }

    // `reduce_best` is a block-wide collective: every lane's inserts
    // happen-before the reduction, and exact weight ties break toward the
    // smaller label id — the portfolio's deterministic tie rule.
    let best = ctx.reduce_best(&lane_best[..lanes]);
    let target = match best {
        Some((w, l)) if l != u32::MAX && w > 0.0 => l,
        _ => li,
    };
    state.staged.store(i, target);
    ctx.global_write_coalesced(1);
    // End-of-task barrier: the next task's table reset must not overtake
    // this task's reads (racecheck: R-W).
    if lanes > 32 {
        ctx.barrier();
    }
    Ok(())
}

/// Counts staged changes and the period-2 signal in one pass: a staged
/// labeling that differs from the current one but matches the labeling two
/// iterations back is the two-coloring swap re-presenting its old state.
fn check_cycle<P: ExecutionProfile>(
    dev: &Device,
    state: &LpaState<'_>,
    n: usize,
) -> Result<(usize, usize), GpuLouvainError> {
    dev.exec::<P>()
        .try_launch_threads("lpa_check", n, |ctx, v| {
            let new = state.staged.load(v);
            let old = state.labels.load(v);
            let p2 = state.prev2.load(v);
            ctx.global_read_coalesced(3);
            let shard = v & (LPA_SHARDS - 1);
            if new != old {
                ctx.atomic_add_u32(&state.counters, CTR_STAGED + shard, 1);
            }
            if new != p2 {
                ctx.atomic_add_u32(&state.counters, CTR_CYCLE + shard, 1);
            }
        })
        .map_err(GpuLouvainError::Launch)?;
    Ok((state.fold(CTR_STAGED), state.fold(CTR_CYCLE)))
}

/// Publishes staged decisions over `[lo, lo+count)` and rotates the cycle
/// detector (`prev2` receives the pre-commit labeling). With `break_cycle`
/// only label *decreases* are published — the deterministic asymmetric
/// half-step that breaks a period-2 swap: committed labels strictly
/// decrease, so the swapped state cannot recur.
fn commit<P: ExecutionProfile>(
    dev: &Device,
    state: &LpaState<'_>,
    lo: usize,
    count: usize,
    break_cycle: bool,
) -> Result<(), GpuLouvainError> {
    if count == 0 {
        return Ok(());
    }
    dev.exec::<P>()
        .try_launch_threads("lpa_commit", count, |ctx, t| {
            let v = lo + t;
            let old = state.labels.load(v);
            let new = state.staged.load(v);
            ctx.global_read_coalesced(2);
            state.prev2.store(v, old);
            ctx.global_write_coalesced(1);
            if new == old || (break_cycle && new > old) {
                return;
            }
            state.labels.store(v, new);
            ctx.global_write_coalesced(1);
            ctx.atomic_add_u32(&state.counters, CTR_COMMITTED + (v & (LPA_SHARDS - 1)), 1);
        })
        .map_err(GpuLouvainError::Launch)
}

/// One sweep: every chunk votes, then publishes (sync: after the period-2
/// check, once for all vertices). Returns the number of labels committed, or
/// `None` when a sync vote staged no change (converged, nothing to publish).
fn sweep<P: ExecutionProfile>(
    dev: &Device,
    g: &DeviceGraph,
    state: &LpaState<'_>,
    cfg: &GpuLouvainConfig,
    mode: LpaMode,
    chunks: &[std::ops::Range<usize>],
    bins: &[HostBins],
) -> Result<Option<usize>, GpuLouvainError> {
    let n = g.num_vertices();
    state.counters.fill(0);
    for (range, chunk_bins) in chunks.iter().zip(bins) {
        chunk_bins.launch(dev, cfg, &LPA_VOTE_KERNELS, n, |ctx, table, lane_best, i| {
            vote_attempt::<P>(ctx, g, state, table, lane_best, i)
        })?;
        match mode {
            LpaMode::Sync => {
                let (staged, cycle_diff) = check_cycle::<P>(dev, state, n)?;
                if staged == 0 {
                    return Ok(None);
                }
                commit::<P>(dev, state, 0, n, cycle_diff == 0)?;
            }
            LpaMode::Async => commit::<P>(dev, state, range.start, range.len(), false)?,
        }
    }
    Ok(Some(state.fold(CTR_COMMITTED)))
}

/// Runs label propagation on `graph`. Honors
/// [`GpuLouvainConfig::max_iterations`], the hash-placement ablation and
/// the global-bucket block budget; the Louvain-specific threshold knobs are
/// ignored (the loop terminates on zero committed changes — LPA has no
/// modularity objective to threshold).
///
/// The initial labeling and every sweep run under the configured
/// [`GpuLouvainConfig::retry`] policy: a transient fault re-runs the sweep
/// from the labeling it began with, so a recovered run returns the
/// fault-free labels, and an exhausted budget fails with
/// [`GpuLouvainError::StageFailed`] naming the sweep.
pub fn label_propagation(
    dev: &Device,
    graph: &Csr,
    cfg: &GpuLouvainConfig,
    mode: LpaMode,
) -> Result<GpuLouvainResult, GpuLouvainError> {
    label_propagation_gated(dev, graph, cfg, mode, &mut |_| Ok(()))
}

/// [`label_propagation`] with a sweep gate — the portfolio analogue of
/// [`crate::louvain::louvain_gpu_gated`]'s stage gate, invoked before every
/// sweep (LPA has no contraction stages, so sweeps are its cancellation
/// points). The checkpoint's `stage` field carries the sweep index.
pub fn label_propagation_gated(
    dev: &Device,
    graph: &Csr,
    cfg: &GpuLouvainConfig,
    mode: LpaMode,
    gate: &mut dyn FnMut(&StageCheckpoint) -> Result<(), StageAbort>,
) -> Result<GpuLouvainResult, GpuLouvainError> {
    if graph.num_vertices() >= u32::MAX as usize {
        return Err(GpuLouvainError::TooManyVertices(graph.num_vertices()));
    }
    let required = estimated_device_bytes(graph);
    let available = dev.config().global_mem_bytes;
    if required > available {
        return Err(GpuLouvainError::OutOfMemory { required, available });
    }
    dispatch_profile!(dev.profile(), P => lpa_typed::<P>(dev, graph, cfg, mode, gate))
}

/// [`label_propagation`] monomorphized for one execution profile.
fn lpa_typed<P: ExecutionProfile>(
    dev: &Device,
    graph: &Csr,
    cfg: &GpuLouvainConfig,
    mode: LpaMode,
    gate: &mut dyn FnMut(&StageCheckpoint) -> Result<(), StageAbort>,
) -> Result<GpuLouvainResult, GpuLouvainError> {
    let start = Instant::now();
    let g = DeviceGraph::from_csr(graph);
    let n = g.num_vertices();
    let state = retry_stage(dev, &cfg.retry, 0, || LpaState::new::<P>(dev, n))?;

    let mut iterations = 0usize;
    let mut iter_times: Vec<Duration> = Vec::new();
    let mut total_moves = 0usize;

    if n > 0 && g.num_arcs() > 0 {
        // Chunk ranges of the asynchronous sweep; the synchronous mode is
        // the single-chunk special case with staging, cycle detection and a
        // once-per-sweep commit.
        let chunks: Vec<std::ops::Range<usize>> = match mode {
            LpaMode::Sync => std::iter::once(0..n).collect(),
            LpaMode::Async => {
                let per = n.div_ceil(ASYNC_CHUNKS);
                (0..ASYNC_CHUNKS)
                    .map(|c| (c * per).min(n)..((c + 1) * per).min(n))
                    .filter(|r| !r.is_empty())
                    .collect()
            }
        };
        // Degrees never change within a run (label propagation does not
        // contract), so each chunk is binned once.
        let bins: Vec<HostBins> = chunks
            .iter()
            .map(|r| HostBins::build(dev, r.start as u32..r.end as u32, |v| g.degree(v as usize)))
            .collect::<Result<_, _>>()?;

        while iterations < cfg.max_iterations {
            let checkpoint =
                StageCheckpoint { stage: iterations, num_vertices: n, num_arcs: g.num_arcs() };
            if let Err(reason) = gate(&checkpoint) {
                return Err(GpuLouvainError::Aborted { stage: checkpoint.stage, reason });
            }
            iterations += 1;
            let iter_start = Instant::now();
            // A sweep is the retry unit. Async commits publish into `labels`
            // chunk by chunk, so every attempt restarts from the labeling
            // (and the cycle detector) the sweep began with.
            let (labels0, prev2_0) = (state.labels.to_vec(), state.prev2.to_vec());
            let mut retry = false;
            let committed = retry_stage(dev, &cfg.retry, checkpoint.stage, || {
                if std::mem::replace(&mut retry, true) {
                    state.labels.copy_from_slice(&labels0);
                    state.prev2.copy_from_slice(&prev2_0);
                }
                sweep::<P>(dev, &g, &state, cfg, mode, &chunks, &bins)
            })?;
            iter_times.push(iter_start.elapsed());
            total_moves += committed.unwrap_or(0);
            if committed.is_none_or(|c| c == 0) {
                // Converged (sync: nothing staged), or a sweep that
                // committed nothing. Sync: a cycle-breaking half-commit
                // that published nothing means the current labeling is the
                // pointwise minimum of the swap — a stable, deterministic
                // stopping point. Async: a full sweep without a single
                // change is the fixed point.
                break;
            }
        }
    }

    let labels = state.labels.to_vec();
    let partition = Partition::from_vec(labels);
    let q = modularity(graph, &partition);
    let mut dendrogram = Dendrogram::new();
    dendrogram.push_level(partition.clone());
    let opt_time: Duration = iter_times.iter().sum();
    Ok(GpuLouvainResult {
        partition,
        dendrogram,
        modularity: q,
        stages: vec![GpuStageStats {
            num_vertices: n,
            num_arcs: g.num_arcs(),
            iterations,
            modularity: q,
            moves: total_moves,
            opt_time,
            agg_time: Duration::ZERO,
            iter_times,
            threshold: 0.0,
            refine_delta_q: 0.0,
        }],
        total_time: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cd_gpusim::DeviceConfig;
    use cd_graph::csr_from_edges;
    use cd_graph::gen::cliques;

    fn dev() -> Device {
        Device::new(DeviceConfig::tesla_k40m())
    }

    /// A complete bipartite graph K_{a,b} with unit weights: the canonical
    /// synchronous-LPA oscillator (both sides adopt each other's labels in
    /// lockstep).
    fn complete_bipartite(a: usize, b: usize) -> Csr {
        let mut edges = Vec::new();
        for u in 0..a {
            for v in 0..b {
                edges.push((u as u32, (a + v) as u32, 1.0));
            }
        }
        csr_from_edges(a + b, &edges)
    }

    #[test]
    fn sync_lpa_finds_cliques() {
        let g = cliques(4, 8, true);
        let res = label_propagation(&dev(), &g, &GpuLouvainConfig::paper_default(), LpaMode::Sync)
            .unwrap();
        for c in 0..4u32 {
            let base = c * 8;
            for v in 1..8u32 {
                assert_eq!(res.partition.community_of(base), res.partition.community_of(base + v));
            }
        }
        assert!(res.modularity > 0.5, "Q = {}", res.modularity);
        assert_eq!(res.stages.len(), 1);
        assert!(res.stages[0].iterations >= 1);
    }

    #[test]
    fn async_lpa_finds_cliques() {
        let g = cliques(4, 8, true);
        let res = label_propagation(&dev(), &g, &GpuLouvainConfig::paper_default(), LpaMode::Async)
            .unwrap();
        for c in 0..4u32 {
            let base = c * 8;
            for v in 1..8u32 {
                assert_eq!(res.partition.community_of(base), res.partition.community_of(base + v));
            }
        }
        assert!(res.modularity > 0.5, "Q = {}", res.modularity);
    }

    #[test]
    fn sync_lpa_breaks_bipartite_oscillation() {
        // Without cycle breaking the synchronous update swaps the two sides'
        // label sets forever and exits only at max_iterations. With the
        // period-2 detector the run must terminate in a handful of sweeps
        // with a stable labeling.
        for (a, b) in [(4usize, 4usize), (5, 3), (2, 6)] {
            let g = complete_bipartite(a, b);
            let cfg = GpuLouvainConfig::paper_default();
            let res = label_propagation(&dev(), &g, &cfg, LpaMode::Sync).unwrap();
            assert!(
                res.stages[0].iterations < 10,
                "K_{{{a},{b}}}: sync LPA did not break the swap cycle ({} iterations)",
                res.stages[0].iterations
            );
            // Re-running from the result must be stable: the labeling the
            // cycle breaker settles on is a fixed point of the loop.
            assert!(res.stages[0].iterations < cfg.max_iterations);
        }
    }

    #[test]
    fn bipartite_fixture_is_deterministic() {
        let g = complete_bipartite(4, 4);
        let cfg = GpuLouvainConfig::paper_default();
        let a = label_propagation(&dev(), &g, &cfg, LpaMode::Sync).unwrap();
        let b = label_propagation(&dev(), &g, &cfg, LpaMode::Sync).unwrap();
        assert_eq!(a.partition.as_slice(), b.partition.as_slice());
        assert_eq!(a.modularity.to_bits(), b.modularity.to_bits());
    }

    #[test]
    fn isolated_vertices_keep_their_labels() {
        // Vertex 3 has no edges; it must stay a singleton in both modes.
        let g = csr_from_edges(4, &[(0, 1, 1.0), (1, 2, 1.0)]);
        for mode in [LpaMode::Sync, LpaMode::Async] {
            let res =
                label_propagation(&dev(), &g, &GpuLouvainConfig::paper_default(), mode).unwrap();
            let l3 = res.partition.community_of(3);
            for v in 0..3 {
                assert_ne!(res.partition.community_of(v), l3, "mode {mode:?}");
            }
        }
    }

    #[test]
    fn weighted_votes_beat_counts() {
        // Vertex 2 has two unit edges into the {0,1} pair but one weight-5
        // edge to 3: the weighted vote must pull it toward 3's label.
        let g = csr_from_edges(4, &[(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 3, 5.0)]);
        let res = label_propagation(&dev(), &g, &GpuLouvainConfig::paper_default(), LpaMode::Sync)
            .unwrap();
        assert_eq!(res.partition.community_of(2), res.partition.community_of(3));
    }

    #[test]
    fn gate_abort_reports_the_sweep() {
        let g = cliques(4, 8, true);
        let err = label_propagation_gated(
            &dev(),
            &g,
            &GpuLouvainConfig::paper_default(),
            LpaMode::Sync,
            &mut |_| Err(StageAbort::Cancelled),
        )
        .unwrap_err();
        assert_eq!(err, GpuLouvainError::Aborted { stage: 0, reason: StageAbort::Cancelled });
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = csr_from_edges(0, &[]);
        for mode in [LpaMode::Sync, LpaMode::Async] {
            let res =
                label_propagation(&dev(), &g, &GpuLouvainConfig::paper_default(), mode).unwrap();
            assert_eq!(res.partition.len(), 0);
            assert_eq!(res.modularity, 0.0);
        }
    }
}
