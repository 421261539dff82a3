//! The multi-stage driver: modularity optimization + aggregation until the
//! modularity gain between stages drops below the threshold — the outer loop
//! of the paper's Section 4, including the adaptive `th_bin`/`th_final`
//! switching and the per-stage statistics behind Figs. 5 and 6 and the TEPS
//! numbers.

use crate::aggregate::{aggregate, AggregateOutcome};
use crate::config::GpuLouvainConfig;
use crate::dev_graph::DeviceGraph;
use crate::modopt::{
    modularity_optimization, modularity_optimization_seeded, OptOutcome, WarmSeed,
};
use crate::recovery::retry_stage;
use cd_gpusim::{Device, GlobalF64, GlobalU32, LaunchError};
use cd_graph::{modularity, Csr, Dendrogram, Partition, ThresholdSchedule};
use std::time::{Duration, Instant};

/// Errors a GPU Louvain run can report — admission failures, kernel launch
/// faults, and corruption caught by the driver's invariant checks.
///
/// Transient variants (see [`GpuLouvainError::is_transient`]) are retried per
/// the configured [`crate::RetryPolicy`]; permanent ones propagate
/// immediately.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuLouvainError {
    /// The graph plus working state would not fit device memory — the
    /// limitation the paper's Section 6 discusses.
    OutOfMemory {
        /// Bytes the run would need.
        required: usize,
        /// Bytes the device offers.
        available: usize,
    },
    /// The vertex count exceeds the 32-bit id space of the kernels.
    TooManyVertices(usize),
    /// A device configuration was rejected at construction — e.g. fault
    /// injection requested under the [`cd_gpusim::Profile::Parallel`]
    /// execution profile, which strips the instrumentation the fault
    /// machinery reports through. Permanent: an identical configuration fails identically.
    Config(cd_gpusim::ConfigError),
    /// A kernel launch failed (injected fault or launch misconfiguration).
    Launch(LaunchError),
    /// A task's work size exceeds the hash-table prime ladder (reachable in
    /// practice only through corrupted degree sums).
    DegreeOverflow {
        /// The offending work size (vertex degree or community degree sum).
        degree: usize,
        /// The largest work size the ladder supports.
        max_supported: usize,
    },
    /// A community labeling holds an out-of-range label (corrupted memory).
    InvalidLabels {
        /// Index of the first bad entry.
        index: usize,
        /// The out-of-range label found there.
        label: u32,
        /// Number of vertices (labels must be strictly below this).
        num_vertices: usize,
    },
    /// A cross-stage invariant failed (e.g. aggregation changed the total
    /// edge weight, or a stage reported an out-of-range modularity).
    InvariantViolation {
        /// The stage that tripped the check.
        stage: &'static str,
        /// Human-readable description of the violated invariant.
        detail: String,
    },
    /// A stage kept failing with transient errors until the retry budget ran
    /// out.
    StageFailed {
        /// Zero-based index of the failed stage.
        stage: usize,
        /// Attempts made (= the policy's `max_attempts`).
        attempts: usize,
        /// The last transient error observed.
        cause: Box<GpuLouvainError>,
    },
    /// The requested algorithm cannot run on the chosen execution path —
    /// e.g. a non-Louvain portfolio algorithm placed on the multi-device
    /// pool, whose partition/merge pipeline is Louvain-specific. Permanent:
    /// the same request fails identically; the caller must pick another
    /// algorithm or a single-device placement.
    UnsupportedAlgorithm {
        /// The algorithm that was requested.
        algorithm: crate::algorithm::Algorithm,
        /// The execution path that cannot run it.
        path: &'static str,
    },
    /// A stage-checkpoint gate aborted the run ([`louvain_gpu_gated`]) —
    /// cooperative cancellation or a deadline expiring between stages.
    /// Permanent by definition: the abort came from outside the device.
    Aborted {
        /// Index of the stage whose checkpoint tripped the gate (= stages
        /// completed before the abort).
        stage: usize,
        /// Why the gate aborted.
        reason: StageAbort,
    },
}

/// Why a [`louvain_gpu_gated`] stage checkpoint aborted a run. The driver's
/// stage boundaries are its natural cancellation points: every stage input is
/// host-resident and immutable (the same property the retry machinery uses),
/// so an abort between stages leaves nothing to unwind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageAbort {
    /// The submitter asked for the run to stop.
    Cancelled,
    /// The run's deadline passed.
    DeadlineExceeded,
}

impl std::fmt::Display for StageAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageAbort::Cancelled => write!(f, "cancelled by the submitter"),
            StageAbort::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

/// What a stage gate sees at each checkpoint: which stage is about to run
/// and how large its input graph is (contraction shrinks it every stage, so
/// a gate can also estimate remaining work).
#[derive(Debug, Clone, Copy)]
pub struct StageCheckpoint {
    /// Zero-based index of the stage about to run.
    pub stage: usize,
    /// Vertices of the stage's input graph.
    pub num_vertices: usize,
    /// Adjacency entries of the stage's input graph.
    pub num_arcs: usize,
}

impl GpuLouvainError {
    /// True for errors a retry can plausibly clear: injected launch faults
    /// and corruption caught by validation. Admission errors (out of memory,
    /// too many vertices), launch misconfigurations, and exhausted retry
    /// budgets are permanent.
    pub fn is_transient(&self) -> bool {
        match self {
            GpuLouvainError::Launch(e) => {
                matches!(e, LaunchError::KernelAborted { .. } | LaunchError::WatchdogTimeout { .. })
            }
            GpuLouvainError::InvalidLabels { .. } | GpuLouvainError::InvariantViolation { .. } => {
                true
            }
            _ => false,
        }
    }

    /// True for errors that indict the *device* the run was placed on rather
    /// than the job itself: transient launch faults and corruption, plus a
    /// retry budget exhausted by such faults ([`GpuLouvainError::StageFailed`]).
    /// Rerunning the same job on a different, healthy device can succeed.
    /// Admission errors (out of memory, too many vertices), configuration
    /// rejections, and cooperative aborts are the job's own — no device
    /// change helps. The multi-device failover ladder and the serving
    /// layer's circuit breakers both use this classification.
    pub fn is_device_attributable(&self) -> bool {
        self.is_transient() || matches!(self, GpuLouvainError::StageFailed { .. })
    }
}

impl std::fmt::Display for GpuLouvainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpuLouvainError::OutOfMemory { required, available } => write!(
                f,
                "graph needs ~{required} B of device memory but only {available} B are available"
            ),
            GpuLouvainError::TooManyVertices(n) => {
                write!(f, "{n} vertices exceed the 32-bit vertex id space")
            }
            GpuLouvainError::Config(e) => write!(f, "device configuration rejected: {e}"),
            GpuLouvainError::Launch(e) => write!(f, "kernel launch failed: {e}"),
            GpuLouvainError::DegreeOverflow { degree, max_supported } => write!(
                f,
                "work size {degree} exceeds the hash-table prime ladder (max {max_supported})"
            ),
            GpuLouvainError::InvalidLabels { index, label, num_vertices } => write!(
                f,
                "label {label} at vertex {index} is out of range for {num_vertices} vertices"
            ),
            GpuLouvainError::InvariantViolation { stage, detail } => {
                write!(f, "invariant violated in {stage}: {detail}")
            }
            GpuLouvainError::StageFailed { stage, attempts, cause } => {
                write!(f, "stage {stage} failed after {attempts} attempts: {cause}")
            }
            GpuLouvainError::UnsupportedAlgorithm { algorithm, path } => {
                write!(f, "algorithm {algorithm} is not supported on the {path} path")
            }
            GpuLouvainError::Aborted { stage, reason } => {
                write!(f, "run aborted at the stage {stage} checkpoint: {reason}")
            }
        }
    }
}

impl std::error::Error for GpuLouvainError {
    /// The causal chain behind the error, so service-boundary logging (e.g.
    /// `cd-serve`) can walk to the root cause: the rejected
    /// [`cd_gpusim::ConfigError`], the failed launch, or the transient error
    /// that exhausted a stage's retry budget.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GpuLouvainError::Config(e) => Some(e),
            GpuLouvainError::Launch(e) => Some(e),
            GpuLouvainError::StageFailed { cause, .. } => Some(&**cause),
            _ => None,
        }
    }
}

impl From<LaunchError> for GpuLouvainError {
    fn from(e: LaunchError) -> Self {
        GpuLouvainError::Launch(e)
    }
}

impl From<cd_gpusim::ConfigError> for GpuLouvainError {
    fn from(e: cd_gpusim::ConfigError) -> Self {
        GpuLouvainError::Config(e)
    }
}

/// Statistics of one stage (one optimization phase + one aggregation).
#[derive(Clone, Debug)]
pub struct GpuStageStats {
    /// Vertices of the stage's input graph.
    pub num_vertices: usize,
    /// Adjacency entries of the stage's input graph.
    pub num_arcs: usize,
    /// Iterations of the optimization phase.
    pub iterations: usize,
    /// Modularity after the optimization phase.
    pub modularity: f64,
    /// Vertex moves committed in the phase.
    pub moves: usize,
    /// Wall time of the optimization phase.
    pub opt_time: Duration,
    /// Wall time of the aggregation phase.
    pub agg_time: Duration,
    /// Wall time per optimization iteration.
    pub iter_times: Vec<Duration>,
    /// The per-iteration threshold in force during this stage.
    pub threshold: f64,
    /// Modularity gained by the Leiden refinement pass this stage (0.0 when
    /// refinement did not run or left the labeling untouched). The commit
    /// rule guarantees this is never negative — `repro portfolio` gates on
    /// exactly that across the suite.
    pub refine_delta_q: f64,
}

/// Result of a full GPU Louvain run.
#[derive(Clone, Debug)]
pub struct GpuLouvainResult {
    /// Final communities of the original vertices.
    pub partition: Partition,
    /// The clustering hierarchy (one level per stage).
    pub dendrogram: Dendrogram,
    /// Modularity of `partition` on the input graph.
    pub modularity: f64,
    /// Per-stage statistics.
    pub stages: Vec<GpuStageStats>,
    /// End-to-end wall time (host side, including transfers).
    pub total_time: Duration,
}

impl GpuLouvainResult {
    /// Total optimization time across stages.
    pub fn opt_time(&self) -> Duration {
        self.stages.iter().map(|s| s.opt_time).sum()
    }

    /// Total aggregation time across stages.
    pub fn agg_time(&self) -> Duration {
        self.stages.iter().map(|s| s.agg_time).sum()
    }

    /// Traversed edges per second of the *first* iteration of the *first*
    /// modularity-optimization phase — the TEPS metric the paper compares
    /// against the Blue Gene/Q implementation (every adjacency entry is
    /// hashed exactly once in that iteration).
    pub fn first_phase_teps(&self) -> f64 {
        let first = match self.stages.first() {
            Some(s) if !s.iter_times.is_empty() => s,
            _ => return 0.0,
        };
        let secs = first.iter_times[0].as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        first.num_arcs as f64 / secs
    }
}

/// Estimated device bytes for running on `g`: the CSR itself, the
/// optimization state, and the aggregation scratch.
pub fn estimated_device_bytes(g: &Csr) -> usize {
    let n = g.num_vertices();
    let arcs = g.num_arcs();
    let graph = (n + 1) * 8 + arcs * 12;
    let opt_state = n * (4 + 4 + 4 + 8 + 8);
    let agg_scratch = arcs * 12 + n * (8 + 8 + 4 + 4);
    graph + opt_state + agg_scratch
}

/// Runs the full GPU Louvain method on `graph` with `cfg`.
///
/// The returned partition, hierarchy and statistics mirror what the paper's
/// implementation reports (it "only outputs the final modularity"; we keep
/// the hierarchy since host memory allows it).
pub fn louvain_gpu(
    dev: &Device,
    graph: &Csr,
    cfg: &GpuLouvainConfig,
) -> Result<GpuLouvainResult, GpuLouvainError> {
    let schedule = cfg.threshold_schedule();
    louvain_gpu_with_schedule(dev, graph, cfg, &schedule)
}

/// [`louvain_gpu`] with an explicit [`ThresholdSchedule`] replacing the
/// two-level `th_bin`/`th_final` scheme — the paper's suggested extension of
/// "even more threshold values for varying sizes of graphs".
pub fn louvain_gpu_with_schedule(
    dev: &Device,
    graph: &Csr,
    cfg: &GpuLouvainConfig,
    schedule: &ThresholdSchedule,
) -> Result<GpuLouvainResult, GpuLouvainError> {
    louvain_gpu_gated(dev, graph, cfg, schedule, &mut |_| Ok(()))
}

/// [`louvain_gpu_with_schedule`] with a *stage gate*: a callback invoked at
/// every stage checkpoint (before the stage runs) that may abort the run.
/// This is the hook a serving layer uses for cooperative cancellation and
/// deadline expiry — the checkpoints are the same host-resident stage
/// boundaries the retry machinery re-runs from, so an abort never leaves
/// partial device state behind. An aborting gate surfaces as
/// [`GpuLouvainError::Aborted`] carrying the checkpoint's stage index.
pub fn louvain_gpu_gated(
    dev: &Device,
    graph: &Csr,
    cfg: &GpuLouvainConfig,
    schedule: &ThresholdSchedule,
    gate: &mut dyn FnMut(&StageCheckpoint) -> Result<(), StageAbort>,
) -> Result<GpuLouvainResult, GpuLouvainError> {
    descend_gated(dev, graph, cfg, schedule, false, gate)
}

/// Leiden-style community detection: the Louvain driver with the
/// well-connectedness refinement pass ([`crate::refine`]) between every
/// stage's optimization phase and its contraction. Badly-connected
/// communities are split into singletons and re-absorbed before the
/// aggregation commits them; the refined labeling is accepted only when its
/// modularity is at least the unrefined one's, so refinement never decreases
/// Q.
pub fn leiden_gpu(
    dev: &Device,
    graph: &Csr,
    cfg: &GpuLouvainConfig,
) -> Result<GpuLouvainResult, GpuLouvainError> {
    let schedule = cfg.threshold_schedule();
    leiden_gpu_gated(dev, graph, cfg, &schedule, &mut |_| Ok(()))
}

/// [`leiden_gpu`] with an explicit threshold schedule and a stage gate —
/// identical checkpoint/abort semantics to [`louvain_gpu_gated`].
pub fn leiden_gpu_gated(
    dev: &Device,
    graph: &Csr,
    cfg: &GpuLouvainConfig,
    schedule: &ThresholdSchedule,
    gate: &mut dyn FnMut(&StageCheckpoint) -> Result<(), StageAbort>,
) -> Result<GpuLouvainResult, GpuLouvainError> {
    descend_gated(dev, graph, cfg, schedule, true, gate)
}

/// The shared multi-stage descent behind [`louvain_gpu_gated`] and
/// [`leiden_gpu_gated`]; `refine` switches the per-stage Leiden
/// well-connectedness pass on.
fn descend_gated(
    dev: &Device,
    graph: &Csr,
    cfg: &GpuLouvainConfig,
    schedule: &ThresholdSchedule,
    refine: bool,
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

    let start = Instant::now();
    let mut dendrogram = Dendrogram::new();
    let mut stages: Vec<GpuStageStats> = Vec::new();
    let mut current = DeviceGraph::from_csr(graph);
    let mut q_prev = {
        // Modularity of the singleton partition, for the first stage's gain.
        let n = graph.num_vertices();
        modularity(graph, &Partition::singleton(n))
    };

    while stages.len() < cfg.max_stages {
        let checkpoint = StageCheckpoint {
            stage: stages.len(),
            num_vertices: current.num_vertices(),
            num_arcs: current.num_arcs(),
        };
        if let Err(reason) = gate(&checkpoint) {
            return Err(GpuLouvainError::Aborted { stage: checkpoint.stage, reason });
        }
        let threshold = schedule.threshold_for(current.num_vertices());

        let StageRun { outcome, agg, opt_time, agg_time, refine_delta_q } =
            run_stage_with_retry(dev, &current, cfg, threshold, stages.len(), None, refine)?;

        stages.push(GpuStageStats {
            num_vertices: current.num_vertices(),
            num_arcs: current.num_arcs(),
            iterations: outcome.iterations,
            modularity: outcome.modularity,
            moves: outcome.moves,
            opt_time,
            agg_time,
            iter_times: outcome.iter_times,
            threshold,
            refine_delta_q,
        });
        dendrogram.push_level(Partition::from_vec(agg.vertex_map));

        let no_contraction = agg.graph.num_vertices() == current.num_vertices();
        let gained = outcome.modularity - q_prev;
        q_prev = outcome.modularity;
        if no_contraction || gained <= cfg.stage_threshold {
            break;
        }
        current = agg.graph;
    }

    let partition = dendrogram.flatten();
    let q = modularity(graph, &partition);
    Ok(GpuLouvainResult {
        partition,
        dendrogram,
        modularity: q,
        stages,
        total_time: start.elapsed(),
    })
}

/// Incremental Louvain: resume from a previous partition instead of
/// singletons. `prev` is the partition of a (structurally similar) earlier
/// version of `graph` — typically the pre-delta result — and `touched` is
/// the set of vertices whose adjacency changed since (what
/// [`cd_graph::apply_delta`] reports). Stage 0 (*absorb*) seeds the labels
/// from `prev` and re-evaluates only the touched frontier via the
/// frontier-proportional binning machinery; if the frontier drains without
/// a single move, the run ends after that one near-free stage. Otherwise
/// stage 1 (*repair*) makes one pass over the full graph — every vertex
/// eligible, seeded with the absorb labeling — so untouched regions can
/// respond to what the delta changed; pruning shrinks it back to the
/// active set after its first iteration. Later stages run cold on the
/// (much smaller) contracted graph.
///
/// Correctness is gated on ΔQ versus a from-scratch run, not on label
/// equality: a warm run explores a different trajectory, so its partition
/// may differ while its modularity must track the from-scratch run up to
/// the reference's own per-instance dispersion (`repro incremental`
/// measures that dispersion in-run and gates the warm deficit against it;
/// the warm result is never worse than the seed labeling itself on the new
/// graph — the phase returns its best observed labeling).
pub fn louvain_warm_start(
    dev: &Device,
    graph: &Csr,
    cfg: &GpuLouvainConfig,
    prev: &Partition,
    touched: &[u32],
) -> Result<GpuLouvainResult, GpuLouvainError> {
    let schedule = cfg.threshold_schedule();
    louvain_warm_start_gated(dev, graph, cfg, &schedule, prev, touched, &mut |_| Ok(()))
}

/// [`louvain_warm_start`] with an explicit threshold schedule and a stage
/// gate — the warm-start analogue of [`louvain_gpu_gated`], with identical
/// checkpoint/abort semantics.
#[allow(clippy::too_many_arguments)]
pub fn louvain_warm_start_gated(
    dev: &Device,
    graph: &Csr,
    cfg: &GpuLouvainConfig,
    schedule: &ThresholdSchedule,
    prev: &Partition,
    touched: &[u32],
    gate: &mut dyn FnMut(&StageCheckpoint) -> Result<(), StageAbort>,
) -> Result<GpuLouvainResult, GpuLouvainError> {
    let n = graph.num_vertices();
    if n >= u32::MAX as usize {
        return Err(GpuLouvainError::TooManyVertices(n));
    }
    if prev.len() != n {
        return Err(GpuLouvainError::InvariantViolation {
            stage: "warm_seed",
            detail: format!("seed partition labels {} vertices, graph has {n}", prev.len()),
        });
    }
    if let Some((index, &label)) =
        prev.as_slice().iter().enumerate().find(|&(_, &c)| (c as usize) >= n)
    {
        return Err(GpuLouvainError::InvalidLabels { index, label, num_vertices: n });
    }
    if let Some((index, &label)) = touched.iter().enumerate().find(|&(_, &v)| (v as usize) >= n) {
        return Err(GpuLouvainError::InvalidLabels { index, label, num_vertices: n });
    }
    let required = estimated_device_bytes(graph);
    let available = dev.config().global_mem_bytes;
    if required > available {
        return Err(GpuLouvainError::OutOfMemory { required, available });
    }

    // Seed labeling: untouched vertices keep their previous community
    // (compactly renumbered); touched vertices are re-seeded as fresh
    // singletons. Keeping old labels on the frontier would let a touched
    // vertex *move between* surviving communities but never split one the
    // delta broke apart — the first contraction would lock the stale
    // grouping in. Extraction frees them completely: iteration 1 re-joins
    // each to its best neighboring community or leaves it to seed a new
    // one. Untouched communities use at most n − |touched| labels, so the
    // |touched| fresh ids always fit below n.
    let mut is_touched = vec![false; n];
    for &v in touched {
        is_touched[v as usize] = true;
    }
    let mut seed_labels = vec![0u32; n];
    let mut remap: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    let mut next = 0u32;
    for (v, slot) in seed_labels.iter_mut().enumerate() {
        if !is_touched[v] {
            *slot = *remap.entry(prev.as_slice()[v]).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            });
        }
    }
    for &v in touched {
        seed_labels[v as usize] = next;
        next += 1;
    }

    let start = Instant::now();
    let mut dendrogram = Dendrogram::new();
    let mut stages: Vec<GpuStageStats> = Vec::new();
    let mut current = DeviceGraph::from_csr(graph);

    // Stage 0 — absorb: frontier-pruned pass over the touched vertices
    // only, seeded with the smashed labeling. Near-free when the delta is
    // small; if the frontier drains without a move the run ends here.
    let gate_stage = |gate: &mut dyn FnMut(&StageCheckpoint) -> Result<(), StageAbort>,
                      stage: usize,
                      g: &DeviceGraph|
     -> Result<(), GpuLouvainError> {
        let checkpoint =
            StageCheckpoint { stage, num_vertices: g.num_vertices(), num_arcs: g.num_arcs() };
        gate(&checkpoint).map_err(|reason| GpuLouvainError::Aborted { stage, reason })
    };
    gate_stage(gate, 0, &current)?;
    let threshold = schedule.threshold_for(current.num_vertices());
    let absorb_seed = WarmSeed { labels: &seed_labels, frontier: touched };
    let absorb = run_stage_with_retry(dev, &current, cfg, threshold, 0, Some(&absorb_seed), false)?;
    stages.push(GpuStageStats {
        num_vertices: current.num_vertices(),
        num_arcs: current.num_arcs(),
        iterations: absorb.outcome.iterations,
        modularity: absorb.outcome.modularity,
        moves: absorb.outcome.moves,
        opt_time: absorb.opt_time,
        agg_time: absorb.agg_time,
        iter_times: absorb.outcome.iter_times.clone(),
        threshold,
        refine_delta_q: absorb.refine_delta_q,
    });
    let drained = absorb.outcome.moves == 0;
    if !drained {
        // Stage 1 — repair: one more pass over the level-0 graph with
        // *every* vertex eligible, seeded with the absorb labeling. The
        // frontier pass can only re-home the touched vertices; this sweep
        // lets the rest of the graph respond (pruning shrinks it back to
        // the active set after its first iteration). The absorb stage's
        // aggregation is superseded — only the repair labeling enters the
        // dendrogram.
        gate_stage(gate, 1, &current)?;
        let all: Vec<u32> = (0..n as u32).collect();
        let repair_seed = WarmSeed { labels: &absorb.outcome.comm, frontier: &all };
        let repair =
            run_stage_with_retry(dev, &current, cfg, threshold, 1, Some(&repair_seed), false)?;
        stages.push(GpuStageStats {
            num_vertices: current.num_vertices(),
            num_arcs: current.num_arcs(),
            iterations: repair.outcome.iterations,
            modularity: repair.outcome.modularity,
            moves: repair.outcome.moves,
            opt_time: repair.opt_time,
            agg_time: repair.agg_time,
            iter_times: repair.outcome.iter_times.clone(),
            threshold,
            refine_delta_q: repair.refine_delta_q,
        });
        dendrogram.push_level(Partition::from_vec(repair.agg.vertex_map));
        let no_contraction = repair.agg.graph.num_vertices() == current.num_vertices();
        // The warm baseline from here on is the repaired labeling: cold
        // stage gains measure improvement over what the warm phase built.
        let mut q_prev = repair.outcome.modularity;
        if !no_contraction {
            // Cold descent on the (much smaller) contracted graph. The
            // warm stages' gain over the seed is small by construction, so
            // the gain-based stop rule applies only from here on.
            current = repair.agg.graph;
            while stages.len() < cfg.max_stages {
                gate_stage(gate, stages.len(), &current)?;
                let threshold = schedule.threshold_for(current.num_vertices());
                let StageRun { outcome, agg, opt_time, agg_time, refine_delta_q } =
                    run_stage_with_retry(dev, &current, cfg, threshold, stages.len(), None, false)?;
                stages.push(GpuStageStats {
                    num_vertices: current.num_vertices(),
                    num_arcs: current.num_arcs(),
                    iterations: outcome.iterations,
                    modularity: outcome.modularity,
                    moves: outcome.moves,
                    opt_time,
                    agg_time,
                    iter_times: outcome.iter_times,
                    threshold,
                    refine_delta_q,
                });
                dendrogram.push_level(Partition::from_vec(agg.vertex_map));
                let no_contraction = agg.graph.num_vertices() == current.num_vertices();
                let gained = outcome.modularity - q_prev;
                q_prev = outcome.modularity;
                if no_contraction || gained <= cfg.stage_threshold {
                    break;
                }
                current = agg.graph;
            }
        }
    } else {
        dendrogram.push_level(Partition::from_vec(absorb.agg.vertex_map));
    }

    let partition = dendrogram.flatten();
    let q = modularity(graph, &partition);
    Ok(GpuLouvainResult {
        partition,
        dendrogram,
        modularity: q,
        stages,
        total_time: start.elapsed(),
    })
}

/// Everything one stage produces (one optimization phase + one aggregation).
struct StageRun {
    outcome: OptOutcome,
    agg: AggregateOutcome,
    opt_time: Duration,
    agg_time: Duration,
    /// Modularity the refinement pass added (0.0 without refinement).
    refine_delta_q: f64,
}

/// Runs one stage under the configured retry policy
/// ([`crate::recovery::retry_stage`]). Each stage is a checkpoint: its
/// input graph is host-resident and immutable, so a failed attempt (injected
/// launch fault, or corruption caught by a validation check) is simply re-run
/// after an exponential backoff — a rerun consumes fresh fault-decision
/// sequence numbers, so it sees an independent fault draw. Transient errors
/// exhaust the budget into [`GpuLouvainError::StageFailed`]; permanent errors
/// propagate immediately.
fn run_stage_with_retry(
    dev: &Device,
    g: &DeviceGraph,
    cfg: &GpuLouvainConfig,
    threshold: f64,
    stage_idx: usize,
    seed: Option<&WarmSeed<'_>>,
    refine: bool,
) -> Result<StageRun, GpuLouvainError> {
    retry_stage(dev, &cfg.retry, stage_idx, || run_stage(dev, g, cfg, threshold, seed, refine))
}

/// One stage attempt: optimize, validate, aggregate, validate. On a
/// fault-injecting device the driver additionally offers its two
/// stage-boundary buffers (the community labels and the contracted edge
/// weights) for deterministic bit flips, then relies on the validation
/// checks to catch what the flips broke.
fn run_stage(
    dev: &Device,
    g: &DeviceGraph,
    cfg: &GpuLouvainConfig,
    threshold: f64,
    seed: Option<&WarmSeed<'_>>,
    refine: bool,
) -> Result<StageRun, GpuLouvainError> {
    let n = g.num_vertices();
    let inject = dev.config().fault_plan.bitflip_rate > 0.0;

    let opt_start = Instant::now();
    let mut outcome = match seed {
        Some(s) => modularity_optimization_seeded(dev, g, cfg, threshold, s)?,
        None => modularity_optimization(dev, g, cfg, threshold)?,
    };
    let mut refine_delta_q = 0.0;
    if refine {
        // Leiden well-connectedness pass: split badly-connected communities
        // and re-absorb before the contraction locks them in. The commit
        // rule inside guarantees the labeling entering the validation below
        // never lost modularity.
        let pre_refine_q = outcome.modularity;
        outcome = crate::refine::refine_communities(dev, g, cfg, threshold, &outcome)?;
        refine_delta_q = outcome.modularity - pre_refine_q;
    }
    let opt_time = opt_start.elapsed();
    if !outcome.modularity.is_finite() || !(-0.5 - 1e-9..=1.0 + 1e-9).contains(&outcome.modularity)
    {
        return Err(GpuLouvainError::InvariantViolation {
            stage: "optimize",
            detail: format!("modularity {} outside [-1/2, 1]", outcome.modularity),
        });
    }

    // Corruption point 1: the labels crossing the optimize→aggregate
    // boundary. A flip that lands in a label's high bits produces an
    // out-of-range label, which the next check (and `aggregate` itself)
    // detects; a low-bit flip silently reassigns one vertex, which the
    // aggregation absorbs with bounded quality impact.
    if inject {
        let buf = GlobalU32::from_slice(&outcome.comm);
        if dev.corrupt_u32("stage_labels", &buf) > 0 {
            outcome.comm = buf.to_vec();
        }
    }
    if let Some((index, &label)) =
        outcome.comm.iter().enumerate().find(|&(_, &c)| (c as usize) >= n)
    {
        return Err(GpuLouvainError::InvalidLabels { index, label, num_vertices: n });
    }

    let agg_start = Instant::now();
    let mut agg = aggregate(dev, g, &outcome.comm, cfg)?;
    let agg_time = agg_start.elapsed();

    // Corruption point 2: the contracted graph's edge weights. The graph is
    // rebuilt from parts so its cached `2m` reflects the corruption and the
    // mass-conservation check below can see it.
    if inject {
        let buf = GlobalF64::from_slice(&agg.graph.weights);
        if dev.corrupt_f64("agg_weights", &buf) > 0 {
            let graph = &agg.graph;
            agg.graph =
                DeviceGraph::from_parts(graph.offsets.clone(), graph.targets.clone(), buf.to_vec());
        }
    }

    // Invariant: contraction preserves the total edge weight exactly (every
    // input arc contributes to exactly one output arc). Written so NaN fails.
    let (before, after) = (g.two_m, agg.graph.two_m);
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // deliberate: NaN must fail the check
    if !((after - before).abs() <= 1e-6 * before.abs().max(1.0)) {
        return Err(GpuLouvainError::InvariantViolation {
            stage: "aggregate",
            detail: format!("total weight changed: 2m {before} -> {after}"),
        });
    }
    // Invariant: the dendrogram level maps every old vertex into the
    // contracted graph.
    let new_n = agg.graph.num_vertices();
    if let Some((index, &label)) =
        agg.vertex_map.iter().enumerate().find(|&(_, &c)| (c as usize) >= new_n)
    {
        return Err(GpuLouvainError::InvalidLabels { index, label, num_vertices: new_n });
    }

    Ok(StageRun { outcome, agg, opt_time, agg_time, refine_delta_q })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cd_gpusim::DeviceConfig;
    use cd_graph::gen::{cliques, planted_partition};

    fn dev() -> Device {
        Device::new(DeviceConfig::tesla_k40m())
    }

    #[test]
    fn full_run_on_cliques() {
        let g = cliques(4, 8, true);
        let res = louvain_gpu(&dev(), &g, &GpuLouvainConfig::paper_default()).unwrap();
        for c in 0..4u32 {
            let base = c * 8;
            for v in 1..8u32 {
                assert_eq!(res.partition.community_of(base), res.partition.community_of(base + v));
            }
        }
        assert!(res.modularity > 0.6);
        assert!(!res.stages.is_empty());
        assert!(res.dendrogram.num_levels() == res.stages.len());
    }

    #[test]
    fn quality_matches_planted_structure() {
        let pg = planted_partition(6, 40, 0.4, 0.01, 3);
        let res = louvain_gpu(&dev(), &pg.graph, &GpuLouvainConfig::paper_default()).unwrap();
        let q_truth = modularity(&pg.graph, &pg.truth);
        assert!(
            res.modularity >= 0.93 * q_truth,
            "GPU Q {} far below planted Q {}",
            res.modularity,
            q_truth
        );
    }

    #[test]
    fn reported_modularity_is_recomputed_from_scratch() {
        let pg = planted_partition(4, 30, 0.5, 0.02, 7);
        let res = louvain_gpu(&dev(), &pg.graph, &GpuLouvainConfig::paper_default()).unwrap();
        let q = modularity(&pg.graph, &res.partition);
        assert!((q - res.modularity).abs() < 1e-12);
    }

    #[test]
    fn stage_modularity_monotone() {
        let pg = planted_partition(5, 40, 0.3, 0.02, 13);
        let res = louvain_gpu(&dev(), &pg.graph, &GpuLouvainConfig::paper_default()).unwrap();
        let mut last = f64::NEG_INFINITY;
        for s in &res.stages {
            assert!(s.modularity >= last - 1e-9);
            last = s.modularity;
        }
    }

    #[test]
    fn out_of_memory_is_reported() {
        // The OOM check runs before any kernel launch, so even the tiny test
        // device (16 MiB of global memory) reports it cleanly.
        let small = Device::new(DeviceConfig::test_tiny());
        let big = cd_graph::gen::erdos_renyi(20_000, 400_000, 1);
        match louvain_gpu(&small, &big, &GpuLouvainConfig::paper_default()) {
            Err(GpuLouvainError::OutOfMemory { required, available }) => {
                assert!(required > available);
            }
            other => panic!("expected OutOfMemory, got {other:?}"),
        }
        // The same graph fits a K40m-sized device.
        assert!(estimated_device_bytes(&big) < DeviceConfig::tesla_k40m().global_mem_bytes);
    }

    #[test]
    fn error_source_exposes_the_causal_chain() {
        use std::error::Error as _;
        let config = GpuLouvainError::Config(cd_gpusim::ConfigError::FaultsRequireInstrumented);
        assert!(config.source().is_some_and(|s| s.is::<cd_gpusim::ConfigError>()));
        let launch = GpuLouvainError::Launch(LaunchError::KernelAborted {
            kernel: "compute_move".into(),
            completed_blocks: 3,
            total_blocks: 8,
        });
        assert!(launch.source().is_some_and(|s| s.is::<LaunchError>()));
        // StageFailed chains twice: StageFailed -> Launch -> (leaf).
        let staged =
            GpuLouvainError::StageFailed { stage: 1, attempts: 3, cause: Box::new(launch.clone()) };
        let mid = staged.source().expect("stage cause");
        assert_eq!(mid.to_string(), launch.to_string());
        assert!(mid.source().is_some_and(|s| s.is::<LaunchError>()));
        // Leaf errors end the chain.
        assert!(GpuLouvainError::TooManyVertices(5).source().is_none());
        assert!(GpuLouvainError::Aborted { stage: 0, reason: StageAbort::Cancelled }
            .source()
            .is_none());
    }

    #[test]
    fn gate_abort_before_first_stage() {
        let g = cliques(4, 8, true);
        let schedule = ThresholdSchedule::two_level(1e-2, 1e-6, 100_000);
        let err = louvain_gpu_gated(
            &dev(),
            &g,
            &GpuLouvainConfig::paper_default(),
            &schedule,
            &mut |_| Err(StageAbort::Cancelled),
        )
        .unwrap_err();
        assert_eq!(err, GpuLouvainError::Aborted { stage: 0, reason: StageAbort::Cancelled });
        assert!(!err.is_transient());
    }

    #[test]
    fn gate_abort_mid_run_reports_the_checkpoint_stage() {
        // Abort at the second checkpoint: exactly one stage ran first, and
        // the checkpoint saw the contracted (smaller) graph.
        let pg = planted_partition(6, 40, 0.4, 0.01, 3);
        let n = pg.graph.num_vertices();
        let schedule = ThresholdSchedule::two_level(1e-2, 1e-6, 100_000);
        let mut seen: Vec<(usize, usize)> = Vec::new();
        let err = louvain_gpu_gated(
            &dev(),
            &pg.graph,
            &GpuLouvainConfig::paper_default(),
            &schedule,
            &mut |cp| {
                seen.push((cp.stage, cp.num_vertices));
                if cp.stage >= 1 {
                    Err(StageAbort::DeadlineExceeded)
                } else {
                    Ok(())
                }
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            GpuLouvainError::Aborted { stage: 1, reason: StageAbort::DeadlineExceeded }
        );
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], (0, n));
        assert!(seen[1].1 < n, "second checkpoint must see the contracted graph");
    }

    #[test]
    fn noop_gate_matches_ungated_run() {
        let pg = planted_partition(4, 30, 0.5, 0.02, 7);
        let cfg = GpuLouvainConfig::paper_default();
        let schedule =
            ThresholdSchedule::two_level(cfg.threshold_bin, cfg.threshold_final, 100_000);
        let plain = louvain_gpu(&dev(), &pg.graph, &cfg).unwrap();
        let gated = louvain_gpu_gated(&dev(), &pg.graph, &cfg, &schedule, &mut |_| Ok(())).unwrap();
        assert_eq!(plain.modularity.to_bits(), gated.modularity.to_bits());
        assert_eq!(plain.partition.as_slice(), gated.partition.as_slice());
    }

    #[test]
    fn teps_positive_on_nontrivial_run() {
        let pg = planted_partition(4, 50, 0.3, 0.02, 29);
        let res = louvain_gpu(&dev(), &pg.graph, &GpuLouvainConfig::paper_default()).unwrap();
        assert!(res.first_phase_teps() > 0.0);
        assert!(res.opt_time() + res.agg_time() <= res.total_time + Duration::from_secs(1));
    }
}
