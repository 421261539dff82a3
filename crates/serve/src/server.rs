//! The service itself: submission, admission control, the worker loop, and
//! job lifecycle management.
//!
//! ## Concurrency model
//!
//! One mutex guards all server state (queue, device pool, cache, job table);
//! two condition variables signal "work may be runnable" (`work_cv`: new
//! submission, placement capacity released) and "a job reached a terminal
//! state" (`done_cv`). Kernel execution happens *outside* the lock — the
//! lock scopes are bookkeeping only, so N workers genuinely overlap their
//! simulated runs.
//!
//! ## Determinism
//!
//! A job's result is a pure function of its (graph, options) content:
//! every placement builds a *fresh* `Device` with the job's profile, so no
//! simulator state leaks between jobs, and the kernels themselves are
//! deterministic. Scheduling order decides only *when* and *where* a job
//! runs — never what it computes. Coalescing and the content-addressed
//! cache then guarantee each distinct content key is computed at most once,
//! with every requester handed the same `Arc` — reuse is bit-identical by
//! construction.
//!
//! ## Cancellation and deadlines
//!
//! Both are cooperative, observed at checkpoints: the dequeue checkpoint
//! (between queue and device) and every stage checkpoint of the gated
//! driver ([`cd_core::louvain_gpu_gated`]). A run is never interrupted
//! mid-stage — aborts land on the same host-resident stage boundaries the
//! retry machinery uses, so no partial device state can escape. The pooled
//! multi-device path has no stage gate; pooled jobs observe cancellation
//! only at the dequeue checkpoint.

use crate::cache::ResultCache;
use crate::hash::{chained_graph_hash, delta_hash, options_hash, structural_hash, CacheKey};
use crate::job::{
    DeltaBase, ExecPath, JobId, JobOptions, JobOutcome, JobStatus, Rejected, ServeResult,
};
use crate::metrics::{LatencyStats, MetricsState, ServeMetrics};
use crate::queue::SubmissionQueue;
use crate::scheduler::{BreakerConfig, DevicePool, Placement};
use cd_core::{
    detect_communities_gated, estimated_device_bytes, louvain_warm_start_gated, Algorithm,
    GpuLouvainError, StageAbort,
};
use cd_gpusim::{Device, DeviceConfig};
use cd_graph::{apply_delta, Csr, DeltaBatch, DeltaError, VertexId};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bound of the submission queue ([`Rejected::QueueFull`] beyond it).
    pub queue_capacity: usize,
    /// Worker threads executing jobs. `0` selects *manual mode*: no threads
    /// are spawned and the caller drives execution with
    /// [`Server::process_one`] — the fully deterministic single-threaded
    /// mode the lifecycle tests use.
    pub workers: usize,
    /// Device slots in the pool.
    pub num_devices: usize,
    /// Device model of every slot; each job's device is built fresh from
    /// this with the job's own profile.
    pub device: DeviceConfig,
    /// Byte budget of the content-addressed result cache (0 disables it).
    pub cache_bytes: usize,
    /// Whether the pooled multi-device path may degrade to the sequential
    /// host baseline when no healthy device can take a block.
    pub sequential_fallback: bool,
    /// Per-device circuit-breaker tuning (failure threshold, quarantine
    /// backoff).
    pub breaker: BreakerConfig,
    /// Extra placements a job may consume after device-attributable
    /// failures before it is failed outright. `0` disables failover.
    pub placement_retries: usize,
    /// Period of the background queue sweep that expires deadline-passed
    /// jobs while they wait (workers mode only; in manual mode call
    /// [`Server::sweep_expired`] explicitly).
    pub sweep_interval: Duration,
    /// Reject submissions whose estimated execution time already exceeds
    /// their deadline budget ([`Rejected::WontMeetDeadline`]), and shed
    /// queued jobs at the dequeue checkpoint on the same grounds.
    pub shed_unattainable: bool,
    /// Path of the result-cache snapshot. When set, the server restores it
    /// at startup (cold-starting cleanly if the file is missing or
    /// corrupt); persist the current cache with
    /// [`Server::snapshot_cache_to`].
    pub cache_snapshot: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 256,
            workers: 4,
            num_devices: 4,
            device: DeviceConfig::tesla_k40m(),
            cache_bytes: 64 << 20,
            sequential_fallback: true,
            breaker: BreakerConfig::default(),
            placement_retries: 2,
            sweep_interval: Duration::from_millis(2),
            shed_unattainable: true,
            cache_snapshot: None,
        }
    }
}

impl ServerConfig {
    /// A small deterministic configuration for tests: manual mode, two
    /// K40m-model devices, a small queue. (The gpusim `test_tiny` model is
    /// unusable here — its 1 KiB shared memory rejects the real kernels.)
    pub fn test_manual() -> Self {
        Self {
            queue_capacity: 16,
            workers: 0,
            num_devices: 2,
            device: DeviceConfig::tesla_k40m(),
            cache_bytes: 1 << 20,
            ..Self::default()
        }
    }
}

/// Warm-start material a delta job carries: the base's partition to seed
/// labels from and the vertices the delta touched (the re-evaluation
/// frontier). Both shared — the seed is the base's cached `ServeResult`.
#[derive(Clone)]
struct WarmContext {
    seed: Arc<ServeResult>,
    touched: Arc<Vec<u32>>,
}

struct JobState {
    /// The graph the job runs on, held only while the job can still run:
    /// [`Inner::finalize`] drops it.
    graph: Option<Arc<Csr>>,
    options: JobOptions,
    key: CacheKey,
    footprint: usize,
    status: JobStatus,
    outcome: Option<JobOutcome>,
    cancel: Arc<AtomicBool>,
    submitted_at: Instant,
    deadline_at: Option<Instant>,
    /// Placements that failed with a device-attributable error.
    attempts: usize,
    /// Slot of the most recent such failure, steered around on the retry.
    avoid: Option<usize>,
    /// Warm-start seed of a delta job whose base result was resident.
    warm: Option<WarmContext>,
    /// Second cache key a delta job's result is inserted under: the
    /// structural hash of its patched graph, promoting the chain entry to
    /// a plain base that cold submissions of the same graph can hit.
    promote_key: Option<CacheKey>,
}

/// A graph a delta can name as its base, as the registry holds it.
#[derive(Clone)]
enum GraphBase {
    /// A graph passed to [`Server::submit`], held as given.
    Graph(Arc<Csr>),
    /// A delta job's patched graph, held as the recipe that rebuilds it:
    /// the registry hash of its base and the batch applied to that base.
    /// `apply_delta` is deterministic, so a replay is bit-identical to the
    /// original patch.
    Patched { parent: u64, batch: Arc<DeltaBatch> },
}

/// Everything a submission resolved before admission: the (possibly
/// patched) graph, its content key and the optional warm-start material.
struct ProtoJob {
    /// `None` only for a delta whose key admission settles from the cache
    /// without ever queueing it.
    graph: Option<Arc<Csr>>,
    options: JobOptions,
    key: CacheKey,
    footprint: usize,
    now: Instant,
    deadline_at: Option<Instant>,
    warm: Option<WarmContext>,
    promote_key: Option<CacheKey>,
}

/// The coalescing record of one in-flight content key: the job that will
/// compute it and everyone waiting to share the result.
struct InFlight {
    leader: JobId,
    followers: Vec<JobId>,
}

struct Inner {
    jobs: HashMap<JobId, JobState>,
    queue: SubmissionQueue,
    pool: DevicePool,
    cache: ResultCache,
    inflight: HashMap<CacheKey, InFlight>,
    /// Graphs a delta can reference as its base, by every hash they answer
    /// to: the structural hash of each submitted graph (held as a graph),
    /// and both the chained and structural hashes of each delta job's
    /// patched graph (held as its recipe). The first registration of a
    /// hash stands and entries are never removed, so every recipe names a
    /// parent registered before it and the parent links always end at a
    /// submitted graph. Entries are kept for the server lifetime, like the
    /// job table. `held` indexes the `Graph` entries by allocation, so
    /// anything that ever retires an entry must remove its `held` entry too.
    bases: HashMap<u64, GraphBase>,
    /// Reverse index of `bases`: the structural hash of every allocation
    /// held there as a [`GraphBase::Graph`], keyed by its address
    /// (`Arc::as_ptr`). An entry is written only when `bases` gains that
    /// `Graph` entry, and has the same lifetime, so `bases[held[p]]` is the
    /// allocation at `p`. That allocation still holds the bytes that were
    /// hashed: the registry's strong `Arc` keeps it alive, so its address
    /// is never reused, and a shared [`Csr`] cannot be mutated in place.
    /// [`Inner::held_hash`] still confirms the entry with `Arc::ptr_eq`.
    held: HashMap<usize, u64>,
    metrics: MetricsState,
    next_id: u64,
    shutting_down: bool,
    sequential_fallback: bool,
    shed_unattainable: bool,
    placement_retries: usize,
}

impl Inner {
    fn alloc_id(&mut self) -> JobId {
        let id = JobId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Moves a job to a terminal state and updates the lifecycle counters.
    /// The caller notifies `done_cv`.
    fn finalize(&mut self, id: JobId, outcome: JobOutcome) {
        let job = self.jobs.get_mut(&id).expect("finalizing a known job");
        debug_assert!(job.outcome.is_none(), "a job is finalized exactly once");
        let status = outcome.status();
        job.status = status;
        job.outcome = Some(outcome);
        // A settled job never runs again: release what only a run needs.
        job.graph = None;
        job.warm = None;
        let total = job.submitted_at.elapsed();
        match status {
            JobStatus::Completed => self.metrics.completed += 1,
            JobStatus::Failed => self.metrics.failed += 1,
            JobStatus::Cancelled => self.metrics.cancelled += 1,
            JobStatus::Expired => self.metrics.expired += 1,
            JobStatus::Queued | JobStatus::Running => unreachable!("terminal outcomes only"),
        }
        self.metrics.record_total(total);
    }

    /// Resolves a registered base hash to the nearest submitted graph up
    /// its parent links and the batches that rebuild the base from it, in
    /// application order. `None` for an unregistered hash.
    fn base_recipe(&self, mut hash: u64) -> Option<(Arc<Csr>, Vec<Arc<DeltaBatch>>)> {
        let mut batches = Vec::new();
        loop {
            match self.bases.get(&hash)? {
                GraphBase::Graph(g) => {
                    batches.reverse();
                    return Some((Arc::clone(g), batches));
                }
                GraphBase::Patched { parent, batch } => {
                    batches.push(Arc::clone(batch));
                    hash = *parent;
                }
            }
        }
    }

    /// The structural hash of `graph`, without hashing it, when the
    /// registry holds this very allocation as a submitted graph.
    fn held_hash(&self, graph: &Arc<Csr>) -> Option<u64> {
        let hash = *self.held.get(&(Arc::as_ptr(graph) as usize))?;
        match self.bases.get(&hash) {
            Some(GraphBase::Graph(g)) if Arc::ptr_eq(g, graph) => Some(hash),
            _ => None,
        }
    }

    /// Registers a submitted graph as a delta base under its structural
    /// hash, and indexes its allocation, unless the hash is registered
    /// already: the first registration stands.
    fn register_graph(&mut self, hash: u64, graph: &Arc<Csr>) {
        if let Entry::Vacant(slot) = self.bases.entry(hash) {
            slot.insert(GraphBase::Graph(Arc::clone(graph)));
            self.held.insert(Arc::as_ptr(graph) as usize, hash);
        }
    }

    /// Bytes of the distinct graphs the server holds: the submitted graphs
    /// in the base registry plus the graphs of unsettled jobs, each
    /// allocation counted once.
    fn retained_graph_bytes(&self) -> usize {
        let submitted = self.bases.values().filter_map(|b| match b {
            GraphBase::Graph(g) => Some(g),
            GraphBase::Patched { .. } => None,
        });
        let running = self.jobs.values().filter_map(|j| j.graph.as_ref());
        let mut seen = HashSet::new();
        submitted
            .chain(running)
            .filter(|g| seen.insert(Arc::as_ptr(g)))
            .map(|g| {
                std::mem::size_of_val(g.offsets())
                    + std::mem::size_of_val(g.targets())
                    + std::mem::size_of_val(g.weights())
            })
            .sum()
    }

    /// After a leader terminated without a result, promotes the first live
    /// follower of `key` to be the new leader and re-enqueues it. Removes
    /// the in-flight entry when no live follower remains.
    fn promote_follower(&mut self, key: CacheKey) {
        let Some(mut inf) = self.inflight.remove(&key) else { return };
        while !inf.followers.is_empty() {
            let candidate = inf.followers.remove(0);
            let Some(job) = self.jobs.get(&candidate) else { continue };
            if job.outcome.is_some() {
                continue;
            }
            let priority = job.options.priority;
            inf.leader = candidate;
            // Promotion bypasses admission: the follower was admitted at its
            // own submit and has been waiting ever since.
            self.queue.push_promoted(candidate, priority);
            self.inflight.insert(key, inf);
            return;
        }
    }
}

struct Shared {
    state: Mutex<Inner>,
    work_cv: Condvar,
    done_cv: Condvar,
    sweep_cv: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// What the dispatch step decided under the lock.
enum Action {
    /// Run this job on this reservation.
    Run(JobId, Placement),
    /// Nothing runnable right now (empty queue, or the head must wait for
    /// placement capacity).
    Wait,
}

#[cfg(test)]
thread_local! {
    /// `apply_delta` calls this thread has made through [`patch`].
    static PATCHES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// `structural_hash` calls this thread has made through [`graph_hash`].
    static HASHES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// [`structural_hash`], the O(graph) step a submission pays unless the
/// server already holds its allocation.
fn graph_hash(graph: &Csr) -> u64 {
    #[cfg(test)]
    HASHES.with(|n| n.set(n.get() + 1));
    structural_hash(graph)
}

/// [`apply_delta`], the O(graph) step a delta submission pays unless its
/// key is already answered.
fn patch(base: &Csr, batch: &DeltaBatch) -> Result<(Csr, Vec<VertexId>), DeltaError> {
    #[cfg(test)]
    PATCHES.with(|n| n.set(n.get() + 1));
    apply_delta(base, batch)
}

/// Expires every queued job whose deadline has passed — leaders, queued
/// followers, everything the periodic sweep can reach — settles coalescing
/// state, and purges stale heap entries so expired work stops occupying
/// queue room. Returns the number of jobs expired. The caller notifies
/// `done_cv` (and `work_cv`, if the queue is non-empty) after unlocking.
fn sweep_expired_locked(inner: &mut Inner, now: Instant) -> usize {
    // Collect first: finalize needs the job table mutably.
    let doomed: Vec<(JobId, CacheKey)> = inner
        .jobs
        .iter()
        .filter(|(_, j)| {
            j.outcome.is_none()
                && j.status == JobStatus::Queued
                && j.deadline_at.is_some_and(|d| now >= d)
        })
        .map(|(id, j)| (*id, j.key))
        .collect();
    for &(id, key) in &doomed {
        if inner.jobs.get(&id).is_some_and(|j| j.outcome.is_some()) {
            continue; // settled earlier in this sweep (e.g. skipped as a promoted follower)
        }
        let is_leader = inner.inflight.get(&key).map(|i| i.leader) == Some(id);
        inner.finalize(id, JobOutcome::Expired { stage: None });
        inner.metrics.expired_sweep += 1;
        if is_leader {
            inner.promote_follower(key);
        } else if let Some(inf) = inner.inflight.get_mut(&key) {
            inf.followers.retain(|f| *f != id);
        }
    }
    // Drop heap entries of finalized jobs so they free queue room now
    // instead of lingering until the dequeue checkpoint skips them.
    let Inner { jobs, queue, .. } = inner;
    queue.retain_live(|id| jobs.get(&id).is_some_and(|j| j.outcome.is_none()));
    doomed.len()
}

/// The periodic queue sweep (workers mode): expires deadline-passed jobs
/// while they wait, and doubles as the waker that lets parked workers
/// re-test placement once a quarantine backoff has elapsed.
fn sweeper_loop(shared: Arc<Shared>, interval: Duration) {
    let mut inner = shared.lock();
    loop {
        if inner.shutting_down {
            return;
        }
        let (guard, _) =
            shared.sweep_cv.wait_timeout(inner, interval).unwrap_or_else(PoisonError::into_inner);
        inner = guard;
        if inner.shutting_down {
            return;
        }
        let expired = sweep_expired_locked(&mut inner, Instant::now());
        if expired > 0 {
            shared.done_cv.notify_all();
        }
        if !inner.queue.is_empty() {
            shared.work_cv.notify_all();
        }
    }
}

/// Pops until a runnable job is found, applying the dequeue checkpoint
/// (stale-entry skip, cancellation, deadline, predictive shed) to
/// everything popped. On placement failure the head is pushed back — same
/// id, so its position within its priority class is preserved — and the
/// caller waits.
fn next_action(shared: &Shared, inner: &mut Inner) -> Action {
    loop {
        let Some(id) = inner.queue.pop() else { return Action::Wait };
        let job = inner.jobs.get(&id).expect("queued job has state");
        // Stale heap entry: the job was finalized while queued (cancel()).
        if job.outcome.is_some() {
            continue;
        }
        let key = job.key;
        let footprint = job.footprint;
        let priority = job.options.priority;
        let deadline_at = job.deadline_at;
        let avoid = job.avoid;
        let cancelled = job.cancel.load(Ordering::SeqCst);
        let is_leader = inner.inflight.get(&key).map(|i| i.leader) == Some(id);
        if cancelled {
            inner.finalize(id, JobOutcome::Cancelled { stage: None });
            if is_leader {
                inner.promote_follower(key);
            }
            shared.done_cv.notify_all();
            continue;
        }
        let now = Instant::now();
        if deadline_at.is_some_and(|d| now >= d) {
            inner.metrics.expired_dequeue += 1;
            inner.finalize(id, JobOutcome::Expired { stage: None });
            if is_leader {
                inner.promote_follower(key);
            }
            shared.done_cv.notify_all();
            continue;
        }
        // Predictive shed: the deadline hasn't passed, but the estimated
        // execution time already exceeds what's left of the budget — drop
        // the job now rather than burn device time on a result nobody will
        // wait for.
        if inner.shed_unattainable {
            if let (Some(d), Some(est)) = (deadline_at, inner.metrics.estimate_exec(footprint)) {
                if est > d.saturating_duration_since(now) {
                    inner.metrics.expired_dequeue += 1;
                    inner.metrics.shed_predicted += 1;
                    inner.finalize(id, JobOutcome::Expired { stage: None });
                    if is_leader {
                        inner.promote_follower(key);
                    }
                    shared.done_cv.notify_all();
                    continue;
                }
            }
        }
        match inner.pool.try_place_at(footprint, avoid, now) {
            Some(placement) => return Action::Run(id, placement),
            None => {
                inner.queue.push_promoted(id, priority);
                return Action::Wait;
            }
        }
    }
}

/// Runs a placed job to completion: releases the lock, executes, re-locks,
/// and settles the leader plus every coalesced follower.
fn execute(shared: &Shared, mut inner: MutexGuard<'_, Inner>, id: JobId, placement: Placement) {
    let (graph, options, key, footprint, cancel, deadline_at, attempts, warm, promote_key) = {
        let job = inner.jobs.get_mut(&id).expect("placed job has state");
        job.status = JobStatus::Running;
        (
            Arc::clone(job.graph.as_ref().expect("an unsettled job holds its graph")),
            job.options,
            job.key,
            job.footprint,
            Arc::clone(&job.cancel),
            job.deadline_at,
            job.attempts,
            job.warm.clone(),
            job.promote_key,
        )
    };
    let queue_wait = inner.jobs[&id].submitted_at.elapsed();
    inner.metrics.record_queue_wait(queue_wait);
    inner.metrics.in_flight += 1;
    inner.metrics.max_in_flight = inner.metrics.max_in_flight.max(inner.metrics.in_flight);
    let device_cfg = inner.pool.device_config().clone();
    let num_devices = inner.pool.num_devices();
    let sequential_fallback = inner.sequential_fallback;
    drop(inner);

    let exec_start = Instant::now();
    // Set when the single-device path actually ran the warm-start driver
    // (pooled runs ignore warm context — the multi-device path has no
    // seeded entry point).
    let mut ran_warm = false;
    // (exchange rounds, ghost bytes) of a sharded pooled run, for the
    // service counters.
    let mut sharded_telemetry: Option<(u64, u64)> = None;
    let raw: Result<(Arc<ServeResult>, ExecPath), GpuLouvainError> = match placement {
        Placement::Single(slot) => {
            let mut slot_cfg = device_cfg.with_profile(options.profile);
            // Per-job fault injection targets one pool slot: the job carries
            // the plan, and only a placement on that slot arms it.
            if let Some(f) = options.fault.filter(|f| f.device == slot) {
                slot_cfg = slot_cfg.with_fault_plan(f.plan);
            }
            Device::try_new(slot_cfg).map_err(GpuLouvainError::Config).and_then(|dev| {
                let cfg = &options.config;
                let schedule = cfg.threshold_schedule();
                let mut gate = |_cp: &cd_core::StageCheckpoint| {
                    if cancel.load(Ordering::SeqCst) {
                        return Err(StageAbort::Cancelled);
                    }
                    if deadline_at.is_some_and(|d| Instant::now() >= d) {
                        return Err(StageAbort::DeadlineExceeded);
                    }
                    Ok(())
                };
                // The warm-start driver is Louvain-specific (it seeds the
                // modularity descent); `submit_delta` only attaches warm
                // context to Louvain jobs, and this guard keeps the
                // invariant local — every other algorithm runs its own
                // cold driver through the portfolio dispatch.
                let run = match &warm {
                    Some(w) if options.algorithm == Algorithm::Louvain => {
                        ran_warm = true;
                        louvain_warm_start_gated(
                            &dev,
                            &graph,
                            cfg,
                            &schedule,
                            &w.seed.partition,
                            &w.touched,
                            &mut gate,
                        )
                    }
                    _ => detect_communities_gated(
                        &dev,
                        &graph,
                        cfg,
                        &schedule,
                        options.algorithm,
                        &mut gate,
                    ),
                };
                run.map(|r| {
                    let result = Arc::new(ServeResult {
                        partition: r.partition,
                        modularity: r.modularity,
                        stages: r.stages.len(),
                    });
                    (result, ExecPath::SingleDevice { device: slot })
                })
            })
        }
        Placement::Pooled if options.algorithm != Algorithm::Louvain => {
            // The coarse-grained multi-device path only implements the
            // Louvain descent. A too-large graph under another algorithm
            // fails with a typed, content-attributable error (an identical
            // re-run would fail identically, so followers share it) rather
            // than silently computing Louvain under the wrong cache key.
            Err(GpuLouvainError::UnsupportedAlgorithm {
                algorithm: options.algorithm,
                path: "multi-device pool",
            })
        }
        Placement::Pooled => {
            // Oversized graphs run the sharded out-of-core engine: one
            // shard per pool device, ghost copies of cut-edge neighbors,
            // and halo label exchange between supersteps (`cd_dist`) —
            // with the same retry/failover/sequential-degradation ladder
            // as the single-device path.
            let cfg = cd_dist::DistConfig {
                gpu: options.config,
                device: device_cfg.with_profile(options.profile),
                sequential_fallback,
                ..cd_dist::DistConfig::k40m(num_devices)
            };
            cd_dist::louvain_sharded(&graph, &cfg).map(|r| {
                sharded_telemetry =
                    Some((r.telemetry.exchange_rounds as u64, r.telemetry.ghost_bytes as u64));
                let degraded = r.telemetry.degraded;
                let result = Arc::new(ServeResult {
                    partition: r.partition,
                    modularity: r.modularity,
                    stages: 0,
                });
                (result, ExecPath::DevicePool { devices: num_devices, degraded })
            })
        }
    };
    let exec_time = exec_start.elapsed();

    let mut inner = shared.lock();
    inner.pool.release(placement, footprint);
    inner.metrics.in_flight -= 1;
    // Only single-device runs feed the per-byte estimator: pooled runs have
    // a different cost shape.
    let estimator_footprint = match placement {
        Placement::Single(_) => Some(footprint),
        Placement::Pooled => None,
    };
    inner.metrics.record_exec(exec_time, estimator_footprint);
    match raw {
        Ok((result, path)) => {
            let path = match path {
                ExecPath::SingleDevice { device } => {
                    inner.pool.note_success(device);
                    if attempts > 0 {
                        inner.metrics.failed_over_jobs += 1;
                        ExecPath::FailedOver { device, attempts: attempts + 1 }
                    } else {
                        path
                    }
                }
                ExecPath::DevicePool { degraded, .. } => {
                    inner.metrics.pooled_jobs += 1;
                    inner.metrics.sharded_jobs += 1;
                    if let Some((rounds, bytes)) = sharded_telemetry {
                        inner.metrics.exchange_rounds += rounds;
                        inner.metrics.ghost_bytes += bytes;
                    }
                    if degraded {
                        inner.metrics.degraded_jobs += 1;
                    }
                    path
                }
                other => other,
            };
            if ran_warm {
                inner.metrics.warm_started_jobs += 1;
            }
            inner.cache.insert(key, Arc::clone(&result));
            // A delta job's result is also the result of its patched graph
            // as a plain base: insert it under the structural key too (the
            // shared payload is byte-counted once — see `ResultCache`).
            if let Some(pk) = promote_key.filter(|pk| *pk != key) {
                inner.cache.insert(pk, Arc::clone(&result));
            }
            inner.finalize(id, JobOutcome::Completed { result: Arc::clone(&result), path });
            let followers = inner.inflight.remove(&key).map(|i| i.followers).unwrap_or_default();
            for f in followers {
                let Some(job) = inner.jobs.get(&f) else { continue };
                if job.outcome.is_some() {
                    continue;
                }
                let outcome = if job.cancel.load(Ordering::SeqCst) {
                    JobOutcome::Cancelled { stage: None }
                } else if job.deadline_at.is_some_and(|d| Instant::now() >= d) {
                    JobOutcome::Expired { stage: None }
                } else {
                    JobOutcome::Completed { result: Arc::clone(&result), path: ExecPath::Coalesced }
                };
                if matches!(outcome, JobOutcome::Expired { .. }) {
                    inner.metrics.expired_settle += 1;
                }
                inner.finalize(f, outcome);
            }
        }
        Err(GpuLouvainError::Aborted { stage, reason }) => {
            let outcome = match reason {
                StageAbort::Cancelled => JobOutcome::Cancelled { stage: Some(stage) },
                StageAbort::DeadlineExceeded => {
                    inner.metrics.expired_stage += 1;
                    JobOutcome::Expired { stage: Some(stage) }
                }
            };
            inner.finalize(id, outcome);
            // Followers still want the result; hand leadership on.
            inner.promote_follower(key);
        }
        Err(e) => {
            let now = Instant::now();
            let failed_slot = match placement {
                Placement::Single(s) => Some(s),
                Placement::Pooled => None,
            };
            // Feed the breaker: transient faults and mid-run stage failures
            // indict the device; config/OOM errors indict the job.
            let device_attributable = e.is_device_attributable();
            if device_attributable {
                if let Some(slot) = failed_slot {
                    inner.pool.note_failure(slot, now);
                }
            }
            let retry_slot =
                failed_slot.filter(|_| device_attributable && attempts < inner.placement_retries);
            if let Some(slot) = retry_slot {
                // The fault was the device's, not the job's: re-queue onto a
                // different slot — unless cancellation or the deadline
                // caught up with the job across the failed placement.
                if cancel.load(Ordering::SeqCst) {
                    inner.finalize(id, JobOutcome::Cancelled { stage: None });
                    inner.promote_follower(key);
                } else if deadline_at.is_some_and(|d| now >= d) {
                    inner.metrics.expired_settle += 1;
                    inner.finalize(id, JobOutcome::Expired { stage: None });
                    inner.promote_follower(key);
                } else {
                    let job = inner.jobs.get_mut(&id).expect("retried job has state");
                    job.attempts += 1;
                    job.avoid = Some(slot);
                    job.status = JobStatus::Queued;
                    let priority = job.options.priority;
                    inner.queue.push_promoted(id, priority);
                    inner.metrics.retried_jobs += 1;
                }
            } else {
                // Out of retries, or the error indicts the (graph, options)
                // content itself — an identical re-run would fail
                // identically, so followers share the error.
                let err = Arc::new(e);
                inner.finalize(id, JobOutcome::Failed(Arc::clone(&err)));
                let followers =
                    inner.inflight.remove(&key).map(|i| i.followers).unwrap_or_default();
                for f in followers {
                    let live = inner.jobs.get(&f).is_some_and(|j| j.outcome.is_none());
                    if live {
                        inner.finalize(f, JobOutcome::Failed(Arc::clone(&err)));
                    }
                }
            }
        }
    }
    drop(inner);
    shared.done_cv.notify_all();
    shared.work_cv.notify_all();
}

fn worker_loop(shared: Arc<Shared>) {
    let mut inner = shared.lock();
    loop {
        if inner.shutting_down && inner.queue.is_empty() {
            return;
        }
        match next_action(&shared, &mut inner) {
            Action::Run(id, placement) => {
                execute(&shared, inner, id, placement);
                inner = shared.lock();
            }
            Action::Wait => {
                if inner.shutting_down && inner.queue.is_empty() {
                    return;
                }
                inner = shared.work_cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// The community-detection service. See the module docs for the concurrency
/// and determinism model.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    sweeper: Option<JoinHandle<()>>,
}

impl Server {
    /// Builds a server (and spawns its worker threads, unless
    /// `config.workers == 0`).
    ///
    /// When [`ServerConfig::cache_snapshot`] is set, the result cache is
    /// warm-started from that file. A missing file is a normal first boot;
    /// an unreadable or corrupt snapshot is logged, counted
    /// (`cache_restore_failures`), and discarded for a clean cold start —
    /// never a panic.
    pub fn new(config: ServerConfig) -> Self {
        let mut cache = ResultCache::new(config.cache_bytes);
        let mut metrics = MetricsState::default();
        if let Some(path) = &config.cache_snapshot {
            match std::fs::read(path) {
                Ok(bytes) => match cache.restore(&bytes) {
                    Ok(n) => metrics.cache_restored_entries = n as u64,
                    Err(e) => {
                        eprintln!("cd-serve: discarding cache snapshot {}: {e}", path.display());
                        metrics.cache_restore_failures = 1;
                    }
                },
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => {
                    eprintln!("cd-serve: cannot read cache snapshot {}: {e}", path.display());
                    metrics.cache_restore_failures = 1;
                }
            }
        }
        let inner = Inner {
            jobs: HashMap::new(),
            queue: SubmissionQueue::new(config.queue_capacity),
            pool: DevicePool::new(config.num_devices, config.device.clone())
                .with_breaker(config.breaker),
            cache,
            inflight: HashMap::new(),
            bases: HashMap::new(),
            held: HashMap::new(),
            metrics,
            next_id: 0,
            shutting_down: false,
            sequential_fallback: config.sequential_fallback,
            shed_unattainable: config.shed_unattainable,
            placement_retries: config.placement_retries,
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(inner),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            sweep_cv: Condvar::new(),
        });
        let workers: Vec<_> = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cd-serve-worker-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawning a worker thread")
            })
            .collect();
        // Manual mode gets no sweeper either: tests drive expiry explicitly
        // with `sweep_expired`.
        let sweeper = (config.workers > 0).then(|| {
            let shared = Arc::clone(&shared);
            let interval = config.sweep_interval;
            std::thread::Builder::new()
                .name("cd-serve-sweeper".into())
                .spawn(move || sweeper_loop(shared, interval))
                .expect("spawning the sweeper thread")
        });
        Self { shared, workers, sweeper }
    }

    /// Submits a job. On success the job is owned by the server until it
    /// reaches a terminal state observable via [`Self::await_result`].
    ///
    /// The fast paths resolve synchronously: a content-identical cached
    /// result completes the job immediately ([`ExecPath::CacheHit`]); an
    /// identical in-flight job absorbs the submission as a follower
    /// ([`ExecPath::Coalesced`] — exempt from the queue bound, since it
    /// consumes no queue slot and no device time).
    ///
    /// The cache key needs the graph's structural hash. An allocation the
    /// base registry holds (an `Arc` of a graph submitted earlier) takes it
    /// from the registry's reverse index under the one admission lock, once
    /// `Arc::ptr_eq` confirms that the registry entry for that hash is this
    /// same allocation; it is never hashed again. Any other allocation,
    /// content-equal or not, is hashed outside the lock on every submit.
    pub fn submit(&self, graph: Arc<Csr>, options: JobOptions) -> Result<JobId, Rejected> {
        let opts_hash = options_hash(&options);
        let footprint = estimated_device_bytes(&graph);
        let mut inner = self.shared.lock();
        let hash = match inner.held_hash(&graph) {
            Some(hash) => hash,
            None => {
                // Hash outside the lock: content addressing is O(graph) work.
                drop(inner);
                let hash = graph_hash(&graph);
                inner = self.shared.lock();
                hash
            }
        };
        let key = CacheKey { graph: hash, options: opts_hash };
        let now = Instant::now();
        let deadline_at = options.deadline.map(|d| now + d);
        if inner.shutting_down {
            inner.metrics.rejected += 1;
            return Err(Rejected::ShuttingDown);
        }
        if graph.num_vertices() >= u32::MAX as usize {
            inner.metrics.rejected += 1;
            return Err(Rejected::TooManyVertices(graph.num_vertices()));
        }
        // Register the graph as a delta base — even when admission rejects
        // the job, so a client can chain off a base whose own job was shed.
        inner.register_graph(key.graph, &graph);
        self.admit(
            inner,
            ProtoJob {
                graph: Some(graph),
                options,
                key,
                footprint,
                now,
                deadline_at,
                warm: None,
                promote_key: None,
            },
        )
    }

    /// Submits an *incremental* job: the base graph — named by a prior job
    /// or a registered graph hash — with `batch` applied.
    ///
    /// A base that is itself a delta job's patched graph is not held as a
    /// graph: the server keeps its (parent, batch) recipe and rebuilds it
    /// here, one `apply_delta` per link above the nearest submitted graph.
    ///
    /// The job's content key chains the base's graph hash with the batch
    /// hash ([`crate::chained_graph_hash`]), so a resubmitted delta chain
    /// folds to the same keys and warm-hits the cache link by link with
    /// zero recompute. Every fast path of [`Self::submit`] (coalescing,
    /// cache hits) applies to the chained key too, and the completed result
    /// is additionally inserted under the structural hash of the patched
    /// graph — promoting it to a plain base that a cold submission of the
    /// same graph hits directly.
    ///
    /// When the base's own result (same semantic options) is resident, the
    /// run executes through the warm-start driver
    /// ([`cd_core::louvain_warm_start_gated`]): labels seeded from the base
    /// partition, re-evaluation limited to the touched-vertex frontier.
    /// Otherwise the patched graph runs cold — same result, no speedup.
    /// Warm starting is specific to [`cd_core::Algorithm::Louvain`]; delta
    /// jobs under any other portfolio algorithm always run cold, and the
    /// algorithm-qualified cache keys guarantee a seed can never cross
    /// algorithms.
    pub fn submit_delta(
        &self,
        base: DeltaBase,
        batch: &DeltaBatch,
        options: JobOptions,
    ) -> Result<JobId, Rejected> {
        // Content-address the batch outside the lock: hashing is O(batch).
        let delta = delta_hash(batch);
        let opts_hash = options_hash(&options);
        // Resolve the base's recipe under the lock; replay it and patch
        // outside it — applying a delta is O(graph) work that must not
        // serialize the service.
        let (base_hash, key, root, replay, seed) = {
            let mut inner = self.shared.lock();
            if inner.shutting_down {
                inner.metrics.rejected += 1;
                return Err(Rejected::ShuttingDown);
            }
            let (hash, unknown) = match base {
                DeltaBase::Job(id) => (inner.jobs.get(&id).map(|j| j.key.graph), id.as_u64()),
                DeltaBase::Graph(h) => (Some(h), h),
            };
            let Some((base_hash, (root, replay))) =
                hash.and_then(|h| Some((h, inner.base_recipe(h)?)))
            else {
                inner.metrics.rejected += 1;
                return Err(Rejected::UnknownBase { base: unknown });
            };
            // A resubmitted (base, batch) pair whose result is cached:
            // admission answers the chained key from the cache, so it needs
            // no replay, no patch and no structural hash. The key must also
            // be a registered base: after a snapshot restore the registry is
            // empty, and only the slow path registers the patched graph's
            // hashes for later deltas to chain off. An in-flight duplicate
            // takes the slow path, whose admission coalesces it.
            let key = CacheKey { graph: chained_graph_hash(base_hash, delta), options: opts_hash };
            if inner.bases.contains_key(&key.graph)
                && !inner.inflight.contains_key(&key)
                && inner.cache.peek(&key).is_some()
            {
                let now = Instant::now();
                inner.metrics.delta_jobs += 1;
                return self.admit(
                    inner,
                    ProtoJob {
                        graph: None,
                        options,
                        key,
                        footprint: 0,
                        now,
                        deadline_at: options.deadline.map(|d| now + d),
                        warm: None,
                        promote_key: None,
                    },
                );
            }
            // Warm seed: the base's result under the same semantic options
            // (the key carries the algorithm, so a Louvain job can only be
            // seeded by a Louvain partition). A peek, not a lookup —
            // internal resolution must not skew the client-facing hit/miss
            // counters. Only Louvain can consume a seed at all: the
            // warm-start driver is the seeded modularity descent, and the
            // other portfolio members run cold (same result, no speedup).
            let seed = if options.algorithm == Algorithm::Louvain {
                let base_key = CacheKey { graph: base_hash, options: opts_hash };
                inner.cache.peek(&base_key).or_else(|| match base {
                    DeltaBase::Job(id) => inner
                        .jobs
                        .get(&id)
                        .filter(|j| j.key == base_key)
                        .and_then(|j| j.outcome.as_ref())
                        .and_then(|o| o.result().cloned()),
                    DeltaBase::Graph(_) => None,
                })
            } else {
                None
            };
            (base_hash, key, root, replay, seed)
        };

        // Every replayed batch applied to the same parent once already, so
        // a failure here is a broken registry invariant, not a bad request.
        let base_graph = match replay
            .iter()
            .try_fold(root, |g, link| patch(&g, link).map(|(p, _)| Arc::new(p)))
        {
            Ok(g) => g,
            Err(e) => {
                self.shared.lock().metrics.rejected += 1;
                return Err(Rejected::BaseReplayFailed { base: base_hash, reason: e.to_string() });
            }
        };
        let (patched, touched) = match patch(&base_graph, batch) {
            Ok(v) => v,
            Err(e) => {
                self.shared.lock().metrics.rejected += 1;
                return Err(Rejected::InvalidDelta { reason: e.to_string() });
            }
        };
        let patched = Arc::new(patched);
        let promote_key = CacheKey { graph: graph_hash(&patched), options: opts_hash };
        let footprint = estimated_device_bytes(&patched);
        let now = Instant::now();
        let deadline_at = options.deadline.map(|d| now + d);
        let warm = seed.map(|s| WarmContext { seed: s, touched: Arc::new(touched) });

        let mut inner = self.shared.lock();
        if inner.shutting_down {
            inner.metrics.rejected += 1;
            return Err(Rejected::ShuttingDown);
        }
        inner.metrics.delta_jobs += 1;
        // Register the patched graph as a delta base under both hashes it
        // answers to — even when admission rejects the job, so a client
        // can chain off a base whose own job was shed.
        let recipe = GraphBase::Patched { parent: base_hash, batch: Arc::new(batch.clone()) };
        inner.bases.entry(key.graph).or_insert_with(|| recipe.clone());
        inner.bases.entry(promote_key.graph).or_insert(recipe);
        self.admit(
            inner,
            ProtoJob {
                graph: Some(patched),
                options,
                key,
                footprint,
                now,
                deadline_at,
                warm,
                promote_key: Some(promote_key),
            },
        )
    }

    /// The admission path shared by [`Self::submit`] and
    /// [`Self::submit_delta`]: fast paths (coalesce, cache hit), the
    /// deadline and SLO gates, then the bounded queue. Consumes the lock
    /// guard and performs its own condvar notifications.
    fn admit(&self, mut inner: MutexGuard<'_, Inner>, proto: ProtoJob) -> Result<JobId, Rejected> {
        let ProtoJob { graph, options, key, footprint, now, deadline_at, warm, promote_key } =
            proto;
        let state = |status, outcome| JobState {
            graph: graph.clone(),
            options,
            key,
            footprint,
            status,
            outcome,
            cancel: Arc::new(AtomicBool::new(false)),
            submitted_at: now,
            deadline_at,
            attempts: 0,
            avoid: None,
            warm: warm.clone(),
            promote_key,
        };
        // Coalesce onto an identical in-flight job.
        if inner.inflight.contains_key(&key) {
            let id = inner.alloc_id();
            inner.jobs.insert(id, state(JobStatus::Queued, None));
            inner.inflight.get_mut(&key).expect("checked above").followers.push(id);
            inner.cache.note_coalesced();
            inner.metrics.submitted += 1;
            return Ok(id);
        }
        // Content-addressed cache hit: completed before it ever queued. A
        // free result beats every other admission decision — deadline
        // included, since serving it costs no queue slot and no device time.
        if let Some(result) = inner.cache.lookup(&key) {
            let id = inner.alloc_id();
            inner.jobs.insert(id, state(JobStatus::Queued, None));
            inner.metrics.submitted += 1;
            inner.finalize(id, JobOutcome::Completed { result, path: ExecPath::CacheHit });
            drop(inner);
            self.shared.done_cv.notify_all();
            return Ok(id);
        }
        // Only a key the cache answered above may arrive without its graph.
        debug_assert!(graph.is_some(), "a job that can run holds its graph");
        // Dead on arrival: the deadline passed before admission. Admitted
        // (the caller holds an awaitable id) but expired immediately, never
        // occupying a queue slot.
        if deadline_at.is_some_and(|d| now >= d) {
            let id = inner.alloc_id();
            inner.jobs.insert(id, state(JobStatus::Queued, None));
            inner.metrics.submitted += 1;
            inner.metrics.expired_admission += 1;
            inner.finalize(id, JobOutcome::Expired { stage: None });
            drop(inner);
            self.shared.done_cv.notify_all();
            return Ok(id);
        }
        // Unattainable SLO: the estimated execution time already exceeds
        // the whole deadline budget, so running the job could only produce
        // a late result. Shed at the door, honestly.
        if inner.shed_unattainable {
            if let (Some(d), Some(estimated)) =
                (deadline_at, inner.metrics.estimate_exec(footprint))
            {
                let budget = d.saturating_duration_since(now);
                if estimated > budget {
                    inner.metrics.rejected += 1;
                    inner.metrics.rejected_slo += 1;
                    return Err(Rejected::WontMeetDeadline { estimated, budget });
                }
            }
        }
        // Cold: admission control, then the queue.
        if !inner.queue.has_room() {
            inner.metrics.rejected += 1;
            inner.metrics.rejected_queue_full += 1;
            return Err(Rejected::QueueFull { capacity: inner.queue.capacity() });
        }
        let id = inner.alloc_id();
        inner.jobs.insert(id, state(JobStatus::Queued, None));
        let admitted = inner.queue.push(id, options.priority);
        debug_assert!(admitted, "has_room was checked under the same lock");
        inner.inflight.insert(key, InFlight { leader: id, followers: Vec::new() });
        inner.metrics.submitted += 1;
        drop(inner);
        self.shared.work_cv.notify_all();
        Ok(id)
    }

    /// Current lifecycle state of a job, or `None` for an unknown id.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.shared.lock().jobs.get(&id).map(|j| j.status)
    }

    /// Requests cooperative cancellation. Returns `true` when the request
    /// was registered before the job reached a terminal state — the job
    /// will terminate as [`JobOutcome::Cancelled`] at its next checkpoint
    /// (immediately, when still queued). A `true` return is a promise the
    /// flag was seen in time only for queued and stage-gated work; a pooled
    /// run past its dequeue checkpoint completes normally.
    pub fn cancel(&self, id: JobId) -> bool {
        let mut inner = self.shared.lock();
        let Some(job) = inner.jobs.get(&id) else { return false };
        if job.outcome.is_some() {
            return false;
        }
        job.cancel.store(true, Ordering::SeqCst);
        let status = job.status;
        let key = job.key;
        if status == JobStatus::Queued {
            // Finalize now rather than at the dequeue checkpoint so awaiters
            // resolve without a worker in the loop. The queue may still hold
            // the id; the dequeue checkpoint skips finalized entries.
            let is_leader = inner.inflight.get(&key).map(|i| i.leader) == Some(id);
            inner.finalize(id, JobOutcome::Cancelled { stage: None });
            if is_leader {
                inner.promote_follower(key);
            } else if let Some(inf) = inner.inflight.get_mut(&key) {
                inf.followers.retain(|f| *f != id);
            }
            drop(inner);
            self.shared.done_cv.notify_all();
            self.shared.work_cv.notify_all();
        }
        true
    }

    /// Blocks until the job reaches a terminal state and returns its
    /// outcome. In manual mode ([`ServerConfig::workers`] = 0) drive
    /// execution with [`Self::process_one`] first — awaiting an unprocessed
    /// job would block forever.
    ///
    /// # Panics
    ///
    /// Panics on an unknown job id.
    pub fn await_result(&self, id: JobId) -> JobOutcome {
        let mut inner = self.shared.lock();
        loop {
            let job = inner.jobs.get(&id).expect("await_result of an unknown job id");
            if let Some(outcome) = &job.outcome {
                return outcome.clone();
            }
            inner = self.shared.done_cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking probe of a job's outcome.
    pub fn try_result(&self, id: JobId) -> Option<JobOutcome> {
        self.shared.lock().jobs.get(&id).and_then(|j| j.outcome.clone())
    }

    /// Manual-mode step: dispatches and synchronously runs the next
    /// runnable job, applying the same dequeue checkpoints as the worker
    /// loop. Returns `false` when nothing is runnable. Usable (but rarely
    /// useful) alongside worker threads.
    pub fn process_one(&self) -> bool {
        let mut inner = self.shared.lock();
        match next_action(&self.shared, &mut inner) {
            Action::Run(id, placement) => {
                execute(&self.shared, inner, id, placement);
                true
            }
            Action::Wait => false,
        }
    }

    /// Manual-mode convenience: process until the queue drains.
    pub fn run_until_idle(&self) {
        while self.process_one() {}
    }

    /// Runs one expiry sweep over the queued jobs right now, expiring every
    /// job whose deadline has passed while it waited. Returns the number
    /// expired. A worker-mode server runs this automatically every
    /// [`ServerConfig::sweep_interval`]; manual-mode tests call it directly.
    pub fn sweep_expired(&self) -> usize {
        let mut inner = self.shared.lock();
        let expired = sweep_expired_locked(&mut inner, Instant::now());
        let queue_nonempty = !inner.queue.is_empty();
        drop(inner);
        if expired > 0 {
            self.shared.done_cv.notify_all();
        }
        if queue_nonempty {
            self.shared.work_cv.notify_all();
        }
        expired
    }

    /// Serialises the current result cache into a snapshot byte image
    /// (format: [`crate::persist`]), LRU-first so a restore reproduces the
    /// recency order.
    pub fn snapshot_cache(&self) -> Vec<u8> {
        self.shared.lock().cache.snapshot()
    }

    /// Writes the cache snapshot to `path` atomically (temp file + rename,
    /// so a crash mid-write can't leave a torn snapshot under the real
    /// name). Returns the number of entries captured.
    pub fn snapshot_cache_to(&self, path: &Path) -> std::io::Result<usize> {
        let (bytes, entries) = {
            let inner = self.shared.lock();
            (inner.cache.snapshot(), inner.cache.entries())
        };
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        Ok(entries)
    }

    /// A point-in-time metrics snapshot.
    pub fn metrics(&self) -> ServeMetrics {
        let inner = self.shared.lock();
        ServeMetrics {
            submitted: inner.metrics.submitted,
            rejected: inner.metrics.rejected,
            rejected_queue_full: inner.metrics.rejected_queue_full,
            rejected_slo: inner.metrics.rejected_slo,
            completed: inner.metrics.completed,
            failed: inner.metrics.failed,
            cancelled: inner.metrics.cancelled,
            expired: inner.metrics.expired,
            expired_admission: inner.metrics.expired_admission,
            expired_sweep: inner.metrics.expired_sweep,
            expired_dequeue: inner.metrics.expired_dequeue,
            expired_stage: inner.metrics.expired_stage,
            expired_settle: inner.metrics.expired_settle,
            shed_predicted: inner.metrics.shed_predicted,
            retried_jobs: inner.metrics.retried_jobs,
            failed_over_jobs: inner.metrics.failed_over_jobs,
            breaker_trips: inner.pool.breaker_trips(),
            breaker_reinstatements: inner.pool.breaker_reinstatements(),
            quarantined_devices: inner.pool.quarantined_devices(),
            pooled_jobs: inner.metrics.pooled_jobs,
            sharded_jobs: inner.metrics.sharded_jobs,
            exchange_rounds: inner.metrics.exchange_rounds,
            ghost_bytes: inner.metrics.ghost_bytes,
            degraded_jobs: inner.metrics.degraded_jobs,
            delta_jobs: inner.metrics.delta_jobs,
            warm_started_jobs: inner.metrics.warm_started_jobs,
            cache_restored_entries: inner.metrics.cache_restored_entries,
            cache_restore_failures: inner.metrics.cache_restore_failures,
            queue_depth: inner.queue.len(),
            max_queue_depth: inner.queue.max_depth(),
            in_flight: inner.metrics.in_flight,
            max_in_flight: inner.metrics.max_in_flight,
            queue_wait: LatencyStats::from_samples(&inner.metrics.queue_wait_ms),
            exec: LatencyStats::from_samples(&inner.metrics.exec_ms),
            total: LatencyStats::from_samples(&inner.metrics.total_ms),
            cache: inner.cache.stats(),
            cache_entries: inner.cache.entries(),
            cache_bytes: inner.cache.bytes(),
            retained_graph_bytes: inner.retained_graph_bytes(),
            devices: inner.pool.slot_stats(),
        }
    }

    /// Stops accepting submissions, drains the queue, and joins the
    /// workers. In manual mode the drain happens inline. Idempotent.
    pub fn shutdown(&mut self) {
        {
            let mut inner = self.shared.lock();
            inner.shutting_down = true;
            // Quarantines make no sense during a drain: better a suspect
            // device than jobs stranded behind an empty pool with no one
            // left to observe the backoff expire.
            inner.pool.lift_quarantines();
        }
        self.shared.work_cv.notify_all();
        self.shared.sweep_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.sweeper.take() {
            let _ = handle.join();
        }
        // Manual mode (or freshly-shut-down workers racing a late promote):
        // drain whatever is still queued so awaiters resolve.
        self.run_until_idle();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cd_graph::{DeltaBuilder, GraphBuilder};

    fn ring(n: usize) -> Csr {
        let mut b = GraphBuilder::new(n);
        for v in 0..n as u32 {
            b.add_edge(v, (v + 1) % n as u32, 1.0);
        }
        b.build()
    }

    fn completed(server: &Server, id: JobId) -> (Arc<ServeResult>, ExecPath) {
        match server.await_result(id) {
            JobOutcome::Completed { result, path } => (result, path),
            other => panic!("expected completion, got {other:?}"),
        }
    }

    /// Calls of `counter` on this thread since this call.
    fn calls_since(
        counter: &'static std::thread::LocalKey<std::cell::Cell<usize>>,
    ) -> impl Fn() -> usize {
        let start = counter.with(|c| c.get());
        move || counter.with(|c| c.get()) - start
    }

    fn key_of(server: &Server, id: JobId) -> CacheKey {
        server.shared.lock().jobs[&id].key
    }

    #[test]
    fn a_recipe_that_does_not_replay_is_a_typed_rejection() {
        let server = Server::new(ServerConfig::test_manual());
        let n = 8;
        let ring = Arc::new(ring(n));
        let opts = JobOptions::default();
        server.submit(Arc::clone(&ring), opts).unwrap();
        server.run_until_idle();

        // Break the registry invariant: a recipe whose batch deletes an
        // edge its parent does not have.
        let mut broken = DeltaBuilder::new(n);
        broken.delete(0, 4).unwrap();
        let parent = structural_hash(&ring);
        let recipe = GraphBase::Patched { parent, batch: Arc::new(broken.build()) };
        server.shared.lock().bases.insert(7, recipe);

        let mut next = DeltaBuilder::new(n);
        next.insert(0, 4, 1.0).unwrap();
        let err = server.submit_delta(DeltaBase::Graph(7), &next.build(), opts).unwrap_err();
        assert!(matches!(err, Rejected::BaseReplayFailed { base: 7, .. }), "got {err:?}");
        assert_eq!(server.metrics().rejected, 1);
    }

    #[test]
    fn a_resubmitted_delta_settles_without_patching() {
        let server = Server::new(ServerConfig::test_manual());
        let n = 32;
        let opts = JobOptions::default();
        let base = server.submit(Arc::new(ring(n)), opts).unwrap();
        server.run_until_idle();
        let mut d = DeltaBuilder::new(n);
        d.insert(0, 16, 1.5).unwrap();
        d.delete(1, 2).unwrap();
        let batch = d.build();
        let patches = calls_since(&PATCHES);

        let first = server.submit_delta(DeltaBase::Job(base), &batch, opts).unwrap();
        assert_eq!(patches(), 1);
        // In flight: the resubmission patches and coalesces onto the first job.
        let follower = server.submit_delta(DeltaBase::Job(base), &batch, opts).unwrap();
        assert_eq!(patches(), 2);
        server.run_until_idle();
        let (computed, path) = completed(&server, first);
        assert!(!path.is_shared(), "{path:?}");
        let (shared, path) = completed(&server, follower);
        assert_eq!(path, ExecPath::Coalesced);
        assert!(Arc::ptr_eq(&computed, &shared));

        // Settled: the resubmission is a cache hit and does not patch.
        let hit = server.submit_delta(DeltaBase::Job(base), &batch, opts).unwrap();
        assert_eq!(patches(), 2, "a cached resubmission does not patch");
        let (cached, path) = completed(&server, hit);
        assert_eq!(path, ExecPath::CacheHit);
        assert!(Arc::ptr_eq(&computed, &cached));
        let m = server.metrics();
        assert_eq!(m.delta_jobs, 3);
        assert_eq!(m.exec.count, 2, "the base and the first delta ran; nothing else did");
    }

    #[test]
    fn a_held_graph_is_hashed_once() {
        let server = Server::new(ServerConfig::test_manual());
        let graph = Arc::new(ring(24));
        let opts = JobOptions::default();
        let hashes = calls_since(&HASHES);
        let first = server.submit(Arc::clone(&graph), opts).unwrap();
        server.run_until_idle();
        let (computed, _) = completed(&server, first);
        let again: Vec<JobId> =
            (0..2).map(|_| server.submit(Arc::clone(&graph), opts).unwrap()).collect();
        assert_eq!(hashes(), 1, "only the first submit hashes");
        for id in again {
            assert_eq!(key_of(&server, id), key_of(&server, first));
            let (cached, path) = completed(&server, id);
            assert_eq!(path, ExecPath::CacheHit);
            assert!(Arc::ptr_eq(&computed, &cached));
        }
    }

    #[test]
    fn a_content_equal_allocation_is_hashed_on_every_submit() {
        let server = Server::new(ServerConfig::test_manual());
        let held = Arc::new(ring(24));
        let opts = JobOptions::default();
        let first = server.submit(Arc::clone(&held), opts).unwrap();
        server.run_until_idle();
        let (computed, _) = completed(&server, first);
        let copy = Arc::new((*held).clone());
        let hashes = calls_since(&HASHES);
        for round in 1..=2 {
            let id = server.submit(Arc::clone(&copy), opts).unwrap();
            assert_eq!(hashes(), round, "the registry does not hold the copy");
            assert_eq!(key_of(&server, id), key_of(&server, first));
            let (cached, path) = completed(&server, id);
            assert_eq!(path, ExecPath::CacheHit);
            assert!(Arc::ptr_eq(&computed, &cached));
        }
    }

    #[test]
    fn a_graph_rewritten_through_make_mut_is_hashed_and_answered_anew() {
        let server = Server::new(ServerConfig::test_manual());
        let opts = JobOptions::default();
        let mut client = Arc::new(ring(24));
        let first = server.submit(Arc::clone(&client), opts).unwrap();
        server.run_until_idle();
        let (old, _) = completed(&server, first);

        // The registry shares the allocation, so `make_mut` copies it.
        let other = ring(30);
        *Arc::make_mut(&mut client) = other.clone();
        let hashes = calls_since(&HASHES);
        let id = server.submit(Arc::clone(&client), opts).unwrap();
        assert_eq!(hashes(), 1);
        assert_eq!(key_of(&server, id).graph, structural_hash(&other));
        server.run_until_idle();
        let (new, path) = completed(&server, id);
        assert!(!path.is_shared(), "{path:?}");
        assert_eq!(new.partition.len(), 30);

        // Both contents keep answering for themselves.
        let again = server.submit(Arc::clone(&client), opts).unwrap();
        assert_eq!(hashes(), 1, "the new allocation is held now");
        let (cached, path) = completed(&server, again);
        assert_eq!(path, ExecPath::CacheHit);
        assert!(Arc::ptr_eq(&new, &cached));
        let (cached, _) = completed(&server, server.submit(Arc::new(ring(24)), opts).unwrap());
        assert!(Arc::ptr_eq(&old, &cached));
    }

    #[test]
    fn a_graph_first_registered_as_a_recipe_is_hashed_on_every_submit() {
        let server = Server::new(ServerConfig::test_manual());
        let n = 32;
        let opts = JobOptions::default();
        let base_graph = ring(n);
        let base = server.submit(Arc::new(base_graph.clone()), opts).unwrap();
        server.run_until_idle();
        let mut d = DeltaBuilder::new(n);
        d.insert(0, 16, 1.5).unwrap();
        let batch = d.build();
        let delta = server.submit_delta(DeltaBase::Job(base), &batch, opts).unwrap();
        server.run_until_idle();
        let (patched_result, _) = completed(&server, delta);

        // The patched graph's structural hash is registered as a recipe, so
        // a submitted copy of that graph is never indexed.
        let patched = Arc::new(apply_delta(&base_graph, &batch).unwrap().0);
        let hashes = calls_since(&HASHES);
        for round in 1..=2 {
            let id = server.submit(Arc::clone(&patched), opts).unwrap();
            assert_eq!(hashes(), round);
            assert_eq!(key_of(&server, id).graph, structural_hash(&patched));
            let (cached, path) = completed(&server, id);
            assert_eq!(path, ExecPath::CacheHit);
            assert!(Arc::ptr_eq(&patched_result, &cached));
        }
    }

    #[test]
    fn a_restored_server_hashes_a_held_graph_once() {
        let dir = std::env::temp_dir().join(format!("cd-serve-held-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("cache.snap");
        let graph = Arc::new(ring(24));
        let opts = JobOptions::default();
        let computed = {
            let server = Server::new(ServerConfig::test_manual());
            let id = server.submit(Arc::clone(&graph), opts).unwrap();
            server.run_until_idle();
            server.snapshot_cache_to(&snap).unwrap();
            completed(&server, id).0
        };

        let server =
            Server::new(ServerConfig { cache_snapshot: Some(snap), ..ServerConfig::test_manual() });
        let hashes = calls_since(&HASHES);
        for expected_hashes in [1, 1] {
            let id = server.submit(Arc::clone(&graph), opts).unwrap();
            assert_eq!(hashes(), expected_hashes);
            let (restored, path) = completed(&server, id);
            assert_eq!(path, ExecPath::CacheHit);
            assert_eq!(restored.partition.as_slice(), computed.partition.as_slice());
            assert_eq!(restored.modularity.to_bits(), computed.modularity.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
