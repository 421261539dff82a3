//! The typed job API: what a client submits, what it gets back, and every
//! state a job can be observed in.
//!
//! A *job* is one community-detection request — a graph plus
//! [`JobOptions`] — moving through the lifecycle
//! `Queued → Running → {Completed, Failed, Cancelled, Expired}`. Admission
//! failures ([`Rejected`]) happen before a job exists and are reported
//! synchronously from [`crate::Server::submit`].

use cd_core::{Algorithm, GpuLouvainConfig, GpuLouvainError};
use cd_gpusim::{FaultPlan, Profile};
use cd_graph::Partition;
use std::sync::Arc;
use std::time::Duration;

/// Opaque identifier of an accepted job. Ids are assigned in submission
/// order and never reused within a server's lifetime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub(crate) u64);

impl JobId {
    /// The raw submission sequence number.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Scheduling priority. The queue dequeues strictly by priority, FIFO
/// (submission order) within a priority class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Background work: dequeued only when nothing else waits.
    Low,
    /// The default class.
    #[default]
    Normal,
    /// Latency-sensitive work: always dequeued first.
    High,
}

impl Priority {
    /// All priorities, lowest first.
    pub const ALL: [Priority; 3] = [Priority::Low, Priority::Normal, Priority::High];
}

/// Deterministic fault injection scoped to one device slot of the pool —
/// the serving-layer hook into the PR 1 fault machinery, used to exercise
/// the circuit breakers end to end.
///
/// When a job carrying a `DeviceFault` is placed on slot `device`, its
/// fresh `Device` is built with `plan` attached; on any other slot the job
/// runs fault-free. Because the fault decisions are a pure function of the
/// plan seed, "device N is broken" replays identically run after run.
/// Active plans require [`Profile::Instrumented`] (the fast and racecheck
/// profiles reject fault injection at device construction).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceFault {
    /// Pool slot index the plan applies to.
    pub device: usize,
    /// The fault schedule injected on that slot.
    pub plan: FaultPlan,
}

/// Per-job options: the algorithm selection and configuration, the
/// execution profile, and the scheduling knobs.
///
/// The algorithm (and its configuration) and fault plan are *semantic* —
/// they select what result is computed and participate in the cache key.
/// Priority and deadline are *scheduling* — they decide when (and whether)
/// the job runs and are deliberately excluded from the key, so a
/// high-priority resubmission of cached work is still a cache hit. The
/// execution profile is neither: the three-way equivalence guarantee makes
/// every profile produce the same bits, so profiles share a cache line.
#[derive(Clone, Copy, Debug)]
pub struct JobOptions {
    /// Which portfolio algorithm the job runs ([`Algorithm::Louvain`] by
    /// default). Result-affecting: two submissions of the same graph under
    /// different algorithms never share a cache entry.
    pub algorithm: Algorithm,
    /// Algorithm configuration (thresholds, pruning, buckets, …).
    pub config: GpuLouvainConfig,
    /// Execution profile the job's device is built with. Defaults to
    /// [`Profile::Parallel`]: a serving layer wants throughput, and the
    /// backend-equivalence guarantee (labels and Q bit-identical across
    /// profiles) means nothing semantic is lost.
    pub profile: Profile,
    /// Scheduling priority.
    pub priority: Priority,
    /// Deadline relative to submission. Checked at admission, by the
    /// periodic queue sweep, at the queue-dequeue checkpoint, and at every
    /// stage checkpoint of the run; an expired job terminates as
    /// [`JobOutcome::Expired`].
    pub deadline: Option<Duration>,
    /// Slot-targeted fault injection (tests and fault drills only). `None`
    /// — the default — runs fault-free everywhere.
    pub fault: Option<DeviceFault>,
}

impl Default for JobOptions {
    fn default() -> Self {
        Self {
            algorithm: Algorithm::Louvain,
            config: GpuLouvainConfig::paper_default(),
            profile: Profile::Parallel,
            priority: Priority::Normal,
            deadline: None,
            fault: None,
        }
    }
}

impl JobOptions {
    /// Returns the options with the given portfolio algorithm.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Returns the options with vertex pruning set.
    pub fn with_pruning(mut self, pruning: bool) -> Self {
        self.config.pruning = pruning;
        self
    }

    /// Returns the options with the given execution profile.
    pub fn with_profile(mut self, profile: Profile) -> Self {
        self.profile = profile;
        self
    }

    /// Returns the options with the given priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Returns the options with a deadline relative to submission.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Returns the options with a slot-targeted fault plan.
    pub fn with_fault(mut self, device: usize, plan: FaultPlan) -> Self {
        self.fault = Some(DeviceFault { device, plan });
        self
    }
}

/// How a delta submission names the graph it patches: by a previously
/// accepted job (the delta applies to that job's input graph) or by a graph
/// hash the server already knows — a structural hash from a plain
/// submission, or the chained hash of an earlier delta job, which is how
/// chains extend: `submit` → `submit_delta` → `submit_delta` …
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaBase {
    /// The input graph of this previously accepted job.
    Job(JobId),
    /// A graph hash registered by an earlier submission: the structural
    /// hash of a submitted graph, or the chained hash of a delta job
    /// (see [`crate::chained_graph_hash`]).
    Graph(u64),
}

/// Why a submission was refused at the door. Rejections are synchronous: no
/// job id is assigned and nothing is queued — the explicit backpressure
/// signal a caller uses to shed or retry load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded submission queue is at capacity.
    QueueFull {
        /// The configured queue bound.
        capacity: usize,
    },
    /// A delta submission referenced a base the server does not know — an
    /// unknown job id, or a graph hash no prior submission registered.
    UnknownBase {
        /// The job id or graph hash the delta referenced.
        base: u64,
    },
    /// The delta batch does not apply to its base graph (vertex out of
    /// range, deleting a missing edge, …). The reason is the rendered
    /// [`cd_graph::DeltaError`]; nothing was queued and the base is
    /// unchanged.
    InvalidDelta {
        /// Human-readable rendering of the typed delta error.
        reason: String,
    },
    /// Rebuilding a delta's base from its registered (parent, batch) recipe
    /// failed. Every batch in the recipe applied to the same parent once
    /// already, so this reports a broken server invariant rather than a
    /// bad request; nothing was queued.
    BaseReplayFailed {
        /// The registry hash of the base that could not be rebuilt.
        base: u64,
        /// Human-readable rendering of the typed delta error.
        reason: String,
    },
    /// The graph exceeds the 32-bit vertex id space of the kernels; no
    /// device or degradation path could ever run it.
    TooManyVertices(usize),
    /// SLO-aware shedding: the server's execution-time estimate for this
    /// job already exceeds the submitted deadline budget, so admitting it
    /// would only burn queue and device time on a result nobody can use.
    /// Only raised when a deadline is set and the estimator has observed
    /// enough completed runs to extrapolate from.
    WontMeetDeadline {
        /// Estimated execution time of the job.
        estimated: Duration,
        /// The deadline budget the submission carried.
        budget: Duration,
    },
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::QueueFull { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
            Rejected::UnknownBase { base } => {
                write!(f, "delta references unknown base {base:#x}")
            }
            Rejected::InvalidDelta { reason } => {
                write!(f, "delta does not apply to its base: {reason}")
            }
            Rejected::BaseReplayFailed { base, reason } => {
                write!(f, "rebuilding delta base {base:#x} from its recipe failed: {reason}")
            }
            Rejected::TooManyVertices(n) => {
                write!(f, "{n} vertices exceed the 32-bit vertex id space")
            }
            Rejected::WontMeetDeadline { estimated, budget } => write!(
                f,
                "estimated execution time {estimated:?} exceeds the deadline budget {budget:?}"
            ),
            Rejected::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for Rejected {}

/// Observable lifecycle state of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting in the queue (or attached to an in-flight identical
    /// job — see [`ExecPath::Coalesced`]).
    Queued,
    /// Placed on a device and executing.
    Running,
    /// Finished with a result.
    Completed,
    /// Finished with a typed error.
    Failed,
    /// Cancelled at a checkpoint before producing a result.
    Cancelled,
    /// Its deadline passed before it could produce a result.
    Expired,
}

/// How a completed job's result was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecPath {
    /// Served from the content-addressed result cache at submission.
    CacheHit,
    /// Attached to an identical in-flight job and handed its result — the
    /// in-flight twin of a cache hit (request coalescing).
    Coalesced,
    /// Ran on a single device of the pool.
    SingleDevice {
        /// Pool slot index the job ran on.
        device: usize,
    },
    /// Ran on a single device after one or more placements failed with a
    /// device-attributable error — the circuit-breaker recovery path. The
    /// result is bit-identical to a first-try run (placement never changes
    /// what a job computes), but the path records that failover happened.
    FailedOver {
        /// Pool slot index of the device that finally produced the result.
        device: usize,
        /// Total placements, including the failed ones (≥ 2).
        attempts: usize,
    },
    /// Too large for any single device: ran through the sharded
    /// out-of-core engine (`cd_dist::louvain_sharded`) across the whole
    /// pool — one shard per device, ghost vertices, halo label exchange —
    /// with its failover/degradation ladder.
    DevicePool {
        /// Devices (shards) the sharded run used.
        devices: usize,
        /// True when any work item degraded to the sequential host baseline.
        degraded: bool,
    },
}

impl ExecPath {
    /// True for the two work-reuse paths (cache hit, coalesced).
    pub fn is_shared(self) -> bool {
        matches!(self, ExecPath::CacheHit | ExecPath::Coalesced)
    }

    /// Short label for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            ExecPath::CacheHit => "cache-hit",
            ExecPath::Coalesced => "coalesced",
            ExecPath::SingleDevice { .. } => "single",
            ExecPath::FailedOver { .. } => "failed-over",
            ExecPath::DevicePool { degraded: false, .. } => "pooled",
            ExecPath::DevicePool { degraded: true, .. } => "pooled-degraded",
        }
    }
}

/// The payload of a completed job. One `Arc<ServeResult>` is shared by the
/// producing run, the result cache, and every coalesced or cache-hit job
/// that reuses it — which is what makes reuse bit-identical *by
/// construction*: there is only one value.
#[derive(Debug)]
pub struct ServeResult {
    /// Final communities of the input graph's vertices.
    pub partition: Partition,
    /// Modularity of `partition` on the input graph.
    pub modularity: f64,
    /// Driver stages the producing run executed (0 for the multi-device
    /// path, which reports no stage breakdown).
    pub stages: usize,
}

/// Terminal outcome of a job, as returned by
/// [`crate::Server::await_result`].
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// The job produced (or reused) a result.
    Completed {
        /// The shared result payload.
        result: Arc<ServeResult>,
        /// How this particular job obtained it.
        path: ExecPath,
    },
    /// The run failed with a typed error; its `source()` chain reaches the
    /// root cause (rejected device configuration, failed launch, …).
    Failed(Arc<GpuLouvainError>),
    /// Cancelled at a checkpoint: `stage` is the stage checkpoint that saw
    /// the flag, or `None` when the job never started running.
    Cancelled {
        /// Stage checkpoint that observed the cancellation.
        stage: Option<usize>,
    },
    /// The deadline passed: at a stage checkpoint (`Some`), or while still
    /// queued (`None`).
    Expired {
        /// Stage checkpoint that observed the expiry.
        stage: Option<usize>,
    },
}

impl JobOutcome {
    /// The terminal status this outcome corresponds to.
    pub fn status(&self) -> JobStatus {
        match self {
            JobOutcome::Completed { .. } => JobStatus::Completed,
            JobOutcome::Failed(_) => JobStatus::Failed,
            JobOutcome::Cancelled { .. } => JobStatus::Cancelled,
            JobOutcome::Expired { .. } => JobStatus::Expired,
        }
    }

    /// The result payload, when completed.
    pub fn result(&self) -> Option<&Arc<ServeResult>> {
        match self {
            JobOutcome::Completed { result, .. } => Some(result),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_orders_low_to_high() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn options_builders() {
        let o = JobOptions::default()
            .with_algorithm(Algorithm::LpaSync)
            .with_pruning(true)
            .with_profile(Profile::Racecheck)
            .with_priority(Priority::High)
            .with_deadline(Duration::from_secs(1));
        assert_eq!(o.algorithm, Algorithm::LpaSync);
        assert!(o.config.pruning);
        assert_eq!(o.profile, Profile::Racecheck);
        assert_eq!(o.priority, Priority::High);
        assert_eq!(o.deadline, Some(Duration::from_secs(1)));
        assert_eq!(JobOptions::default().profile, Profile::Parallel);
        assert_eq!(JobOptions::default().algorithm, Algorithm::Louvain);
    }

    #[test]
    fn rejection_and_path_labels() {
        assert!(Rejected::QueueFull { capacity: 8 }.to_string().contains("capacity 8"));
        assert!(ExecPath::CacheHit.is_shared());
        assert!(ExecPath::Coalesced.is_shared());
        assert!(!ExecPath::SingleDevice { device: 0 }.is_shared());
        assert_eq!(ExecPath::DevicePool { devices: 4, degraded: true }.label(), "pooled-degraded");
    }
}
