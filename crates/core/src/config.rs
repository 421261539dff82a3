//! Configuration of the GPU Louvain algorithm, including the paper's
//! threshold pair and bucket boundaries, plus the ablation switches the
//! benchmark harness exercises.

use cd_graph::ThresholdSchedule;
use std::time::Duration;

/// Retry policy for transient stage failures (injected kernel faults,
/// invariant violations caused by memory corruption). Each stage of the
/// driver is a checkpoint: its inputs are host-resident, so a failed stage is
/// re-run from scratch after an exponential backoff. Permanent errors
/// (out-of-memory, oversized degrees) are never retried.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per stage, including the first (1 = fail on first error).
    pub max_attempts: usize,
    /// Sleep before the first retry.
    pub backoff_base: Duration,
    /// Multiplier applied to the backoff on each further retry.
    pub backoff_multiplier: u32,
}

impl RetryPolicy {
    /// Default policy: 3 attempts, 500 µs initial backoff, doubling.
    pub fn default_policy() -> Self {
        Self { max_attempts: 3, backoff_base: Duration::from_micros(500), backoff_multiplier: 2 }
    }

    /// A policy that never retries (fail on first transient error).
    pub fn none() -> Self {
        Self { max_attempts: 1, ..Self::default_policy() }
    }

    /// Backoff to sleep after failed attempt number `attempt` (1-based).
    pub fn backoff_for(&self, attempt: usize) -> Duration {
        let factor = self.backoff_multiplier.saturating_pow(attempt.saturating_sub(1) as u32);
        self.backoff_base.saturating_mul(factor)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::default_policy()
    }
}

/// When community labels are published during the modularity optimization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateStrategy {
    /// The paper's scheme: commit after each degree bucket, so later buckets
    /// observe earlier buckets' moves within the same iteration.
    PerBucket,
    /// The "relaxed" scheme from the paper's experiments: all vertices decide
    /// from the previous iteration's configuration, commits happen once per
    /// iteration.
    Relaxed,
}

/// Where `computeMove`/`mergeCommunity` hash tables live.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HashPlacement {
    /// Shared memory when a bucket's tables fit the block budget, global
    /// memory for the largest bucket — the paper's layout.
    Auto,
    /// Everything in global memory (ablation: quantifies what shared-memory
    /// hashing buys).
    ForceGlobal,
}

/// How vertices are assigned to threads in the optimization phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadAssignment {
    /// The paper's contribution: degree-binned thread groups with
    /// edge-parallel hashing.
    DegreeBinned,
    /// Node-centric ablation: one lane per vertex processes all its edges
    /// sequentially (the scheme of all prior parallel Louvain
    /// implementations).
    NodeCentric,
}

/// One rung of a work-bucketed kernel ladder: tasks whose work measure
/// (vertex degree in the optimization phase, community degree sum in the
/// aggregation phase) is at most [`BucketSpec::max_work`] run on thread
/// groups of [`BucketSpec::lanes`] lanes.
///
/// Both kernel bucket tables ([`MODOPT_BUCKETS`], [`AGG_BUCKETS`]) are
/// arrays of this type; [`crate::schedule::WidthSchedule`] wraps such a
/// table as the piecewise-constant work-to-width mapping, the group-width
/// twin of [`cd_graph::ThresholdSchedule`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketSpec {
    /// Inclusive upper bound on the bucket's work measure; `usize::MAX`
    /// marks the open-ended last bucket.
    pub max_work: usize,
    /// Width of the thread groups processing this bucket's tasks.
    pub lanes: usize,
}

impl BucketSpec {
    /// A bucket admitting work up to `max_work` on `lanes`-wide groups.
    ///
    /// # Panics
    ///
    /// Panics (at compile time in const contexts) unless `max_work >= 1` and
    /// `lanes` is a launchable group width
    /// ([`cd_gpusim::VALID_GROUP_LANES`]).
    pub const fn new(max_work: usize, lanes: usize) -> Self {
        assert!(max_work >= 1, "a bucket must admit some work");
        let mut valid = false;
        let mut i = 0;
        while i < cd_gpusim::VALID_GROUP_LANES.len() {
            valid = valid || cd_gpusim::VALID_GROUP_LANES[i] == lanes;
            i += 1;
        }
        assert!(valid, "bucket lanes must be a launchable group width");
        Self { max_work, lanes }
    }

    /// The open-ended bucket terminating a table: admits any work size.
    pub const fn open_ended(lanes: usize) -> Self {
        Self::new(usize::MAX, lanes)
    }

    /// True for the table-terminating bucket that admits any work size.
    pub const fn is_open_ended(self) -> bool {
        self.max_work == usize::MAX
    }
}

/// Degree-bucket table for the modularity optimization (paper Section 4.1);
/// the last bucket is open-ended and uses global-memory hash tables.
pub const MODOPT_BUCKETS: [BucketSpec; 7] = [
    BucketSpec::new(4, 4),
    BucketSpec::new(8, 8),
    BucketSpec::new(16, 16),
    BucketSpec::new(32, 32),
    BucketSpec::new(84, 32),
    BucketSpec::new(319, 128),
    BucketSpec::open_ended(128),
];

/// Community buckets for the aggregation phase, keyed by degree sum; the
/// last bucket is open-ended with global tables.
pub const AGG_BUCKETS: [BucketSpec; 3] =
    [BucketSpec::new(127, 32), BucketSpec::new(479, 128), BucketSpec::open_ended(128)];

/// Full configuration of a GPU Louvain run.
#[derive(Clone, Copy, Debug)]
pub struct GpuLouvainConfig {
    /// Iteration threshold while the graph has more vertices than
    /// [`GpuLouvainConfig::size_limit`] (the paper's `th_bin`, default 1e-2).
    pub threshold_bin: f64,
    /// Iteration threshold for small graphs (the paper's `th_final`,
    /// default 1e-6).
    pub threshold_final: f64,
    /// Vertex-count limit separating the two thresholds (100 000, following
    /// Lu et al.).
    pub size_limit: usize,
    /// The outer loop ends when one stage improves modularity by less than
    /// this.
    pub stage_threshold: f64,
    /// Commit scheme (paper default: per bucket).
    pub update_strategy: UpdateStrategy,
    /// Hash-table placement (paper default: auto).
    pub hash_placement: HashPlacement,
    /// Thread assignment (paper default: degree-binned).
    pub assignment: ThreadAssignment,
    /// Safety cap on iterations within one optimization phase.
    pub max_iterations: usize,
    /// Safety cap on stages.
    pub max_stages: usize,
    /// Number of thread blocks used for the open-ended buckets that reuse
    /// global-memory hash tables (the paper assigns multiple tasks per block
    /// there because table storage is bounded).
    pub global_bucket_blocks: usize,
    /// Vertex pruning (extension; not in the paper): after the first
    /// iteration of a phase, only vertices whose neighborhood changed (they
    /// moved, or a neighbor moved) are re-evaluated. This is the standard
    /// optimization later GPU Louvain implementations adopted; it skips the
    /// converged bulk of the graph in late iterations at a usually-negligible
    /// quality cost (a vertex can in principle be re-attracted purely by a
    /// remote volume change, which pruning does not see).
    pub pruning: bool,
    /// How often (in iterations) the incrementally-tracked modularity is
    /// checked against a full device recompute. The incremental value is exact
    /// on integer-weighted graphs up to f64 rounding of the atomics, so the
    /// resync both bounds float drift and doubles as a memory-corruption
    /// tripwire under fault injection. The end of every phase always resyncs.
    pub resync_interval: usize,
    /// Retry policy for transient stage failures (fault-injecting devices).
    pub retry: RetryPolicy,
}

impl GpuLouvainConfig {
    /// The configuration the paper settled on: `th_bin = 1e-2`,
    /// `th_final = 1e-6`.
    pub fn paper_default() -> Self {
        Self {
            threshold_bin: 1e-2,
            threshold_final: 1e-6,
            size_limit: 100_000,
            stage_threshold: 1e-6,
            update_strategy: UpdateStrategy::PerBucket,
            hash_placement: HashPlacement::Auto,
            assignment: ThreadAssignment::DegreeBinned,
            max_iterations: 1000,
            max_stages: 500,
            global_bucket_blocks: 120,
            pruning: false,
            resync_interval: 16,
            retry: RetryPolicy::default_policy(),
        }
    }

    /// Same as [`Self::paper_default`] but with an explicit threshold pair —
    /// the knob Figs. 1 and 2 sweep.
    pub fn with_thresholds(threshold_bin: f64, threshold_final: f64) -> Self {
        Self { threshold_bin, threshold_final, ..Self::paper_default() }
    }

    /// The paper's two-level threshold rule these fields describe:
    /// `threshold_bin` while a stage's graph has more than `size_limit`
    /// vertices, `threshold_final` after.
    pub fn threshold_schedule(&self) -> ThresholdSchedule {
        ThresholdSchedule::two_level(self.threshold_bin, self.threshold_final, self.size_limit)
    }
}

impl Default for GpuLouvainConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_tables_match_paper() {
        // Groups 1..=4 use 2^(k+1) lanes; group 5 a warp; 6 and 7 a block.
        assert_eq!(MODOPT_BUCKETS[0], BucketSpec::new(4, 4));
        assert_eq!(MODOPT_BUCKETS[3], BucketSpec::new(32, 32));
        assert_eq!(MODOPT_BUCKETS[4], BucketSpec::new(84, 32));
        assert_eq!(MODOPT_BUCKETS[5], BucketSpec::new(319, 128));
        assert_eq!(MODOPT_BUCKETS[6].lanes, 128);
        assert!(MODOPT_BUCKETS[6].is_open_ended());
        assert_eq!(AGG_BUCKETS[0], BucketSpec::new(127, 32));
        assert!(AGG_BUCKETS[2].is_open_ended());
    }

    #[test]
    #[should_panic(expected = "launchable group width")]
    fn bucket_spec_rejects_unlaunchable_widths() {
        let _ = BucketSpec::new(10, 7);
    }

    #[test]
    #[should_panic(expected = "admit some work")]
    fn bucket_spec_rejects_empty_buckets() {
        let _ = BucketSpec::new(0, 32);
    }

    #[test]
    fn default_thresholds() {
        let c = GpuLouvainConfig::default();
        assert_eq!(c.threshold_bin, 1e-2);
        assert_eq!(c.threshold_final, 1e-6);
        assert_eq!(c.size_limit, 100_000);
        let c2 = GpuLouvainConfig::with_thresholds(1e-3, 1e-7);
        assert_eq!(c2.threshold_bin, 1e-3);
        assert_eq!(c2.threshold_final, 1e-7);
    }
}
