//! Service observability: counters, latency distributions, and the
//! [`ServeMetrics`] snapshot the load generator serialises into
//! `BENCH_serve.json`.

use crate::cache::CacheStats;
use crate::scheduler::DeviceSlotStats;
use std::time::Duration;

/// Summary statistics of a latency sample set, in milliseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Median.
    pub p50_ms: f64,
    /// 90th percentile.
    pub p90_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Largest sample.
    pub max_ms: f64,
}

impl LatencyStats {
    /// Computes the summary of `samples` (milliseconds). Percentiles use the
    /// nearest-rank method on the sorted samples.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let rank = |q: f64| {
            let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
            sorted[idx]
        };
        Self {
            count: sorted.len(),
            mean_ms: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50_ms: rank(0.50),
            p90_ms: rank(0.90),
            p99_ms: rank(0.99),
            max_ms: *sorted.last().expect("non-empty"),
        }
    }
}

/// Smoothing factor of the execution-time estimator's EWMA.
const EXEC_EWMA_ALPHA: f64 = 0.3;

/// Mutable counter state the server updates as jobs move through their
/// lifecycle; snapshotted into [`ServeMetrics`].
#[derive(Clone, Debug, Default)]
pub(crate) struct MetricsState {
    pub submitted: u64,
    pub rejected: u64,
    pub rejected_queue_full: u64,
    pub rejected_slo: u64,
    pub completed: u64,
    pub failed: u64,
    pub cancelled: u64,
    pub expired: u64,
    /// Expiry breakdown by the checkpoint that observed it. The five sum to
    /// `expired`.
    pub expired_admission: u64,
    pub expired_sweep: u64,
    pub expired_dequeue: u64,
    pub expired_stage: u64,
    pub expired_settle: u64,
    /// Of `expired_dequeue`: sheds where the deadline had *not* yet passed
    /// but the estimated execution time already exceeded the remaining
    /// budget — the job was dropped early instead of burning device time.
    pub shed_predicted: u64,
    pub retried_jobs: u64,
    pub failed_over_jobs: u64,
    pub pooled_jobs: u64,
    pub sharded_jobs: u64,
    pub exchange_rounds: u64,
    pub ghost_bytes: u64,
    pub degraded_jobs: u64,
    pub delta_jobs: u64,
    pub warm_started_jobs: u64,
    pub cache_restored_entries: u64,
    pub cache_restore_failures: u64,
    pub in_flight: usize,
    pub max_in_flight: usize,
    /// EWMA of execution milliseconds per footprint byte over completed
    /// single-device runs — the basis of the SLO shedding estimate.
    pub exec_ewma_ms_per_byte: Option<f64>,
    /// Milliseconds each job spent queued (admission → placement).
    pub queue_wait_ms: Vec<f64>,
    /// Milliseconds each producing run spent executing.
    pub exec_ms: Vec<f64>,
    /// Milliseconds submission → terminal state, every job.
    pub total_ms: Vec<f64>,
}

impl MetricsState {
    pub(crate) fn record_queue_wait(&mut self, d: Duration) {
        self.queue_wait_ms.push(d.as_secs_f64() * 1e3);
    }

    /// Records an executed run. `footprint` feeds the execution-time
    /// estimator and is supplied for single-device runs only — pooled runs
    /// have a different cost shape and would skew the per-byte rate.
    pub(crate) fn record_exec(&mut self, d: Duration, footprint: Option<usize>) {
        let ms = d.as_secs_f64() * 1e3;
        self.exec_ms.push(ms);
        if let Some(bytes) = footprint.filter(|&b| b > 0) {
            let per_byte = ms / bytes as f64;
            self.exec_ewma_ms_per_byte = Some(match self.exec_ewma_ms_per_byte {
                None => per_byte,
                Some(old) => old + EXEC_EWMA_ALPHA * (per_byte - old),
            });
        }
    }

    /// Estimated execution time of a job with the given footprint, from the
    /// observed per-byte rate. `None` until at least one single-device run
    /// has completed — the estimator never sheds on zero evidence.
    pub(crate) fn estimate_exec(&self, footprint: usize) -> Option<Duration> {
        let per_byte = self.exec_ewma_ms_per_byte?;
        Some(Duration::from_secs_f64((per_byte * footprint as f64 / 1e3).max(0.0)))
    }

    pub(crate) fn record_total(&mut self, d: Duration) {
        self.total_ms.push(d.as_secs_f64() * 1e3);
    }
}

/// A point-in-time snapshot of everything the service counts, returned by
/// [`crate::Server::metrics`].
#[derive(Clone, Debug)]
pub struct ServeMetrics {
    /// Jobs admitted (assigned an id), including coalesced and cache-hit
    /// submissions.
    pub submitted: u64,
    /// Submissions refused at the door ([`crate::Rejected`]).
    pub rejected: u64,
    /// Of `rejected`: refused because the bounded queue was full.
    pub rejected_queue_full: u64,
    /// Of `rejected`: refused because the estimated execution time already
    /// exceeded the submitted deadline budget
    /// ([`crate::Rejected::WontMeetDeadline`]).
    pub rejected_slo: u64,
    /// Jobs that reached [`crate::JobStatus::Completed`].
    pub completed: u64,
    /// Jobs that reached [`crate::JobStatus::Failed`].
    pub failed: u64,
    /// Jobs that reached [`crate::JobStatus::Cancelled`].
    pub cancelled: u64,
    /// Jobs that reached [`crate::JobStatus::Expired`].
    pub expired: u64,
    /// Of `expired`: caught at admission (deadline already past at submit).
    pub expired_admission: u64,
    /// Of `expired`: caught by the periodic queue sweep.
    pub expired_sweep: u64,
    /// Of `expired`: caught at the queue-dequeue checkpoint (including
    /// predictive sheds — see `shed_predicted`).
    pub expired_dequeue: u64,
    /// Of `expired`: caught at a stage checkpoint mid-run.
    pub expired_stage: u64,
    /// Of `expired`: followers settled expired when their leader finished,
    /// and jobs whose deadline passed across a failed placement.
    pub expired_settle: u64,
    /// Of `expired_dequeue`: shed *before* the deadline passed because the
    /// estimated execution time exceeded the remaining budget.
    pub shed_predicted: u64,
    /// Placements retried on another device after a device-attributable
    /// failure (circuit-breaker failover).
    pub retried_jobs: u64,
    /// Jobs that completed via [`crate::ExecPath::FailedOver`].
    pub failed_over_jobs: u64,
    /// Circuit-breaker trips across the device pool.
    pub breaker_trips: u64,
    /// Half-open reinstatements across the device pool.
    pub breaker_reinstatements: u64,
    /// Device slots currently quarantined.
    pub quarantined_devices: usize,
    /// Jobs that ran the exclusive multi-device path.
    pub pooled_jobs: u64,
    /// Jobs that ran the sharded out-of-core engine (`cd_dist`): the graph
    /// was split across the pool with ghost vertices and halo label
    /// exchange because no single device could hold it.
    pub sharded_jobs: u64,
    /// Halo exchange rounds (supersteps) across all sharded jobs.
    pub exchange_rounds: u64,
    /// Bytes the halo exchanges moved across all sharded jobs.
    pub ghost_bytes: u64,
    /// Pooled jobs whose recovery log shows sequential degradation.
    pub degraded_jobs: u64,
    /// Delta submissions received through [`crate::Server::submit_delta`]
    /// past base resolution (whether they then queued, coalesced, or hit
    /// the cache).
    pub delta_jobs: u64,
    /// Producing runs that executed via the warm-start driver — seeded from
    /// the base's partition with a touched-vertex frontier — rather than
    /// from scratch.
    pub warm_started_jobs: u64,
    /// Cache entries restored from a snapshot at startup.
    pub cache_restored_entries: u64,
    /// Snapshot restores that failed (corrupt/unreadable snapshot → cold
    /// start). At most 1 per server lifetime today, counted for the gate.
    pub cache_restore_failures: u64,
    /// Jobs currently queued.
    pub queue_depth: usize,
    /// High-water mark of the queue depth.
    pub max_queue_depth: usize,
    /// Jobs currently executing on the pool.
    pub in_flight: usize,
    /// High-water mark of concurrent executions.
    pub max_in_flight: usize,
    /// Queue-wait latency (admission → placement) of placed jobs.
    pub queue_wait: LatencyStats,
    /// Execution latency of producing runs.
    pub exec: LatencyStats,
    /// End-to-end latency (submission → terminal state) of all jobs.
    pub total: LatencyStats,
    /// Result-cache counters.
    pub cache: CacheStats,
    /// Live cache entries.
    pub cache_entries: usize,
    /// Live cache bytes.
    pub cache_bytes: usize,
    /// Bytes of the distinct graphs the server holds: the graphs passed to
    /// [`crate::Server::submit`] that it keeps as delta bases, plus the
    /// graphs of jobs that have not settled, each allocation counted once.
    /// A settled job holds no graph, and a delta job's patched graph is
    /// kept as a delta base only as its (parent, batch) recipe.
    pub retained_graph_bytes: usize,
    /// Per-device-slot accounting.
    pub devices: Vec<DeviceSlotStats>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_percentiles_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        let s = LatencyStats::from_samples(&samples);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ms, 50.0);
        assert_eq!(s.p90_ms, 90.0);
        assert_eq!(s.p99_ms, 99.0);
        assert_eq!(s.max_ms, 100.0);
        assert!((s.mean_ms - 50.5).abs() < 1e-12);
    }

    #[test]
    fn latency_handles_empty_and_single() {
        assert_eq!(LatencyStats::from_samples(&[]).count, 0);
        let one = LatencyStats::from_samples(&[7.0]);
        assert_eq!((one.p50_ms, one.p99_ms, one.max_ms), (7.0, 7.0, 7.0));
    }
}
