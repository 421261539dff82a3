//! Hardware-counter-style metrics, the simulator's replacement for `nvprof`.
//!
//! Each kernel launch aggregates per-block counters (collected without
//! synchronization on the hot path) into a per-kernel-name record. The
//! profiling numbers the paper reports — fraction of active lanes per warp
//! ("62.5% of the threads in a warp are active"), eligible warps, memory and
//! atomic traffic — are all derived from these.

use crate::config::DeviceConfig;
use crate::fault::FaultStats;
use crate::pool::PoolStats;
use crate::racecheck::RaceReport;
use std::collections::HashMap;
use std::time::Duration;

/// Cap on the deduplicated [`RaceReport`]s retained device-wide between
/// metric resets. Past launches keep counting into
/// [`MetricsReport::race_events`], but their reports are dropped — a sweep
/// with hundreds of racy launches still yields a bounded report.
const MAX_RACE_REPORTS: usize = 256;

/// Counters accumulated by one block while it executes. Cheap plain fields;
/// merged into the device store once per block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockCounters {
    /// SIMT steps executed, weighted by group width: one step of a `w`-lane
    /// group adds `w` lane-slots.
    pub lane_slots: u64,
    /// Lane-slots in which the lane was actually active (predicated on).
    pub active_lanes: u64,
    /// Global-memory words read.
    pub global_reads: u64,
    /// Global-memory words written.
    pub global_writes: u64,
    /// Estimated coalesced 128-byte global transactions.
    pub global_transactions: u64,
    /// Shared-memory words accessed.
    pub shared_accesses: u64,
    /// Global atomic add operations.
    pub atomic_adds: u64,
    /// Global CAS operations attempted.
    pub cas_ops: u64,
    /// CAS operations that failed (lost the race).
    pub cas_failures: u64,
    /// Block-wide barriers.
    pub barriers: u64,
    /// Tasks processed.
    pub tasks: u64,
    /// Hash-table inserts that fell back from shared to global memory
    /// because the shared table overflowed (recoverable capacity fault).
    pub table_fallbacks: u64,
}

impl BlockCounters {
    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &BlockCounters) {
        self.lane_slots += other.lane_slots;
        self.active_lanes += other.active_lanes;
        self.global_reads += other.global_reads;
        self.global_writes += other.global_writes;
        self.global_transactions += other.global_transactions;
        self.shared_accesses += other.shared_accesses;
        self.atomic_adds += other.atomic_adds;
        self.cas_ops += other.cas_ops;
        self.cas_failures += other.cas_failures;
        self.barriers += other.barriers;
        self.tasks += other.tasks;
        self.table_fallbacks += other.table_fallbacks;
    }
}

/// Aggregated metrics for one kernel name.
#[derive(Clone, Debug, Default)]
pub struct KernelMetrics {
    /// Number of launches under this name.
    pub launches: u64,
    /// Blocks executed across all launches.
    pub blocks: u64,
    /// Merged counters.
    pub counters: BlockCounters,
    /// Wall-clock time spent inside launches.
    pub wall_time: Duration,
    /// Largest per-block shared-memory footprint across launches (drives the
    /// occupancy estimate).
    pub shared_bytes_per_block: usize,
}

impl KernelMetrics {
    /// Fraction of lane-slots that were active — the per-warp occupancy
    /// number from the paper's profiling discussion.
    pub fn active_lane_fraction(&self) -> f64 {
        if self.counters.lane_slots == 0 {
            return 0.0;
        }
        self.counters.active_lanes as f64 / self.counters.lane_slots as f64
    }

    /// CAS retry rate (failures / attempts).
    pub fn cas_failure_rate(&self) -> f64 {
        if self.counters.cas_ops == 0 {
            return 0.0;
        }
        self.counters.cas_failures as f64 / self.counters.cas_ops as f64
    }

    /// Static occupancy under `cfg` given this kernel's shared-memory
    /// footprint (resident warps / max warps per SM).
    pub fn occupancy(&self, cfg: &DeviceConfig) -> f64 {
        cfg.occupancy(self.shared_bytes_per_block)
    }

    /// Occupancy-bounded eligible warps per scheduler — the paper's
    /// "3.4 eligible warps per cycle" profiling quantity.
    pub fn eligible_warps_per_scheduler(&self, cfg: &DeviceConfig) -> f64 {
        cfg.eligible_warps_per_scheduler(self.shared_bytes_per_block)
    }

    /// First-order model cycles for this kernel under `cfg` (see
    /// [`DeviceConfig`] for the model).
    pub fn model_cycles(&self, cfg: &DeviceConfig) -> f64 {
        let warp_steps = self.counters.lane_slots as f64 / cfg.warp_size as f64;
        let work = warp_steps * cfg.cycles_per_warp_step
            + self.counters.global_transactions as f64 * cfg.cycles_per_global_transaction
            + (self.counters.shared_accesses as f64 / cfg.warp_size as f64)
                * cfg.cycles_per_shared_access
            + (self.counters.atomic_adds + self.counters.cas_ops) as f64 * cfg.cycles_per_atomic;
        work / cfg.device_issue_width() + self.launches as f64 * cfg.launch_overhead_cycles
    }
}

/// Snapshot of all kernel metrics of a device, in first-launch order.
#[derive(Clone, Debug, Default)]
pub struct MetricsReport {
    entries: Vec<(String, KernelMetrics)>,
    faults: FaultStats,
    pool: PoolStats,
    profile: crate::profile::Profile,
    threads: usize,
    races: Vec<RaceReport>,
    race_events: u64,
}

impl MetricsReport {
    pub(crate) fn new(
        entries: Vec<(String, KernelMetrics)>,
        faults: FaultStats,
        pool: PoolStats,
        profile: crate::profile::Profile,
        threads: usize,
        races: Vec<RaceReport>,
        race_events: u64,
    ) -> Self {
        Self { entries, faults, pool, profile, threads, races, race_events }
    }

    /// Deduplicated race reports from [`crate::Racecheck`] launches (one per
    /// racy site pair, capped; see [`MetricsReport::race_events`] for the raw
    /// conflict count). Always empty under the other profiles.
    pub fn races(&self) -> &[RaceReport] {
        &self.races
    }

    /// Total conflicting-access events observed by the race detector,
    /// including those deduplicated away or past the report cap.
    pub fn race_events(&self) -> u64 {
        self.race_events
    }

    /// The execution profile of the device that produced this report. Under
    /// [`crate::Profile::Parallel`] no kernel entries are recorded — consumers
    /// should report that explicitly rather than print zeroed counters.
    pub fn profile(&self) -> crate::profile::Profile {
        self.profile
    }

    /// Host worker threads the device ran its blocks on (see
    /// [`DeviceConfig::effective_threads`]): the resolved `CD_GPUSIM_THREADS`
    /// count, under every profile.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Fault-injection counters: injected by the device, detected/recovered
    /// as reported by the driver.
    pub fn faults(&self) -> &FaultStats {
        &self.faults
    }

    /// Buffer-pool counters (hits, misses, bytes recycled/allocated).
    pub fn pool(&self) -> &PoolStats {
        &self.pool
    }

    /// Per-kernel entries in first-launch order.
    pub fn kernels(&self) -> &[(String, KernelMetrics)] {
        &self.entries
    }

    /// Metrics for one kernel name, if it was launched.
    pub fn kernel(&self, name: &str) -> Option<&KernelMetrics> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }

    /// Sum over all kernels.
    pub fn total(&self) -> KernelMetrics {
        let mut total = KernelMetrics::default();
        for (_, m) in &self.entries {
            total.launches += m.launches;
            total.blocks += m.blocks;
            total.counters.merge(&m.counters);
            total.wall_time += m.wall_time;
        }
        total
    }

    /// Total model cycles across kernels.
    pub fn total_model_cycles(&self, cfg: &DeviceConfig) -> f64 {
        self.entries.iter().map(|(_, m)| m.model_cycles(cfg)).sum()
    }
}

/// Mutable store behind the device mutex.
#[derive(Debug, Default)]
pub(crate) struct MetricsStore {
    order: Vec<String>,
    map: HashMap<String, KernelMetrics>,
    pub(crate) faults: FaultStats,
    races: Vec<RaceReport>,
    race_events: u64,
}

impl MetricsStore {
    pub(crate) fn record_launch(
        &mut self,
        name: &str,
        blocks: u64,
        counters: BlockCounters,
        wall: Duration,
        shared_bytes_per_block: usize,
    ) {
        let entry = self.map.entry(name.to_string()).or_insert_with(|| {
            self.order.push(name.to_string());
            KernelMetrics::default()
        });
        entry.launches += 1;
        entry.blocks += blocks;
        entry.counters.merge(&counters);
        entry.wall_time += wall;
        entry.shared_bytes_per_block = entry.shared_bytes_per_block.max(shared_bytes_per_block);
    }

    /// Folds one launch's drained race shadow into the device-wide log.
    pub(crate) fn absorb_races(&mut self, reports: Vec<RaceReport>, events: u64) {
        self.race_events += events;
        let room = MAX_RACE_REPORTS.saturating_sub(self.races.len());
        self.races.extend(reports.into_iter().take(room));
    }

    /// Deduplicated race reports retained so far.
    pub(crate) fn races(&self) -> &[RaceReport] {
        &self.races
    }

    pub(crate) fn snapshot(
        &self,
        pool: PoolStats,
        profile: crate::profile::Profile,
        threads: usize,
    ) -> MetricsReport {
        MetricsReport::new(
            self.order.iter().map(|name| (name.clone(), self.map[name].clone())).collect(),
            self.faults,
            pool,
            profile,
            threads,
            self.races.clone(),
            self.race_events,
        )
    }

    pub(crate) fn reset(&mut self) {
        self.order.clear();
        self.map.clear();
        self.faults = FaultStats::default();
        self.races.clear();
        self.race_events = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = BlockCounters { lane_slots: 10, active_lanes: 5, ..Default::default() };
        let b =
            BlockCounters { lane_slots: 6, active_lanes: 6, atomic_adds: 2, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.lane_slots, 16);
        assert_eq!(a.active_lanes, 11);
        assert_eq!(a.atomic_adds, 2);
    }

    #[test]
    fn active_fraction() {
        let m = KernelMetrics {
            launches: 1,
            blocks: 1,
            counters: BlockCounters { lane_slots: 64, active_lanes: 40, ..Default::default() },
            wall_time: Duration::ZERO,
            shared_bytes_per_block: 0,
        };
        assert!((m.active_lane_fraction() - 0.625).abs() < 1e-12);
    }

    #[test]
    fn store_keeps_launch_order() {
        let mut s = MetricsStore::default();
        s.record_launch("b", 1, BlockCounters::default(), Duration::ZERO, 64);
        s.record_launch("a", 1, BlockCounters::default(), Duration::ZERO, 0);
        s.record_launch("b", 2, BlockCounters::default(), Duration::ZERO, 32);
        let r = s.snapshot(PoolStats::default(), crate::profile::Profile::Instrumented, 1);
        assert_eq!(r.threads(), 1);
        assert_eq!(r.kernels()[0].0, "b");
        assert_eq!(r.kernels()[1].0, "a");
        assert_eq!(r.kernel("b").unwrap().launches, 2);
        assert_eq!(r.kernel("b").unwrap().blocks, 3);
        assert_eq!(r.total().blocks, 4);
    }

    #[test]
    fn model_cycles_monotone_in_work() {
        let cfg = DeviceConfig::test_tiny();
        let mk = |slots: u64| KernelMetrics {
            launches: 1,
            blocks: 1,
            counters: BlockCounters { lane_slots: slots, ..Default::default() },
            wall_time: Duration::ZERO,
            shared_bytes_per_block: 0,
        };
        assert!(mk(1000).model_cycles(&cfg) < mk(100_000).model_cycles(&cfg));
    }
}
