//! The device and its kernel launchers.
//!
//! Launches mirror the paper's three assignment shapes (Section 4.1):
//!
//! * [`Device::launch_tasks`] — one task per thread group of a chosen width
//!   (subwarp groups for low-degree vertices, one warp for mid-degree, one
//!   block for high-degree). Consecutive tasks pack into 128-thread blocks.
//! * [`Device::launch_blocks`] — explicit block-level control, for kernels
//!   that assign *multiple* tasks to one block and reuse its (global) hash
//!   table storage sequentially — the paper's bucket-7 path.
//! * [`Device::launch_threads`] — plain elementwise kernels (initialization,
//!   community-label updates), executed as warps with full occupancy.
//!
//! Every profile runs a launch's blocks on the persistent work-claiming pool
//! in [`crate::schedule`], [`DeviceConfig::effective_threads`] wide. Under
//! the lockstep profiles each block owns private [`BlockCounters`], summed
//! into the device metrics once per block, so the kernel body takes no
//! locks. Under [`crate::Parallel`] the lockstep emulation is bypassed:
//! blocks run as direct scalar loops, with per-participant scratch reuse and
//! no per-warp accounting.
//!
//! Every launcher has a fallible `try_*` form returning
//! [`Result`]`<(), `[`LaunchError`]`>`. Configuration errors (bad group
//! width, shared-memory overflow) and injected faults (kernel abort, stuck
//! block — see [`crate::fault`]) surface there; the infallible wrappers
//! panic on any error, preserving the original fail-fast behaviour for
//! callers that opt out of fault handling.
//!
//! The methods on [`Device`] are the *instrumented* entry points (counters
//! merged, launch recorded, faults drawn). Profile-generic drivers instead
//! obtain a typed launcher with [`Device::exec`] and write their kernels
//! against `GroupCtx<P>`; under [`crate::Parallel`] the same launch shapes
//! skip the counter merge, the metric record, and the fault draw entirely.

use crate::config::DeviceConfig;
use crate::fault::{mix64, unit_f64, FaultStats, LaunchError, LaunchFault};
use crate::group::{GroupCtx, VALID_GROUP_LANES};
use crate::memory::{GlobalF64, GlobalU32};
use crate::metrics::{BlockCounters, MetricsReport, MetricsStore};
use crate::pool::PoolStore;
use crate::profile::{ConfigError, ExecutionProfile, Instrumented};
use crate::racecheck::{BlockGuard, LaunchShadow};
use crate::schedule::run_blocks;
use parking_lot::Mutex;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A simulated GPU.
#[derive(Debug)]
pub struct Device {
    cfg: DeviceConfig,
    metrics: Mutex<MetricsStore>,
    pool: Mutex<PoolStore>,
    /// Per-device decision sequence for launch faults; advancing it is what
    /// makes a retried launch draw a fresh fault decision.
    launch_seq: AtomicU64,
    /// Separate sequence for memory-corruption points.
    corrupt_seq: AtomicU64,
}

impl Device {
    /// Creates a device with the given configuration. Panics when the
    /// configuration is invalid (see [`Device::try_new`]).
    pub fn new(cfg: DeviceConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Device::new`]: rejects inconsistent configurations,
    /// e.g. an active fault plan combined with [`crate::Profile::Parallel`]
    /// ([`ConfigError::FaultsRequireInstrumented`]).
    pub fn try_new(cfg: DeviceConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Self {
            cfg,
            metrics: Mutex::new(MetricsStore::default()),
            pool: Mutex::new(PoolStore::default()),
            launch_seq: AtomicU64::new(0),
            corrupt_seq: AtomicU64::new(0),
        })
    }

    /// A device with the paper's K40m-like defaults.
    pub fn k40m() -> Self {
        Self::new(DeviceConfig::tesla_k40m())
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// The execution profile this device was configured with.
    pub fn profile(&self) -> crate::profile::Profile {
        self.cfg.profile
    }

    /// A profile-typed launcher. Drivers that are generic over
    /// `P: ExecutionProfile` launch through this handle so their kernels
    /// monomorphize against `GroupCtx<P>`:
    ///
    /// ```
    /// use cd_gpusim::{dispatch_profile, Device, DeviceConfig, ExecutionProfile, GlobalU32, Profile};
    ///
    /// fn histogram<P: ExecutionProfile>(dev: &Device, counts: &GlobalU32) {
    ///     dev.exec::<P>().launch_threads("histogram", 1000, |ctx, t| {
    ///         ctx.atomic_add_u32(counts, t as usize % 4, 1);
    ///     });
    /// }
    ///
    /// let dev = Device::new(DeviceConfig::tesla_k40m().with_profile(Profile::Parallel));
    /// let counts = GlobalU32::zeroed(4);
    /// dispatch_profile!(dev.profile(), P => histogram::<P>(&dev, &counts));
    /// assert_eq!(counts.to_vec(), vec![250, 250, 250, 250]);
    /// assert!(dev.metrics().kernels().is_empty()); // Parallel records nothing
    /// ```
    pub fn exec<P: ExecutionProfile>(&self) -> Exec<'_, P> {
        Exec { dev: self, _profile: PhantomData }
    }

    /// Snapshot of all kernel metrics recorded so far. The report states the
    /// profile that produced it; under [`crate::Profile::Parallel`] no kernel
    /// entries exist (launches are not recorded) rather than entries full of
    /// zeroed counters.
    pub fn metrics(&self) -> MetricsReport {
        self.metrics.lock().snapshot(
            self.pool.lock().stats,
            self.cfg.profile,
            self.cfg.effective_threads(),
        )
    }

    /// Clears all recorded metrics (including fault and pool counters).
    /// Pooled allocations themselves survive the reset.
    pub fn reset_metrics(&self) {
        self.metrics.lock().reset();
        self.pool.lock().reset_stats();
    }

    /// The buffer-pool free lists (see [`crate::pool`]).
    pub(crate) fn pool_store(&self) -> std::sync::MutexGuard<'_, PoolStore> {
        self.pool.lock()
    }

    /// Fault counters recorded so far (injected / detected / recovered).
    pub fn fault_stats(&self) -> FaultStats {
        self.metrics.lock().faults
    }

    /// Records that the driver detected a fault (launch error observed or an
    /// invariant check caught corruption).
    pub fn note_fault_detected(&self) {
        self.metrics.lock().faults.detected += 1;
    }

    /// Records that the driver recovered from a detected fault (retry or
    /// failover succeeded).
    pub fn note_fault_recovered(&self) {
        self.metrics.lock().faults.recovered += 1;
    }

    pub(crate) fn record(
        &self,
        name: &str,
        blocks: u64,
        counters: BlockCounters,
        wall: Duration,
        shared_bytes_per_block: usize,
    ) {
        self.metrics.lock().record_launch(name, blocks, counters, wall, shared_bytes_per_block);
    }

    /// Folds a completed launch's race shadow (if any) into the device race
    /// log. Called once per `Racecheck` launch, after every block has run.
    fn absorb_shadow(&self, shadow: Option<Arc<LaunchShadow>>) {
        if let Some(shadow) = shadow {
            let (reports, events) = shadow.drain();
            if events > 0 {
                self.metrics.lock().absorb_races(reports, events);
            }
        }
    }

    /// Race reports accumulated by [`crate::Racecheck`] launches since the
    /// last [`Device::reset_metrics`]. Empty under the other profiles.
    pub fn race_reports(&self) -> Vec<crate::racecheck::RaceReport> {
        self.metrics.lock().races().to_vec()
    }

    /// Draws the fault decision for the next launch. Sequence numbers advance
    /// per launch attempt, so the schedule is deterministic for a seed but a
    /// retry is a fresh draw.
    fn next_launch_fault(&self) -> LaunchFault {
        if !self.cfg.fault_plan.is_active() {
            return LaunchFault::None;
        }
        let seq = self.launch_seq.fetch_add(1, Ordering::Relaxed);
        self.cfg.fault_plan.launch_decision(seq)
    }

    /// Resolves a fault decision against the launch's block count, counts the
    /// injection, and returns `(first_skipped_block, stuck_block)`:
    /// blocks `>= first_skipped_block` do not run (abort), and the single
    /// `stuck_block` (if any) does not run (hang).
    fn apply_fault(&self, fault: LaunchFault, n_blocks: usize) -> (usize, Option<usize>) {
        match fault {
            LaunchFault::None => (n_blocks, None),
            LaunchFault::Abort { selector } => {
                self.metrics.lock().faults.aborts_injected += 1;
                ((selector % n_blocks as u64) as usize, None)
            }
            LaunchFault::Stuck { selector } => {
                self.metrics.lock().faults.timeouts_injected += 1;
                (n_blocks, Some((selector % n_blocks as u64) as usize))
            }
        }
    }

    /// Builds the launch result for a resolved fault decision.
    fn fault_outcome(
        &self,
        fault: LaunchFault,
        name: &str,
        run_limit: usize,
        stuck: Option<usize>,
        n_blocks: usize,
    ) -> Result<(), LaunchError> {
        match fault {
            LaunchFault::None => Ok(()),
            LaunchFault::Abort { .. } => Err(LaunchError::KernelAborted {
                kernel: name.to_string(),
                completed_blocks: run_limit as u64,
                total_blocks: n_blocks as u64,
            }),
            LaunchFault::Stuck { .. } => Err(LaunchError::WatchdogTimeout {
                kernel: name.to_string(),
                stuck_block: stuck.unwrap_or(0) as u64,
                cycle_budget: self.cfg.fault_plan.watchdog_cycle_budget,
            }),
        }
    }

    /// Launches `n_tasks` tasks, one per thread group of `lanes` lanes.
    ///
    /// `lanes` must be one of 4, 8, 16, 32, or 128 (the widths of the paper's
    /// buckets). `shared_bytes_per_task` declares the shared-memory footprint
    /// of one task's scratch (hash tables); the launch panics if a full
    /// block's worth of tasks exceeds the per-block shared-memory budget —
    /// the caller must route such tasks to a global-memory kernel instead,
    /// exactly as the paper does for its largest buckets.
    ///
    /// `block_state` builds per-block reusable scratch (allocated once per
    /// block, not per task) and `kernel` runs once per task.
    ///
    /// Panics on configuration errors *and* on injected faults; fault-aware
    /// drivers use [`Device::try_launch_tasks`].
    pub fn launch_tasks<S, I, F>(
        &self,
        name: &str,
        n_tasks: usize,
        lanes: usize,
        shared_bytes_per_task: usize,
        block_state: I,
        kernel: F,
    ) where
        S: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut GroupCtx, &mut S, usize) + Sync,
    {
        self.exec::<Instrumented>().launch_tasks(
            name,
            n_tasks,
            lanes,
            shared_bytes_per_task,
            block_state,
            kernel,
        );
    }

    /// Fallible form of [`Device::launch_tasks`]: configuration errors and
    /// injected faults are returned instead of panicking. An aborted launch
    /// has executed a prefix of its blocks (partial effects persist); a
    /// watchdog timeout has executed all blocks but one.
    pub fn try_launch_tasks<S, I, F>(
        &self,
        name: &str,
        n_tasks: usize,
        lanes: usize,
        shared_bytes_per_task: usize,
        block_state: I,
        kernel: F,
    ) -> Result<(), LaunchError>
    where
        S: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut GroupCtx, &mut S, usize) + Sync,
    {
        self.exec::<Instrumented>().try_launch_tasks(
            name,
            n_tasks,
            lanes,
            shared_bytes_per_task,
            block_state,
            kernel,
        )
    }

    /// Launches `n_blocks` blocks; the kernel body receives a block-wide
    /// (128-lane) [`GroupCtx`] and the block id, and is responsible for its
    /// own task iteration. Used for the paper's interleaved multi-task-per-
    /// block assignment with reused global-memory hash tables.
    ///
    /// Panics on injected faults; fault-aware drivers use
    /// [`Device::try_launch_blocks`].
    pub fn launch_blocks<S, I, F>(&self, name: &str, n_blocks: usize, block_state: I, kernel: F)
    where
        S: Send,
        I: Fn(usize) -> S + Sync,
        F: Fn(&mut GroupCtx, &mut S) + Sync,
    {
        self.exec::<Instrumented>().launch_blocks(name, n_blocks, block_state, kernel);
    }

    /// Fallible form of [`Device::launch_blocks`].
    pub fn try_launch_blocks<S, I, F>(
        &self,
        name: &str,
        n_blocks: usize,
        block_state: I,
        kernel: F,
    ) -> Result<(), LaunchError>
    where
        S: Send,
        I: Fn(usize) -> S + Sync,
        F: Fn(&mut GroupCtx, &mut S) + Sync,
    {
        self.exec::<Instrumented>().try_launch_blocks(name, n_blocks, block_state, kernel)
    }

    /// Elementwise kernel over `n_threads` virtual threads, scheduled as full
    /// warps. The kernel receives the thread index; the context is warp-wide.
    ///
    /// Panics on injected faults; fault-aware drivers use
    /// [`Device::try_launch_threads`].
    pub fn launch_threads<F>(&self, name: &str, n_threads: usize, kernel: F)
    where
        F: Fn(&mut GroupCtx, usize) + Sync,
    {
        self.exec::<Instrumented>().launch_threads(name, n_threads, kernel);
    }

    /// Fallible form of [`Device::launch_threads`].
    pub fn try_launch_threads<F>(
        &self,
        name: &str,
        n_threads: usize,
        kernel: F,
    ) -> Result<(), LaunchError>
    where
        F: Fn(&mut GroupCtx, usize) + Sync,
    {
        self.exec::<Instrumented>().try_launch_threads(name, n_threads, kernel)
    }

    /// Offers a `u32` buffer for transient corruption: flips hash-chosen bits
    /// at the plan's `bitflip_rate` per cell. Drivers call this at stage
    /// boundaries (a deterministic point in program order), which keeps the
    /// corruption schedule independent of worker-thread timing. Returns the
    /// number of bits flipped. No-op (and free) when bit flips are disabled.
    pub fn corrupt_u32(&self, tag: &str, buf: &GlobalU32) -> u64 {
        self.corrupt_cells(tag, buf.len(), 32, |idx, bit| buf.flip_bit(idx, bit))
    }

    /// Offers an `f64` buffer for transient corruption; see
    /// [`Device::corrupt_u32`].
    pub fn corrupt_f64(&self, tag: &str, buf: &GlobalF64) -> u64 {
        self.corrupt_cells(tag, buf.len(), 64, |idx, bit| buf.flip_bit(idx, bit))
    }

    fn corrupt_cells(
        &self,
        tag: &str,
        len: usize,
        bits_per_cell: u64,
        flip: impl Fn(usize, u32),
    ) -> u64 {
        let plan = &self.cfg.fault_plan;
        if plan.bitflip_rate <= 0.0 || len == 0 {
            return 0;
        }
        let seq = self.corrupt_seq.fetch_add(1, Ordering::Relaxed);
        let mut tag_hash: u64 = 0xcbf29ce484222325;
        for b in tag.bytes() {
            tag_hash = (tag_hash ^ b as u64).wrapping_mul(0x100000001b3);
        }
        let base = mix64(plan.seed ^ mix64(seq ^ 0x00C0_44C5_D00D_F1E5) ^ tag_hash);
        // Deterministic draw of the flip count: floor(expected) plus one more
        // with probability equal to the fractional part.
        let expected = len as f64 * plan.bitflip_rate;
        let mut count = expected.floor() as u64;
        if unit_f64(mix64(base ^ 0x11)) < expected.fract() {
            count += 1;
        }
        for i in 0..count {
            let h = mix64(base ^ (0x1000 + i));
            let idx = (h % len as u64) as usize;
            let bit = (mix64(h ^ 0x22) % bits_per_cell) as u32;
            flip(idx, bit);
        }
        if count > 0 {
            self.metrics.lock().faults.bitflips_injected += count;
        }
        count
    }
}

/// Profile-typed launcher handle obtained from [`Device::exec`].
///
/// Carries the same three launch shapes as [`Device`], but generic over an
/// [`ExecutionProfile`] `P`: kernels receive `GroupCtx<P>`, so one kernel
/// source monomorphizes into an instrumented variant (counters, cycle model,
/// fault draws, metric records — exactly [`Device`]'s own launch methods) and
/// a [`crate::Parallel`] variant whose accounting compiles to no-ops and whose
/// launches skip the per-block counter merge, the metric record, and the
/// fault draw. Execution *semantics* — task→group assignment, block
/// concurrency, shared-memory budgets, group-width validation — are identical
/// under every profile.
pub struct Exec<'d, P: ExecutionProfile = Instrumented> {
    dev: &'d Device,
    _profile: PhantomData<P>,
}

impl<P: ExecutionProfile> Clone for Exec<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P: ExecutionProfile> Copy for Exec<'_, P> {}

impl<'d, P: ExecutionProfile> Exec<'d, P> {
    /// The device this launcher targets.
    pub fn device(&self) -> &'d Device {
        self.dev
    }

    /// Profile-generic [`Device::launch_tasks`]; panics on any error.
    pub fn launch_tasks<S, I, F>(
        &self,
        name: &str,
        n_tasks: usize,
        lanes: usize,
        shared_bytes_per_task: usize,
        block_state: I,
        kernel: F,
    ) where
        S: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut GroupCtx<P>, &mut S, usize) + Sync,
    {
        self.try_launch_tasks(name, n_tasks, lanes, shared_bytes_per_task, block_state, kernel)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Profile-generic [`Device::try_launch_tasks`].
    pub fn try_launch_tasks<S, I, F>(
        &self,
        name: &str,
        n_tasks: usize,
        lanes: usize,
        shared_bytes_per_task: usize,
        block_state: I,
        kernel: F,
    ) -> Result<(), LaunchError>
    where
        S: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut GroupCtx<P>, &mut S, usize) + Sync,
    {
        let dev = self.dev;
        let block_threads = dev.cfg.block_threads();
        if !VALID_GROUP_LANES.contains(&lanes) || lanes > block_threads {
            return Err(LaunchError::InvalidGroupWidth { lanes });
        }
        let tasks_per_block = block_threads / lanes;
        let shared_per_block = shared_bytes_per_task * tasks_per_block;
        if shared_per_block > dev.cfg.shared_mem_per_block {
            return Err(LaunchError::SharedMemoryExceeded {
                kernel: name.to_string(),
                required: shared_per_block,
                available: dev.cfg.shared_mem_per_block,
            });
        }
        let n_blocks = n_tasks.div_ceil(tasks_per_block);
        let run_tasks = |state: &mut S, block: usize, counters: &mut BlockCounters| {
            let lo = block * tasks_per_block;
            for task in lo..(lo + tasks_per_block).min(n_tasks) {
                if P::RACECHECK {
                    // Distinct groups within a block are concurrent hardware
                    // warps — except when one task spans the whole block
                    // (lanes == block_threads): then successive tasks are
                    // sequential iterations of the *same* threads, so they
                    // share one logical actor.
                    crate::racecheck::set_group(if lanes == block_threads { 0 } else { task });
                }
                let mut ctx = GroupCtx::<P>::typed(block, lanes, counters);
                kernel(&mut ctx, state, task);
                ctx.finish_task();
            }
        };
        if !P::INSTRUMENTED && n_blocks > 0 {
            // Parallel builds the per-block scratch once per *participant*
            // and reuses it across every block it claims — kernels reset
            // their scratch per task, so a launch allocates at most
            // `threads` states instead of `n_blocks`. Each participant
            // claims blocks until none remain and drops its state on its
            // own thread, so what a state borrowed from its thread (the
            // hash tables' key index) goes back to that thread.
            let threads = dev.cfg.effective_threads();
            let next = AtomicUsize::new(0);
            run_blocks(threads, threads.min(n_blocks), |_| {
                let mut state = None;
                loop {
                    let block = next.fetch_add(1, Ordering::Relaxed);
                    if block >= n_blocks {
                        return;
                    }
                    let state = state.get_or_insert_with(&block_state);
                    run_tasks(state, block, &mut BlockCounters::default());
                }
            });
            return Ok(());
        }
        self.run(name, n_blocks, shared_per_block, |block, counters| {
            run_tasks(&mut block_state(), block, counters)
        })
    }

    /// Profile-generic [`Device::launch_blocks`]; panics on any error.
    pub fn launch_blocks<S, I, F>(&self, name: &str, n_blocks: usize, block_state: I, kernel: F)
    where
        S: Send,
        I: Fn(usize) -> S + Sync,
        F: Fn(&mut GroupCtx<P>, &mut S) + Sync,
    {
        self.try_launch_blocks(name, n_blocks, block_state, kernel)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Profile-generic [`Device::try_launch_blocks`].
    pub fn try_launch_blocks<S, I, F>(
        &self,
        name: &str,
        n_blocks: usize,
        block_state: I,
        kernel: F,
    ) -> Result<(), LaunchError>
    where
        S: Send,
        I: Fn(usize) -> S + Sync,
        F: Fn(&mut GroupCtx<P>, &mut S) + Sync,
    {
        // Block-wide kernels keep per-block state under every profile (its
        // shape can depend on the block id — e.g. per-block table
        // capacities), and have one group per block, so the race detector's
        // logical actor stays 0 for the block's whole lifetime.
        let block_threads = self.dev.cfg.block_threads();
        self.run(name, n_blocks, 0, |block, counters| {
            let mut state = block_state(block);
            kernel(&mut GroupCtx::<P>::typed(block, block_threads, counters), &mut state);
        })
    }

    /// Profile-generic [`Device::launch_threads`]; panics on any error.
    pub fn launch_threads<F>(&self, name: &str, n_threads: usize, kernel: F)
    where
        F: Fn(&mut GroupCtx<P>, usize) + Sync,
    {
        self.try_launch_threads(name, n_threads, kernel).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Profile-generic [`Device::try_launch_threads`].
    pub fn try_launch_threads<F>(
        &self,
        name: &str,
        n_threads: usize,
        kernel: F,
    ) -> Result<(), LaunchError>
    where
        F: Fn(&mut GroupCtx<P>, usize) + Sync,
    {
        let block_threads = self.dev.cfg.block_threads();
        let warp = self.dev.cfg.warp_size;
        self.run(name, n_threads.div_ceil(block_threads), 0, |block, counters| {
            let hi = ((block + 1) * block_threads).min(n_threads);
            let mut t = block * block_threads;
            while t < hi {
                // Parallel keeps no per-warp accounting: one flat loop per
                // block.
                let warp_hi = if P::INSTRUMENTED { (t + warp).min(hi) } else { hi };
                let mut ctx = GroupCtx::<P>::typed(block, warp, counters);
                ctx.step(warp_hi - t);
                for thread in t..warp_hi {
                    if P::RACECHECK {
                        // Elementwise kernels: every virtual thread is its own
                        // logical actor (its warp siblings are distinct
                        // hardware lanes, and warps interleave freely).
                        crate::racecheck::set_group(thread);
                    }
                    kernel(&mut ctx, thread);
                }
                t = warp_hi;
            }
        })
    }

    /// Runs blocks `0..n_blocks` of one launch on the block scheduler, each
    /// as `body(block, counters)`. That is all under [`crate::Parallel`].
    /// Under the lockstep profiles it also draws the launch's fault decision,
    /// skips the blocks an abort or a stuck block takes out, installs each
    /// block's race guard, records the launch with the sum of its blocks'
    /// counters (exact in any completion order: the counters are `u64`
    /// sums), and returns the fault's outcome.
    fn run(
        &self,
        name: &str,
        n_blocks: usize,
        shared_per_block: usize,
        body: impl Fn(usize, &mut BlockCounters) + Sync,
    ) -> Result<(), LaunchError> {
        let dev = self.dev;
        let threads = dev.cfg.effective_threads();
        if !P::INSTRUMENTED {
            run_blocks(threads, n_blocks, |block| body(block, &mut BlockCounters::default()));
            return Ok(());
        }
        if n_blocks == 0 {
            dev.record(name, 0, BlockCounters::default(), Duration::ZERO, shared_per_block);
            return Ok(());
        }
        let start = Instant::now();
        let fault = dev.next_launch_fault();
        let (run_limit, stuck) = dev.apply_fault(fault, n_blocks);
        let shadow = P::RACECHECK.then(|| Arc::new(LaunchShadow::new(name)));
        let totals = Mutex::new(BlockCounters::default());
        // An abort runs only the prefix `0..run_limit`; a stuck block runs
        // nothing.
        run_blocks(threads, run_limit, |block| {
            if Some(block) == stuck {
                return;
            }
            let _rc = shadow.as_ref().map(|s| BlockGuard::install(s.clone(), block));
            let mut counters = BlockCounters::default();
            body(block, &mut counters);
            totals.lock().merge(&counters);
        });
        let executed = run_limit - usize::from(stuck.is_some());
        dev.record(name, executed as u64, totals.into_inner(), start.elapsed(), shared_per_block);
        dev.absorb_shadow(shadow);
        dev.fault_outcome(fault, name, run_limit, stuck, n_blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::memory::{GlobalF64, GlobalU32};
    use crate::profile::Profile;

    fn tiny() -> Device {
        // Counter-asserting tests must not be flipped by CD_GPUSIM_PROFILE.
        Device::new(DeviceConfig::test_tiny().with_profile(Profile::Instrumented))
    }

    fn faulty(plan: FaultPlan) -> Device {
        let mut cfg = DeviceConfig::test_tiny().with_profile(Profile::Instrumented);
        cfg.fault_plan = plan;
        Device::new(cfg)
    }

    #[test]
    fn launch_tasks_visits_every_task_once() {
        let dev = tiny();
        let hits = GlobalU32::zeroed(1000);
        dev.launch_tasks(
            "visit",
            1000,
            8,
            0,
            || (),
            |ctx, _, task| {
                ctx.atomic_add_u32(&hits, task, 1);
            },
        );
        assert!(hits.to_vec().iter().all(|&h| h == 1));
        let m = dev.metrics();
        let k = m.kernel("visit").unwrap();
        assert_eq!(k.counters.tasks, 1000);
        // 128-thread blocks, 16 tasks of width 8 each => 63 blocks.
        assert_eq!(k.blocks, 1000usize.div_ceil(16) as u64);
    }

    #[test]
    fn launch_tasks_block_state_reused_within_block() {
        let dev = tiny();
        // Count state constructions: must equal the number of blocks, not tasks.
        let constructions = GlobalU32::zeroed(1);
        dev.launch_tasks(
            "state",
            256,
            32,
            0,
            || {
                constructions.atomic_add(0, 1);
            },
            |_, _, _| {},
        );
        // 4 tasks of width 32 per 128-thread block => 64 blocks.
        assert_eq!(constructions.load(0), 64);
    }

    #[test]
    #[should_panic(expected = "shared-memory budget")]
    fn shared_memory_budget_enforced() {
        let dev = tiny(); // 1 KiB per block
        dev.launch_tasks("too-big", 10, 4, 512, || (), |_, _, _| {});
    }

    #[test]
    fn try_launch_reports_config_errors() {
        let dev = tiny();
        let e = dev.try_launch_tasks("too-big", 10, 4, 512, || (), |_, _, _: usize| {});
        assert!(matches!(e, Err(LaunchError::SharedMemoryExceeded { .. })));
        let e = dev.try_launch_tasks("bad", 1, 5, 0, || (), |_, _, _: usize| {});
        assert_eq!(e, Err(LaunchError::InvalidGroupWidth { lanes: 5 }));
    }

    #[test]
    fn launch_threads_full_coverage_and_occupancy() {
        let dev = tiny();
        let out = GlobalF64::zeroed(300);
        dev.launch_threads("triple", 300, |ctx, t| {
            out.store(t, t as f64 * 3.0);
            ctx.global_write_coalesced(1);
        });
        let v = out.to_vec();
        assert!((0..300).all(|t| v[t] == t as f64 * 3.0));
        let m = dev.metrics();
        let k = m.kernel("triple").unwrap();
        // 300 threads in warps of 32: 9 full warps + one 12-active warp.
        assert_eq!(k.counters.lane_slots, 10 * 32);
        assert_eq!(k.counters.active_lanes, 300);
        assert!(k.active_lane_fraction() < 1.0);
    }

    #[test]
    fn launch_blocks_runs_each_block() {
        let dev = tiny();
        let sum = GlobalU32::zeroed(1);
        dev.launch_blocks(
            "blocks",
            7,
            |b| b as u32,
            |ctx, state| {
                ctx.atomic_add_u32(&sum, 0, *state);
            },
        );
        assert_eq!(sum.load(0), (0..7).sum::<u32>());
        assert_eq!(dev.metrics().kernel("blocks").unwrap().blocks, 7);
    }

    #[test]
    fn zero_task_launch_is_recorded() {
        let dev = tiny();
        dev.launch_tasks("empty", 0, 4, 0, || (), |_, _, _: usize| {});
        let m = dev.metrics();
        assert_eq!(m.kernel("empty").unwrap().launches, 1);
        assert_eq!(m.kernel("empty").unwrap().blocks, 0);
    }

    #[test]
    fn metrics_reset() {
        let dev = tiny();
        dev.launch_threads("k", 10, |_, _| {});
        assert!(dev.metrics().kernel("k").is_some());
        dev.reset_metrics();
        assert!(dev.metrics().kernel("k").is_none());
    }

    #[test]
    #[should_panic(expected = "not one of")]
    fn rejects_bad_group_width() {
        tiny().launch_tasks("bad", 1, 5, 0, || (), |_, _, _: usize| {});
    }

    #[test]
    fn parallel_launches_match_lockstep_and_record_nothing() {
        use crate::profile::Parallel;
        let cfg = DeviceConfig::test_tiny();
        let reference = {
            let dev = Device::new(cfg.clone().with_profile(Profile::Instrumented));
            let out = GlobalU32::zeroed(10);
            exercise::<Instrumented>(&dev, &out);
            out.to_vec()
        };
        fn exercise<P: ExecutionProfile>(dev: &Device, out: &GlobalU32) {
            let ex = dev.exec::<P>();
            ex.launch_threads("init", 500, |ctx, t| {
                ctx.atomic_add_u32(out, t % 10, 1);
            });
            ex.launch_tasks(
                "tasks",
                100,
                8,
                0,
                || (),
                |ctx, _, task| {
                    ctx.atomic_add_u32(out, task % 10, 1);
                },
            );
            ex.launch_blocks(
                "blocks",
                3,
                |b| b as u32,
                |ctx, b| {
                    ctx.atomic_add_u32(out, *b as usize, 5);
                },
            );
        }
        for threads in [1, 2, 8] {
            let dev =
                Device::new(cfg.clone().with_profile(Profile::Parallel).with_threads(threads));
            let out = GlobalU32::zeroed(10);
            exercise::<Parallel>(&dev, &out);
            assert_eq!(out.to_vec(), reference, "threads={threads}");
            let m = dev.metrics();
            assert!(m.kernels().is_empty(), "Parallel records no kernel entries");
            assert_eq!(m.profile(), Profile::Parallel);
        }
    }

    #[test]
    fn parallel_task_scratch_is_per_participant_not_per_block() {
        use crate::profile::Parallel;
        // 256 tasks of width 32 => 64 blocks. Lockstep builds 64 states (see
        // launch_tasks_block_state_reused_within_block); the native path
        // builds at most one per participant.
        let count_states = |threads: usize| {
            let dev = Device::new(
                DeviceConfig::test_tiny().with_profile(Profile::Parallel).with_threads(threads),
            );
            let constructions = GlobalU32::zeroed(1);
            dev.exec::<Parallel>().launch_tasks(
                "state",
                256,
                32,
                0,
                || {
                    constructions.atomic_add(0, 1);
                },
                |_, _, _| {},
            );
            constructions.load(0)
        };
        assert_eq!(count_states(1), 1);
        let c = count_states(4);
        assert!((1..=4).contains(&c), "expected <= 4 states, got {c}");
    }

    #[test]
    fn parallel_task_scratch_is_dropped_on_the_thread_that_built_it() {
        use crate::profile::Parallel;
        use std::thread::{self, ThreadId};
        struct State<'a> {
            built_on: ThreadId,
            strays: &'a GlobalU32,
        }
        impl Drop for State<'_> {
            fn drop(&mut self) {
                if thread::current().id() != self.built_on {
                    self.strays.atomic_add(0, 1);
                }
            }
        }
        let dev =
            Device::new(DeviceConfig::test_tiny().with_profile(Profile::Parallel).with_threads(4));
        let strays = GlobalU32::zeroed(1);
        for _ in 0..8 {
            dev.exec::<Parallel>().launch_tasks(
                "state",
                256,
                32,
                0,
                || State { built_on: thread::current().id(), strays: &strays },
                |_, _, _| thread::yield_now(),
            );
        }
        assert_eq!(strays.load(0), 0);
    }

    #[test]
    fn parallel_launch_errors_still_surface() {
        use crate::profile::Parallel;
        let dev = Device::new(DeviceConfig::test_tiny().with_profile(Profile::Parallel));
        let ex = dev.exec::<Parallel>();
        let e = ex.try_launch_tasks("bad", 1, 5, 0, || (), |_, _, _: usize| {});
        assert_eq!(e, Err(LaunchError::InvalidGroupWidth { lanes: 5 }));
        let e = ex.try_launch_tasks("big", 10, 4, 512, || (), |_, _, _: usize| {});
        assert!(matches!(e, Err(LaunchError::SharedMemoryExceeded { .. })));
    }

    #[test]
    fn try_new_rejects_faults_on_parallel() {
        let cfg = DeviceConfig::test_tiny()
            .with_fault_plan(FaultPlan::seeded(1).with_abort_rate(0.5))
            .with_profile(Profile::Parallel);
        assert!(matches!(Device::try_new(cfg), Err(ConfigError::FaultsRequireInstrumented)));
    }

    #[test]
    fn racecheck_launches_flag_plain_write_sharing_but_not_atomics() {
        use crate::profile::Racecheck;
        let dev = Device::new(DeviceConfig::test_tiny().with_profile(Profile::Racecheck));
        let out = GlobalU32::zeroed(1);
        dev.exec::<Racecheck>().launch_threads("atomic-histogram", 256, |ctx, _| {
            ctx.atomic_add_u32(&out, 0, 1);
        });
        assert!(dev.race_reports().is_empty(), "atomic contention is not a race");
        assert_eq!(out.load(0), 256);

        dev.exec::<Racecheck>().launch_threads("plain-store", 256, |_, t| {
            out.store(0, t as u32);
        });
        let reports = dev.race_reports();
        // 256 threads in two 128-thread blocks: the same site pair races both
        // within a block and across blocks, and dedup is per (pair, class).
        assert_eq!(reports.len(), 2, "one deduplicated report per (site pair, class)");
        let classes: Vec<_> = reports.iter().map(|r| r.class).collect();
        assert!(classes.contains(&crate::racecheck::RaceClass::IntraBlock));
        assert!(classes.contains(&crate::racecheck::RaceClass::InterBlock));
        assert_eq!(reports[0].kernel, "plain-store");
        let m = dev.metrics();
        assert!(m.race_events() > 1, "raw event count keeps every conflict");
        // The report names the racy buffer's allocation site in this file.
        assert!(reports[0].to_string().contains("launch.rs"), "{}", reports[0]);
    }

    /// Runs one launch of each shape on `dev` and returns its recorded
    /// `(name, launches, blocks, counters)` per kernel. No f64 atomics:
    /// their CAS retries count real contention, which does depend on how
    /// many blocks run at once.
    fn record_each_shape(dev: &Device) -> Vec<(String, u64, u64, BlockCounters)> {
        let out = GlobalU32::zeroed(64);
        dev.launch_tasks(
            "tasks",
            1000,
            8,
            16,
            || (),
            |ctx, _, task| {
                ctx.step(task % 8 + 1);
                ctx.global_read_scattered(task % 3);
                ctx.atomic_add_u32(&out, task % 64, 1);
            },
        );
        dev.launch_blocks(
            "blocks",
            37,
            |b| b,
            |ctx, b| {
                ctx.strided_steps(*b * 5 + 1);
                ctx.barrier();
                let _ = ctx.cas_u32(&out, *b % 64, 0, 1);
            },
        );
        dev.launch_threads("threads", 3000, |ctx, t| {
            ctx.global_write_coalesced(1);
            ctx.atomic_add_u32(&out, t % 64, 2);
        });
        let m = dev.metrics();
        ["tasks", "blocks", "threads"]
            .iter()
            .map(|&k| {
                let km = m.kernel(k).unwrap();
                (k.to_string(), km.launches, km.blocks, km.counters)
            })
            .collect()
    }

    fn instrumented_at(threads: usize) -> DeviceConfig {
        DeviceConfig::test_tiny().with_profile(Profile::Instrumented).with_threads(threads)
    }

    #[test]
    fn instrumented_records_the_same_at_every_thread_count() {
        let reference = record_each_shape(&Device::new(instrumented_at(1)));
        assert!(reference.iter().all(|(_, launches, blocks, c)| *launches == 1
            && *blocks > 1
            && c.atomic_adds + c.cas_ops > 0));
        for threads in [2, 8] {
            let got = record_each_shape(&Device::new(instrumented_at(threads)));
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn injected_faults_land_the_same_at_every_thread_count() {
        // (outcome, side effects that persist, recorded blocks) of one
        // faulty launch per thread count.
        let faulty_launch = |plan: FaultPlan, threads: usize| {
            let dev = Device::new(instrumented_at(threads).with_fault_plan(plan));
            let hits = GlobalU32::zeroed(1000);
            let r = dev.try_launch_tasks(
                "visit",
                1000,
                8,
                0,
                || (),
                |ctx, _, task| {
                    ctx.atomic_add_u32(&hits, task, 1);
                },
            );
            (r, hits.to_vec(), dev.metrics().kernel("visit").unwrap().blocks)
        };
        let abort = FaultPlan::seeded(9).with_abort_rate(1.0);
        let stuck = FaultPlan::seeded(3).with_stuck_rate(1.0);
        for plan in [abort, stuck] {
            let reference = faulty_launch(plan, 1);
            assert!(reference.0.is_err());
            for threads in [2, 8] {
                assert_eq!(faulty_launch(plan, threads), reference, "threads={threads}");
            }
        }
    }

    #[test]
    fn racecheck_reports_the_same_races_at_every_thread_count() {
        use crate::profile::Racecheck;
        let races = |threads: usize| {
            let dev = Device::new(
                DeviceConfig::test_tiny().with_profile(Profile::Racecheck).with_threads(threads),
            );
            let out = GlobalU32::zeroed(1);
            dev.exec::<Racecheck>().launch_threads("plain-store", 256, |_, t| {
                out.store(0, t as u32);
            });
            let mut found: Vec<_> = dev
                .race_reports()
                .iter()
                .map(|r| {
                    let mut pair = [r.first.site.to_string(), r.second.site.to_string()];
                    pair.sort();
                    (pair, r.class)
                })
                .collect();
            found.sort_by_key(|(pair, class)| (pair.clone(), format!("{class:?}")));
            found
        };
        let reference = races(1);
        assert_eq!(reference.len(), 2);
        assert_eq!(races(8), reference);
    }

    #[test]
    fn injected_abort_runs_a_prefix_and_errors() {
        // Abort every launch: the error must carry a completed-block prefix
        // and exactly that many tasks' side effects must have landed.
        let dev = faulty(FaultPlan::seeded(9).with_abort_rate(1.0));
        let hits = GlobalU32::zeroed(1000);
        let r = dev.try_launch_tasks(
            "visit",
            1000,
            8,
            0,
            || (),
            |ctx, _, task| {
                ctx.atomic_add_u32(&hits, task, 1);
            },
        );
        let Err(LaunchError::KernelAborted { completed_blocks, total_blocks, .. }) = r else {
            panic!("expected KernelAborted, got {r:?}");
        };
        assert_eq!(total_blocks, 63);
        assert!(completed_blocks < total_blocks);
        let done = hits.to_vec().iter().filter(|&&h| h == 1).count();
        // 16 tasks per block, last block partial.
        assert_eq!(done as u64, (completed_blocks * 16).min(1000));
        assert_eq!(dev.fault_stats().aborts_injected, 1);
    }

    #[test]
    fn injected_stuck_block_loses_its_work() {
        let dev =
            faulty(FaultPlan::seeded(3).with_stuck_rate(1.0).with_watchdog_cycle_budget(5000));
        let hits = GlobalU32::zeroed(640);
        let r = dev.try_launch_tasks(
            "visit",
            640,
            8,
            0,
            || (),
            |ctx, _, task| {
                ctx.atomic_add_u32(&hits, task, 1);
            },
        );
        let Err(LaunchError::WatchdogTimeout { stuck_block, cycle_budget, .. }) = r else {
            panic!("expected WatchdogTimeout, got {r:?}");
        };
        assert_eq!(cycle_budget, 5000);
        let v = hits.to_vec();
        let missed: Vec<usize> = (0..640).filter(|&t| v[t] == 0).collect();
        // Exactly one block's 16 tasks are lost.
        assert_eq!(missed.len(), 16);
        assert!(missed.iter().all(|&t| t / 16 == stuck_block as usize));
        assert_eq!(dev.fault_stats().timeouts_injected, 1);
    }

    #[test]
    fn fault_schedule_replays_for_a_seed() {
        let plan = FaultPlan::seeded(1234).with_abort_rate(0.3).with_stuck_rate(0.1);
        let run = || {
            let dev = faulty(plan);
            (0..40)
                .map(|i| {
                    dev.try_launch_threads("k", 256 + i, |_, _| {})
                        .map_err(|e| match e {
                            LaunchError::KernelAborted { completed_blocks, .. } => {
                                (0u8, completed_blocks)
                            }
                            LaunchError::WatchdogTimeout { stuck_block, .. } => (1u8, stuck_block),
                            other => panic!("unexpected {other}"),
                        })
                        .err()
                })
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.iter().any(|f| f.is_some()), "no faults at 40% combined rate");
    }

    #[test]
    fn corruption_flips_bits_deterministically() {
        let flips = |seed: u64| {
            let dev = faulty(FaultPlan::seeded(seed).with_bitflip_rate(0.05));
            let buf = GlobalU32::zeroed(400);
            let n = dev.corrupt_u32("labels", &buf);
            (n, buf.to_vec(), dev.fault_stats().bitflips_injected)
        };
        let (n1, v1, s1) = flips(77);
        let (n2, v2, _) = flips(77);
        assert_eq!(n1, n2);
        assert_eq!(v1, v2);
        assert_eq!(s1, n1);
        assert!(n1 > 0, "expected ~20 flips in 400 cells at 5%");
        let changed = v1.iter().filter(|&&x| x != 0).count() as u64;
        assert!(changed <= n1 && changed > 0);
    }

    #[test]
    fn corruption_disabled_is_free_and_silent() {
        let dev = tiny();
        let buf = GlobalF64::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(dev.corrupt_f64("weights", &buf), 0);
        assert_eq!(buf.to_vec(), vec![1.0, 2.0, 3.0]);
        assert_eq!(dev.fault_stats().injected(), 0);
    }

    #[test]
    fn detection_and_recovery_notes_are_counted() {
        let dev = tiny();
        dev.note_fault_detected();
        dev.note_fault_detected();
        dev.note_fault_recovered();
        let s = dev.metrics().faults().to_owned();
        assert_eq!(s.detected, 2);
        assert_eq!(s.recovered, 1);
    }
}
