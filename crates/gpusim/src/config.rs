//! Device description and first-order cost model.
//!
//! The defaults model the Tesla K40m the paper evaluated on: 15 SMX units,
//! 745 MHz, 4 warp schedulers per SM, 48 KiB of shared memory per block,
//! 12 GiB of global memory. The cost constants are throughput costs (cycles
//! per operation once latency is hidden), which is the regime a well-occupied
//! GPU kernel runs in; they produce a *first-order* cycle estimate used to
//! compare kernels and configurations, not to predict absolute wall time.

/// Static description of the simulated device.
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// Human-readable device name (reports only).
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Warp schedulers per SM (issue slots per cycle).
    pub schedulers_per_sm: usize,
    /// Threads per warp. Fixed at 32 on every real device; kept configurable
    /// for tests.
    pub warp_size: usize,
    /// Warps per thread block. The paper uses 4 (128-thread blocks)
    /// throughout.
    pub warps_per_block: usize,
    /// Shared memory available to one block, in bytes.
    pub shared_mem_per_block: usize,
    /// Shared memory per SM, shared among its resident blocks (bounds
    /// occupancy).
    pub shared_mem_per_sm: usize,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: usize,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: usize,
    /// Global memory, in bytes. Allocation beyond this is a launch error,
    /// mirroring the paper's note that device memory bounds solvable sizes.
    pub global_mem_bytes: usize,
    /// Core clock in MHz (used to convert model cycles to model time).
    pub clock_mhz: f64,
    /// Cost model: cycles per warp-wide instruction issue.
    pub cycles_per_warp_step: f64,
    /// Cost model: cycles per 128-byte global-memory transaction.
    pub cycles_per_global_transaction: f64,
    /// Cost model: cycles per shared-memory access (per warp, conflict-free).
    pub cycles_per_shared_access: f64,
    /// Cost model: cycles per global atomic (add or CAS).
    pub cycles_per_atomic: f64,
    /// Fixed kernel launch overhead, in cycles.
    pub launch_overhead_cycles: f64,
    /// Deterministic fault-injection plan (disabled by default).
    pub fault_plan: crate::fault::FaultPlan,
    /// Execution profile: [`crate::Profile::Instrumented`] keeps counters,
    /// cycle model, and fault injection; [`crate::Profile::Racecheck`] adds
    /// the race detector; [`crate::Profile::Parallel`] compiles accounting
    /// out and runs blocks as direct scalar loops. The stock constructors
    /// honour the `CD_GPUSIM_PROFILE` environment variable (see
    /// [`crate::Profile::from_env`]).
    pub profile: crate::profile::Profile,
    /// Host worker threads that run a launch's blocks (see
    /// [`crate::schedule`]), under every profile. `0` (the default) means
    /// "auto": use `std::thread::available_parallelism`. The stock
    /// constructors honour the `CD_GPUSIM_THREADS` environment variable.
    pub threads: usize,
}

/// Reads `CD_GPUSIM_THREADS` (see [`threads_from_env_value`]).
fn threads_from_env() -> usize {
    threads_from_env_value(std::env::var("CD_GPUSIM_THREADS").ok().as_deref())
}

/// A `CD_GPUSIM_THREADS` value as a thread count: unset or empty is `0`
/// ("auto"), a non-negative integer is taken as is, and anything else panics
/// rather than quietly running at a different width than the one asked for.
fn threads_from_env_value(value: Option<&str>) -> usize {
    value.map(str::trim).filter(|v| !v.is_empty()).map_or(0, |v| {
        v.parse().unwrap_or_else(|_| {
            panic!(
                "CD_GPUSIM_THREADS={v:?} is not a thread count; \
                 expected a non-negative integer (0 = one per core)"
            )
        })
    })
}

impl DeviceConfig {
    /// A Tesla-K40m-like configuration (the paper's device).
    pub fn tesla_k40m() -> Self {
        Self {
            name: "sim-K40m".to_string(),
            num_sms: 15,
            schedulers_per_sm: 4,
            warp_size: 32,
            warps_per_block: 4,
            shared_mem_per_block: 48 * 1024,
            shared_mem_per_sm: 48 * 1024,
            max_blocks_per_sm: 16,
            max_warps_per_sm: 64,
            global_mem_bytes: 12 * 1024 * 1024 * 1024,
            clock_mhz: 745.0,
            cycles_per_warp_step: 1.0,
            cycles_per_global_transaction: 8.0,
            cycles_per_shared_access: 1.0,
            cycles_per_atomic: 16.0,
            launch_overhead_cycles: 4000.0,
            fault_plan: crate::fault::FaultPlan::disabled(),
            profile: crate::profile::Profile::from_env(),
            threads: threads_from_env(),
        }
    }

    /// A tiny configuration for unit tests (2 SMs, 1 KiB shared memory) so
    /// resource-limit paths are easy to exercise.
    pub fn test_tiny() -> Self {
        Self {
            name: "sim-tiny".to_string(),
            num_sms: 2,
            schedulers_per_sm: 1,
            warp_size: 32,
            warps_per_block: 4,
            shared_mem_per_block: 1024,
            shared_mem_per_sm: 2048,
            max_blocks_per_sm: 4,
            max_warps_per_sm: 16,
            global_mem_bytes: 16 * 1024 * 1024,
            clock_mhz: 100.0,
            cycles_per_warp_step: 1.0,
            cycles_per_global_transaction: 8.0,
            cycles_per_shared_access: 1.0,
            cycles_per_atomic: 16.0,
            launch_overhead_cycles: 100.0,
            fault_plan: crate::fault::FaultPlan::disabled(),
            profile: crate::profile::Profile::from_env(),
            threads: threads_from_env(),
        }
    }

    /// Returns the configuration with the given fault-injection plan.
    pub fn with_fault_plan(mut self, plan: crate::fault::FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Returns the configuration with the given execution profile.
    pub fn with_profile(mut self, profile: crate::profile::Profile) -> Self {
        self.profile = profile;
        self
    }

    /// Returns the configuration with the given block-scheduler thread count
    /// (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The thread count launches actually use: `threads` if explicitly set,
    /// otherwise the host's available parallelism. Always at least 1.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        }
    }

    /// Checks cross-field consistency. An active fault plan requires the
    /// instrumented profile (fault draws live in the instrumented launch
    /// path) and is incompatible with race detection (injected flips are not
    /// program accesses and would masquerade as races); see
    /// [`crate::ConfigError::FaultsRequireInstrumented`] and
    /// [`crate::ConfigError::FaultsIncompatibleWithRacecheck`].
    pub fn validate(&self) -> Result<(), crate::profile::ConfigError> {
        if self.fault_plan.is_active() && self.profile.is_racecheck() {
            return Err(crate::profile::ConfigError::FaultsIncompatibleWithRacecheck);
        }
        if self.fault_plan.is_active() && !self.profile.is_instrumented() {
            return Err(crate::profile::ConfigError::FaultsRequireInstrumented);
        }
        Ok(())
    }

    /// Threads per block (`warp_size * warps_per_block`; 128 in the paper).
    pub fn block_threads(&self) -> usize {
        self.warp_size * self.warps_per_block
    }

    /// Converts model cycles to model seconds using the clock and the
    /// device-wide issue width.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / (self.clock_mhz * 1e6)
    }

    /// Total issue slots per cycle across the device — the denominator the
    /// cost model divides per-warp work by.
    pub fn device_issue_width(&self) -> f64 {
        (self.num_sms * self.schedulers_per_sm) as f64
    }

    /// Static occupancy of a kernel whose blocks use
    /// `shared_bytes_per_block` bytes of shared memory: resident warps per
    /// SM divided by the maximum (the standard CUDA occupancy-calculator
    /// quantity, shared-memory- and block-slot-limited; registers are not
    /// modeled).
    pub fn occupancy(&self, shared_bytes_per_block: usize) -> f64 {
        let resident = self.resident_warps_per_sm(shared_bytes_per_block);
        resident as f64 / self.max_warps_per_sm as f64
    }

    /// Resident warps per SM for a kernel with the given per-block
    /// shared-memory footprint.
    pub fn resident_warps_per_sm(&self, shared_bytes_per_block: usize) -> usize {
        let by_shared = self
            .shared_mem_per_sm
            .checked_div(shared_bytes_per_block)
            .unwrap_or(self.max_blocks_per_sm);
        let by_warps = self.max_warps_per_sm / self.warps_per_block;
        let blocks = self.max_blocks_per_sm.min(by_shared).min(by_warps);
        blocks * self.warps_per_block
    }

    /// Eligible warps per scheduler per cycle, as an occupancy-based upper
    /// bound — the quantity the paper's profiling quotes ("on average 3.4
    /// eligible warps ... to choose from").
    pub fn eligible_warps_per_scheduler(&self, shared_bytes_per_block: usize) -> f64 {
        self.resident_warps_per_sm(shared_bytes_per_block) as f64 / self.schedulers_per_sm as f64
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::tesla_k40m()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k40m_shape() {
        let c = DeviceConfig::tesla_k40m();
        assert_eq!(c.block_threads(), 128);
        assert_eq!(c.device_issue_width(), 60.0);
    }

    #[test]
    fn occupancy_model() {
        let c = DeviceConfig::tesla_k40m();
        // No shared memory: block-slot limited (16 blocks x 4 warps = 64).
        assert_eq!(c.resident_warps_per_sm(0), 64);
        assert_eq!(c.occupancy(0), 1.0);
        // 6 KiB per block: 48 KiB / 6 KiB = 8 blocks = 32 warps.
        assert_eq!(c.resident_warps_per_sm(6 * 1024), 32);
        assert_eq!(c.occupancy(6 * 1024), 0.5);
        // Huge footprint: one block resident.
        assert_eq!(c.resident_warps_per_sm(40 * 1024), 4);
        assert!(c.eligible_warps_per_scheduler(40 * 1024) - 1.0 < 1e-12);
        // Full occupancy: 64 warps / 4 schedulers = 16 eligible.
        assert_eq!(c.eligible_warps_per_scheduler(0), 16.0);
    }

    #[test]
    fn cycle_time_conversion() {
        let c = DeviceConfig::test_tiny();
        let s = c.cycles_to_seconds(1e8);
        assert!((s - 1.0).abs() < 1e-9); // 100 MHz
    }

    #[test]
    fn effective_threads_resolution() {
        use crate::profile::Profile;
        // Every profile honours an explicit count.
        for p in [Profile::Instrumented, Profile::Racecheck, Profile::Parallel] {
            let c = DeviceConfig::test_tiny().with_profile(p).with_threads(8);
            assert_eq!(c.effective_threads(), 8);
        }
        // Auto (0) resolves to the core count.
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let c = DeviceConfig::test_tiny().with_profile(Profile::Instrumented).with_threads(0);
        assert_eq!(c.effective_threads(), cores);
    }

    #[test]
    fn threads_env_value_parses_counts_or_defaults_to_auto() {
        assert_eq!(threads_from_env_value(None), 0);
        assert_eq!(threads_from_env_value(Some("")), 0);
        assert_eq!(threads_from_env_value(Some("0")), 0);
        assert_eq!(threads_from_env_value(Some(" 8\n")), 8);
    }

    #[test]
    #[should_panic(
        expected = "CD_GPUSIM_THREADS=\"eight\" is not a thread count; expected a non-negative integer"
    )]
    fn threads_env_value_garbage_fails_loudly() {
        threads_from_env_value(Some("eight"));
    }

    #[test]
    fn faults_are_rejected_on_the_parallel_profile() {
        use crate::profile::{ConfigError, Profile};
        let plan = crate::fault::FaultPlan::seeded(7).with_abort_rate(0.1);
        let c = DeviceConfig::test_tiny().with_fault_plan(plan).with_profile(Profile::Parallel);
        assert_eq!(c.validate(), Err(ConfigError::FaultsRequireInstrumented));
        assert!(DeviceConfig::test_tiny().with_profile(Profile::Parallel).validate().is_ok());
    }

    #[test]
    fn faults_are_rejected_on_the_racecheck_profile() {
        use crate::profile::{ConfigError, Profile};
        let plan = crate::fault::FaultPlan::seeded(7).with_bitflip_rate(0.01);
        let c = DeviceConfig::test_tiny().with_fault_plan(plan).with_profile(Profile::Racecheck);
        assert_eq!(c.validate(), Err(ConfigError::FaultsIncompatibleWithRacecheck));
        // An inactive plan is fine under racecheck.
        assert!(DeviceConfig::test_tiny().with_profile(Profile::Racecheck).validate().is_ok());
    }
}
