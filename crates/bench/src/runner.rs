//! Thin wrappers that run each algorithm on a graph and collect the numbers
//! the experiments report.
//!
//! **Timing convention.** The host machine runs the SIMT *simulator*, so the
//! wall-clock time of a GPU run measures the simulator, not a device. Each
//! GPU run therefore reports two times:
//!
//! * `host_time` — wall clock of the simulation (honest, but
//!   machine-dependent and inflated by simulation overhead);
//! * `model_seconds` — the simulator's first-order cost model: counted warp
//!   issues, memory transactions and atomics, converted to seconds at the
//!   modeled device's clock and issue width (a K40m by default, the paper's
//!   device).
//!
//! Speedup figures quote the model time as the GPU time, which mirrors the
//! paper's measurement (device wall clock) as closely as a simulator can;
//! host time is printed alongside for transparency.
//!
//! **Execution profiles.** The cost model and kernel metrics only exist under
//! the [`Profile::Instrumented`] execution profile; under [`Profile::Parallel`]
//! the simulator compiles accounting out and `model_seconds` is zero. The
//! stock [`run_gpu`] honours the device default (the `CD_GPUSIM_PROFILE`
//! environment variable / `repro --profile`); experiments whose measurement
//! *is* the cost model must run instrumented, which the `repro` CLI enforces.
//! [`run_gpu_profiled`] pins a profile explicitly — the backend-comparison
//! experiment uses it to run the same workload under both.

use cd_baselines::{
    louvain_parallel_cpu, louvain_plm, louvain_sequential, ParallelCpuConfig, PlmConfig,
    SequentialConfig,
};
use cd_core::{louvain_gpu, GpuLouvainConfig, GpuLouvainResult};
use cd_gpusim::{Device, DeviceConfig, MetricsReport, Profile};
use cd_graph::{Csr, ThresholdSchedule};
use std::time::{Duration, Instant};

/// Result of a GPU run plus its device-side metrics.
pub struct GpuRun {
    /// The algorithm result.
    pub result: GpuLouvainResult,
    /// Wall time of the simulation on the host.
    pub host_time: Duration,
    /// Cost-model GPU time in seconds.
    pub model_seconds: f64,
    /// Kernel-level metrics of the run.
    pub metrics: MetricsReport,
    /// The device configuration used.
    pub device_config: DeviceConfig,
}

impl GpuRun {
    /// The execution profile that produced this run's numbers.
    pub fn profile(&self) -> Profile {
        self.device_config.profile
    }

    /// Wall time of the modularity-optimization phase (the quantity the
    /// backend comparison reports — meaningful under either profile).
    pub fn opt_wall(&self) -> Duration {
        self.result.opt_time()
    }

    /// Model-time TEPS of the first optimization iteration (the paper's TEPS
    /// metric): arcs hashed once, divided by the model time of the fraction
    /// of the run the first iteration represents.
    pub fn model_teps(&self) -> f64 {
        let first = match self.result.stages.first() {
            Some(s) if !s.iter_times.is_empty() => s,
            _ => return 0.0,
        };
        // Scale the total model time by the first iteration's share of host
        // time — both phases run on the same simulator, so host-time shares
        // are a reasonable proxy for model-time shares.
        let total_host = self.host_time.as_secs_f64();
        if total_host == 0.0 || self.model_seconds == 0.0 {
            return 0.0;
        }
        let share = first.iter_times[0].as_secs_f64() / total_host;
        let first_model = self.model_seconds * share;
        if first_model == 0.0 {
            return 0.0;
        }
        first.num_arcs as f64 / first_model
    }
}

/// Runs the GPU algorithm on a fresh simulated device with the default
/// execution profile (`CD_GPUSIM_PROFILE`, instrumented unless overridden).
pub fn run_gpu(graph: &Csr, cfg: &GpuLouvainConfig) -> GpuRun {
    run_gpu_on(graph, cfg, DeviceConfig::tesla_k40m())
}

/// Runs the GPU algorithm under an explicitly pinned execution profile,
/// ignoring the environment default.
pub fn run_gpu_profiled(graph: &Csr, cfg: &GpuLouvainConfig, profile: Profile) -> GpuRun {
    run_gpu_on(graph, cfg, DeviceConfig::tesla_k40m().with_profile(profile))
}

/// Runs the GPU algorithm under the native-parallel profile with an explicit
/// worker count (`0` = auto-detect), ignoring `CD_GPUSIM_THREADS`.
pub fn run_gpu_parallel(graph: &Csr, cfg: &GpuLouvainConfig, threads: usize) -> GpuRun {
    run_gpu_on(
        graph,
        cfg,
        DeviceConfig::tesla_k40m().with_profile(Profile::Parallel).with_threads(threads),
    )
}

/// Runs the GPU algorithm on a fresh device with an explicit configuration.
pub fn run_gpu_on(graph: &Csr, cfg: &GpuLouvainConfig, device_config: DeviceConfig) -> GpuRun {
    let dev = Device::new(device_config.clone());
    let start = Instant::now();
    let result = louvain_gpu(&dev, graph, cfg).expect("GPU run failed");
    let host_time = start.elapsed();
    let metrics = dev.metrics();
    let model_seconds = device_config.cycles_to_seconds(metrics.total_model_cycles(&device_config));
    GpuRun { result, host_time, model_seconds, metrics, device_config }
}

/// Runs the original sequential baseline.
pub fn run_seq(graph: &Csr) -> cd_baselines::LouvainResult {
    louvain_sequential(graph, &SequentialConfig::original())
}

/// The GPU's two-level threshold rule ([`GpuLouvainConfig::paper_default`]'s
/// `th_bin`/`th_final`) switching at `size_limit` vertices, so a baseline
/// compared against a GPU run shares its regime.
fn paper_schedule(size_limit: usize) -> ThresholdSchedule {
    GpuLouvainConfig { size_limit, ..GpuLouvainConfig::paper_default() }.threshold_schedule()
}

/// Runs the adaptive-threshold sequential baseline (paper Fig. 4) with an
/// explicit vertex-count limit for the coarse threshold.
pub fn run_seq_adaptive(graph: &Csr, size_limit: usize) -> cd_baselines::LouvainResult {
    let cfg =
        SequentialConfig { schedule: paper_schedule(size_limit), ..SequentialConfig::adaptive() };
    louvain_sequential(graph, &cfg)
}

/// Runs the CPU-parallel (OpenMP-style) baseline with the paper's thresholds
/// switching at `size_limit` vertices.
pub fn run_cpu_parallel(graph: &Csr, size_limit: usize) -> cd_baselines::LouvainResult {
    let cfg =
        ParallelCpuConfig { schedule: paper_schedule(size_limit), ..ParallelCpuConfig::default() };
    louvain_parallel_cpu(graph, &cfg)
}

/// Runs the PLM baseline.
pub fn run_plm(graph: &Csr) -> cd_baselines::LouvainResult {
    louvain_plm(graph, &PlmConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cd_graph::gen::cliques;

    #[test]
    fn gpu_run_collects_metrics_and_model_time() {
        // Metrics and the cost model are instrumented-profile products, so
        // the profile is pinned (the env default may be `Parallel`).
        let g = cliques(3, 6, true);
        let run = run_gpu_profiled(&g, &GpuLouvainConfig::paper_default(), Profile::Instrumented);
        assert_eq!(run.profile(), Profile::Instrumented);
        assert!(run.result.modularity > 0.5);
        assert!(run.model_seconds > 0.0);
        assert!(!run.metrics.kernels().is_empty());
        assert!(run.model_teps() >= 0.0);
    }

    #[test]
    fn parallel_run_matches_instrumented_and_reports_its_threads() {
        let g = cliques(3, 6, true);
        let cfg = GpuLouvainConfig::paper_default();
        let par = run_gpu_parallel(&g, &cfg, 2);
        let slow = run_gpu_profiled(&g, &cfg, Profile::Instrumented);
        assert_eq!(par.profile(), Profile::Parallel);
        assert_eq!(par.metrics.threads(), 2);
        assert_eq!(par.model_seconds, 0.0);
        assert!(par.metrics.kernels().is_empty());
        assert_eq!(par.result.modularity.to_bits(), slow.result.modularity.to_bits());
        assert_eq!(par.result.partition.as_slice(), slow.result.partition.as_slice());
    }

    #[test]
    fn baselines_run() {
        let g = cliques(3, 6, true);
        assert!(run_seq(&g).modularity > 0.5);
        assert!(run_seq_adaptive(&g, 10).modularity > 0.5);
        assert!(run_cpu_parallel(&g, 10).modularity > 0.5);
        assert!(run_plm(&g).modularity > 0.5);
    }
}
