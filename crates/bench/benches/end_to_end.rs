//! End-to-end pipelines: the full GPU algorithm against all three baselines
//! on representative workloads — the wall-clock counterpart of Table 1,
//! Fig. 3/4 (sequential variants) and Fig. 7 (CPU-parallel) plus the PLM
//! comparison.

use cd_baselines::{
    louvain_colored, louvain_parallel_cpu, louvain_plm, louvain_sequential, ColoredConfig,
    ParallelCpuConfig, PlmConfig, SequentialConfig,
};
use cd_bench::runner::run_seq_adaptive;
use cd_core::{louvain_gpu, GpuLouvainConfig};
use cd_gpusim::Device;
use cd_workloads::{by_name, Scale};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    for name in ["com-dblp", "uk2002", "road-usa"] {
        let built = by_name(name).unwrap().build(Scale::Tiny);
        let g = built.graph;

        group.bench_function(BenchmarkId::new("gpu", name), |b| {
            let dev = Device::k40m();
            b.iter(|| {
                black_box(louvain_gpu(&dev, &g, &GpuLouvainConfig::paper_default()).unwrap())
            });
        });
        group.bench_function(BenchmarkId::new("seq-original", name), |b| {
            b.iter(|| black_box(louvain_sequential(&g, &SequentialConfig::original())));
        });
        group.bench_function(BenchmarkId::new("seq-adaptive", name), |b| {
            b.iter(|| black_box(run_seq_adaptive(&g, Scale::Tiny.size_limit())));
        });
        group.bench_function(BenchmarkId::new("cpu-parallel", name), |b| {
            b.iter(|| black_box(louvain_parallel_cpu(&g, &ParallelCpuConfig::default())));
        });
        group.bench_function(BenchmarkId::new("plm", name), |b| {
            b.iter(|| black_box(louvain_plm(&g, &PlmConfig::default())));
        });
        group.bench_function(BenchmarkId::new("colored", name), |b| {
            b.iter(|| black_box(louvain_colored(&g, &ColoredConfig::default())));
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(4))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_end_to_end
}
criterion_main!(benches);
