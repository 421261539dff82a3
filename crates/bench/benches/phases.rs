//! Phase-level benchmarks: one modularity-optimization phase and one
//! aggregation phase of the GPU algorithm, against the sequential reference
//! phase — the building blocks of every end-to-end number in the paper.

use cd_core::{aggregate_graph, modularity_optimization, DeviceGraph, GpuLouvainConfig};
use cd_gpusim::Device;
use cd_workloads::{by_name, Scale};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_modopt_phase(c: &mut Criterion) {
    let mut group = c.benchmark_group("modopt_phase");
    for name in ["com-dblp", "uk2002", "road-usa"] {
        let built = by_name(name).unwrap().build(Scale::Tiny);
        let dg = DeviceGraph::from_csr(&built.graph);
        let dev = Device::k40m();
        let cfg = GpuLouvainConfig::paper_default();
        group.bench_function(BenchmarkId::new("gpu", name), |b| {
            b.iter(|| black_box(modularity_optimization(&dev, &dg, &cfg, 1e-2)));
        });
        group.bench_function(BenchmarkId::new("seq", name), |b| {
            b.iter(|| black_box(cd_baselines::one_level(&built.graph, 1e-2)));
        });
    }
    group.finish();
}

fn bench_aggregate_phase(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregate_phase");
    for name in ["com-dblp", "uk2002", "road-usa"] {
        let built = by_name(name).unwrap().build(Scale::Tiny);
        let dg = DeviceGraph::from_csr(&built.graph);
        let dev = Device::k40m();
        let cfg = GpuLouvainConfig::paper_default();
        // A realistic mid-run labeling: the outcome of one phase.
        let labeling = modularity_optimization(&dev, &dg, &cfg, 1e-2).unwrap().comm;
        group.bench_function(BenchmarkId::new("gpu", name), |b| {
            b.iter(|| black_box(aggregate_graph(&dev, &dg, &labeling, &cfg)));
        });
        let partition = cd_graph::Partition::from_vec(labeling.clone());
        group.bench_function(BenchmarkId::new("seq", name), |b| {
            b.iter(|| black_box(cd_graph::contract(&built.graph, &partition)));
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_modopt_phase, bench_aggregate_phase
}
criterion_main!(benches);
