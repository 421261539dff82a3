//! Runs all four algorithms of the paper's evaluation on one workload and
//! prints the comparison: the GPU algorithm, the original and adaptive
//! sequential Louvain, the fine-grained CPU-parallel Louvain (OpenMP
//! analogue), and PLM.
//!
//! The adaptive sequential, CPU-parallel and GPU runs switch from `th_bin`
//! to `th_final` at one limit, [`Scale::size_limit`] — the regime `repro`
//! runs its comparisons in — so the three share a threshold regime.
//!
//! ```text
//! cargo run --release --example compare_baselines [workload] [scale]
//! ```

use community_gpu::prelude::*;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map(String::as_str).unwrap_or("com-dblp");
    let scale = args
        .get(1)
        .map(|s| Scale::parse(s).expect("scale must be tiny|small|medium|large"))
        .unwrap_or(Scale::Small);

    let spec = workload_by_name(name).unwrap_or_else(|| {
        eprintln!("unknown workload '{name}'; available:");
        for w in WORKLOAD_SUITE {
            eprintln!("  {}", w.name);
        }
        std::process::exit(2);
    });
    let built = spec.build(scale);
    let g = &built.graph;
    println!(
        "workload {name} ({}) at {scale:?}: {} vertices, {} edges",
        spec.paper_analogue,
        g.num_vertices(),
        g.num_edges()
    );

    let gpu_cfg =
        GpuLouvainConfig { size_limit: scale.size_limit(), ..GpuLouvainConfig::paper_default() };
    let schedule = gpu_cfg.threshold_schedule();
    println!("threshold switch at {} vertices (adaptive, CPU parallel, GPU)", gpu_cfg.size_limit);

    println!("{:<22} {:>10} {:>10} {:>8}", "algorithm", "time", "Q", "stages");

    let t = Instant::now();
    let seq = louvain_sequential(g, &SequentialConfig::original());
    println!(
        "{:<22} {:>10.2?} {:>10.4} {:>8}",
        "sequential (Blondel)",
        t.elapsed(),
        seq.modularity,
        seq.stages.len()
    );

    let t = Instant::now();
    let adapt_cfg = SequentialConfig { schedule: schedule.clone(), ..SequentialConfig::adaptive() };
    let adapt = louvain_sequential(g, &adapt_cfg);
    println!(
        "{:<22} {:>10.2?} {:>10.4} {:>8}",
        "sequential adaptive",
        t.elapsed(),
        adapt.modularity,
        adapt.stages.len()
    );

    let t = Instant::now();
    let cpu = louvain_parallel_cpu(g, &ParallelCpuConfig { schedule, ..Default::default() });
    println!(
        "{:<22} {:>10.2?} {:>10.4} {:>8}",
        "CPU parallel (Lu etal)",
        t.elapsed(),
        cpu.modularity,
        cpu.stages.len()
    );

    let t = Instant::now();
    let plm = louvain_plm(g, &PlmConfig::default());
    println!(
        "{:<22} {:>10.2?} {:>10.4} {:>8}",
        "PLM (Staudt-Meyerh.)",
        t.elapsed(),
        plm.modularity,
        plm.stages.len()
    );

    let t = Instant::now();
    let colored = community_gpu::baselines::louvain_colored(
        g,
        &community_gpu::baselines::ColoredConfig::default(),
    );
    println!(
        "{:<22} {:>10.2?} {:>10.4} {:>8}",
        "colored (Lu etal)",
        t.elapsed(),
        colored.modularity,
        colored.stages.len()
    );

    let device = Device::k40m();
    let t = Instant::now();
    let gpu = louvain_gpu(&device, g, &gpu_cfg).unwrap();
    let host = t.elapsed();
    println!(
        "{:<22} {:>10.2?} {:>10.4} {:>8}",
        "GPU (this paper)",
        host,
        gpu.modularity,
        gpu.stages.len()
    );
    // Only the Instrumented profile records the counters the cost model
    // reads; under the others the model time is not defined.
    if device.profile() == Profile::Instrumented {
        let metrics = device.metrics();
        let model = device.config().cycles_to_seconds(metrics.total_model_cycles(device.config()));
        println!(
            "\nGPU cost-model time on a K40m: {model:.4}s  ->  {:.1}x vs sequential",
            seq.total_time.as_secs_f64() / model
        );
    }
    if let Some(truth) = &built.truth {
        println!("ground-truth modularity: {:.4}", modularity(g, truth));
    }
}
