//! One function per table/figure of the paper's evaluation (Section 5).
//! Each prints the rows/series the paper reports and saves them as CSV.
//! The `BENCH_*.json` snapshot experiments write through [`crate::snapshot`].
//! Every experiment returns an [`Outcome`]: `Err` lists the file that could
//! not be written or every failed gate.

use crate::report::{f4, ratio, secs, Table};
use crate::runner::{
    run_cpu_parallel, run_gpu, run_gpu_on, run_gpu_parallel, run_gpu_profiled, run_plm, run_seq,
    run_seq_adaptive, GpuRun,
};
use crate::snapshot::{
    best_of, create_out_dir, finish, gates, header, host_cores, obj, timed, Json, Outcome, REPS,
};
use cd_core::{GpuLouvainConfig, HashPlacement, ThreadAssignment, UpdateStrategy};
use cd_gpusim::{DeviceConfig, Profile};
use cd_workloads::{by_name, BuiltWorkload, Scale, WorkloadSpec, SUITE};
use std::path::Path;

/// Workload subset used by the threshold sweep and comparison experiments
/// (one representative per family, to bound runtime).
fn comparison_subset() -> Vec<&'static WorkloadSpec> {
    ["orkut", "uk2002", "audikw", "nlpkkt", "rgg-sparse", "road-usa", "com-dblp", "copapers"]
        .iter()
        .map(|n| by_name(n).expect("workload"))
        .collect()
}

fn build(spec: &WorkloadSpec, scale: Scale) -> BuiltWorkload {
    // Route through the shared loader (the same path `repro serve` and the
    // service load generator use) so every consumer resolves names and
    // builds graphs identically.
    cd_workloads::load(spec.name, scale).expect("suite specs resolve by name")
}

/// The paper's adaptive switch sits at 100k vertices, *below every graph in
/// its collection* — i.e. every first stage ran under `th_bin`. Our
/// workloads are scaled down, so the limit scales with them to preserve that
/// regime (first stages coarse, contracted stages fine).
fn size_limit(scale: Scale) -> usize {
    1000 * scale.factor()
}

/// The paper-default GPU configuration with the scale-adjusted size limit.
fn gpu_cfg(scale: Scale) -> GpuLouvainConfig {
    let mut cfg = GpuLouvainConfig::paper_default();
    cfg.size_limit = size_limit(scale);
    cfg
}

/// Table 1: the workload collection with sequential and GPU running times.
pub fn table1(scale: Scale, out: &Path) -> Outcome {
    let mut t = Table::new(
        format!("Table 1 — graphs and running times (scale: {scale:?})"),
        &[
            "graph",
            "family",
            "|V|",
            "|E|",
            "seq[s]",
            "gpu-model[s]",
            "gpu-host[s]",
            "Q-seq",
            "Q-gpu",
            "speedup(model)",
        ],
    );
    let mut speedups = Vec::new();
    let mut rel_q = Vec::new();
    for spec in SUITE {
        let built = build(spec, scale);
        let g = &built.graph;
        let seq = run_seq(g);
        let gpu = run_gpu(g, &gpu_cfg(scale));
        let speedup = seq.total_time.as_secs_f64() / gpu.model_seconds;
        speedups.push(speedup);
        if seq.modularity > 0.0 {
            rel_q.push(gpu.result.modularity / seq.modularity);
        }
        t.row(vec![
            spec.name.to_string(),
            format!("{:?}", spec.family),
            g.num_vertices().to_string(),
            g.num_edges().to_string(),
            secs(seq.total_time),
            format!("{:.4}", gpu.model_seconds),
            secs(gpu.host_time),
            f4(seq.modularity),
            f4(gpu.result.modularity),
            ratio(speedup),
        ]);
    }
    t.print();
    let gmean = geometric_mean(&speedups);
    let avg_rel = rel_q.iter().sum::<f64>() / rel_q.len() as f64;
    println!(
        "summary: speedup(model) min {} / geo-mean {} / max {}; avg Q(gpu)/Q(seq) = {:.3}",
        ratio(speedups.iter().copied().fold(f64::INFINITY, f64::min)),
        ratio(gmean),
        ratio(speedups.iter().copied().fold(0.0, f64::max)),
        avg_rel,
    );
    println!("paper: speedups 2.7x-312x (avg 41.7x) vs original sequential; modularity within 2%.");
    t.save_csv(out, "table1")
}

/// Figs. 1 & 2: modularity and speedup over the (th_bin, th_final) grid.
#[allow(clippy::needless_range_loop)] // triple grid indexed by (bin, final, graph)
pub fn fig1_2(scale: Scale, out: &Path) -> Outcome {
    let th_bins = [1e-1, 1e-2, 1e-3, 1e-4];
    let th_finals = [1e-3, 1e-4, 1e-5, 1e-6, 1e-7];
    let subset = comparison_subset();
    let builds: Vec<BuiltWorkload> = subset.iter().map(|s| build(s, scale)).collect();
    let seq_q: Vec<f64> = builds.iter().map(|b| run_seq(&b.graph).modularity).collect();

    // One run per (graph, config); collect modularity and model time.
    let mut q_grid = vec![vec![vec![0.0f64; builds.len()]; th_finals.len()]; th_bins.len()];
    let mut t_grid = vec![vec![vec![0.0f64; builds.len()]; th_finals.len()]; th_bins.len()];
    for (bi, &tb) in th_bins.iter().enumerate() {
        for (fi, &tf) in th_finals.iter().enumerate() {
            for (gi, b) in builds.iter().enumerate() {
                let run = run_gpu(&b.graph, &{
                    let mut c = GpuLouvainConfig::with_thresholds(tb, tf);
                    c.size_limit = size_limit(scale);
                    c
                });
                q_grid[bi][fi][gi] = run.result.modularity;
                t_grid[bi][fi][gi] = run.model_seconds;
            }
        }
    }

    // Fig. 1: average relative modularity per config.
    let mut t1 = Table::new(
        format!("Fig. 1 — avg modularity relative to sequential, % (scale: {scale:?})"),
        &[&"th_bin \\ th_final".to_string()]
            .into_iter()
            .map(|s| s.as_str())
            .chain(th_finals.iter().map(|f| leak(format!("{f:.0e}"))))
            .collect::<Vec<_>>(),
    );
    for (bi, &tb) in th_bins.iter().enumerate() {
        let mut row = vec![format!("{tb:.0e}")];
        for fi in 0..th_finals.len() {
            let avg: f64 =
                (0..builds.len()).map(|gi| q_grid[bi][fi][gi] / seq_q[gi].max(1e-12)).sum::<f64>()
                    / builds.len() as f64;
            row.push(format!("{:.2}", 100.0 * avg));
        }
        t1.row(row);
    }
    t1.print();
    println!("paper: never more than 2% below sequential; decreases as thresholds loosen.");
    t1.save_csv(out, "fig1_modularity_grid")?;

    // Fig. 2: speedup relative to the best configuration per graph.
    let mut best_t: Vec<f64> = vec![f64::INFINITY; builds.len()];
    for bi in 0..th_bins.len() {
        for fi in 0..th_finals.len() {
            for gi in 0..builds.len() {
                best_t[gi] = best_t[gi].min(t_grid[bi][fi][gi]);
            }
        }
    }
    let mut t2 = Table::new(
        format!("Fig. 2 — avg speedup relative to best config, % (scale: {scale:?})"),
        &[&"th_bin \\ th_final".to_string()]
            .into_iter()
            .map(|s| s.as_str())
            .chain(th_finals.iter().map(|f| leak(format!("{f:.0e}"))))
            .collect::<Vec<_>>(),
    );
    for (bi, &tb) in th_bins.iter().enumerate() {
        let mut row = vec![format!("{tb:.0e}")];
        for fi in 0..th_finals.len() {
            let avg: f64 = (0..builds.len()).map(|gi| best_t[gi] / t_grid[bi][fi][gi]).sum::<f64>()
                / builds.len() as f64;
            row.push(format!("{:.1}", 100.0 * avg));
        }
        t2.row(row);
    }
    t2.print();
    println!("paper: speedup critically depends on th_bin (higher = faster); chosen (1e-2, 1e-6) keeps >99% modularity at ~63% of best speedup.");
    t2.save_csv(out, "fig2_speedup_grid")
}

/// Figs. 3 & 4: GPU speedup vs the original and the adaptive sequential
/// algorithm.
pub fn fig3_4(scale: Scale, out: &Path) -> Outcome {
    let mut t = Table::new(
        format!("Figs. 3 & 4 — GPU speedup vs sequential variants (scale: {scale:?})"),
        &[
            "graph",
            "seq-orig[s]",
            "seq-adapt[s]",
            "gpu-model[s]",
            "fig3: vs orig",
            "fig4: vs adapt",
            "Q-orig",
            "Q-adapt",
            "Q-gpu",
        ],
    );
    let (mut s3, mut s4, mut adapt_speed, mut q_drop) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for spec in SUITE {
        let built = build(spec, scale);
        let g = &built.graph;
        let orig = run_seq(g);
        let adapt = run_seq_adaptive(g, size_limit(scale));
        let gpu = run_gpu(g, &gpu_cfg(scale));
        let sp3 = orig.total_time.as_secs_f64() / gpu.model_seconds;
        let sp4 = adapt.total_time.as_secs_f64() / gpu.model_seconds;
        s3.push(sp3);
        s4.push(sp4);
        adapt_speed.push(orig.total_time.as_secs_f64() / adapt.total_time.as_secs_f64().max(1e-12));
        if orig.modularity > 0.0 {
            q_drop.push(adapt.modularity / orig.modularity);
        }
        t.row(vec![
            spec.name.to_string(),
            secs(orig.total_time),
            secs(adapt.total_time),
            format!("{:.4}", gpu.model_seconds),
            ratio(sp3),
            ratio(sp4),
            f4(orig.modularity),
            f4(adapt.modularity),
            f4(gpu.result.modularity),
        ]);
    }
    t.print();
    println!(
        "summary: fig3 speedup geo-mean {} (paper: avg 41.7x, range 2.7-312x); fig4 geo-mean {} (paper: avg 6.7x, range 1-27x)",
        ratio(geometric_mean(&s3)),
        ratio(geometric_mean(&s4))
    );
    println!(
        "adaptive sequential vs original: geo-mean {} faster (paper: avg 7.3x), avg modularity ratio {:.4} (paper: -0.13%)",
        ratio(geometric_mean(&adapt_speed)),
        q_drop.iter().sum::<f64>() / q_drop.len() as f64
    );
    t.save_csv(out, "fig3_4_speedups")
}

/// Figs. 5 & 6: per-stage time breakdown on a road network and a KKT graph.
pub fn fig5_6(scale: Scale, out: &Path) -> Outcome {
    for (fig, name) in [("Fig. 5", "road-usa"), ("Fig. 6", "nlpkkt")] {
        let spec = by_name(name).unwrap();
        let built = build(spec, scale);
        let gpu = run_gpu(&built.graph, &gpu_cfg(scale));
        let mut t = Table::new(
            format!("{fig} — per-stage breakdown on {name} (scale: {scale:?})"),
            &["stage", "|V|", "arcs", "iters", "opt[s]", "agg[s]", "Q"],
        );
        for (i, s) in gpu.result.stages.iter().enumerate() {
            t.row(vec![
                (i + 1).to_string(),
                s.num_vertices.to_string(),
                s.num_arcs.to_string(),
                s.iterations.to_string(),
                secs(s.opt_time),
                secs(s.agg_time),
                f4(s.modularity),
            ]);
        }
        t.print();
        let opt: f64 = gpu.result.opt_time().as_secs_f64();
        let agg: f64 = gpu.result.agg_time().as_secs_f64();
        println!(
            "optimization/aggregation split: {:.0}% / {:.0}% (paper: ~70% / 30%)",
            100.0 * opt / (opt + agg),
            100.0 * agg / (opt + agg)
        );
        if name == "nlpkkt" {
            println!("paper: nlpkkt-style graphs stall for a few stages before the graph collapses (weak initial community structure).");
        } else {
            println!("paper: typical profile — expensive first stage, long cheap tail.");
        }
        t.save_csv(out, &format!("fig5_6_{name}"))?;
    }
    Ok(())
}

/// Fig. 7: GPU vs the fine-grained CPU-parallel (OpenMP-style) baseline,
/// plus the first-iteration hashing-rate comparison.
pub fn fig7(scale: Scale, out: &Path) -> Outcome {
    let mut t = Table::new(
        format!("Fig. 7 — GPU vs CPU-parallel Louvain (scale: {scale:?})"),
        &["graph", "cpu-par[s]", "gpu-model[s]", "speedup", "Q-cpu", "Q-gpu", "hash-rate ratio"],
    );
    let mut speeds = Vec::new();
    let mut hash_ratios = Vec::new();
    for spec in SUITE {
        let built = build(spec, scale);
        let g = &built.graph;
        let cpu = run_cpu_parallel(g);
        let gpu = run_gpu(g, &gpu_cfg(scale));
        let sp = cpu.total_time.as_secs_f64() / gpu.model_seconds;
        speeds.push(sp);
        // First-iteration hashing rate: both algorithms hash all 2|E| edges
        // once in their first sweep.
        let cpu_first =
            cpu.stages.first().map(|s| s.opt_time.as_secs_f64() / s.iterations.max(1) as f64);
        let gpu_first =
            gpu.result.stages.first().and_then(|s| s.iter_times.first()).map(|d| d.as_secs_f64());
        let gpu_first_model =
            gpu_first.map(|h| h / gpu.host_time.as_secs_f64().max(1e-12) * gpu.model_seconds);
        let hr = match (cpu_first, gpu_first_model) {
            (Some(c), Some(gm)) if gm > 0.0 => c / gm,
            _ => f64::NAN,
        };
        if hr.is_finite() {
            hash_ratios.push(hr);
        }
        t.row(vec![
            spec.name.to_string(),
            secs(cpu.total_time),
            format!("{:.4}", gpu.model_seconds),
            ratio(sp),
            f4(cpu.modularity),
            f4(gpu.result.modularity),
            if hr.is_finite() { ratio(hr) } else { "-".into() },
        ]);
    }
    t.print();
    println!(
        "summary: speedup geo-mean {} (paper: avg 6.1x, range 1.1-27x); first-iteration hashing geo-mean {} faster (paper: ~9x)",
        ratio(geometric_mean(&speeds)),
        ratio(geometric_mean(&hash_ratios)),
    );
    t.save_csv(out, "fig7_vs_openmp")
}

/// Section 5 text: the relaxed-update experiment.
pub fn relaxed(scale: Scale, out: &Path) -> Outcome {
    let subset = comparison_subset();
    let mut t = Table::new(
        format!("Relaxed vs per-bucket updates (scale: {scale:?})"),
        &[
            "graph",
            "Q-bucket",
            "Q-relaxed",
            "Q ratio",
            "t-bucket(model)",
            "t-relaxed(model)",
            "slowdown",
            "stages b/r",
        ],
    );
    let mut ratios = Vec::new();
    for spec in subset {
        let built = build(spec, scale);
        let g = &built.graph;
        let bucketed = run_gpu(g, &gpu_cfg(scale));
        let mut cfg = gpu_cfg(scale);
        cfg.update_strategy = UpdateStrategy::Relaxed;
        let relaxed = run_gpu(g, &cfg);
        let qr = relaxed.result.modularity / bucketed.result.modularity.max(1e-12);
        ratios.push(qr);
        t.row(vec![
            spec.name.to_string(),
            f4(bucketed.result.modularity),
            f4(relaxed.result.modularity),
            format!("{qr:.4}"),
            format!("{:.4}", bucketed.model_seconds),
            format!("{:.4}", relaxed.model_seconds),
            ratio(relaxed.model_seconds / bucketed.model_seconds.max(1e-12)),
            format!("{}/{}", bucketed.result.stages.len(), relaxed.result.stages.len()),
        ]);
    }
    t.print();
    println!(
        "avg modularity ratio relaxed/bucketed: {:.4} (paper: difference < 0.13%; relaxed sometimes up to 10x slower)",
        ratios.iter().sum::<f64>() / ratios.len() as f64
    );
    t.save_csv(out, "relaxed_updates")
}

/// Section 5 text: comparison with PLM on the four common graphs.
pub fn plm(scale: Scale, out: &Path) -> Outcome {
    let names = ["copapers", "livejournal", "europe-osm", "uk2002"];
    let mut t = Table::new(
        format!("PLM comparison (paper: coPapersDBLP, soc-LiveJournal1, europe_osm, uk-2002; scale: {scale:?})"),
        &["graph", "plm[s]", "gpu-model[s]", "speedup", "Q-plm", "Q-gpu"],
    );
    let mut speeds = Vec::new();
    let mut qs = Vec::new();
    for name in names {
        let spec = by_name(name).unwrap();
        let built = build(spec, scale);
        let g = &built.graph;
        let plm = run_plm(g);
        let gpu = run_gpu(g, &gpu_cfg(scale));
        let sp = plm.total_time.as_secs_f64() / gpu.model_seconds;
        speeds.push(sp);
        if plm.modularity > 0.0 {
            qs.push(gpu.result.modularity / plm.modularity);
        }
        t.row(vec![
            name.to_string(),
            secs(plm.total_time),
            format!("{:.4}", gpu.model_seconds),
            ratio(sp),
            f4(plm.modularity),
            f4(gpu.result.modularity),
        ]);
    }
    t.print();
    println!(
        "summary: geo-mean speedup {} (paper: 1.3-4.6x, avg 2.7x); avg modularity ratio {:.4} (paper: <0.2% apart)",
        ratio(geometric_mean(&speeds)),
        qs.iter().sum::<f64>() / qs.len() as f64
    );
    t.save_csv(out, "plm_comparison")
}

/// Section 5 text: TEPS rates of the first modularity-optimization iteration.
pub fn teps(scale: Scale, out: &Path) -> Outcome {
    let mut t = Table::new(
        format!("TEPS — first-iteration edge-hashing rate (scale: {scale:?})"),
        &["graph", "arcs", "model GTEPS"],
    );
    let mut best = (0.0f64, "");
    for spec in SUITE {
        let built = build(spec, scale);
        let gpu = run_gpu(&built.graph, &gpu_cfg(scale));
        let gteps = gpu.model_teps() / 1e9;
        if gteps > best.0 {
            best = (gteps, spec.name);
        }
        t.row(vec![
            spec.name.to_string(),
            built.graph.num_arcs().to_string(),
            format!("{gteps:.4}"),
        ]);
    }
    t.print();
    println!(
        "max model rate: {:.3} GTEPS on {} (paper: 0.225 GTEPS on channel-500; Blue Gene/Q with 524,288 threads: 1.54 GTEPS, <7x higher)",
        best.0, best.1
    );
    t.save_csv(out, "teps")
}

/// Section 5 text: hardware-utilization profile (active lanes per warp).
pub fn profile(scale: Scale, out: &Path) -> Outcome {
    let spec = by_name("uk2002").unwrap();
    let built = build(spec, scale);
    let gpu = run_gpu(&built.graph, &gpu_cfg(scale));
    let mut t = Table::new(
        format!("Profile — kernel utilization on uk2002 analogue (scale: {scale:?})"),
        &[
            "kernel",
            "launches",
            "blocks",
            "active-lane %",
            "occupancy %",
            "eligible warps",
            "atomics",
            "global txns",
        ],
    );
    let dev_cfg = &gpu.device_config;
    for (name, k) in gpu.metrics.kernels() {
        if k.counters.lane_slots == 0 {
            continue;
        }
        t.row(vec![
            name.clone(),
            k.launches.to_string(),
            k.blocks.to_string(),
            format!("{:.1}", 100.0 * k.active_lane_fraction()),
            format!("{:.0}", 100.0 * k.occupancy(dev_cfg)),
            format!("{:.1}", k.eligible_warps_per_scheduler(dev_cfg)),
            (k.counters.atomic_adds + k.counters.cas_ops).to_string(),
            k.counters.global_transactions.to_string(),
        ]);
    }
    t.print();
    let total = gpu.metrics.total();
    // Work-weighted eligible-warps average over the computeMove kernels (the
    // paper's 3.4 figure is measured over the whole run on uk-2002).
    let (mut weighted, mut weight) = (0.0, 0.0);
    for (name, k) in gpu.metrics.kernels() {
        if name.starts_with("compute_move") && k.counters.lane_slots > 0 {
            let w = k.counters.lane_slots as f64;
            weighted += w * k.eligible_warps_per_scheduler(dev_cfg);
            weight += w;
        }
    }
    println!(
        "overall active-lane fraction: {:.1}% (paper reports 62.5% on uk-2002; the simulator's strided model is an upper bound — it does not model intra-probe divergence)",
        100.0 * total.active_lane_fraction()
    );
    if weight > 0.0 {
        println!(
            "work-weighted eligible warps/scheduler in computeMove: {:.1} (paper: 3.4; ours is the occupancy-based upper bound)",
            weighted / weight
        );
    }
    t.save_csv(out, "profile_uk2002")
}

/// Ablations: degree-binned vs node-centric assignment and shared vs global
/// hash placement (the design choices Section 4.1 motivates).
pub fn ablation(scale: Scale, out: &Path) -> Outcome {
    let names = ["orkut", "uk2002", "hollywood", "road-usa"];
    let mut t = Table::new(
        format!("Ablation — thread assignment, hash placement, pruning (scale: {scale:?})"),
        &[
            "graph",
            "binned[s]",
            "node-centric[s]",
            "nc slowdown",
            "nc active %",
            "global-hash[s]",
            "gh slowdown",
            "pruned[s]",
            "pruning speedup",
            "pruned Q ratio",
        ],
    );
    for name in names {
        let spec = by_name(name).unwrap();
        let built = build(spec, scale);
        let g = &built.graph;
        let binned = run_gpu(g, &gpu_cfg(scale));

        let mut nc_cfg = gpu_cfg(scale);
        nc_cfg.assignment = ThreadAssignment::NodeCentric;
        let nc = run_gpu(g, &nc_cfg);
        let nc_active = nc
            .metrics
            .kernel("compute_move_node_centric")
            .map(|k| 100.0 * k.active_lane_fraction())
            .unwrap_or(0.0);

        let mut gh_cfg = gpu_cfg(scale);
        gh_cfg.hash_placement = HashPlacement::ForceGlobal;
        let gh = run_gpu(g, &gh_cfg);

        let mut pr_cfg = gpu_cfg(scale);
        pr_cfg.pruning = true;
        let pr = run_gpu(g, &pr_cfg);

        t.row(vec![
            name.to_string(),
            format!("{:.4}", binned.model_seconds),
            format!("{:.4}", nc.model_seconds),
            ratio(nc.model_seconds / binned.model_seconds.max(1e-12)),
            format!("{nc_active:.1}"),
            format!("{:.4}", gh.model_seconds),
            ratio(gh.model_seconds / binned.model_seconds.max(1e-12)),
            format!("{:.4}", pr.model_seconds),
            ratio(binned.model_seconds / pr.model_seconds.max(1e-12)),
            format!("{:.4}", pr.result.modularity / binned.result.modularity.max(1e-12)),
        ]);
    }
    t.print();
    println!("expected: node-centric loses most on heavy-tailed graphs (low active-lane %); global hashing costs a constant factor everywhere (shared memory ~ L1 speed, per the paper); pruning (extension) trims late-iteration work at ~equal quality.");
    t.save_csv(out, "ablation")
}

/// Section 4.1 motivation data: the degree-bucket census of every workload —
/// how many vertices (and edges) each of the seven `computeMove` buckets
/// receives, i.e. why one thread-group width cannot fit all graphs.
pub fn buckets(scale: Scale, out: &Path) -> Outcome {
    use cd_graph::bucket_of_degree;
    let mut t = Table::new(
        format!("Degree-bucket census (scale: {scale:?})"),
        &[
            "graph",
            "b1[1-4]",
            "b2[5-8]",
            "b3[9-16]",
            "b4[17-32]",
            "b5[33-84]",
            "b6[85-319]",
            "b7[320+]",
            "edge share b5-7 %",
        ],
    );
    for spec in SUITE {
        let built = build(spec, scale);
        let g = &built.graph;
        let mut verts = [0usize; 7];
        let mut edges = [0usize; 7];
        for v in 0..g.num_vertices() as u32 {
            let d = g.degree(v);
            if d == 0 {
                continue;
            }
            let b = bucket_of_degree(d);
            verts[b] += 1;
            edges[b] += d;
        }
        let total_edges: usize = edges.iter().sum();
        let heavy_share = if total_edges == 0 {
            0.0
        } else {
            100.0 * (edges[4] + edges[5] + edges[6]) as f64 / total_edges as f64
        };
        let mut row = vec![spec.name.to_string()];
        row.extend(verts.iter().map(|v| v.to_string()));
        row.push(format!("{heavy_share:.1}"));
        t.row(row);
    }
    t.print();
    println!("the paper's load-balance argument: on heavy-tailed graphs most vertices sit in the subwarp buckets while a large share of *edges* belongs to the warp/block buckets — one thread per vertex starves either side.");
    t.save_csv(out, "buckets")
}

/// Extension (paper Section 6): the single-GPU algorithm as a building block
/// for coarse-grained multi-device Louvain. Reproduces the up-to-9%
/// modularity loss the paper's related-work section attributes to the
/// multi-GPU scheme of Cheong et al.
pub fn multigpu(scale: Scale, out: &Path) -> Outcome {
    use cd_core::{louvain_multi_gpu, MultiGpuConfig};
    let names = ["orkut", "com-dblp", "road-usa"];
    let mut t = Table::new(
        format!("Extension — coarse-grained multi-device Louvain (scale: {scale:?})"),
        &["graph", "devices", "Q", "Q vs 1-device", "cut weight %", "merged |V|"],
    );
    for name in names {
        let built = build(by_name(name).unwrap(), scale);
        let g = &built.graph;
        let mut base_q = 0.0;
        for d in [1usize, 2, 4, 8] {
            let mut cfg = MultiGpuConfig::k40m(d);
            cfg.gpu = gpu_cfg(scale);
            let res = louvain_multi_gpu(g, &cfg).expect("multi-gpu run");
            if d == 1 {
                base_q = res.modularity;
            }
            t.row(vec![
                name.to_string(),
                d.to_string(),
                f4(res.modularity),
                format!("{:.2}%", 100.0 * res.modularity / base_q.max(1e-12)),
                // Each cut edge is seen from both sides, so halve the sum.
                format!("{:.2}", 100.0 * (res.cut_weight * 0.5) / g.total_weight_m()),
                res.merged_vertices.to_string(),
            ]);
        }
    }
    t.print();
    println!("paper (related work, Cheong et al. multi-GPU): up to 9% modularity loss from partition-blind local phases.");
    println!("note: loss tracks the cut fraction — orkut's LFR stand-in shuffles vertex ids (worst case for block partitioning), road/planted graphs keep locality (mild loss, as on real collections).");
    t.save_csv(out, "multigpu")
}

/// Extension (paper Section 6): "even more threshold values for varying
/// sizes of graphs" — a geometric multi-level schedule against the paper's
/// two-level scheme.
pub fn schedule(scale: Scale, out: &Path) -> Outcome {
    use cd_core::{louvain_gpu_with_schedule, ThresholdSchedule};
    use cd_gpusim::Device;
    let subset = comparison_subset();
    let mut t = Table::new(
        format!("Extension — multi-level threshold schedules (scale: {scale:?})"),
        &["graph", "Q 2-level", "Q 4-level", "t 2-level(model)", "t 4-level(model)", "time ratio"],
    );
    for spec in subset {
        let built = build(spec, scale);
        let g = &built.graph;
        let cfg = gpu_cfg(scale);
        let limit = size_limit(scale);
        let run = |sched: &ThresholdSchedule| {
            let dev = Device::new(DeviceConfig::tesla_k40m());
            let res = louvain_gpu_with_schedule(&dev, g, &cfg, sched).unwrap();
            let m = dev.metrics();
            let model = dev.config().cycles_to_seconds(m.total_model_cycles(dev.config()));
            (res.modularity, model)
        };
        let two = run(&ThresholdSchedule::two_level(cfg.threshold_bin, cfg.threshold_final, limit));
        let four =
            run(&ThresholdSchedule::geometric(cfg.threshold_bin, cfg.threshold_final, limit, 3));
        t.row(vec![
            spec.name.to_string(),
            f4(two.0),
            f4(four.0),
            format!("{:.4}", two.1),
            format!("{:.4}", four.1),
            ratio(four.1 / two.1.max(1e-12)),
        ]);
    }
    t.print();
    println!("paper: suggests graded thresholds as future work; expected shape — similar quality, smoother time/quality trade.");
    t.save_csv(out, "schedule")
}

/// Extension (robustness): deterministic fault injection. Sweeps per-launch
/// abort / stuck-block / bit-flip rates on single-device runs under the
/// driver's stage-retry recovery, then exercises multi-device failover down
/// to the sequential baseline.
pub fn faults(scale: Scale, out: &Path) -> Outcome {
    use cd_core::{louvain_gpu, louvain_multi_gpu, MultiGpuConfig, RecoveryAction};
    use cd_gpusim::{Device, FaultPlan};

    let names = ["com-dblp", "road-usa", "rgg-sparse"];
    // (abort, stuck, bit-flip) per-launch rates. A stage retries as a unit,
    // so even sub-percent rates translate into frequent stage-level retries.
    // Bit-flip rates are per *word*, and label/weight buffers hold one word
    // per vertex — keep them an order of magnitude below the launch rates or
    // every retry of a large stage redraws a corrupted buffer.
    let tiers: [(f64, f64, f64); 4] = [
        (0.0, 0.0, 0.0),
        (0.0005, 0.00025, 0.00001),
        (0.002, 0.001, 0.00005),
        (0.005, 0.0025, 0.0001),
    ];
    let mut t = Table::new(
        format!("Fault injection — recovery under per-launch faults (scale: {scale:?})"),
        &[
            "graph",
            "abort",
            "stuck",
            "flip",
            "injected",
            "detected",
            "recovered",
            "status",
            "Q/Q-clean",
            "model-t/t-clean",
        ],
    );
    for name in names {
        let built = build(by_name(name).unwrap(), scale);
        let g = &built.graph;
        let mut cfg = gpu_cfg(scale);
        cfg.retry.max_attempts = 10;
        let mut clean = (1.0f64, 1.0f64); // (Q, model seconds) of the fault-free tier
        for (ti, &(abort, stuck, flip)) in tiers.iter().enumerate() {
            let plan = FaultPlan::seeded(2017)
                .with_abort_rate(abort)
                .with_stuck_rate(stuck)
                .with_bitflip_rate(flip);
            // Fault injection lives in the instrumented launch path; pin the
            // profile so the sweep works regardless of the env default.
            let dev_cfg = DeviceConfig::tesla_k40m()
                .with_profile(Profile::Instrumented)
                .with_fault_plan(plan);
            let dev = Device::new(dev_cfg.clone());
            let res = louvain_gpu(&dev, g, &cfg);
            let stats = dev.fault_stats();
            let model = dev_cfg.cycles_to_seconds(dev.metrics().total_model_cycles(&dev_cfg));
            let (status, q) = match &res {
                Ok(r) => ("ok".to_string(), r.modularity),
                Err(e) => (format!("failed: {e}"), f64::NAN),
            };
            if ti == 0 {
                clean = (q, model.max(1e-12));
            }
            t.row(vec![
                name.to_string(),
                format!("{abort:.1e}"),
                format!("{stuck:.1e}"),
                format!("{flip:.1e}"),
                stats.injected().to_string(),
                stats.detected.to_string(),
                stats.recovered.to_string(),
                status,
                if q.is_finite() { format!("{:.4}", q / clean.0.max(1e-12)) } else { "-".into() },
                format!("{:.3}", model / clean.1),
            ]);
        }
    }
    t.print();
    println!("expected: recovered runs stay within a few % of fault-free modularity; model-time overhead grows with the stage-retry count.");
    t.save_csv(out, "faults_single")?;

    let mut t2 = Table::new(
        format!("Fault injection — multi-device failover (scale: {scale:?})"),
        &["graph", "devices", "plan", "status", "Q", "local-retries", "failovers", "seq-fallbacks"],
    );
    let built = build(by_name("com-dblp").unwrap(), scale);
    let g = &built.graph;
    let plans = [
        ("clean", FaultPlan::seeded(7), 10usize),
        ("transient", FaultPlan::seeded(7).with_abort_rate(0.002).with_stuck_rate(0.001), 10),
        // Every launch aborts: all devices fail and the run must degrade to
        // the sequential baseline. A small retry budget keeps this fast.
        ("hopeless", FaultPlan::seeded(7).with_abort_rate(1.0), 2),
    ];
    for (label, plan, attempts) in plans {
        let mut cfg = MultiGpuConfig::k40m(4);
        cfg.gpu = gpu_cfg(scale);
        cfg.gpu.retry.max_attempts = attempts;
        cfg.device = cfg.device.with_profile(Profile::Instrumented).with_fault_plan(plan);
        match louvain_multi_gpu(g, &cfg) {
            Ok(res) => {
                let count = |f: fn(&RecoveryAction) -> bool| {
                    res.recovery.iter().filter(|a| f(a)).count().to_string()
                };
                t2.row(vec![
                    "com-dblp".into(),
                    "4".into(),
                    label.into(),
                    "ok".into(),
                    f4(res.modularity),
                    count(|a| matches!(a, RecoveryAction::LocalRetry { .. })),
                    count(|a| matches!(a, RecoveryAction::Failover { .. })),
                    count(|a| matches!(a, RecoveryAction::SequentialFallback { .. })),
                ]);
            }
            Err(e) => t2.row(vec![
                "com-dblp".into(),
                "4".into(),
                label.into(),
                format!("failed: {e}"),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
        }
    }
    t2.print();
    println!("expected: transient faults heal via retry/failover; a hopeless fleet still completes through the sequential fallback.");
    t2.save_csv(out, "faults_multi")
}

/// Seed-commit modularity at `Scale::Medium`, captured before the
/// frontier-compacted-binning / incremental-modularity rewrite:
/// `(graph, pruning, modularity)`. The opt-loop snapshot reports its drift
/// from these as the Q reference.
const OPT_SEED_MODULARITY: [(&str, bool, f64); 6] = [
    ("road-usa", true, 0.971824739842166),
    ("com-dblp", true, 0.777420695201181),
    ("uk2002", true, 0.790712895127409),
    ("road-usa", false, 0.971467410802857),
    ("com-dblp", false, 0.777546390043285),
    ("uk2002", false, 0.783957687851855),
];

/// Perf snapshot of the modularity-optimization hot loop: wall time,
/// launch/transaction counts and buffer-pool efficiency on a small fixed
/// workload set, written as `BENCH_opt.json` (committed baseline at
/// `Scale::Medium`, regenerated as a CI artifact on every push).
pub fn opt_snapshot(scale: Scale, out: &Path) -> Outcome {
    let names = ["road-usa", "com-dblp", "uk2002"];
    let mut t = Table::new(
        format!("Opt-loop perf snapshot (scale: {scale:?})"),
        &[
            "graph",
            "pruning",
            "opt[s]",
            "spread[s]",
            "iters",
            "ms/iter",
            "launches",
            "copy_if",
            "global txns",
            "pool hit %",
            "Q",
            "|dQ| vs seed",
        ],
    );
    let mut workloads = Vec::new();
    let mut max_drift: Option<f64> = None;
    for name in names {
        let built = build(by_name(name).unwrap(), scale);
        let g = &built.graph;
        for pruning in [true, false] {
            let mut cfg = gpu_cfg(scale);
            cfg.pruning = pruning;
            // Pinned instrumented: the launch/transaction/pool columns are
            // instrumentation.
            let [best] = best_of(
                REPS,
                [&mut || {
                    let run = run_gpu_profiled(g, &cfg, Profile::Instrumented);
                    (run.result.opt_time().as_secs_f64(), run)
                }],
            );
            let run = &best.run;
            let iters: usize = run.result.stages.iter().map(|s| s.iterations).sum();
            let iter_ms: Vec<f64> = run
                .result
                .stages
                .iter()
                .flat_map(|s| s.iter_times.iter().map(|d| d.as_secs_f64() * 1e3))
                .collect();
            let launches: u64 = run.metrics.kernels().iter().map(|(_, k)| k.launches).sum();
            let copy_if = run.metrics.kernel("thrust::copy_if").map(|k| k.launches).unwrap_or(0);
            let gtx = run.metrics.total().counters.global_transactions;
            let pool = *run.metrics.pool();
            let q = run.result.modularity;
            // The seed Q reference exists at medium scale only.
            let seed_q = (scale == Scale::Medium)
                .then(|| OPT_SEED_MODULARITY.iter().find(|b| b.0 == name && b.1 == pruning))
                .flatten()
                .map(|b| b.2);
            let drift = seed_q.map(|s| (q - s).abs());

            t.row(vec![
                name.to_string(),
                pruning.to_string(),
                format!("{:.4}", best.seconds),
                format!("{:.4}", best.spread),
                iters.to_string(),
                format!("{:.3}", best.seconds * 1e3 / iters.max(1) as f64),
                launches.to_string(),
                copy_if.to_string(),
                gtx.to_string(),
                format!("{:.1}", 100.0 * pool.hit_rate()),
                format!("{q:.12}"),
                drift.map_or("-".into(), |d| format!("{d:.1e}")),
            ]);
            let mut w = obj! {
                "graph" => name, "pruning" => pruning, "vertices" => g.num_vertices(),
                "arcs" => g.num_arcs(), "opt_seconds" => best.seconds,
                "opt_seconds_spread" => best.spread, "iterations" => iters, "iter_ms" => iter_ms,
                "kernel_launches" => launches, "copy_if_launches" => copy_if,
                "global_transactions" => gtx, "pool_hit_rate" => pool.hit_rate(),
                "pool_bytes_recycled" => pool.bytes_recycled, "modularity" => q,
            };
            if let (Some(s), Some(d)) = (seed_q, drift) {
                max_drift = Some(max_drift.unwrap_or(0.0).max(d));
                w.extend(obj! { "seed_modularity" => s, "modularity_drift" => d });
            }
            workloads.push(w);
        }
    }
    t.print();
    let mut json = header("opt_snapshot", scale, Profile::Instrumented);
    json.extend(obj! { "device" => "tesla_k40m", "workloads" => workloads });
    if let Some(d) = max_drift {
        println!("max |ΔQ| vs seed commit = {d:.3e}");
        json.extend(obj! { "summary" => obj! { "max_modularity_drift" => d } });
    }
    finish(out, "BENCH_opt.json", &json, gates![])
}

/// Execution-backend comparison: the same workloads under the
/// `Instrumented` profile (pinned at one worker thread) and the
/// native-`Parallel` profile at 1 thread and at the host's core count. All
/// three runs must agree bit-for-bit on labels and modularity — the
/// profiles differ only in what they *record* and *how blocks run* — and the
/// experiment fails if they do not, which is the CI divergence gate.
/// The payoff is opt-phase wall time, written as `BENCH_backend.json`
/// (committed baseline at `Scale::Medium`, regenerated as a CI artifact).
pub fn backend_snapshot(scale: Scale, out: &Path) -> Outcome {
    let names = ["road-usa", "com-dblp", "uk2002"];
    let cores = host_cores();
    // The cost model does not depend on the thread count; pinning it keeps
    // the Instrumented column comparable across hosts and matched to
    // `parallel x1`.
    let instr_threads = 1;
    // On a single-core host the many-thread leg still runs (oversubscribed)
    // to exercise the pool path; its speedup is then a scheduling-overhead
    // measurement, not a parallelism one, and the JSON records `host_cores`
    // so readers can tell which they are looking at.
    let par_n = cores.max(2);
    let mut t = Table::new(
        format!(
            "Execution backends — opt wall time, instrumented x{instr_threads} vs parallel \
             (scale: {scale:?}, host cores: {cores})"
        ),
        &[
            "graph",
            "pruning",
            "instr[s]",
            "par@1[s]",
            &format!("par@{par_n}[s]"),
            "instr/par@1",
            &format!("instr/par@{par_n}"),
            "Q",
            "labels",
        ],
    );
    let mut workloads = Vec::new();
    let mut par1_speedups = Vec::new();
    let mut parn_speedups = Vec::new();
    let mut max_drift = 0.0f64;
    let mut all_identical = true;
    let instr_cfg =
        DeviceConfig::tesla_k40m().with_profile(Profile::Instrumented).with_threads(instr_threads);
    for name in names {
        let built = build(by_name(name).unwrap(), scale);
        let g = &built.graph;
        for pruning in [true, false] {
            let mut cfg = gpu_cfg(scale);
            cfg.pruning = pruning;
            let opt = |run: GpuRun| (run.opt_wall().as_secs_f64(), run);
            let [instr, par1, parn] = best_of(
                REPS,
                [
                    &mut || opt(run_gpu_on(g, &cfg, instr_cfg.clone())),
                    &mut || opt(run_gpu_parallel(g, &cfg, 1)),
                    &mut || opt(run_gpu_parallel(g, &cfg, par_n)),
                ],
            );
            let par1_speedup = instr.seconds / par1.seconds.max(1e-12);
            let parn_speedup = instr.seconds / parn.seconds.max(1e-12);
            par1_speedups.push(par1_speedup);
            parn_speedups.push(parn_speedup);
            let refq = instr.run.result.modularity;
            let drift = [&par1, &parn]
                .iter()
                .map(|b| (refq - b.run.result.modularity).abs())
                .fold(0.0f64, f64::max);
            max_drift = max_drift.max(drift);
            let labels_identical = [&par1, &parn].iter().all(|b| {
                b.run.result.partition.as_slice() == instr.run.result.partition.as_slice()
            });
            all_identical &= labels_identical && drift == 0.0;
            t.row(vec![
                name.to_string(),
                pruning.to_string(),
                format!("{:.4}", instr.seconds),
                format!("{:.4}", par1.seconds),
                format!("{:.4}", parn.seconds),
                ratio(par1_speedup),
                ratio(parn_speedup),
                format!("{refq:.12}"),
                if labels_identical { "identical".into() } else { "DIVERGED".into() },
            ]);
            workloads.push(obj! {
                "graph" => name, "pruning" => pruning, "vertices" => g.num_vertices(),
                "arcs" => g.num_arcs(), "instrumented_opt_seconds" => instr.seconds,
                "instrumented_opt_seconds_spread" => instr.spread,
                "parallel1_opt_seconds" => par1.seconds,
                "parallel1_opt_seconds_spread" => par1.spread,
                format!("parallel{par_n}_opt_seconds") => parn.seconds,
                format!("parallel{par_n}_opt_seconds_spread") => parn.spread,
                "parallel1_speedup" => par1_speedup,
                format!("parallel{par_n}_speedup") => parn_speedup, "modularity" => refq,
                "modularity_drift" => drift, "labels_identical" => labels_identical,
            });
        }
    }
    t.print();
    let gm_par1 = geometric_mean(&par1_speedups);
    let gm_parn = geometric_mean(&parn_speedups);
    println!(
        "parallel@1 vs instrumented@{instr_threads}: geo-mean {}; parallel@{par_n} vs \
         instrumented@{instr_threads}: geo-mean {} ({cores}-core host); max |dQ| = {max_drift:.1e}; \
         labels {}",
        ratio(gm_par1),
        ratio(gm_parn),
        if all_identical {
            "identical on every workload"
        } else {
            "DIVERGED — backends disagree"
        },
    );
    let mut json = header("backend_snapshot", scale, Profile::from_env());
    json.extend(obj! {
        "device" => "tesla_k40m", "instrumented_threads" => instr_threads,
        "parallel_threads" => par_n,
        "profiles" => vec![
            Profile::Instrumented.to_string(),
            format!("{} x1", Profile::Parallel),
            format!("{} x{par_n}", Profile::Parallel),
        ],
        "workloads" => workloads,
        "summary" => obj! {
            "geo_mean_parallel1_speedup" => gm_par1,
            format!("geo_mean_parallel{par_n}_speedup") => gm_parn,
            "max_modularity_drift" => max_drift, "all_labels_identical" => all_identical,
        },
    });
    let gates = gates![
        all_identical => "backend snapshot found label or modularity divergence between \
                          execution profiles (see above)",
    ];
    finish(out, "BENCH_backend.json", &json, gates)
}

/// Racecheck sweep: the full workload suite through the whole Louvain
/// pipeline under the [`Profile::Racecheck`] hazard detector, with both
/// pruning settings. The gate is two-fold: the detector must report zero
/// hazards everywhere (every kernel ordering its shared/global accesses by
/// barriers, atomics, or launch boundaries), and labels/modularity must stay
/// bit-identical to the `Instrumented` profile. Hazards, if any, are printed
/// verbatim. Written as `BENCH_racecheck.json` (regenerated as a CI artifact
/// alongside the backend snapshot).
pub fn racecheck_sweep(scale: Scale, out: &Path) -> Outcome {
    let mut t = Table::new(
        format!("Racecheck — full-pipeline hazard sweep (scale: {scale:?})"),
        &["graph", "pruning", "|V|", "arcs", "Q", "labels", "race events", "reports"],
    );
    let mut workloads = Vec::new();
    let mut total_events = 0u64;
    let mut total_reports = 0usize;
    let mut all_identical = true;
    for spec in SUITE {
        let built = build(spec, scale);
        let g = &built.graph;
        for pruning in [false, true] {
            let mut cfg = gpu_cfg(scale);
            cfg.pruning = pruning;
            let rc = run_gpu_profiled(g, &cfg, Profile::Racecheck);
            let instr = run_gpu_profiled(g, &cfg, Profile::Instrumented);
            let labels_identical =
                rc.result.partition.as_slice() == instr.result.partition.as_slice();
            let drift = (rc.result.modularity - instr.result.modularity).abs();
            all_identical &= labels_identical && drift == 0.0;
            let events = rc.metrics.race_events();
            let reports = rc.metrics.races();
            total_events += events;
            total_reports += reports.len();
            for r in reports {
                println!("HAZARD [{} pruning={pruning}] {r}", spec.name);
            }
            t.row(vec![
                spec.name.to_string(),
                pruning.to_string(),
                g.num_vertices().to_string(),
                g.num_arcs().to_string(),
                format!("{:.12}", rc.result.modularity),
                if labels_identical { "identical".into() } else { "DIVERGED".into() },
                events.to_string(),
                reports.len().to_string(),
            ]);
            workloads.push(obj! {
                "graph" => spec.name, "pruning" => pruning, "vertices" => g.num_vertices(),
                "arcs" => g.num_arcs(), "race_events" => events,
                "race_reports" => reports.iter().map(|r| r.to_string()).collect::<Vec<_>>(),
                "labels_identical" => labels_identical, "modularity_drift" => drift,
            });
        }
    }
    t.print();
    let clean = total_events == 0 && total_reports == 0;
    println!(
        "racecheck: {} race events / {} reports across the suite; labels {} \
         (gate: zero hazards, bit-identical to instrumented)",
        total_events,
        total_reports,
        if all_identical {
            "identical on every workload"
        } else {
            "DIVERGED — backends disagree"
        },
    );
    println!("RACECHECK VERDICT: {}", if clean && all_identical { "clean" } else { "HAZARDS" });
    let mut json = header("racecheck_sweep", scale, Profile::from_env());
    json.extend(obj! {
        "device" => "tesla_k40m",
        "profiles" => vec![Profile::Racecheck.to_string(), Profile::Instrumented.to_string()],
        "workloads" => workloads,
        "summary" => obj! {
            "total_race_events" => total_events, "total_race_reports" => total_reports,
            "all_labels_identical" => all_identical, "clean" => clean && all_identical,
        },
    });
    let gates = gates![
        clean && all_identical => "racecheck sweep found hazards or divergent backends (see above)",
    ];
    finish(out, "BENCH_racecheck.json", &json, gates)
}

/// `repro serve` — the serving layer under closed-loop load. Replays the
/// seeded suite trace twice against two fresh servers at the requested
/// client concurrency, then a third time against a server warm-started
/// from the second replay's cache snapshot. Aggregates per-workload
/// outcomes and gates on the service invariants: no lost or duplicated
/// jobs, bit-identical results per content key (cache/coalescing
/// identity), replay determinism (equal semantic digests), at least one
/// pooled-path job (the oversized workload), and a pure-cache-hit warm
/// replay (zero misses after restore).
pub fn serve_snapshot(scale: Scale, out: &Path, clients: usize) -> Outcome {
    use cd_serve::{
        run_trace, suggested_device_bytes, Server, ServerConfig, TraceConfig, TraceReport,
    };
    use std::collections::HashMap;

    let clients = clients.max(1);
    let mut trace = TraceConfig::suite(scale);
    trace.clients = clients;
    trace.base.config = gpu_cfg(scale);
    // The workload with the largest device footprint becomes the trace's
    // oversized job: device memory is sized just below it (and above every
    // other workload), forcing it — and only it — onto the pooled path.
    let oversized = trace
        .workloads
        .iter()
        .max_by_key(|name| {
            let w = cd_workloads::load(name, scale).expect("suite names resolve");
            cd_core::estimated_device_bytes(&w.graph)
        })
        .expect("suite is non-empty")
        .clone();
    trace.workloads.retain(|w| *w != oversized);
    trace.oversized = Some(oversized.clone());
    let device_bytes =
        suggested_device_bytes(&trace).expect("suite names resolve").expect("oversized is set");
    let mut device = DeviceConfig::tesla_k40m();
    device.global_mem_bytes = device_bytes;

    let snap_path = out.join("serve_cache.snap");
    let replay = |warm_from: Option<&Path>, save_to: Option<&Path>| -> TraceReport {
        let mut server = Server::new(ServerConfig {
            queue_capacity: 64,
            workers: clients,
            device: device.clone(),
            cache_snapshot: warm_from.map(|p| p.to_path_buf()),
            ..ServerConfig::default()
        });
        let report = run_trace(&server, &trace).expect("suite workload names resolve");
        if let Some(p) = save_to {
            match server.snapshot_cache_to(p) {
                Ok(n) => println!("serve: snapshotted {n} cache entries to {}", p.display()),
                Err(e) => eprintln!("serve: could not snapshot cache to {}: {e}", p.display()),
            }
        }
        server.shutdown();
        report
    };
    println!(
        "serve: {} clients × {} jobs ({} workloads × pruning × {} duplicates × {} passes \
         + {} oversized/pass), replay 1/3 …",
        clients,
        trace.workloads.len() * 2 * trace.duplicates * trace.passes + trace.passes,
        trace.workloads.len(),
        trace.duplicates,
        trace.passes,
        1,
    );
    // The cache snapshot lives next to the results, so the directory must
    // exist before the second replay saves it.
    create_out_dir(out).map_err(|e| vec![e])?;
    let a = replay(None, None);
    println!("serve: replay 2/3 (determinism check, snapshot at exit) …");
    let b = replay(None, Some(&snap_path));
    println!("serve: replay 3/3 (warm start from {}) …", snap_path.display());
    let c = replay(Some(&snap_path), None);

    let deterministic =
        a.result_digest() == b.result_digest() && a.result_digest() == c.result_digest();
    let consistent = a.results_consistent() && b.results_consistent() && c.results_consistent();
    // Warm start: every content key the trace computes was in the snapshot,
    // so the third replay must answer everything from the restored cache.
    let warm_restored = c.metrics.cache_restored_entries;
    let warm_pure = c.metrics.cache.misses == 0 && warm_restored > 0;
    let pooled_exercised = a.metrics.pooled_jobs > 0 && b.metrics.pooled_jobs > 0;
    // The oversized workload must have gone through the sharded
    // out-of-core engine, with actual halo traffic on record.
    let sharded_exercised = a.metrics.sharded_jobs > 0
        && b.metrics.sharded_jobs > 0
        && a.metrics.exchange_rounds > 0
        && a.metrics.ghost_bytes > 0;

    // Aggregate replay 1 per content key (workload, pruning).
    #[derive(Default)]
    struct KeyAgg {
        jobs: usize,
        computed: usize,
        cache_hits: usize,
        coalesced: usize,
        q_bits: Option<u64>,
        labels: Option<u64>,
        latency_ms: Vec<f64>,
    }
    let mut per_key: HashMap<(&str, bool), KeyAgg> = HashMap::new();
    for r in &a.records {
        let agg = per_key.entry((r.workload.as_str(), r.pruning)).or_default();
        agg.jobs += 1;
        match r.path {
            "cache-hit" => agg.cache_hits += 1,
            "coalesced" => agg.coalesced += 1,
            "-" => {}
            _ => agg.computed += 1,
        }
        agg.q_bits = agg.q_bits.or(r.modularity_bits);
        agg.labels = agg.labels.or(r.labels_hash);
        agg.latency_ms.push(r.latency.as_secs_f64() * 1e3);
    }

    let mut t = Table::new(
        format!("repro serve — closed-loop suite trace (scale: {scale:?}, clients: {clients})"),
        &[
            "graph",
            "pruning",
            "jobs",
            "computed",
            "cache-hit",
            "coalesced",
            "Q",
            "labels",
            "mean-lat[ms]",
        ],
    );
    for name in &trace.workloads {
        for pruning in [false, true] {
            let Some(agg) = per_key.get(&(name.as_str(), pruning)) else { continue };
            let mean_ms = agg.latency_ms.iter().sum::<f64>() / agg.latency_ms.len().max(1) as f64;
            t.row(vec![
                name.clone(),
                pruning.to_string(),
                agg.jobs.to_string(),
                agg.computed.to_string(),
                agg.cache_hits.to_string(),
                agg.coalesced.to_string(),
                agg.q_bits.map_or("-".into(), |bits| format!("{:.6}", f64::from_bits(bits))),
                agg.labels.map_or("-".into(), |h| format!("{h:016x}")),
                format!("{mean_ms:.2}"),
            ]);
        }
    }
    t.print();
    t.save_csv(out, "serve_trace")?;

    let m = &a.metrics;
    println!(
        "serve: {} jobs in {:.2}s ({:.1} jobs/s); {} computed runs, {} cache hits, \
         {} coalesced (reuse {:.0}%); lost {} / duplicated {}; {}",
        a.records.len(),
        a.wall.as_secs_f64(),
        a.throughput(),
        m.cache.misses,
        m.cache.hits,
        m.cache.coalesced,
        m.cache.reuse_rate() * 100.0,
        a.lost,
        a.duplicated,
        if deterministic { "replays bit-identical" } else { "REPLAYS DIVERGED" },
    );

    println!(
        "serve: warm replay restored {} entries, {} misses, {} hits ({})",
        warm_restored,
        c.metrics.cache.misses,
        c.metrics.cache.hits,
        if warm_pure { "pure cache" } else { "NOT PURE" },
    );
    let failed = m.failed + b.metrics.failed + c.metrics.failed;
    let ok = [&a, &b, &c].iter().all(|r| r.lost == 0 && r.duplicated == 0)
        && consistent
        && deterministic
        && failed == 0
        && pooled_exercised
        && sharded_exercised
        && warm_pure;
    let mut json = header("serve_snapshot", scale, Profile::from_env());
    json.extend(obj! {
        "device" => "tesla_k40m",
        "config" => obj! {
            "clients" => clients, "workers" => clients, "queue_capacity" => 64usize,
            "num_devices" => 4usize, "passes" => trace.passes, "duplicates" => trace.duplicates,
            "seed" => trace.seed,
        },
        "totals" => obj! {
            "jobs" => a.records.len(), "submitted" => m.submitted, "completed" => m.completed,
            "failed" => failed, "cancelled" => m.cancelled, "expired" => m.expired,
            "queue_full_retries" => a.records.iter().map(|r| r.retries).sum::<u64>(),
            "pooled_jobs" => m.pooled_jobs, "sharded_jobs" => m.sharded_jobs,
            "exchange_rounds" => m.exchange_rounds, "ghost_bytes" => m.ghost_bytes,
            "degraded_jobs" => m.degraded_jobs, "lost" => a.lost, "duplicated" => a.duplicated,
        },
        "throughput_jobs_per_s" => a.throughput(), "wall_s" => a.wall.as_secs_f64(),
        "latency" => obj! {
            "queue_wait" => latency(&m.queue_wait), "exec" => latency(&m.exec),
            "total" => latency(&m.total),
        },
        "cache" => obj! {
            "hits" => m.cache.hits, "misses" => m.cache.misses, "coalesced" => m.cache.coalesced,
            "hit_rate" => m.cache.hit_rate(), "reuse_rate" => m.cache.reuse_rate(),
            "insertions" => m.cache.insertions, "evictions" => m.cache.evictions,
            "entries" => m.cache_entries, "bytes" => m.cache_bytes,
        },
        "max_queue_depth" => m.max_queue_depth, "max_in_flight" => m.max_in_flight,
        "oversized_workload" => oversized, "device_global_mem_bytes" => device_bytes,
        "warm_restart" => obj! {
            "restored_entries" => warm_restored, "misses" => c.metrics.cache.misses,
            "hits" => c.metrics.cache.hits, "pure_cache" => warm_pure,
        },
        "results_consistent" => consistent, "deterministic" => deterministic,
        "pooled_exercised" => pooled_exercised, "sharded_exercised" => sharded_exercised,
        "ok" => ok,
    });
    println!("SERVE VERDICT: {}", if ok { "clean" } else { "VIOLATIONS" });
    let gates = gates![
        ok => "serve trace violated a service invariant (lost/duplicated jobs, failed runs, \
               inconsistent or nondeterministic results, pooled/sharded path not exercised, or \
               impure warm restart)",
    ];
    finish(out, "BENCH_serve.json", &json, gates)
}

/// `repro overload` — the serving layer under *open-loop* load. Calibrates
/// per-job service time with a short closed-loop warmup, sweeps Poisson
/// arrival rates to locate the saturation knee (the largest offered rate the
/// server still completes ≥ 90% of), then measures 1×/2×/5× the knee and
/// reports latency, goodput, and shed/expired/rejected accounting into
/// `BENCH_overload.json`.
///
/// The hard gate (nonzero exit) covers only accounting invariants — no job
/// lost or double-settled, no failed runs. SLO-boundedness (p99 of completed
/// jobs at 5× within 2× of the 1× value) and shedding engagement are
/// reported as soft flags so timing noise on loaded CI hosts cannot flake
/// the build.
pub fn overload(scale: Scale, out: &Path) -> Outcome {
    use cd_serve::{
        distinct_rings, run_open_loop, OpenLoopConfig, OpenLoopReport, Server, ServerConfig,
    };
    use std::sync::Arc;
    use std::time::Duration;

    let (jobs_per_run, ring_base) = match scale {
        Scale::Tiny => (60usize, 512usize),
        Scale::Small => (120, 1024),
        _ => (200, 2048),
    };
    let workers = 4usize;
    let queue_capacity = 32usize;
    let fresh_server = || {
        Server::new(ServerConfig {
            queue_capacity,
            workers,
            cache_bytes: 0, // every job must compute: no cache, no coalescing shortcut
            ..ServerConfig::default()
        })
    };

    // Calibration: submit a batch all at once and await it, so the measured
    // exec times include the contention of `workers` concurrent runs — the
    // regime every open-loop run below actually operates in. Sequential
    // calibration would overstate capacity several-fold.
    println!("overload: calibrating service time ({} concurrent closed-loop jobs) …", 16);
    let calib_graphs = distinct_rings(16, ring_base);
    let mut server = fresh_server();
    let ids: Vec<_> = calib_graphs
        .iter()
        .map(|g| {
            server
                .submit(
                    Arc::clone(g),
                    cd_serve::JobOptions { config: gpu_cfg(scale), ..Default::default() },
                )
                .expect("calibration submit")
        })
        .collect();
    for id in ids {
        server.await_result(id);
    }
    let calib = server.metrics();
    server.shutdown();
    let mean_ms = calib.exec.mean_ms.max(1e-3);
    let p99_ms = calib.exec.p99_ms.max(mean_ms);
    // Service capacity μ: `workers` parallel servers, each ~mean_ms per job
    // at full concurrency. The deadline leaves generous headroom over the
    // worst observed exec so sub-knee rates complete comfortably and only
    // genuine overload sheds.
    let mu = workers as f64 * 1e3 / mean_ms;
    let deadline = Duration::from_secs_f64((3.0 * p99_ms / 1e3).max(0.1));
    println!(
        "overload: exec mean {mean_ms:.2} ms, p99 {p99_ms:.2} ms → capacity ≈ {mu:.1} jobs/s, \
         deadline {:.0} ms",
        deadline.as_secs_f64() * 1e3
    );

    let run_at = |rate: f64, jobs: usize, seed: u64| -> OpenLoopReport {
        let mut server = fresh_server();
        let graphs = distinct_rings(jobs, ring_base);
        let cfg = OpenLoopConfig {
            seed,
            rate_per_sec: rate,
            jobs,
            deadline: Some(deadline),
            base: cd_serve::JobOptions { config: gpu_cfg(scale), ..Default::default() },
        };
        let report = run_open_loop(&server, &cfg, &graphs);
        server.shutdown();
        report
    };

    // Knee sweep: fractions of the calibrated capacity, short runs.
    let factors = [0.5, 0.75, 1.0, 1.5, 2.0];
    let sweep_jobs = (jobs_per_run / 2).max(20);
    let mut t = Table::new(
        format!("repro overload — arrival-rate sweep (scale: {scale:?}, workers: {workers})"),
        &[
            "rate[/s]",
            "offered",
            "completed",
            "expired",
            "rejected",
            "ratio",
            "goodput[/s]",
            "p99[ms]",
        ],
    );
    let mut sweep_rows = Vec::new();
    let mut knee = 0.5 * mu;
    for (i, f) in factors.iter().enumerate() {
        let rate = f * mu;
        let r = run_at(rate, sweep_jobs, 0xC0FFEE + i as u64);
        let ratio = r.completion_ratio();
        if ratio >= 0.9 {
            knee = rate;
        }
        t.row(vec![
            format!("{rate:.1}"),
            r.offered.to_string(),
            r.completed.to_string(),
            r.expired.to_string(),
            (r.rejected_queue_full + r.rejected_slo + r.rejected_other).to_string(),
            format!("{ratio:.2}"),
            format!("{:.1}", r.goodput_per_sec()),
            format!("{:.2}", r.completed_latency.p99_ms),
        ]);
        sweep_rows.push((rate, r));
    }
    t.print();
    t.save_csv(out, "overload_sweep")?;
    println!("overload: saturation knee ≈ {knee:.1} jobs/s");

    // Measured runs at 1×, 2×, and 5× the knee.
    let mut measured = Vec::new();
    for (label, mult, seed) in [("1x", 1.0, 0xA11CE_u64), ("2x", 2.0, 0xB0B), ("5x", 5.0, 0x5EED)] {
        let rate = mult * knee;
        println!("overload: measuring {label} knee ({rate:.1} jobs/s, {jobs_per_run} jobs) …");
        let r = run_at(rate, jobs_per_run, seed);
        println!(
            "overload: {label}: {}/{} completed, {} expired \
             (admission {}, sweep {}, dequeue {}, shed {}), {} rejected \
             (queue {}, slo {}), p50 {:.2} ms, p99 {:.2} ms, goodput {:.1}/s, \
             max queue depth {}, lost {}, duplicated {}",
            r.completed,
            r.offered,
            r.expired,
            r.metrics.expired_admission,
            r.metrics.expired_sweep,
            r.metrics.expired_dequeue,
            r.metrics.shed_predicted,
            r.rejected_queue_full + r.rejected_slo + r.rejected_other,
            r.rejected_queue_full,
            r.rejected_slo,
            r.completed_latency.p50_ms,
            r.completed_latency.p99_ms,
            r.goodput_per_sec(),
            r.metrics.max_queue_depth,
            r.lost,
            r.duplicated,
        );
        measured.push((label, rate, r));
    }

    let one = &measured[0].2;
    let five = &measured[2].2;
    // Hard gate: accounting only. Every admitted job settles exactly once and
    // nothing fails; overload must shed, not corrupt.
    let accounting_ok =
        measured.iter().all(|(_, _, r)| r.lost == 0 && r.duplicated == 0 && r.failed == 0);
    // Soft flags: the SLO story. At 5× the knee the queue stays bounded, the
    // shedding machinery engages, and the p99 of *completed* jobs stays within
    // 2× of the uncontended value (expired jobs don't count — they were shed).
    let queue_bounded = five.metrics.max_queue_depth <= queue_capacity;
    let sheds_engaged = five.expired + five.rejected_queue_full + five.rejected_slo > 0;
    let slo_bounded = one.completed_latency.p99_ms <= 0.0
        || five.completed_latency.p99_ms <= 2.0 * one.completed_latency.p99_ms
        || five.completed == 0;

    let run_json = |r: &OpenLoopReport| {
        obj! {
            "offered" => r.offered, "admitted" => r.admitted, "completed" => r.completed,
            "expired" => r.expired, "expired_admission" => r.metrics.expired_admission,
            "expired_sweep" => r.metrics.expired_sweep,
            "expired_dequeue" => r.metrics.expired_dequeue,
            "shed_predicted" => r.metrics.shed_predicted,
            "rejected_queue_full" => r.rejected_queue_full, "rejected_slo" => r.rejected_slo,
            "failed" => r.failed, "goodput_per_s" => r.goodput_per_sec(),
            "max_queue_depth" => r.metrics.max_queue_depth, "wall_s" => r.wall.as_secs_f64(),
            "lost" => r.lost, "duplicated" => r.duplicated,
            "completed_latency" => latency(&r.completed_latency),
        }
    };
    let sweep = sweep_rows
        .iter()
        .map(|(rate, r)| {
            obj! {
                "rate_per_s" => *rate, "completed" => r.completed, "expired" => r.expired,
                "rejected" => r.rejected_queue_full + r.rejected_slo + r.rejected_other,
                "completion_ratio" => r.completion_ratio(), "goodput_per_s" => r.goodput_per_sec(),
                "p99_ms" => r.completed_latency.p99_ms,
            }
        })
        .collect::<Vec<_>>();
    let measured = Json::Obj(
        measured
            .iter()
            .map(|(label, rate, r)| {
                (label.to_string(), obj! { "rate_per_s" => *rate, "run" => run_json(r) })
            })
            .collect(),
    );
    let mut json = header("overload", scale, Profile::from_env());
    json.extend(obj! {
        "config" => obj! {
            "workers" => workers, "queue_capacity" => queue_capacity,
            "jobs_per_run" => jobs_per_run, "ring_base" => ring_base,
            "deadline_ms" => deadline.as_secs_f64() * 1e3,
        },
        "calibration" => obj! {
            "exec_mean_ms" => mean_ms, "exec_p99_ms" => p99_ms, "capacity_jobs_per_s" => mu,
        },
        "knee_jobs_per_s" => knee, "sweep" => sweep, "measured" => measured,
        "queue_bounded" => queue_bounded, "sheds_engaged" => sheds_engaged,
        "slo_bounded" => slo_bounded, "accounting_ok" => accounting_ok, "ok" => accounting_ok,
    });
    println!(
        "OVERLOAD VERDICT: {} (queue_bounded {queue_bounded}, sheds_engaged {sheds_engaged}, \
         slo_bounded {slo_bounded})",
        if accounting_ok { "clean" } else { "VIOLATIONS" },
    );
    let gates = gates![
        accounting_ok => "open-loop overload run lost a job, settled one twice, or failed a run",
    ];
    finish(out, "BENCH_overload.json", &json, gates)
}

/// Incremental-recompute benchmark: sweeps edge-churn fractions over the
/// featured suite, comparing warm-start Louvain (seeded from the pre-delta
/// partition, re-evaluating only the touched frontier) against a
/// from-scratch run on the same patched graph. Written as
/// `BENCH_incremental.json` (committed baseline at `Scale::Medium`,
/// regenerated as a CI artifact on every push).
///
/// Two gates, honest numbers both, enforced at `Scale::Medium` and above
/// (the acceptance scale) and reported informationally below it:
/// * correctness — the warm-start *deficit* `max(0, Q_scratch − Q_warm)`
///   must stay within [`dispersion_allowance`] of the from-scratch Q over
///   the base graph and the ≤ 0.1%-churn instances, at every churn fraction
///   (the raw signed ΔQ per cell is reported alongside);
/// * performance — median warm-vs-scratch wall-time speedup ≥ 3× at ≤ 0.1%
///   churn (tiny smoke runs carry too much fixed overhead to gate on).
pub fn incremental(scale: Scale, out: &Path) -> Outcome {
    use cd_core::{louvain_gpu, louvain_warm_start};
    use cd_gpusim::Device;
    use cd_graph::apply_delta;
    use cd_workloads::{churn, featured};

    const SPEEDUP_FLOOR: f64 = 3.0;
    const SMALL_CHURN: f64 = 0.001; // "≤ 0.1% churn" cutoff, inclusive
    let fracs = [0.0001, 0.001, 0.01, 0.1];

    let mut t = Table::new(
        format!("Incremental recompute: warm start vs scratch (scale: {scale:?})"),
        &[
            "graph",
            "churn",
            "ops",
            "touched",
            "scratch[s]",
            "warm[s]",
            "speedup",
            "|dQ|",
            "warm stages",
        ],
    );
    let cfg = gpu_cfg(scale);
    let mut sweep = Vec::new();
    let mut graph_summaries = Vec::new();
    let mut small_churn_speedups = Vec::new();
    let mut max_dq = 0.0f64;
    let mut max_deficit = 0.0f64;
    let mut deficit_ok = true;
    for spec in featured() {
        let built = build(spec, scale);
        let g = &built.graph;
        // The pre-delta partition every warm run re-seeds from. Its Q also
        // anchors the reference-dispersion measurement below.
        let seed = louvain_gpu(&Device::k40m(), g, &cfg).expect("base run");
        let mut ref_qs = vec![seed.modularity];
        let mut cells = Vec::new();
        for (fi, &frac) in fracs.iter().enumerate() {
            let batch = churn(g, 0xD17A + fi as u64, frac);
            let (patched, touched) = apply_delta(g, &batch).expect("churn batches apply cleanly");
            let [scratch, warm] = best_of(
                REPS,
                [
                    &mut || {
                        timed(|| louvain_gpu(&Device::k40m(), &patched, &cfg).expect("scratch"))
                    },
                    &mut || {
                        timed(|| {
                            louvain_warm_start(
                                &Device::k40m(),
                                &patched,
                                &cfg,
                                &seed.partition,
                                &touched,
                            )
                            .expect("warm run")
                        })
                    },
                ],
            );
            if frac <= SMALL_CHURN {
                small_churn_speedups.push(scratch.seconds / warm.seconds.max(1e-12));
                ref_qs.push(scratch.run.modularity);
            }
            cells.push((frac, batch.len(), touched.len(), scratch, warm));
        }
        let (spread, allowance) = dispersion_allowance(&ref_qs);
        let mut graph_max_deficit = 0.0f64;
        for (frac, ops, touched, scratch, warm) in &cells {
            let speedup = scratch.seconds / warm.seconds.max(1e-12);
            let dq = warm.run.modularity - scratch.run.modularity;
            let deficit = (-dq).max(0.0);
            max_dq = max_dq.max(dq.abs());
            graph_max_deficit = graph_max_deficit.max(deficit);
            t.row(vec![
                spec.name.to_string(),
                format!("{:.2}%", frac * 100.0),
                ops.to_string(),
                touched.to_string(),
                format!("{:.4}", scratch.seconds),
                format!("{:.4}", warm.seconds),
                ratio(speedup),
                format!("{dq:+.3e}"),
                warm.run.stages.len().to_string(),
            ]);
            sweep.push(obj! {
                "graph" => spec.name, "churn_frac" => *frac, "delta_ops" => *ops,
                "touched_vertices" => *touched, "scratch_seconds" => scratch.seconds,
                "scratch_seconds_spread" => scratch.spread, "warm_seconds" => warm.seconds,
                "warm_seconds_spread" => warm.spread, "speedup" => speedup,
                "scratch_modularity" => scratch.run.modularity,
                "warm_modularity" => warm.run.modularity, "dq" => dq, "deficit" => deficit,
                "warm_stages" => warm.run.stages.len(),
            });
        }
        max_deficit = max_deficit.max(graph_max_deficit);
        let ok = graph_max_deficit <= allowance;
        deficit_ok &= ok;
        graph_summaries.push(obj! {
            "graph" => spec.name, "reference_spread" => spread, "allowance" => allowance,
            "max_deficit" => graph_max_deficit, "ok" => ok,
        });
        println!(
            "  {name}: reference spread {spread:.3e} → allowance {allowance:.3e}, \
             max warm deficit {graph_max_deficit:.3e} ({verdict})",
            name = spec.name,
            verdict = if ok { "ok" } else { "EXCEEDED" },
        );
    }
    t.print();

    let median_small = median(&mut small_churn_speedups);
    let gated = scale >= Scale::Medium;
    let dq_ok = !gated || deficit_ok;
    let perf_ok = !gated || median_small >= SPEEDUP_FLOOR;
    println!(
        "incremental: median speedup at ≤{:.1}% churn = {} (gate: ≥{SPEEDUP_FLOOR}x), \
         max warm deficit = {max_deficit:.3e} (gate: ≤max({DQ_BAND:.0e}, per-graph reference \
         spread)), max |ΔQ| = {max_dq:.3e}; gates {} at this scale",
        SMALL_CHURN * 100.0,
        ratio(median_small),
        if gated { "enforced" } else { "informational" },
    );
    let mut json = header("incremental", scale, Profile::from_env());
    json.extend(obj! {
        "device" => "tesla_k40m", "dq_band" => DQ_BAND, "speedup_floor" => SPEEDUP_FLOOR,
        "sweep" => sweep, "graphs" => graph_summaries,
        "summary" => obj! {
            "median_small_churn_speedup" => median_small, "max_abs_dq" => max_dq,
            "max_deficit" => max_deficit, "gated" => gated, "dq_ok" => dq_ok, "perf_ok" => perf_ok,
        },
        "ok" => dq_ok && perf_ok,
    });
    let gates = gates![
        dq_ok => "warm-start modularity fell {max_deficit:.3e} short of the from-scratch run on \
                  some cell, beyond that graph's reference dispersion (floor {DQ_BAND:.0e})",
        perf_ok => "median small-churn speedup {median_small:.2}x is below the {SPEEDUP_FLOOR}x \
                    floor",
    ];
    finish(out, "BENCH_incremental.json", &json, gates)
}

/// `repro portfolio` — quality/speed snapshot of the algorithm portfolio:
/// every member (Louvain, Leiden, sync LPA, async LPA) on every suite
/// workload, reporting modularity, NMI, and wall time per cell
/// (`BENCH_portfolio.json`).
///
/// NMI is scored against the planted ground truth where the generator
/// provides one, and against the same workload's Louvain partition
/// otherwise — either way a partition over the same vertex set, so with the
/// hardened `cd_graph::compare::nmi` the score is finite on *every* cell,
/// and the experiment gates on exactly that (exit 1 on any non-finite or
/// out-of-range value). It also gates the refinement commit rule via the
/// per-stage `refine_delta_q` telemetry: no refinement pass of any Leiden
/// run may ever *lose* modularity at its own stage. (The final Leiden-vs-
/// Louvain Q gap is reported informationally — refinement reshapes the
/// contraction, so later stages legitimately explore a different
/// trajectory and the end-to-end comparison is not a guaranteed
/// invariant.)
pub fn portfolio(scale: Scale, out: &Path) -> Outcome {
    use cd_core::{detect_communities, Algorithm};
    use cd_gpusim::Device;
    use cd_graph::compare::nmi;

    let mut t = Table::new(
        format!("Algorithm portfolio: quality and wall time (scale: {scale:?})"),
        &["graph", "algorithm", "Q", "NMI", "ref", "comms", "wall[s]"],
    );
    let cfg = gpu_cfg(scale);
    let mut cells = Vec::new();
    let mut nmi_ok = true;
    let mut refine_ok = true;
    let mut worst_nmi = f64::INFINITY;
    let mut min_refine_delta = 0.0f64;
    let mut max_leiden_deficit = 0.0f64;
    for spec in SUITE {
        let built = build(spec, scale);
        let g = &built.graph;
        // Louvain runs first: its partition is the NMI reference for
        // workloads without planted ground truth, and its Q anchors the
        // Leiden-never-loses gate.
        let mut louvain_partition: Option<cd_graph::Partition> = None;
        let mut louvain_q = f64::NAN;
        for algorithm in Algorithm::ALL {
            let (wall, res) = timed(|| {
                detect_communities(&Device::k40m(), g, &cfg, algorithm)
                    .expect("portfolio member runs the suite")
            });
            let (score, reference) = match &built.truth {
                Some(truth) => (nmi(&res.partition, truth), "truth"),
                None => match &louvain_partition {
                    Some(lp) => (nmi(&res.partition, lp), "louvain"),
                    None => (1.0, "self"), // Louvain scored against itself
                },
            };
            if !score.is_finite() || !(0.0..=1.0).contains(&score) {
                nmi_ok = false;
            }
            worst_nmi = worst_nmi.min(score);
            match algorithm {
                Algorithm::Louvain => {
                    louvain_q = res.modularity;
                    louvain_partition = Some(res.partition.clone());
                }
                Algorithm::Leiden => {
                    // The guaranteed invariant: every refinement pass holds
                    // or improves its own stage's modularity.
                    for s in &res.stages {
                        min_refine_delta = min_refine_delta.min(s.refine_delta_q);
                        if s.refine_delta_q < -1e-12 {
                            refine_ok = false;
                        }
                    }
                    // Informational: the end-to-end gap vs Louvain.
                    max_leiden_deficit =
                        max_leiden_deficit.max((louvain_q - res.modularity).max(0.0));
                }
                _ => {}
            }
            t.row(vec![
                spec.name.to_string(),
                algorithm.label().to_string(),
                f4(res.modularity),
                format!("{score:.4}"),
                reference.to_string(),
                res.partition.num_communities().to_string(),
                format!("{wall:.4}"),
            ]);
            cells.push(obj! {
                "graph" => spec.name, "algorithm" => algorithm.label(),
                "modularity" => res.modularity, "nmi" => score, "nmi_reference" => reference,
                "communities" => res.partition.num_communities(), "wall_seconds" => wall,
            });
        }
    }
    t.print();
    println!(
        "portfolio: worst NMI = {worst_nmi:.4} (gate: finite, in [0,1]), \
         min per-stage refinement ΔQ = {min_refine_delta:.3e} (gate: ≥0), \
         max final Leiden deficit vs Louvain = {max_leiden_deficit:.3e} (informational)"
    );
    let mut json = header("portfolio", scale, Profile::from_env());
    json.extend(obj! {
        "device" => "tesla_k40m", "cells" => cells,
        "summary" => obj! {
            "worst_nmi" => worst_nmi, "min_refine_delta_q" => min_refine_delta,
            "max_leiden_deficit" => max_leiden_deficit, "nmi_ok" => nmi_ok,
            "refine_ok" => refine_ok,
        },
        "ok" => nmi_ok && refine_ok,
    });
    let lost = -min_refine_delta;
    let gates = gates![
        nmi_ok => "some (algorithm × workload) cell produced a non-finite or out-of-range NMI",
        refine_ok => "a Leiden refinement pass lost {lost:.3e} modularity at its own stage — the \
                      refinement commit rule must never lose",
    ];
    finish(out, "BENCH_portfolio.json", &json, gates)
}

/// `repro dist` — the partitioned out-of-core path (`cd-dist`): sharded CSR,
/// ghost vertices, halo label exchange. Written as `BENCH_dist.json`
/// (committed baseline at `Scale::Medium`, regenerated as a CI artifact at
/// `--scale small` on every push).
///
/// Two phases, three gates:
/// * **quality** — every featured workload runs sharded across 4 devices
///   each sized to ~60% of the graph's single-device footprint (so no
///   device could hold it alone) and is compared against the single-device
///   oracle: the sharded *deficit* `max(0, Q_oracle − Q_sharded)` must stay
///   within [`dispersion_allowance`] of the oracle's Q over the base graph
///   and two ≤ 0.1%-churn instances. Enforced at `Scale::Medium` and above,
///   informational below.
/// * **identity** — a dedicated RMAT graph (scaled with `--scale`, up to
///   tens of millions of arcs at `huge`) runs the full
///   {2, 4} shards × {1, 8} worker-thread matrix under the native-parallel
///   backend. All four cells must produce bit-identical partitions and
///   modularity. Enforced at every scale — this is the CI smoke gate.
/// * **exchange consistency** — zero lost ghost labels and zero ownership
///   violations across every run of both phases. Enforced at every scale.
///
/// Each identity cell also reports the paper-style telemetry: wall time,
/// first-superstep TEPS, exchange rounds, ghost bytes, cut fraction.
pub fn dist(scale: Scale, out: &Path) -> Outcome {
    use cd_core::{estimated_device_bytes, louvain_gpu};
    use cd_dist::{louvain_sharded, DistConfig};
    use cd_gpusim::Device;
    use cd_graph::apply_delta;
    use cd_graph::gen::{rmat, RmatParams};
    use cd_workloads::{churn, featured};

    const QUALITY_SHARDS: usize = 4;
    // Target fraction of the single-device footprint each shard device
    // gets: small enough that no device could run the graph alone.
    const MEM_FRACTION: f64 = 0.6;

    // Device size for a forced out-of-core run: aim at `MEM_FRACTION` of
    // the single-device footprint, but never below what the largest shard
    // of any requested shard count actually needs (hub-heavy graphs ghost
    // almost every vertex, so a K=2 shard can exceed half the footprint),
    // and always strictly below the footprint itself.
    let device_bytes_for = |g: &cd_graph::Csr, shard_counts: &[usize]| -> usize {
        let footprint = estimated_device_bytes(g);
        let max_req = shard_counts
            .iter()
            .map(|&k| {
                let s = cd_graph::ShardedCsr::build(g, k);
                s.shards.iter().map(|sh| estimated_device_bytes(&sh.graph)).max().unwrap_or(0)
            })
            .max()
            .unwrap_or(0);
        ((footprint as f64 * MEM_FRACTION) as usize)
            .max(max_req + max_req / 16)
            .min(footprint.saturating_sub(1))
            .max(max_req)
    };

    let cfg = gpu_cfg(scale);
    let mut lost_labels = 0usize;
    let mut ownership_violations = 0usize;

    // -- phase 1: quality vs the single-device oracle ------------------------
    let mut t = Table::new(
        format!("Sharded vs single-device Louvain (scale: {scale:?}, {QUALITY_SHARDS} shards)"),
        &[
            "graph",
            "footprint",
            "device",
            "cut%",
            "strategy",
            "oracle Q",
            "sharded Q",
            "deficit",
            "allowance",
            "rounds",
            "ghost KiB",
        ],
    );
    let mut quality = Vec::new();
    let mut deficit_ok = true;
    let mut max_deficit = 0.0f64;
    for spec in featured() {
        let built = build(spec, scale);
        let g = &built.graph;
        let footprint = estimated_device_bytes(g);
        let oracle = louvain_gpu(&Device::k40m(), g, &cfg).expect("oracle run");
        // Oracle dispersion: cold runs on two near-identical churn
        // instances bound how tightly *any* second method can track it.
        let mut ref_qs = vec![oracle.modularity];
        for (i, frac) in [0.0005, 0.001].into_iter().enumerate() {
            let batch = churn(g, 0xD157 + i as u64, frac);
            let (patched, _) = apply_delta(g, &batch).expect("churn applies");
            ref_qs.push(louvain_gpu(&Device::k40m(), &patched, &cfg).expect("ref run").modularity);
        }
        let (spread, allowance) = dispersion_allowance(&ref_qs);

        let mut dcfg = DistConfig::k40m(QUALITY_SHARDS);
        dcfg.gpu = cfg;
        dcfg.device.global_mem_bytes = device_bytes_for(g, &[QUALITY_SHARDS]);
        let (wall, r) = timed(|| louvain_sharded(g, &dcfg).expect("sharded run"));
        lost_labels += r.telemetry.lost_labels;
        ownership_violations += r.telemetry.ownership_violations;
        let deficit = (oracle.modularity - r.modularity).max(0.0);
        max_deficit = max_deficit.max(deficit);
        if deficit > allowance {
            deficit_ok = false;
        }
        t.row(vec![
            spec.name.to_string(),
            format!("{:.1}M", footprint as f64 / 1e6),
            format!("{:.1}M", dcfg.device.global_mem_bytes as f64 / 1e6),
            format!("{:.2}%", r.telemetry.cut_fraction * 100.0),
            r.telemetry.strategy.to_string(),
            f4(oracle.modularity),
            f4(r.modularity),
            format!("{deficit:.3e}"),
            format!("{allowance:.3e}"),
            r.telemetry.exchange_rounds.to_string(),
            format!("{:.1}", r.telemetry.ghost_bytes as f64 / 1024.0),
        ]);
        quality.push(obj! {
            "graph" => spec.name, "vertices" => g.num_vertices(), "arcs" => g.num_arcs(),
            "footprint_bytes" => footprint, "device_bytes" => dcfg.device.global_mem_bytes,
            "num_shards" => QUALITY_SHARDS, "cut_fraction" => r.telemetry.cut_fraction,
            "strategy" => r.telemetry.strategy.to_string(),
            "oracle_modularity" => oracle.modularity, "sharded_modularity" => r.modularity,
            "reference_spread" => spread, "allowance" => allowance, "deficit" => deficit,
            "levels" => r.telemetry.levels, "sharded_levels" => r.telemetry.sharded_levels,
            "exchange_rounds" => r.telemetry.exchange_rounds,
            "ghost_updates" => r.telemetry.ghost_updates, "ghost_bytes" => r.telemetry.ghost_bytes,
            "resident_ghosts" => r.telemetry.resident_ghosts,
            "max_shard_bytes" => r.telemetry.max_shard_bytes, "wall_seconds" => wall,
            "ok" => deficit <= allowance,
        });
        println!(
            "  {}: oracle {:.4} sharded {:.4}, deficit {deficit:.3e} vs allowance \
             {allowance:.3e} ({})",
            spec.name,
            oracle.modularity,
            r.modularity,
            if deficit <= allowance { "ok" } else { "EXCEEDED" },
        );
    }
    t.print();

    // -- phase 2: bit-identity matrix on a dedicated out-of-core graph -------
    let (rmat_scale, edge_factor) = match scale {
        Scale::Tiny => (12, 8),
        Scale::Small => (14, 8),
        Scale::Medium => (16, 12),
        Scale::Large => (18, 16),
        Scale::Huge => (21, 16),
    };
    let g = rmat(rmat_scale, edge_factor, RmatParams::GRAPH500, 0xD157);
    let footprint = estimated_device_bytes(&g);
    let dev_bytes = device_bytes_for(&g, &[2, 4]);
    println!(
        "\nidentity graph: rmat-{rmat_scale} ({} vertices, {} arcs, footprint {:.1} MB, \
         device {:.1} MB)",
        g.num_vertices(),
        g.num_arcs(),
        footprint as f64 / 1e6,
        dev_bytes as f64 / 1e6,
    );
    let mut t2 = Table::new(
        "Bit-identity matrix: shards x worker threads (native-parallel backend)".to_string(),
        &["shards", "threads", "Q", "wall[s]", "TEPS", "rounds", "ghost KiB", "lost", "ownership"],
    );
    let mut cells = Vec::new();
    let mut outputs: Vec<(Vec<u32>, u64)> = Vec::new();
    for shards in [2usize, 4] {
        for threads in [1usize, 8] {
            let mut dcfg = DistConfig::k40m(shards);
            dcfg.gpu = cfg;
            dcfg.device.global_mem_bytes = dev_bytes;
            dcfg.device = dcfg.device.with_profile(Profile::Parallel).with_threads(threads);
            let (wall, r) = timed(|| louvain_sharded(&g, &dcfg).expect("identity run"));
            let teps = g.num_arcs() as f64 / r.telemetry.first_superstep.as_secs_f64().max(1e-12);
            lost_labels += r.telemetry.lost_labels;
            ownership_violations += r.telemetry.ownership_violations;
            t2.row(vec![
                shards.to_string(),
                threads.to_string(),
                f4(r.modularity),
                format!("{wall:.4}"),
                format!("{teps:.3e}"),
                r.telemetry.exchange_rounds.to_string(),
                format!("{:.1}", r.telemetry.ghost_bytes as f64 / 1024.0),
                r.telemetry.lost_labels.to_string(),
                r.telemetry.ownership_violations.to_string(),
            ]);
            cells.push(obj! {
                "shards" => shards, "threads" => threads, "modularity" => r.modularity,
                "wall_seconds" => wall, "first_superstep_teps" => teps,
                "exchange_rounds" => r.telemetry.exchange_rounds,
                "ghost_updates" => r.telemetry.ghost_updates,
                "ghost_bytes" => r.telemetry.ghost_bytes,
                "cut_fraction" => r.telemetry.cut_fraction,
                "lost_labels" => r.telemetry.lost_labels,
                "ownership_violations" => r.telemetry.ownership_violations,
            });
            outputs.push((r.partition.into_vec(), r.modularity.to_bits()));
        }
    }
    t2.print();
    let bit_identical = outputs.windows(2).all(|w| w[0] == w[1]);
    let exchange_ok = lost_labels == 0 && ownership_violations == 0;
    let gated = scale >= Scale::Medium;
    let quality_ok = !gated || deficit_ok;
    println!(
        "dist: bit_identical={bit_identical}, lost_labels={lost_labels}, \
         ownership_violations={ownership_violations}, max quality deficit {max_deficit:.3e} \
         (gate {} at this scale)",
        if gated { "enforced" } else { "informational" },
    );

    let mut json = header("dist", scale, Profile::from_env());
    json.extend(obj! {
        "device" => format!("tesla_k40m ({MEM_FRACTION} x footprint)"),
        "dq_band" => DQ_BAND, "quality" => quality,
        "identity" => obj! {
            "graph" => format!("rmat-{rmat_scale}"),
            "vertices" => g.num_vertices(), "arcs" => g.num_arcs(), "footprint_bytes" => footprint,
            "device_bytes" => dev_bytes, "cells" => cells, "bit_identical" => bit_identical,
        },
        "summary" => obj! {
            "max_quality_deficit" => max_deficit, "lost_labels" => lost_labels,
            "ownership_violations" => ownership_violations, "gated" => gated,
            "quality_ok" => quality_ok, "exchange_ok" => exchange_ok,
            "bit_identical" => bit_identical,
        },
        "ok" => quality_ok && exchange_ok && bit_identical,
    });
    let gates = gates![
        bit_identical => "sharded Louvain diverged across the shard-count x thread-count matrix \
                          — the halo exchange must be deterministic",
        exchange_ok => "the halo exchange lost {lost_labels} ghost label(s) and recorded \
                        {ownership_violations} ownership violation(s); both must be zero",
        quality_ok => "sharded modularity fell {max_deficit:.3e} short of the single-device \
                       oracle on some workload, beyond that graph's reference dispersion (floor \
                       {DQ_BAND:.0e})",
    ];
    finish(out, "BENCH_dist.json", &json, gates)
}

/// Floor of the oracle-dispersion allowance: a second method may trail the
/// from-scratch reference by this much even when the reference's own spread
/// is smaller.
const DQ_BAND: f64 = 1e-3;

/// The oracle-dispersion rule shared by `incremental` and `dist`: `ref_qs`
/// are cold-run Q values on a graph and its near-identical churn instances
/// (a handful of edges apart). Louvain's greedy trajectory is chaotic on
/// some workloads — such runs land up to ~2e-2 of Q apart — so no second
/// method can be held closer to the reference than the reference holds to
/// itself: the allowance is `max(DQ_BAND, spread)`. Returns `(spread,
/// allowance)`.
fn dispersion_allowance(ref_qs: &[f64]) -> (f64, f64) {
    let spread = ref_qs.iter().copied().fold(f64::MIN, f64::max)
        - ref_qs.iter().copied().fold(f64::MAX, f64::min);
    (spread, DQ_BAND.max(spread))
}

/// A latency summary as snapshot JSON.
fn latency(l: &cd_serve::LatencyStats) -> Json {
    obj! {
        "count" => l.count, "mean_ms" => l.mean_ms, "p50_ms" => l.p50_ms, "p90_ms" => l.p90_ms,
        "p99_ms" => l.p99_ms, "max_ms" => l.max_ms,
    }
}

/// Median of `xs` (sorts in place; 0.0 when empty). Even lengths take the
/// mean of the middle pair.
fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

fn geometric_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn subset_resolves() {
        assert!(!comparison_subset().is_empty());
    }

    #[test]
    fn csv_experiment_fails_when_its_file_cannot_be_written() {
        let file = std::env::temp_dir().join(format!("cd-bench-csv-{}", std::process::id()));
        std::fs::write(&file, "a regular file").unwrap();
        let outcome = buckets(Scale::Tiny, &file.join("out"));
        std::fs::remove_file(&file).unwrap();
        let errors = outcome.expect_err("a directory below a regular file cannot be created");
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].starts_with("could not create"), "{errors:?}");
    }
}
