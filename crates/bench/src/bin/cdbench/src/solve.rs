//! The detection workloads: `solve-web`, `solve-kkt` (single device) and
//! `sharded-web` (`cd_dist::louvain_sharded` across four shard devices).

use crate::check::{same_answer, verify_answer, Answer, Checks};
use crate::metrics::Values;
use crate::stats::{mean, median, percentile, ratio};
use crate::trace::{SpanId, Tracer};
use crate::{answer_device, gpu_config, peak_rss_mb, Opts, Outcome};
use cd_baselines::{louvain_sequential, SequentialConfig};
use cd_core::{estimated_device_bytes, louvain_gpu, GpuLouvainConfig, GpuLouvainResult};
use cd_dist::{louvain_sharded, DistConfig, DistResult};
use cd_gpusim::{Device, DeviceConfig, MetricsReport, Profile};
use cd_graph::{apply_delta, contract, modularity, Csr, Partition, ShardedCsr};
use cd_workloads::{churn, load, Scale};
use std::time::Instant;

pub struct SolveSpec {
    graph: &'static str,
    scale: Scale,
    /// `Some(k)`: run sharded across `k` shard devices.
    shards: Option<usize>,
    /// Churned copies of the graph one run cycles through (seed > 0), so a
    /// run's numbers average over inputs rather than ride on one.
    variants: usize,
    /// Typical call time on a 2-core host at 1 thread. It fixes the rep
    /// count from `--seconds`, identically for every build measured.
    nominal_call_s: f64,
    /// Set-ups per run. Each one makes a warm-up call, so this stays low
    /// where a call is long.
    setups: u64,
    /// Q of the unchanged suite graph (seed 0) as committed under
    /// `results/`, to the 15 decimals it was committed with.
    committed_q: Option<f64>,
}

/// From `results/BENCH_portfolio.json` (uk2002 small, louvain).
pub const SOLVE_WEB: SolveSpec = SolveSpec {
    graph: "uk2002",
    scale: Scale::Small,
    shards: None,
    variants: 16,
    nominal_call_s: 0.07,
    setups: 3,
    committed_q: Some(0.788139015570493),
};

/// From `results/BENCH_portfolio.json` (nlpkkt small, louvain).
pub const SOLVE_KKT: SolveSpec = SolveSpec {
    graph: "nlpkkt",
    scale: Scale::Small,
    shards: None,
    variants: 16,
    nominal_call_s: 0.1,
    setups: 3,
    committed_q: Some(0.811704221035017),
};

pub const SHARDED_WEB: SolveSpec = SolveSpec {
    graph: "uk2002",
    scale: Scale::Small,
    shards: Some(4),
    variants: 1,
    nominal_call_s: 1.3,
    setups: 2,
    committed_q: None,
};

/// Each shard device gets this share of the single-device footprint, raised
/// to the largest shard if needed — the sizing rule of `repro dist`.
const SHARD_MEM_FRACTION: f64 = 0.6;
const PERTURB_CHURN: f64 = 1e-4;

enum Engine {
    Single(Device),
    Sharded(DistConfig),
}

enum Solved {
    Single(GpuLouvainResult),
    Sharded(DistResult),
}

impl Solved {
    fn partition(&self) -> &Partition {
        match self {
            Solved::Single(r) => &r.partition,
            Solved::Sharded(r) => &r.partition,
        }
    }

    fn q(&self) -> f64 {
        match self {
            Solved::Single(r) => r.modularity,
            Solved::Sharded(r) => r.modularity,
        }
    }

    fn answer(&self) -> Answer {
        Answer::of(self.partition().as_slice(), self.q())
    }
}

struct Setup {
    graphs: Vec<Csr>,
    engine: Engine,
    build_s: f64,
    apply_ms: Vec<f64>,
    warm: Result<Answer, String>,
}

fn call(
    engine: &Engine,
    cfg: &GpuLouvainConfig,
    g: &Csr,
    tracer: &Tracer,
    parent: Option<SpanId>,
    tag: u64,
) -> Result<Solved, String> {
    match engine {
        Engine::Single(dev) => tracer
            .span("core.louvain_gpu", parent, tag, |_| louvain_gpu(dev, g, cfg))
            .map(Solved::Single),
        Engine::Sharded(dcfg) => tracer
            .span("dist.louvain_sharded", parent, tag, |_| louvain_sharded(g, dcfg))
            .map(Solved::Sharded),
    }
    .map_err(|e| e.to_string())
}

/// Shard device memory: `SHARD_MEM_FRACTION` of the footprint, never below
/// the largest shard, always below the footprint itself.
fn shard_device_bytes(g: &Csr, k: usize) -> usize {
    let footprint = estimated_device_bytes(g);
    let sharded = ShardedCsr::build(g, k);
    let largest =
        sharded.shards.iter().map(|s| estimated_device_bytes(&s.graph)).max().unwrap_or(0);
    ((footprint as f64 * SHARD_MEM_FRACTION) as usize)
        .max(largest + largest / 16)
        .min(footprint.saturating_sub(1))
        .max(largest)
}

fn variant_seed(seed: u64, j: usize) -> u64 {
    (seed << 8) | j as u64
}

fn setup(
    spec: &SolveSpec,
    opts: &Opts,
    cfg: &GpuLouvainConfig,
    tracer: &Tracer,
    i: u64,
) -> (Setup, f64) {
    tracer.span("bench.setup", None, i, |p| {
        let t0 = Instant::now();
        let scale = opts.scale(spec.scale);
        let base = tracer
            .span("workloads.load", p, 0, |_| load(spec.graph, scale))
            .expect("suite graph names resolve")
            .graph;
        let build_s = t0.elapsed().as_secs_f64();
        let mut apply_ms = Vec::new();
        let graphs = if opts.seed == 0 {
            vec![base]
        } else {
            (0..spec.variants)
                .map(|j| {
                    let delta = churn(&base, variant_seed(opts.seed, j), PERTURB_CHURN);
                    let t = Instant::now();
                    let (g, _) = tracer
                        .span("graph.apply_delta", p, j as u64, |_| apply_delta(&base, &delta))
                        .expect("churn draws batches that apply to their graph");
                    apply_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    g
                })
                .collect()
        };
        let engine = match spec.shards {
            None => Engine::Single(Device::new(answer_device(1))),
            Some(k) => {
                let mut dcfg = DistConfig::k40m(k);
                dcfg.gpu = *cfg;
                dcfg.device = answer_device(1);
                dcfg.device.global_mem_bytes = tracer
                    .span("graph.sharded_csr_build", p, 0, |_| shard_device_bytes(&graphs[0], k));
                Engine::Sharded(dcfg)
            }
        };
        let warm = call(&engine, cfg, &graphs[0], tracer, p, 0).map(|s| s.answer());
        let setup = Setup { graphs, engine, build_s, apply_ms, warm };
        (setup, t0.elapsed().as_secs_f64())
    })
}

/// Per-call numbers the layer metrics are built from.
#[derive(Default)]
struct Calls {
    wall_ms: Vec<f64>,
    opt_s: Vec<f64>,
    agg_s: Vec<f64>,
    glue_s: Vec<f64>,
    overhead_s: Vec<f64>,
    teps: Vec<f64>,
    first_superstep_ms: Vec<f64>,
    wave_ms: Vec<f64>,
}

pub fn run(spec: &SolveSpec, opts: &Opts) -> Outcome {
    let tracer = Tracer::new(opts.traced);
    let mut checks = Checks::default();
    let cfg = gpu_config(opts.scale(spec.scale));

    let (s, secs) = setup(spec, opts, &cfg, &tracer, 0);
    let mut setup_s = vec![secs];
    let mut build_s = vec![s.build_s];
    if let Err(e) = &s.warm {
        checks.fail(format!("warm-up call failed: {e}"));
    }
    let k = s.graphs.len();
    let per_variant = if opts.tiny {
        2
    } else {
        ((opts.seconds / (spec.nominal_call_s * k as f64)).round() as usize).max(2)
    };
    let reps = per_variant * k;
    // The first answer for each input; every later call must repeat it.
    let mut first: Vec<Option<Solved>> = (0..k).map(|_| None).collect();
    let mut calls = Calls::default();
    let spans_before = tracer.spans().len();
    let measure_t0 = Instant::now();
    tracer.span("bench.measure", None, 0, |mp| {
        for r in 0..reps {
            let v = r % k;
            let g = &s.graphs[v];
            tracer.span("bench.rep", mp, r as u64, |p| {
                let t = Instant::now();
                let res = call(&s.engine, &cfg, g, &tracer, p, r as u64);
                let wall = t.elapsed().as_secs_f64();
                let solved = match res {
                    Ok(solved) => solved,
                    Err(e) => return checks.op(vec![format!("rep {r}: {e}")]),
                };
                calls.wall_ms.push(wall * 1e3);
                let answer = solved.answer();
                let what = format!("{} input {v} rep {r}", spec.graph);
                let mut problems = Vec::new();
                match &first[v] {
                    Some(reference) => {
                        problems.extend(same_answer(&what, &reference.answer(), &answer))
                    }
                    None => {
                        if let (0, Ok(warm)) = (v, &s.warm) {
                            problems.extend(same_answer(&what, warm, &answer));
                        }
                        let q = tracer.span("graph.modularity", p, r as u64, |_| {
                            modularity(g, solved.partition())
                        });
                        problems.extend(verify_answer(&what, g.num_vertices(), &answer, q));
                        if let (0, false, Some(want)) = (opts.seed, opts.tiny, spec.committed_q) {
                            if format!("{:.15}", answer.q()) != format!("{want:.15}") {
                                problems
                                    .push(format!("{what}: Q {} != committed {want}", answer.q()));
                            }
                        }
                    }
                }
                match &solved {
                    Solved::Single(res) => {
                        let (opt, agg) =
                            (res.opt_time().as_secs_f64(), res.agg_time().as_secs_f64());
                        let total = res.total_time.as_secs_f64();
                        calls.opt_s.push(opt);
                        calls.agg_s.push(agg);
                        calls.glue_s.push(total - opt - agg);
                        calls.overhead_s.push(wall - total);
                        calls.teps.push(res.first_phase_teps());
                    }
                    Solved::Sharded(res) => {
                        let t = &res.telemetry;
                        if t.lost_labels != 0 || t.ownership_violations != 0 || t.degraded {
                            problems.push(format!(
                                "{what}: {} lost labels, {} ownership violations, degraded {}",
                                t.lost_labels, t.ownership_violations, t.degraded
                            ));
                        }
                        calls.first_superstep_ms.push(t.first_superstep.as_secs_f64() * 1e3);
                        calls.wave_ms.push(ratio(wall * 1e3, t.exchange_rounds as f64));
                    }
                }
                first[v].get_or_insert(solved);
                checks.op(problems);
            });
        }
    });
    let measure_s = measure_t0.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mb();
    let p50_ms = median(&calls.wall_ms);

    let mut layer = Values::new();
    if opts.traced {
        let measured = tracer.spans().split_off(spans_before);
        let detect_ms: f64 = measured
            .iter()
            .filter(|s| matches!(s.name, "core.louvain_gpu" | "dist.louvain_sharded"))
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum();
        eprintln!(
            "  {}: detection spans cover {:.1}% of the measured phase",
            spec.graph,
            100.0 * detect_ms / (measure_s * 1e3)
        );
        layer.insert("bench.trace_overhead_pct", Tracer::overhead_pct(measured.len(), measure_s));
        layer.insert("graph.apply_delta_ms", median(&s.apply_ms));
        layer.insert("graph.modularity_ms", median(&tracer.durations_ms("graph.modularity")));
        layer_metrics(&calls, &first, &mut layer);
        if let Some(first) = &first[0] {
            let (values, problems) = extras(spec, &cfg, &s.graphs[0], first, p50_ms, &tracer);
            layer.extend(values);
            checks.op(problems);
        }
    }
    drop(s);

    // The other set-ups run after the measured phase: timed for `setup_s`,
    // but leaving nothing behind that the measured phase or its peak sees.
    for i in 1..opts.setups(spec.setups) {
        let (again, secs) = setup(spec, opts, &cfg, &tracer, i);
        setup_s.push(secs);
        build_s.push(again.build_s);
        let what = format!("set-up {i} warm-up");
        match (&again.warm, &first[0]) {
            (Ok(warm), Some(f)) => checks.op(same_answer(&what, &f.answer(), warm)),
            (Err(e), _) => checks.op(vec![format!("{what}: {e}")]),
            (Ok(_), None) => {}
        }
    }
    if opts.traced {
        layer.insert("graph.build_s", median(&build_s));
    }

    let mut e2e = Values::new();
    e2e.insert("p50_ms", p50_ms);
    e2e.insert("p90_ms", percentile(&calls.wall_ms, 0.9));
    e2e.insert("modularity", mean(&first.iter().flatten().map(Solved::q).collect::<Vec<_>>()));
    e2e.insert("setup_s", median(&setup_s));
    e2e.insert("peak_rss_mb", peak_rss);
    Outcome { e2e, layer, checks, attempted: reps as u64, tracer }
}

fn layer_metrics(calls: &Calls, first: &[Option<Solved>], layer: &mut Values) {
    let mut counts = [0usize; 3];
    for solved in first.iter().flatten() {
        match solved {
            Solved::Single(r) => {
                counts[0] += r.stages.len();
                counts[1] += r.stages.iter().map(|s| s.iterations).sum::<usize>();
                counts[2] += r.stages.iter().map(|s| s.moves).sum::<usize>();
            }
            Solved::Sharded(r) => {
                let t = &r.telemetry;
                layer.insert("dist.exchange_rounds", t.exchange_rounds as f64);
                layer.insert("dist.ghost_bytes", t.ghost_bytes as f64);
                layer.insert("dist.levels", t.levels as f64);
                layer.insert("dist.sharded_levels", t.sharded_levels as f64);
            }
        }
    }
    if !calls.opt_s.is_empty() {
        layer.insert("core.opt_s", median(&calls.opt_s));
        layer.insert("core.agg_s", median(&calls.agg_s));
        layer.insert("core.glue_s", median(&calls.glue_s));
        layer.insert("core.call_overhead_s", median(&calls.overhead_s));
        layer.insert("core.first_iter_teps", median(&calls.teps));
        layer.insert("core.stages", counts[0] as f64);
        layer.insert("core.iterations", counts[1] as f64);
        layer.insert("core.moves", counts[2] as f64);
    }
    if !calls.wave_ms.is_empty() {
        layer.insert("dist.wave_ms", median(&calls.wave_ms));
        layer.insert("dist.first_superstep_ms", median(&calls.first_superstep_ms));
    }
}

/// Median wall (s) of `reps` calls of `f`, after one warm-up call.
fn timed(reps: usize, mut f: impl FnMut(u64)) -> f64 {
    f(0);
    let mut walls = Vec::with_capacity(reps);
    for r in 1..=reps {
        let t = Instant::now();
        f(r as u64);
        walls.push(t.elapsed().as_secs_f64());
    }
    median(&walls)
}

/// Kernel family a launch name belongs to, for the `core.*_kernel_ms` split.
fn kernel_family(name: &str) -> Option<&'static str> {
    let starts = |prefixes: &[&str]| prefixes.iter().any(|p| name.starts_with(p));
    if starts(&["compute_move"]) {
        Some("core.modopt_kernel_ms")
    } else if starts(&["merge_community", "aggregate_", "agg_"]) {
        Some("core.aggregate_kernel_ms")
    } else if starts(&["commit_", "update_communities", "modularity_partials", "snapshot_best"]) {
        Some("core.commit_kernel_ms")
    } else if starts(&["bin_", "compute_k", "init_opt_state"]) {
        Some("core.binning_kernel_ms")
    } else {
        None
    }
}

fn gpusim_metrics(m: &MetricsReport, cfg: &DeviceConfig, wall_ms: f64, layer: &mut Values) {
    let total = m.total();
    let c = &total.counters;
    let kernel_ms = total.wall_time.as_secs_f64() * 1e3;
    let mut thrust_ms = 0.0;
    for (name, k) in m.kernels() {
        let ms = k.wall_time.as_secs_f64() * 1e3;
        if name.starts_with("thrust::") {
            thrust_ms += ms;
        }
        if let Some(family) = kernel_family(name) {
            *layer.entry(family).or_default() += ms;
        }
    }
    let pool = m.pool();
    layer.insert("gpusim.launches", total.launches as f64);
    layer.insert("gpusim.blocks", total.blocks as f64);
    layer.insert("gpusim.kernel_ms", kernel_ms);
    layer.insert("gpusim.host_glue_ms", wall_ms - kernel_ms);
    layer.insert("gpusim.thrust_ms", thrust_ms);
    layer.insert("gpusim.global_transactions", c.global_transactions as f64);
    layer.insert("gpusim.bytes_moved_computed", c.global_transactions as f64 * 128.0);
    layer.insert("gpusim.atomics", (c.atomic_adds + c.cas_ops) as f64);
    layer.insert("gpusim.cas_failure_ratio", ratio(c.cas_failures as f64, c.cas_ops as f64));
    layer.insert("gpusim.active_lane_ratio", ratio(c.active_lanes as f64, c.lane_slots as f64));
    layer.insert("gpusim.table_fallbacks", c.table_fallbacks as f64);
    layer
        .insert("gpusim.pool_hit_ratio", ratio(pool.hits as f64, (pool.hits + pool.misses) as f64));
    layer.insert("gpusim.pool_bytes_allocated", pool.bytes_allocated as f64);
    layer.insert("gpusim.model_ms", cfg.cycles_to_seconds(m.total_model_cycles(cfg)) * 1e3);
}

/// The traced run's additions on the first input: one counted
/// `Instrumented` call, and the reference calls (sequential baseline, 2-thread
/// or single-device solve, contraction, shard build). Their host times are
/// never end-to-end numbers.
fn extras(
    spec: &SolveSpec,
    cfg: &GpuLouvainConfig,
    g: &Csr,
    first: &Solved,
    p50_ms: f64,
    tracer: &Tracer,
) -> (Values, Vec<String>) {
    let mut layer = Values::new();
    let mut problems = Vec::new();
    tracer.span("bench.extras", None, 0, |p| {
        match spec.shards {
            None => {
                let counted_cfg = DeviceConfig::tesla_k40m().with_profile(Profile::Instrumented);
                let dev = Device::new(counted_cfg.clone());
                let t = Instant::now();
                let res =
                    tracer.span("core.louvain_gpu_counted", p, 0, |_| louvain_gpu(&dev, g, cfg));
                let wall_ms = t.elapsed().as_secs_f64() * 1e3;
                match res {
                    Ok(r) => {
                        // The profiles' contract: bit-identical answers.
                        let got = Answer::of(r.partition.as_slice(), r.modularity);
                        problems.extend(same_answer("counted run", &first.answer(), &got));
                        gpusim_metrics(&dev.metrics(), &counted_cfg, wall_ms, &mut layer);
                    }
                    Err(e) => problems.push(format!("counted run: {e}")),
                }
                let dev2 = Device::new(answer_device(2));
                let solve_2t = timed(3, |r| {
                    let _ =
                        tracer.span("core.louvain_gpu_2t", p, r, |_| louvain_gpu(&dev2, g, cfg));
                });
                layer.insert("core.solve_2t_s", solve_2t);
            }
            Some(k) => {
                let dev = Device::new(answer_device(1));
                let single = timed(3, |r| {
                    let _ =
                        tracer.span("core.louvain_gpu_single", p, r, |_| louvain_gpu(&dev, g, cfg));
                });
                layer.insert("dist.single_device_s", single);
                layer.insert("dist.overhead_x", ratio(p50_ms / 1e3, single));
                let build_s = timed(3, |r| {
                    tracer.span("graph.sharded_csr_build", p, r, |_| ShardedCsr::build(g, k));
                });
                layer.insert("dist.shard_build_ms", build_s * 1e3);
            }
        }
        let contract_s = timed(3, |r| {
            tracer.span("graph.contract", p, r, |_| contract(g, first.partition()));
        });
        layer.insert("graph.contract_ms", contract_s * 1e3);
        let t = Instant::now();
        let seq = tracer.span("baselines.louvain_sequential", p, 0, |_| {
            louvain_sequential(g, &SequentialConfig::original())
        });
        layer.insert("baselines.sequential_s", t.elapsed().as_secs_f64());
        layer.insert("baselines.sequential_modularity", seq.modularity);
    });
    (layer, problems)
}
