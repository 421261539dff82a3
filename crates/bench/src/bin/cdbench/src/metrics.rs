//! Every metric the benchmark emits, with its unit, its direction and (for
//! per-layer metrics) the end-to-end metric and workload it should move.
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.
//! Bounds live only in `BENCHMARK.json`.

use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// What the metric is, or (per layer) what it should move, and where.
    pub about: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    about: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, about }
}

use Better::{Higher, Lower};

/// Emitted by every untraced run, for every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("p50_ms", "ms", Lower, "median latency of one operation (detection call, or serve request from its scheduled send time to settle)"),
    m("p90_ms", "ms", Lower, "nearest-rank p90 of the same latencies"),
    m("modularity", "Q", Higher, "mean Q of the returned partitions, each checked against cd_graph::modularity"),
    m("setup_s", "s", Lower, "median of the run's set-ups (3 on the solve workloads, 2 on the others): input generation, device or server construction, warm-up or cold base jobs, delta pre-generation"),
    m("peak_rss_mb", "MiB", Lower, "VmHWM of the workload's process"),
];

/// Emitted by every traced run. A workload that never enters a layer
/// reports that layer's metrics as 0.
pub const PER_LAYER: &[MetricDef] = &[
    // serve — serve-mixed
    m("serve.read_p50_ms", "ms", Lower, "reads only -> p50_ms on serve-mixed"),
    m("serve.read_p90_ms", "ms", Lower, "reads only -> p50_ms on serve-mixed"),
    m("serve.write_p50_ms", "ms", Lower, "writes only -> p90_ms on serve-mixed"),
    m("serve.write_p90_ms", "ms", Lower, "writes only -> p90_ms on serve-mixed"),
    m(
        "serve.read_submit_ms",
        "ms",
        Lower,
        "p50 of Server::submit for reads -> p50_ms on serve-mixed",
    ),
    m("serve.write_submit_ms", "ms", Lower, "p50 of Server::submit_delta -> p90_ms on serve-mixed"),
    m(
        "serve.hash_ms",
        "ms",
        Lower,
        "cd_serve::structural_hash of a base graph -> p50_ms on serve-mixed",
    ),
    m(
        "serve.queue_wait_ms.mean",
        "ms",
        Lower,
        "mean ServeMetrics queue wait over the stream -> p90_ms on serve-mixed",
    ),
    m(
        "serve.exec_ms.mean",
        "ms",
        Lower,
        "mean ServeMetrics exec time over the stream -> p90_ms on serve-mixed",
    ),
    m("serve.cache_hit_ratio", "ratio", Higher, "cache hits / reads -> p50_ms on serve-mixed"),
    m(
        "serve.warm_start_ratio",
        "ratio",
        Higher,
        "warm-started runs / writes -> p90_ms on serve-mixed",
    ),
    m(
        "serve.coalesced",
        "count",
        Lower,
        "coalesced submissions over the stream -> p90_ms on serve-mixed",
    ),
    m(
        "serve.evictions",
        "count",
        Lower,
        "cache evictions over the stream (must be 0) -> p50_ms on serve-mixed",
    ),
    m("serve.max_queue_depth", "count", Lower, "queue high-water mark -> p90_ms on serve-mixed"),
    m(
        "serve.max_in_flight",
        "count",
        Lower,
        "concurrent-run high-water mark -> p90_ms on serve-mixed",
    ),
    m("serve.rejected", "count", Lower, "rejections over the stream -> failed on serve-mixed"),
    m("serve.expired", "count", Lower, "expiries over the stream -> failed on serve-mixed"),
    m("serve.failed", "count", Lower, "failed jobs over the stream -> failed on serve-mixed"),
    m(
        "serve.cold_ms.cnr2000",
        "ms",
        Lower,
        "cold base jobs on an idle server, mean of pruning off/on -> setup_s on serve-mixed",
    ),
    m(
        "serve.cold_ms.road-usa",
        "ms",
        Lower,
        "cold base jobs on an idle server, mean of pruning off/on -> setup_s on serve-mixed",
    ),
    m(
        "serve.cold_ms.com-dblp",
        "ms",
        Lower,
        "cold base jobs on an idle server, mean of pruning off/on -> setup_s on serve-mixed",
    ),
    m(
        "serve.cold_ms.channel",
        "ms",
        Lower,
        "cold base jobs on an idle server, mean of pruning off/on -> setup_s on serve-mixed",
    ),
    m(
        "serve.cold_ms.nlpkkt",
        "ms",
        Lower,
        "cold base jobs on an idle server, mean of pruning off/on -> setup_s on serve-mixed",
    ),
    m(
        "serve.cold_direct_ratio",
        "x",
        Lower,
        "cold jobs / the same solves called directly -> setup_s on serve-mixed",
    ),
    // dist — sharded-web
    m(
        "dist.exchange_rounds",
        "count",
        Lower,
        "DistTelemetry halo exchange rounds -> p50_ms on sharded-web",
    ),
    m("dist.ghost_bytes", "B", Lower, "DistTelemetry bytes exchanged -> p50_ms on sharded-web"),
    m("dist.levels", "count", Lower, "DistTelemetry contraction levels -> p50_ms on sharded-web"),
    m(
        "dist.sharded_levels",
        "count",
        Lower,
        "DistTelemetry levels run sharded -> p50_ms on sharded-web",
    ),
    m("dist.wave_ms", "ms", Lower, "call wall / exchange rounds -> p50_ms on sharded-web"),
    m(
        "dist.first_superstep_ms",
        "ms",
        Lower,
        "DistTelemetry first superstep -> p50_ms on sharded-web",
    ),
    m("dist.shard_build_ms", "ms", Lower, "ShardedCsr::build(g, 4) -> p50_ms on sharded-web"),
    m(
        "dist.single_device_s",
        "s",
        Lower,
        "louvain_gpu on the same graph and device (reference for dist.overhead_x)",
    ),
    m("dist.overhead_x", "x", Lower, "sharded p50 / dist.single_device_s -> p50_ms on sharded-web"),
    // core — solve-web, solve-kkt
    m("core.opt_s", "s", Lower, "GpuStageStats optimisation time -> p50_ms on solve-web"),
    m("core.agg_s", "s", Lower, "GpuStageStats aggregation time -> p50_ms on solve-kkt"),
    m("core.glue_s", "s", Lower, "total_time - opt - agg -> p50_ms on solve-kkt"),
    m(
        "core.call_overhead_s",
        "s",
        Lower,
        "call wall - total_time -> p50_ms on solve-web/solve-kkt",
    ),
    m(
        "core.stages",
        "count",
        Lower,
        "stages summed over the run's graphs -> p50_ms, modularity on solve-kkt",
    ),
    m(
        "core.iterations",
        "count",
        Lower,
        "optimisation iterations, summed likewise -> p50_ms, modularity",
    ),
    m("core.moves", "count", Lower, "vertex moves, summed likewise -> p50_ms, modularity"),
    m(
        "core.first_iter_teps",
        "arcs/s",
        Higher,
        "first-iteration traversed arcs per second -> p50_ms on solve-web",
    ),
    m(
        "core.solve_2t_s",
        "s",
        Lower,
        "the same call on a 2-thread device (parallel-efficiency reference)",
    ),
    m(
        "core.modopt_kernel_ms",
        "ms",
        Lower,
        "compute_move_* wall in the counted run -> p50_ms on solve-web",
    ),
    m(
        "core.aggregate_kernel_ms",
        "ms",
        Lower,
        "merge_community_*/aggregate_* wall in the counted run -> p50_ms on solve-kkt",
    ),
    m(
        "core.commit_kernel_ms",
        "ms",
        Lower,
        "commit/update/modularity/snapshot kernels in the counted run -> p50_ms",
    ),
    m(
        "core.binning_kernel_ms",
        "ms",
        Lower,
        "bin_*/compute_k/init_opt_state wall in the counted run -> p50_ms",
    ),
    // gpusim — the counted Instrumented run of the solve workloads
    m("gpusim.launches", "count", Lower, "kernel launches -> p50_ms on solve-kkt"),
    m("gpusim.blocks", "count", Lower, "blocks executed -> p50_ms on solve-kkt"),
    m("gpusim.kernel_ms", "ms", Lower, "wall inside launches -> p50_ms"),
    m("gpusim.host_glue_ms", "ms", Lower, "counted-run wall - kernel wall -> p50_ms on solve-kkt"),
    m("gpusim.thrust_ms", "ms", Lower, "wall inside thrust::* primitives -> p50_ms"),
    m(
        "gpusim.global_transactions",
        "count",
        Lower,
        "128-byte global transactions -> p50_ms on solve-web",
    ),
    m(
        "gpusim.bytes_moved_computed",
        "B",
        Lower,
        "transactions x 128, computed not measured -> p50_ms on solve-web",
    ),
    m("gpusim.atomics", "count", Lower, "atomic adds + CAS attempts -> p50_ms on solve-web"),
    m("gpusim.cas_failure_ratio", "ratio", Lower, "failed / attempted CAS -> p50_ms on solve-web"),
    m(
        "gpusim.active_lane_ratio",
        "ratio",
        Higher,
        "active / issued lane slots -> p50_ms on solve-web",
    ),
    m(
        "gpusim.table_fallbacks",
        "count",
        Lower,
        "shared-to-global hash-table fallbacks -> p50_ms on solve-web",
    ),
    m(
        "gpusim.pool_hit_ratio",
        "ratio",
        Higher,
        "buffer-pool hits / requests -> p50_ms, peak_rss_mb",
    ),
    m("gpusim.pool_bytes_allocated", "B", Lower, "buffer-pool fresh allocations -> peak_rss_mb"),
    m("gpusim.model_ms", "ms", Lower, "modeled K40m time; never compared with host wall time"),
    // graph
    m(
        "graph.modularity_ms",
        "ms",
        Lower,
        "cd_graph::modularity, once per solve and per superstep -> p50_ms",
    ),
    m("graph.contract_ms", "ms", Lower, "contract(g, returned partition) -> p50_ms on sharded-web"),
    m(
        "graph.apply_delta_ms",
        "ms",
        Lower,
        "apply_delta of one batch -> p90_ms on serve-mixed, setup_s",
    ),
    m("graph.build_s", "s", Lower, "cd_workloads::load of the base graph(s) -> setup_s"),
    // baselines — reference only
    m("baselines.sequential_s", "s", Lower, "louvain_sequential on the first graph (reference)"),
    m("baselines.sequential_modularity", "Q", Higher, "its Q (reference)"),
    // loadgen — the benchmark's own open-loop generator on serve-mixed
    m("loadgen.offered", "count", Higher, "scheduled requests"),
    m(
        "loadgen.completed",
        "count",
        Higher,
        "requests settled with a result -> failed on serve-mixed",
    ),
    m(
        "loadgen.late_p99_ms",
        "ms",
        Lower,
        "how far the submitter fell behind its schedule (p99) -> p50_ms on serve-mixed",
    ),
    m("loadgen.late_max_ms", "ms", Lower, "the same, worst case -> p90_ms on serve-mixed"),
    // bench
    m("bench.trace_overhead_pct", "%", Lower, "span recording cost / traced measured-phase wall"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// `(def, value)` for every metric of `defs`, in registry order. A missing
/// value reads 0: per-layer metrics of a layer the workload never entered.
/// (Every workload measures every end-to-end metric; the smoke test checks.)
pub fn complete<'a>(defs: &'a [MetricDef], values: &Values) -> Vec<(&'a MetricDef, f64)> {
    debug_assert!(values.keys().all(|k| defs.iter().any(|d| d.name == *k)), "unregistered metric");
    defs.iter().map(|d| (d, values.get(d.name).copied().unwrap_or(0.0))).collect()
}
