//! `repro` — regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro <experiment> [--scale tiny|small|medium|large|huge] [--out DIR]
//!                    [--profile instrumented|racecheck|parallel] [--clients N]
//!
//! experiments:
//!   table1    graphs, sequential vs GPU times and modularity
//!   fig1-2    threshold grid: relative modularity and speedup
//!   fig3-4    speedup vs original and adaptive sequential
//!   fig5-6    per-stage breakdown (road network, KKT graph)
//!   fig7      GPU vs CPU-parallel (OpenMP-style) Louvain
//!   relaxed   relaxed vs per-bucket community updates
//!   plm       comparison with PLM on the four common graphs
//!   teps      first-iteration traversed-edges-per-second rates
//!   profile   kernel utilization counters (nvprof analogue)
//!   ablation  degree binning & hash placement ablations
//!   buckets   degree-bucket census of the workloads (Section 4.1)
//!   multigpu  coarse-grained multi-device extension (Section 6)
//!   schedule  multi-level threshold schedules (Section 6)
//!   faults    fault-injection sweep and multi-device failover
//!   opt-bench perf snapshot of the optimization hot loop (BENCH_opt.json)
//!   backend   Instrumented vs native-Parallel execution profiles, Parallel
//!             at 1 and N worker threads (BENCH_backend.json; exits nonzero
//!             if any backend diverges from Instrumented)
//!   racecheck full-pipeline hazard sweep under the race detector
//!             (BENCH_racecheck.json; exits nonzero on any hazard)
//!   serve     closed-loop load test of the cd-serve service: seeded suite
//!             trace at --clients concurrency, replayed twice plus a
//!             warm-start replay from a cache snapshot
//!             (BENCH_serve.json; exits nonzero on any lost/duplicated job,
//!             failed run, nondeterministic replay, or impure warm restart)
//!   overload  open-loop Poisson-arrival load test: calibrates service
//!             time, sweeps arrival rates to locate the saturation knee,
//!             measures 1×/2×/5× knee (BENCH_overload.json; exits nonzero
//!             on any lost/duplicated job or failed run)
//!   incremental  edge-churn sweep (0.01%–10%) over the featured suite:
//!             warm-start Louvain vs from-scratch wall time and ΔQ
//!             (BENCH_incremental.json; at medium scale and above, exits
//!             nonzero if the warm-start quality deficit exceeds
//!             max(1e-3, the graph's measured cold-run dispersion) on any
//!             cell, or the median small-churn speedup falls below 3× —
//!             smaller scales report both informationally)
//!   dist      partitioned out-of-core execution (cd-dist): every featured
//!             workload sharded across devices too small to hold it, gated
//!             on the single-device oracle's dispersion band, plus a
//!             {2,4} shards × {1,8} threads bit-identity matrix on a
//!             dedicated RMAT graph — tens of millions of arcs at
//!             --scale huge (BENCH_dist.json; exits nonzero on any lost
//!             ghost label, ownership violation, or cross-configuration
//!             divergence)
//!   portfolio algorithm portfolio (Louvain, Leiden, sync/async LPA) over
//!             the whole suite: modularity, NMI vs planted truth (or vs the
//!             Louvain partition where no truth exists), and wall time per
//!             cell (BENCH_portfolio.json; exits nonzero on any non-finite
//!             NMI or any Leiden stage whose refinement pass lost
//!             modularity — the commit-rule invariant)
//!   all       everything above
//! ```
//!
//! `--profile` selects the execution profile for the GPU runs (default:
//! `CD_GPUSIM_PROFILE`, instrumented if unset; every profile honours
//! `CD_GPUSIM_THREADS`, auto-detecting the core count when unset).
//! Experiments whose measurement *is* the instrumented cost model reject
//! uninstrumented profiles rather than report zero model times; `backend`
//! and `racecheck` pin their profiles themselves.

use cd_bench::experiments;
use cd_gpusim::Profile;
use cd_workloads::Scale;
use std::path::PathBuf;

/// Experiments that stay meaningful under the uninstrumented `Parallel`
/// profile — they either run no GPU kernels, quote only quality numbers, or
/// (like `backend`) pin their profiles themselves. Everything else quotes the
/// instrumented cost model and would report zeros.
const PARALLEL_SAFE: [&str; 9] = [
    "backend",
    "buckets",
    "multigpu",
    "racecheck",
    "serve",
    "overload",
    "incremental",
    "portfolio",
    "dist",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print_help();
        return;
    }
    let experiment = args[0].as_str();
    let mut scale = Scale::Small;
    let mut out = PathBuf::from("results");
    let mut profile = Profile::from_env();
    let mut clients = 4usize;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let v = args.get(i).unwrap_or_else(|| die("--scale needs a value"));
                scale = Scale::parse(v)
                    .unwrap_or_else(|| die("scale must be tiny|small|medium|large|huge"));
            }
            "--out" => {
                i += 1;
                out = PathBuf::from(args.get(i).unwrap_or_else(|| die("--out needs a value")));
            }
            "--profile" => {
                i += 1;
                let v = args.get(i).unwrap_or_else(|| die("--profile needs a value"));
                profile = Profile::parse(v)
                    .unwrap_or_else(|| die("profile must be instrumented|racecheck|parallel"));
            }
            "--clients" => {
                i += 1;
                let v = args.get(i).unwrap_or_else(|| die("--clients needs a value"));
                clients = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&c| c >= 1)
                    .unwrap_or_else(|| die("--clients must be a positive integer"));
            }
            other => die(&format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    if !profile.is_instrumented() && !PARALLEL_SAFE.contains(&experiment) {
        die(&format!(
            "experiment '{experiment}' quotes the instrumented cost model and cannot run under \
             the {profile} profile; uninstrumented profiles support: {}",
            PARALLEL_SAFE.join(", ")
        ));
    }
    // Thread the selection through the device default: the stock
    // `DeviceConfig` constructors read this variable (experiments that
    // *require* a specific profile still pin it explicitly).
    std::env::set_var("CD_GPUSIM_PROFILE", profile.to_string());

    // The worker count launches will use — surfaced so a run's parallelism
    // is on record next to its numbers.
    let threads = cd_gpusim::DeviceConfig::tesla_k40m().with_profile(profile).effective_threads();
    println!(
        "# repro: experiment={experiment} scale={scale:?} out={} profile={profile} threads={threads}",
        out.display()
    );
    let t0 = std::time::Instant::now();
    match experiment {
        "table1" => experiments::table1(scale, &out),
        "fig1-2" => experiments::fig1_2(scale, &out),
        "fig3-4" => experiments::fig3_4(scale, &out),
        "fig5-6" => experiments::fig5_6(scale, &out),
        "fig7" => experiments::fig7(scale, &out),
        "relaxed" => experiments::relaxed(scale, &out),
        "plm" => experiments::plm(scale, &out),
        "teps" => experiments::teps(scale, &out),
        "profile" => experiments::profile(scale, &out),
        "ablation" => experiments::ablation(scale, &out),
        "buckets" => experiments::buckets(scale, &out),
        "multigpu" => experiments::multigpu(scale, &out),
        "schedule" => experiments::schedule(scale, &out),
        "faults" => experiments::faults(scale, &out),
        "opt-bench" => experiments::opt_snapshot(scale, &out),
        "backend" => experiments::backend_snapshot(scale, &out),
        "racecheck" => experiments::racecheck_sweep(scale, &out),
        "serve" => experiments::serve_snapshot(scale, &out, clients),
        "overload" => experiments::overload(scale, &out),
        "incremental" => experiments::incremental(scale, &out),
        "portfolio" => experiments::portfolio(scale, &out),
        "dist" => experiments::dist(scale, &out),
        "all" => {
            experiments::table1(scale, &out);
            experiments::fig1_2(scale, &out);
            experiments::fig3_4(scale, &out);
            experiments::fig5_6(scale, &out);
            experiments::fig7(scale, &out);
            experiments::relaxed(scale, &out);
            experiments::plm(scale, &out);
            experiments::teps(scale, &out);
            experiments::profile(scale, &out);
            experiments::ablation(scale, &out);
            experiments::buckets(scale, &out);
            experiments::multigpu(scale, &out);
            experiments::schedule(scale, &out);
            experiments::faults(scale, &out);
            experiments::opt_snapshot(scale, &out);
            experiments::backend_snapshot(scale, &out);
            experiments::racecheck_sweep(scale, &out);
            experiments::serve_snapshot(scale, &out, clients);
            experiments::overload(scale, &out);
            experiments::incremental(scale, &out);
            experiments::portfolio(scale, &out);
            experiments::dist(scale, &out);
        }
        other => die(&format!("unknown experiment '{other}'")),
    }
    println!("\n# done in {:?}", t0.elapsed());
}

fn print_help() {
    println!(
        "repro — regenerate the paper's tables and figures\n\n\
         usage: repro <experiment> [--scale tiny|small|medium|large|huge] [--out DIR] [--profile instrumented|racecheck|parallel] [--clients N]\n\n\
         experiments: table1, fig1-2, fig3-4, fig5-6, fig7, relaxed, plm, teps, profile, ablation, buckets, multigpu, schedule, faults, opt-bench, backend, racecheck, serve, overload, incremental, portfolio, dist, all\n\
         default scale: small; outputs CSVs under DIR (default ./results)\n\
         default profile: CD_GPUSIM_PROFILE (instrumented if unset); cost-model experiments require instrumented\n\
         --clients sets the serve load generator's concurrency (default 4)"
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n");
    print_help();
    std::process::exit(2);
}
