//! `repro` — regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro <experiment> [--scale tiny|small|medium|large|huge] [--out DIR]
//!                    [--profile instrumented|racecheck|parallel] [--clients N]
//! ```
//!
//! `repro --help` lists the experiments (the `EXPERIMENTS` table below);
//! `all` runs every one in table order and stops at the first that fails.
//! An experiment fails — exit code 1, one `error:` line per failure — when
//! its CSV or `BENCH_*.json` file cannot be written or, for a snapshot, one
//! of its gates does not hold.
//!
//! `--profile` selects the execution profile for the GPU runs (default:
//! `CD_GPUSIM_PROFILE`, instrumented if unset; every profile honours
//! `CD_GPUSIM_THREADS`, auto-detecting the core count when unset).
//! Experiments whose measurement *is* the instrumented cost model reject
//! uninstrumented profiles rather than report zero model times; `backend`
//! and `racecheck` pin their profiles themselves.

use cd_bench::experiments::*;
use cd_bench::snapshot::Outcome;
use cd_gpusim::Profile;
use cd_workloads::Scale;
use std::path::{Path, PathBuf};
use Run::{Plain, Serve};

/// How an experiment is invoked.
enum Run {
    /// Prints tables and writes CSVs or a `BENCH_*.json` snapshot; a
    /// snapshot can also fail a gate.
    Plain(fn(Scale, &Path) -> Outcome),
    /// Like `Plain`, also taking the `--clients` count.
    Serve(fn(Scale, &Path, usize) -> Outcome),
}

/// Every experiment: (name, how to run it, whether it stays meaningful under
/// an uninstrumented profile, one-line help). Parallel-safe experiments run
/// no GPU kernels, quote only quality numbers, or pin their profiles
/// themselves; the rest quote the instrumented cost model and would report
/// zeros.
const EXPERIMENTS: [(&str, Run, bool, &str); 22] = [
    ("table1", Plain(table1), false, "graphs, sequential vs GPU times and modularity"),
    ("fig1-2", Plain(fig1_2), false, "threshold grid: relative modularity and speedup"),
    ("fig3-4", Plain(fig3_4), false, "speedup vs original and adaptive sequential"),
    ("fig5-6", Plain(fig5_6), false, "per-stage breakdown (road network, KKT graph)"),
    ("fig7", Plain(fig7), false, "GPU vs CPU-parallel (OpenMP-style) Louvain"),
    ("relaxed", Plain(relaxed), false, "relaxed vs per-bucket community updates"),
    ("plm", Plain(plm), false, "comparison with PLM on the four common graphs"),
    ("teps", Plain(teps), false, "first-iteration traversed-edges-per-second rates"),
    ("profile", Plain(profile), false, "kernel utilization counters (nvprof analogue)"),
    ("ablation", Plain(ablation), false, "degree binning & hash placement ablations"),
    ("buckets", Plain(buckets), true, "degree-bucket census of the workloads (Section 4.1)"),
    ("multigpu", Plain(multigpu), true, "coarse-grained multi-device extension (Section 6)"),
    ("schedule", Plain(schedule), false, "multi-level threshold schedules (Section 6)"),
    ("faults", Plain(faults), false, "fault-injection sweep and multi-device failover"),
    ("opt-bench", Plain(opt_snapshot), false, "optimization hot-loop perf (BENCH_opt.json)"),
    ("backend", Plain(backend_snapshot), true, "profiles agree bit-for-bit (BENCH_backend)"),
    ("racecheck", Plain(racecheck_sweep), true, "zero race hazards (BENCH_racecheck.json)"),
    ("serve", Serve(serve_snapshot), true, "closed-loop service replays (BENCH_serve.json)"),
    ("overload", Plain(overload), true, "open-loop arrivals past the knee (BENCH_overload)"),
    ("incremental", Plain(incremental), true, "warm start vs scratch (BENCH_incremental.json)"),
    ("portfolio", Plain(portfolio), true, "Louvain/Leiden/LPA quality (BENCH_portfolio.json)"),
    ("dist", Plain(dist), true, "sharded out-of-core execution (BENCH_dist.json)"),
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
    let selected: Vec<_> = match experiment {
        "all" => EXPERIMENTS.iter().collect(),
        name => match EXPERIMENTS.iter().find(|e| e.0 == name) {
            Some(e) => vec![e],
            None => die(&format!("unknown experiment '{name}'")),
        },
    };
    if !profile.is_instrumented() && selected.iter().any(|e| !e.2) {
        let safe: Vec<_> = EXPERIMENTS.iter().filter(|e| e.2).map(|e| e.0).collect();
        die(&format!(
            "experiment '{experiment}' quotes the instrumented cost model and cannot run under \
             the {profile} profile; uninstrumented profiles support: {}",
            safe.join(", ")
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
    for (_, run, _, _) in selected {
        let outcome = match run {
            Plain(f) => f(scale, &out),
            Serve(f) => f(scale, &out, clients),
        };
        if let Err(errors) = outcome {
            for e in errors {
                eprintln!("error: {e}");
            }
            std::process::exit(1);
        }
    }
    println!("\n# done in {:?}", t0.elapsed());
}

fn print_help() {
    println!(
        "repro — regenerate the paper's tables and figures\n\n\
         usage: repro <experiment> [--scale tiny|small|medium|large|huge] [--out DIR] [--profile instrumented|racecheck|parallel] [--clients N]\n\n\
         experiments:"
    );
    for (name, _, _, help) in &EXPERIMENTS {
        println!("  {name:<12}{help}");
    }
    println!(
        "  {:<12}everything above, stopping at the first failure\n\n\
         default scale: small; outputs CSVs under DIR (default ./results)\n\
         default profile: CD_GPUSIM_PROFILE (instrumented if unset); cost-model experiments require instrumented\n\
         --clients sets the serve load generator's concurrency (default 4)",
        "all"
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n");
    print_help();
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;

    #[test]
    fn experiment_names_are_unique() {
        let mut names: Vec<_> = EXPERIMENTS.iter().map(|e| e.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
        assert!(!names.contains(&"all"), "`all` is reserved for running the whole table");
    }
}
