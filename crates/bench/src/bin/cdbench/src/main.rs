//! `cdbench` — one benchmark for the whole stack: end-to-end metrics per
//! workload, and a traced run that splits them by layer (serve → dist →
//! core → gpusim, plus graph and the baselines). See `README.md` here.
//!
//! ```text
//! cdbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--scale full|tiny] [--out DIR]
//! cdbench run   <W|all> [--seed N] [--seconds S] [--scale full|tiny] --out DIR
//! cdbench trace <W|all> [--seed N] [--seconds S] [--scale full|tiny] --out DIR
//! cdbench compare A B
//! ```
//!
//! The first form runs one workload in this process and prints its result
//! as one JSON object on the last line of stdout. `run` and `trace` run
//! each workload in a child process of that form, one at a time (so peak
//! RSS is per workload), print `workload metric value unit` lines, and
//! write `DIR/<workload>.json` (plus `DIR/<workload>.trace.json` when
//! traced). Every form exits 1 when a correctness check fails.

mod check;
mod compare;
mod json;
mod metrics;
mod serve;
mod solve;
mod stats;
mod trace;

use cd_core::GpuLouvainConfig;
use cd_gpusim::{DeviceConfig, Profile};
use cd_workloads::Scale;
use check::Checks;
use metrics::{complete, Values, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use trace::Tracer;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SolveWeb,
    SolveKkt,
    ShardedWeb,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::SolveWeb, Workload::SolveKkt, Workload::ShardedWeb, Workload::ServeMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveWeb => "solve-web",
            Workload::SolveKkt => "solve-kkt",
            Workload::ShardedWeb => "sharded-web",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn run(self, opts: &Opts) -> Outcome {
        match self {
            Workload::SolveWeb => solve::run(&solve::SOLVE_WEB, opts),
            Workload::SolveKkt => solve::run(&solve::SOLVE_KKT, opts),
            Workload::ShardedWeb => solve::run(&solve::SHARDED_WEB, opts),
            Workload::ServeMixed => serve::run(opts),
        }
    }
}

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    /// `--scale tiny`: Tiny graphs, 2 reps per input, a 2 s schedule, one
    /// set-up — the smoke path.
    pub tiny: bool,
    pub traced: bool,
}

impl Opts {
    pub fn scale(&self, full: Scale) -> Scale {
        if self.tiny {
            Scale::Tiny
        } else {
            full
        }
    }

    /// Set-ups per run (`full` of them, one at tiny scale); `setup_s` is
    /// their median.
    pub fn setups(&self, full: u64) -> u64 {
        if self.tiny {
            1
        } else {
            full
        }
    }
}

pub struct Outcome {
    pub e2e: Values,
    /// Per-layer metrics; filled by traced runs only.
    pub layer: Values,
    pub checks: Checks,
    pub attempted: u64,
    pub tracer: Tracer,
}

/// The answer path every measured operation runs on: the native-parallel
/// profile, at a pinned thread count.
pub fn answer_device(threads: usize) -> DeviceConfig {
    DeviceConfig::tesla_k40m().with_profile(Profile::Parallel).with_threads(threads)
}

/// Paper-default thresholds with the size limit scaled to the graph scale,
/// as `repro` configures them.
pub fn gpu_config(scale: Scale) -> GpuLouvainConfig {
    let mut cfg = GpuLouvainConfig::paper_default();
    cfg.size_limit = 1000 * scale.factor();
    cfg
}

/// High-water resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The metrics a run reports: per-layer ones when traced, else end-to-end.
fn reported(o: &Outcome, traced: bool) -> Vec<(&'static metrics::MetricDef, f64)> {
    if traced {
        complete(PER_LAYER, &o.layer)
    } else {
        complete(END_TO_END, &o.e2e)
    }
}

/// The result object: `correct`, `attempted`, `failed` and the metrics.
fn result_json(o: &Outcome, traced: bool) -> String {
    let metrics: Vec<String> = reported(o, traced)
        .iter()
        .map(|(d, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(d.name),
                json::num(*v),
                json::quote(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.checks.ok(),
        o.attempted,
        o.checks.failed_ops,
        metrics.join(", ")
    )
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// Host fingerprint plus the measured commit. `compare` refuses results
/// whose hosts differ (every field but `commit`).
fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"l3\": {}, \"rustc\": {}, \"commit\": {}}}",
        json::quote(&cpu),
        json::quote(
            std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size")
                .as_deref()
                .map_or("unknown", str::trim)
        ),
        json::quote(&command_line("rustc", &["-V"])),
        json::quote(&command_line("git", &["rev-parse", "HEAD"])),
    )
}

fn print_trace_table(w: Workload, tracer: &Tracer) {
    eprintln!("\n{} — self time by layer (span minus child spans)", w.name());
    eprintln!("  {:<10} {:>8} {:>12} {:>12}", "layer", "spans", "total ms", "self ms");
    for (layer, (n, total, own)) in trace::self_times(&tracer.spans()) {
        eprintln!("  {layer:<10} {n:>8} {:>12.3} {:>12.3}", total as f64 / 1e6, own as f64 / 1e6);
    }
}

struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args { positional: Vec::new(), flags: BTreeMap::new() };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.strip_prefix("--") {
            Some(flag) => {
                let v = it.next().ok_or_else(|| format!("--{flag} needs a value"))?;
                out.flags.insert(flag.to_string(), v.clone());
            }
            None => out.positional.push(a.clone()),
        }
    }
    Ok(out)
}

impl Args {
    fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.flags.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{flag}: {v}")),
        }
    }

    fn check_flags(&self, allowed: &[&str]) -> Result<(), String> {
        match self.flags.keys().find(|f| !allowed.contains(&f.as_str())) {
            Some(f) => Err(format!("unknown flag --{f}")),
            None => Ok(()),
        }
    }

    fn opts(&self, traced: bool) -> Result<Opts, String> {
        let seconds: f64 = self.get("seconds", 10.0)?;
        if !(seconds > 0.0 && seconds <= 3600.0) {
            return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
        }
        let tiny = match self.get("scale", "full".to_string())?.as_str() {
            "full" => false,
            "tiny" => true,
            s => return Err(format!("--scale must be full or tiny, got {s}")),
        };
        Ok(Opts { seed: self.get("seed", 1)?, seconds, tiny, traced })
    }
}

/// One workload in this process.
fn single(a: &Args) -> Result<ExitCode, String> {
    a.check_flags(&["workload", "seed", "seconds", "trace", "scale", "out"])?;
    let name = a.flags.get("workload").ok_or("--workload is required")?;
    let w = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let traced = match a.get("trace", 0u8)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let opts = a.opts(traced)?;
    let outcome = w.run(&opts);
    for p in outcome.checks.problems().iter().take(20) {
        eprintln!("cdbench: {}: {p}", w.name());
    }
    let line = result_json(&outcome, traced);
    if traced {
        print_trace_table(w, &outcome.tracer);
    }
    eprintln!("\n{} — {} metrics", w.name(), if traced { "per-layer" } else { "end-to-end" });
    for (d, v) in reported(&outcome, traced) {
        eprintln!(
            "  {:<28} {:>16.6} {:<7} {:<6}  {}",
            d.name,
            v,
            d.unit,
            d.better.as_str(),
            d.about
        );
    }
    if let Some(dir) = a.flags.get("out") {
        let dir = Path::new(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let suffix = if traced { "traced.json" } else { "json" };
        let file = format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"scale\": {}, \"traced\": {traced}, \
             \"fingerprint\": {}, \"problems\": [{}], \"result\": {line}}}\n",
            json::quote(w.name()),
            opts.seed,
            json::num(opts.seconds),
            json::quote(if opts.tiny { "tiny" } else { "full" }),
            fingerprint(),
            outcome.checks.problems().iter().map(|p| json::quote(p)).collect::<Vec<_>>().join(", "),
        );
        let path = dir.join(format!("{}.{suffix}", w.name()));
        std::fs::write(&path, file).map_err(|e| format!("{}: {e}", path.display()))?;
        if traced {
            let path = dir.join(format!("{}.trace.json", w.name()));
            std::fs::write(&path, trace::chrome_json(&outcome.tracer.spans(), w.name()))
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    println!("{line}");
    Ok(if outcome.checks.ok() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `run` / `trace`: one child process per workload, one at a time.
fn batch(a: &Args, traced: bool) -> Result<ExitCode, String> {
    a.check_flags(&["seed", "seconds", "scale", "out"])?;
    let opts = a.opts(traced)?;
    let out: PathBuf = a.flags.get("out").ok_or("--out DIR is required")?.into();
    let which = match a.positional.get(1).map(String::as_str) {
        Some("all") => Workload::ALL.to_vec(),
        Some(name) => {
            vec![Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?]
        }
        None => return Err("name a workload or all".to_string()),
    };
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for w in which {
        eprintln!(
            "cdbench: {} {} (seed {})",
            if traced { "tracing" } else { "running" },
            w.name(),
            opts.seed
        );
        let child = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &opts.seed.to_string()])
            .args([
                "--seconds",
                &opts.seconds.to_string(),
                "--trace",
                if traced { "1" } else { "0" },
            ])
            .args(["--scale", if opts.tiny { "tiny" } else { "full" }])
            .arg("--out")
            .arg(&out)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let result = stdout.lines().last().and_then(|l| json::parse(l).ok());
        let ok = child.status.success();
        match result {
            Some(r) => {
                let defs = if traced { PER_LAYER } else { END_TO_END };
                for d in defs {
                    let value = r
                        .get("metrics")
                        .and_then(|m| m.get(d.name))
                        .and_then(|m| m.get("value"))
                        .and_then(json::Json::as_f64)
                        .unwrap_or(f64::NAN);
                    println!("{} {} {value} {}", w.name(), d.name, d.unit);
                }
                if !ok {
                    println!("{} INCORRECT (see the problems above)", w.name());
                }
            }
            None => println!("{} FAILED: {}", w.name(), child.status),
        }
        all_ok &= ok;
    }
    Ok(if all_ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

const USAGE: &str = "usage:
  cdbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--scale full|tiny] [--out DIR]
  cdbench run   <W|all> [--seed N] [--seconds S] [--scale full|tiny] --out DIR
  cdbench trace <W|all> [--seed N] [--seconds S] [--scale full|tiny] --out DIR
  cdbench compare A B
workloads: solve-web solve-kkt sharded-web serve-mixed";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("compare") => return compare::main(&argv[1..]),
        Some(cmd @ ("run" | "trace")) => parse_args(&argv).and_then(|a| batch(&a, cmd == "trace")),
        Some(f) if f.starts_with("--") => parse_args(&argv).and_then(|a| single(&a)),
        _ => Err("no command".to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("cdbench: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark() -> json::Json {
        json::parse(compare::BENCHMARK_JSON).expect("BENCHMARK.json parses")
    }

    fn listed(section: &str) -> Vec<(String, String, String)> {
        benchmark()
            .get(section)
            .expect("section present")
            .as_array()
            .iter()
            .map(|m| {
                let field =
                    |k: &str| m.get(k).and_then(json::Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn registered(defs: &[metrics::MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.as_str().to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        assert_eq!(listed("end_to_end"), registered(END_TO_END));
        assert_eq!(listed("per_layer"), registered(PER_LAYER));
        for (name, _, _) in listed("end_to_end").iter().chain(&listed("per_layer")) {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "metric name {name:?} must match ^[A-Za-z0-9_.-]+$"
            );
        }
        let workloads: Vec<String> = benchmark()
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .map(|w| w.get("name").and_then(json::Json::as_str).unwrap().to_string())
            .collect();
        let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, names);
    }

    /// The smoke path: every workload runs at tiny scale, passes its checks
    /// and emits every metric — end-to-end ones never 0.
    #[test]
    fn every_workload_runs_at_tiny_scale_and_emits_its_metrics() {
        for w in Workload::ALL {
            let o = w.run(&Opts { seed: 1, seconds: 2.0, tiny: true, traced: true });
            assert!(o.checks.ok(), "{}: {:?}", w.name(), o.checks.problems());
            assert!(o.attempted >= 2, "{}", w.name());
            for d in END_TO_END {
                let v = o.e2e.get(d.name).copied().unwrap_or(0.0);
                assert!(v > 0.0 && v.is_finite(), "{}: {} = {v}", w.name(), d.name);
            }
            assert!(o.layer.keys().all(|k| PER_LAYER.iter().any(|d| d.name == *k)));
            let line = json::parse(&result_json(&o, true)).unwrap();
            assert_eq!(line.get("correct"), Some(&json::Json::Bool(true)));
            assert!(!o.tracer.spans().is_empty());
        }
    }
}
