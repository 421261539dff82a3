//! `cdbench compare A B`: per workload and end-to-end metric, B's runs
//! against A's — medians, quartiles and a verdict under the bounds of
//! `BENCHMARK.json`, except for `modularity`, which is compared seed by seed.
//! Exit 1 on any regression, 2 when the two sets were measured on different
//! hosts.

use crate::json::{self, Json};
use crate::metrics::{Better, END_TO_END};
use crate::stats::{median, quartiles};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::ExitCode;

pub const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Regressed,
    Unresolved,
}

/// B's runs judged against A's. `bound` is the share of A's median by which
/// B's median may be worse. A spread (quartile distance / median) wider than
/// the bound leaves the verdict unresolved unless every run of one side
/// beats every run of the other. A gain needs B to win nine tenths of all
/// run pairs and its median to beat A's by more than A's own spread.
pub fn verdict(a: &[f64], b: &[f64], bound: f64, better: Better) -> Verdict {
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let (a1, am, a3) = quartiles(a);
    let (b1, bm, b3) = quartiles(b);
    let scale = am.abs().max(f64::MIN_POSITIVE);
    let worse = match better {
        Better::Lower => (bm - am) / scale,
        Better::Higher => (am - bm) / scale,
    };
    let spread = ((a3 - a1) / scale).max((b3 - b1) / bm.abs().max(f64::MIN_POSITIVE));
    let b_always = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    let a_always = a.iter().all(|&x| b.iter().all(|&y| beats(x, y)));
    if spread > bound && !a_always && !b_always {
        return Verdict::Unresolved;
    }
    if worse > bound {
        return Verdict::Regressed;
    }
    let pairs = (a.len() * b.len()) as f64;
    let wins = a.iter().map(|&x| b.iter().filter(|&&y| beats(y, x)).count()).sum::<usize>();
    if wins as f64 >= 0.9 * pairs && -worse * scale > a3 - a1 {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// Metrics that are deterministic for a build and a seed. Their spread
/// between runs is the spread between the seeds' inputs, not noise, so a
/// bound on medians would let a change lower them on every input by less
/// than that spread. They are compared seed by seed instead.
pub const PAIRED_BY_SEED: [&str; 1] = ["modularity"];

/// How far a paired metric may move on one seed before it counts.
pub const PAIRED_TOLERANCE: f64 = 1e-6;

/// B against A on the seeds both measured: regressed if B is worse by more
/// than `tolerance` (absolute) on any of them, improved if it is better by
/// more than that on some and worse on none. Unresolved with no seed in
/// common.
pub fn paired_verdict(
    a: &[(u64, f64)],
    b: &[(u64, f64)],
    tolerance: f64,
    better: Better,
) -> Verdict {
    let by_seed = |set: &[(u64, f64)]| {
        let mut m: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for &(seed, v) in set {
            m.entry(seed).or_default().push(v);
        }
        m.into_iter().map(|(seed, v)| (seed, median(&v))).collect::<BTreeMap<_, _>>()
    };
    let (a, b) = (by_seed(a), by_seed(b));
    let worse: Vec<f64> = a
        .iter()
        .filter_map(|(seed, &x)| {
            let y = *b.get(seed)?;
            Some(match better {
                Better::Lower => y - x,
                Better::Higher => x - y,
            })
        })
        .collect();
    if worse.is_empty() {
        Verdict::Unresolved
    } else if worse.iter().any(|&w| w > tolerance) {
        Verdict::Regressed
    } else if worse.iter().any(|&w| -w > tolerance) {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// Bound of every end-to-end metric, from `BENCHMARK.json`.
pub fn bounds() -> BTreeMap<String, f64> {
    let bench = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    bench
        .get("end_to_end")
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| Some((m.get("name")?.as_str()?.to_string(), m.get("bound")?.as_f64()?)))
        .collect()
}

/// One untraced result file written by `run`.
struct RunResult {
    workload: String,
    seed: u64,
    host: String,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

fn read_results(dir: &Path, out: &mut Vec<RunResult>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            read_results(&path, out)?;
            continue;
        }
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let Ok(doc) = json::parse(&text) else { continue };
        let (Some(workload), Some(result)) = (doc.get("workload"), doc.get("result")) else {
            continue; // a trace, or not ours
        };
        if doc.get("traced") != Some(&Json::Bool(false)) {
            continue;
        }
        let host = doc.get("fingerprint").map_or(String::new(), |f| {
            ["nproc", "cpu", "l3", "rustc"]
                .iter()
                .map(|k| match f.get(k) {
                    Some(Json::Str(s)) => s.clone(),
                    Some(Json::Num(n)) => n.to_string(),
                    _ => "?".to_string(),
                })
                .collect::<Vec<_>>()
                .join(" / ")
        });
        let mut metrics = BTreeMap::new();
        if let Some(Json::Obj(m)) = result.get("metrics") {
            for (name, v) in m {
                if let Some(value) = v.get("value").and_then(Json::as_f64) {
                    metrics.insert(name.clone(), value);
                }
            }
        }
        out.push(RunResult {
            workload: workload.as_str().unwrap_or("").to_string(),
            seed: doc.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            host,
            failed: result.get("failed").and_then(Json::as_f64).unwrap_or(0.0),
            metrics,
        });
    }
    Ok(())
}

pub fn main(args: &[String]) -> ExitCode {
    let [a_dir, b_dir] = args else {
        eprintln!("usage: cdbench compare A B  (directories of `cdbench run` results)");
        return ExitCode::from(2);
    };
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for (dir, set) in [(a_dir, &mut a), (b_dir, &mut b)] {
        if let Err(e) = read_results(Path::new(dir), set) {
            eprintln!("cdbench compare: {e}");
            return ExitCode::from(2);
        }
    }
    let hosts: BTreeSet<&str> = a.iter().chain(&b).map(|r| r.host.as_str()).collect();
    if hosts.len() > 1 {
        eprintln!("cdbench compare: refusing to compare runs from different hosts:");
        for h in hosts {
            eprintln!("  {h}");
        }
        return ExitCode::from(2);
    }
    let bounds = bounds();
    let workloads: BTreeSet<&str> = a.iter().chain(&b).map(|r| r.workload.as_str()).collect();
    let mut regressed = false;
    println!(
        "{:<12} {:<12} {:>4} {:>4} {:>12} {:>12} {:>12} {:>12} {:>11}  verdict",
        "workload", "metric", "nA", "nB", "A median", "A IQR", "B median", "B IQR", "bound"
    );
    for w in workloads {
        let side = |set: &[RunResult], f: &dyn Fn(&RunResult) -> Option<f64>| -> Vec<f64> {
            set.iter().filter(|r| r.workload == w).filter_map(f).collect()
        };
        for def in END_TO_END {
            let paired = PAIRED_BY_SEED.contains(&def.name);
            let seeded = |set: &[RunResult]| -> Vec<(u64, f64)> {
                set.iter()
                    .filter(|r| r.workload == w)
                    .filter_map(|r| Some((r.seed, *r.metrics.get(def.name)?)))
                    .collect()
            };
            let (sa, sb) = (seeded(&a), seeded(&b));
            let va: Vec<f64> = sa.iter().map(|&(_, v)| v).collect();
            let vb: Vec<f64> = sb.iter().map(|&(_, v)| v).collect();
            let (bound, shown) = if paired {
                (PAIRED_TOLERANCE, format!("{PAIRED_TOLERANCE:e}/seed"))
            } else {
                let bound = bounds.get(def.name).copied().unwrap_or(0.0);
                (bound, bound.to_string())
            };
            let (a1, am, a3) = quartiles(&va);
            let (b1, bm, b3) = quartiles(&vb);
            let v = if va.is_empty() || vb.is_empty() {
                "missing".to_string()
            } else {
                let v = if paired {
                    paired_verdict(&sa, &sb, bound, def.better)
                } else {
                    verdict(&va, &vb, bound, def.better)
                };
                regressed |= v == Verdict::Regressed;
                format!("{v:?}").to_lowercase()
            };
            println!(
                "{w:<12} {:<12} {:>4} {:>4} {am:>12.6} {:>12.6} {bm:>12.6} {:>12.6} {shown:>11}  {v}",
                def.name,
                va.len(),
                vb.len(),
                a3 - a1,
                b3 - b1,
            );
        }
        let fa: f64 = side(&a, &|r| Some(r.failed)).iter().sum();
        let fb: f64 = side(&b, &|r| Some(r.failed)).iter().sum();
        if fb > fa {
            regressed = true;
            println!("{w:<12} failed ops: {fa} -> {fb}  regressed");
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..10).map(|i| center * (1.0 + jitter * ((i % 5) as f64 - 2.0) / 2.0)).collect()
    }

    #[test]
    fn verdicts_on_synthetic_samples() {
        let base = around(100.0, 0.01);
        assert_eq!(verdict(&base, &around(100.5, 0.01), 0.1, Better::Lower), Verdict::Ok);
        assert_eq!(verdict(&base, &around(120.0, 0.01), 0.1, Better::Lower), Verdict::Regressed);
        assert_eq!(verdict(&base, &around(80.0, 0.01), 0.1, Better::Lower), Verdict::Improved);
        // Direction matters: a higher value is a gain when higher is better.
        assert_eq!(verdict(&base, &around(120.0, 0.01), 0.1, Better::Higher), Verdict::Improved);
        assert_eq!(verdict(&base, &around(80.0, 0.01), 0.1, Better::Higher), Verdict::Regressed);
        // Spread wider than the bound and overlapping runs: unresolved.
        let wide = around(100.0, 0.5);
        assert_eq!(verdict(&base, &wide, 0.1, Better::Lower), Verdict::Unresolved);
        // Wide but fully separated: resolved either way.
        let far = around(300.0, 0.3);
        assert_eq!(verdict(&base, &far, 0.1, Better::Lower), Verdict::Regressed);
        assert_eq!(verdict(&far, &base, 0.1, Better::Lower), Verdict::Improved);
    }

    #[test]
    fn paired_verdicts_catch_a_drop_on_any_seed() {
        let q = |v: &[f64]| v.iter().enumerate().map(|(s, &x)| (s as u64, x)).collect::<Vec<_>>();
        let base = q(&[0.80, 0.81, 0.79, 0.80]);
        let tol = PAIRED_TOLERANCE;
        assert_eq!(paired_verdict(&base, &base, tol, Better::Higher), Verdict::Ok);
        // Within the tolerance on every seed: ok.
        let nudged = q(&[0.80 - 1e-9, 0.81, 0.79 + 1e-9, 0.80]);
        assert_eq!(paired_verdict(&base, &nudged, tol, Better::Higher), Verdict::Ok);
        // 1.5% lower everywhere sits inside the seeds' own spread, so a
        // bound on medians would pass it; paired, it is a regression.
        let lower: Vec<(u64, f64)> = base.iter().map(|&(s, x)| (s, x * 0.985)).collect();
        assert_eq!(paired_verdict(&base, &lower, tol, Better::Higher), Verdict::Regressed);
        // One seed down outweighs three seeds up.
        let mixed = q(&[0.81, 0.82, 0.79 - 1e-5, 0.81]);
        assert_eq!(paired_verdict(&base, &mixed, tol, Better::Higher), Verdict::Regressed);
        let up = q(&[0.80, 0.81 + 1e-5, 0.79, 0.80]);
        assert_eq!(paired_verdict(&base, &up, tol, Better::Higher), Verdict::Improved);
        // Repeated runs of a seed reduce to their median; no seed in common
        // leaves nothing to pair.
        let repeated = [(1, 0.5), (1, 0.5), (1, 0.4)];
        assert_eq!(paired_verdict(&[(1, 0.5)], &repeated, tol, Better::Higher), Verdict::Ok);
        assert_eq!(
            paired_verdict(&[(1, 0.5)], &[(2, 0.5)], tol, Better::Higher),
            Verdict::Unresolved
        );
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound() {
        let b = bounds();
        for d in END_TO_END {
            let bound = b.get(d.name).copied().unwrap_or(-1.0);
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", d.name);
        }
    }
}
