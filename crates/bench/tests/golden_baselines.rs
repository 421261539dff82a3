//! Golden outputs of the four CPU baselines. Each case pins the label
//! digest, the bits of the final modularity, the stage count and the
//! iterations of every stage, so any change to a baseline's stage loop,
//! local-move phase, threshold rule or host contraction that alters a
//! single decision or the last bit of Q fails here.
//!
//! The graphs are fixed Table 1 analogues at Tiny scale, two of them churned
//! so that their weights are fractional. PLM publishes moves as it makes
//! them, so it is pinned on a serial run: it is issued from inside a pool
//! task, where every parallel call of the vendored rayon runs its chunks in
//! order on the calling worker.

use cd_baselines::{
    louvain_colored, louvain_parallel_cpu, louvain_plm, louvain_sequential, ColoredConfig,
    LouvainResult, ParallelCpuConfig, PlmConfig, SequentialConfig,
};
use cd_bench::runner::run_seq_adaptive;
use cd_graph::{apply_delta, Csr};
use cd_workloads::{churn, load, Scale};
use rayon::prelude::*;

/// The graphs every baseline is pinned on; `true` churns half the edges.
const GRAPHS: &[(&str, bool)] = &[
    ("uk2002", false),
    ("nlpkkt", false),
    ("bone", false),
    ("com-dblp", false),
    ("road-usa", false),
    ("uk2002", true),
    ("road-usa", true),
];

/// The vertex limit of the adaptive sequential run: below every graph, so
/// the first stages run under the coarse threshold and later ones under the
/// fine one.
const ADAPTIVE_LIMIT: usize = 300;

fn graph(name: &str, churned: bool) -> Csr {
    let g = load(name, Scale::Tiny).expect("suite graph").graph;
    if churned {
        apply_delta(&g, &churn(&g, 7, 0.5)).expect("churn applies").0
    } else {
        g
    }
}

/// 64-bit FNV-1a over the little-endian label words.
fn digest(labels: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for l in labels {
        for b in l.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn line(graph: &str, churned: bool, algo: &str, r: &LouvainResult) -> String {
    let iters: Vec<String> = r.stages.iter().map(|s| s.iterations.to_string()).collect();
    format!(
        "{graph}{} {algo} labels={:016x} q={:016x} stages={} iters={}",
        if churned { "+churn" } else { "" },
        digest(r.partition.as_slice()),
        r.modularity.to_bits(),
        r.stages.len(),
        iters.join(",")
    )
}

/// PLM issued from a pool worker, where its sweeps run serially in vertex
/// order.
fn plm_serial(g: &Csr) -> LouvainResult {
    let runs: Vec<LouvainResult> = (0..2usize)
        .into_par_iter()
        .with_min_len(1)
        .map(|_| louvain_plm(g, &PlmConfig::default()))
        .collect();
    let (a, b) = (&runs[0], &runs[1]);
    assert_eq!(a.partition.as_slice(), b.partition.as_slice(), "serial PLM must be repeatable");
    runs.into_iter().next().unwrap()
}

#[test]
fn baselines_match_their_golden_outputs() {
    let mut got = Vec::new();
    for &(name, churned) in GRAPHS {
        let g = graph(name, churned);
        let runs = [
            ("seq", louvain_sequential(&g, &SequentialConfig::original())),
            ("seq-adaptive", run_seq_adaptive(&g, ADAPTIVE_LIMIT)),
            ("parallel-cpu", louvain_parallel_cpu(&g, &ParallelCpuConfig::default())),
            ("colored", louvain_colored(&g, &ColoredConfig::default())),
            ("plm-serial", plm_serial(&g)),
        ];
        for (algo, r) in &runs {
            got.push(line(name, churned, algo, r));
        }
    }
    let mismatches: Vec<String> = got
        .iter()
        .zip(GOLDEN)
        .filter(|(g, want)| g != *want)
        .map(|(g, want)| format!("  want {want}\n   got {g}"))
        .collect();
    assert!(
        mismatches.is_empty() && got.len() == GOLDEN.len(),
        "{} of {} baseline runs differ from the golden outputs:\n{}\nall runs:\n{}",
        mismatches.len() + got.len().abs_diff(GOLDEN.len()),
        got.len(),
        mismatches.join("\n"),
        got.join("\n")
    );
}

/// One line per (graph, baseline), in the order the test runs them.
#[rustfmt::skip]
const GOLDEN: &[&str] = &[
    "uk2002 seq labels=d181d021960f86a9 q=3fe9999f72dff84b stages=4 iters=7,4,2,1",
    "uk2002 seq-adaptive labels=f7ea2f31aee65171 q=3fe999348935fb1c stages=3 iters=5,4,1",
    "uk2002 parallel-cpu labels=a4773599ab368022 q=3fe8c910c8737db1 stages=6 iters=19,6,5,2,2,1",
    "uk2002 colored labels=aceec2e285c21833 q=3fe99a0044440e5c stages=4 iters=7,4,2,1",
    "uk2002 plm-serial labels=d181d021960f86a9 q=3fe9999f72dff84b stages=4 iters=7,4,2,1",
    "nlpkkt seq labels=ed884805a4b4c4df q=3fe98680a9b88228 stages=7 iters=6,11,11,5,4,4,1",
    "nlpkkt seq-adaptive labels=6642a13951540e0d q=3fe97f230b64e64e stages=8 iters=2,3,3,6,3,3,2,1",
    "nlpkkt parallel-cpu labels=76f26bb847110245 q=3fe12ad0af39748a stages=38 iters=2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,4,2,2,2,1",
    "nlpkkt colored labels=277e45f03a3ff630 q=3fe8a9de23f0d436 stages=5 iters=6,8,5,3,1",
    "nlpkkt plm-serial labels=06b1b67ef93182e1 q=3fe988f632090c3f stages=7 iters=45,11,11,6,5,4,1",
    "bone seq labels=6e69903f8ebef1f3 q=3fe3d606474eebac stages=2 iters=30,1",
    "bone seq-adaptive labels=dfe451199c56ffa1 q=3fe22edb9757d5e2 stages=2 iters=4,1",
    "bone parallel-cpu labels=58443254b9f2a8ea q=3fe5ee31f7037318 stages=2 iters=32,1",
    "bone colored labels=83248db1ca018825 q=3fe635fce03e4067 stages=5 iters=2,3,5,2,1",
    "bone plm-serial labels=6e69903f8ebef1f3 q=3fe3d606474eebac stages=2 iters=30,1",
    "com-dblp seq labels=17ff56f1c47a06c3 q=3fe8467f80735e30 stages=3 iters=6,3,1",
    "com-dblp seq-adaptive labels=17ff56f1c47a06c3 q=3fe8467f80735e30 stages=3 iters=5,3,1",
    "com-dblp parallel-cpu labels=0db28268f524e140 q=3fe6a1d334fa928e stages=7 iters=20,2,2,3,2,2,1",
    "com-dblp colored labels=9a01a2175466e082 q=3fe8450feac1e0bf stages=3 iters=9,3,1",
    "com-dblp plm-serial labels=17ff56f1c47a06c3 q=3fe8467f80735e30 stages=3 iters=6,3,1",
    "road-usa seq labels=543a6851b19f081e q=3fedbea9b7fe1b3f stages=6 iters=7,6,7,5,3,1",
    "road-usa seq-adaptive labels=e10a0057d30af22f q=3fedb86e89f65084 stages=6 iters=4,4,3,6,3,1",
    "road-usa parallel-cpu labels=231d701c9e5a1bd3 q=3feb6ec3d4c7fce7 stages=26 iters=2,2,2,2,3,2,2,2,2,6,2,2,2,7,3,2,2,2,3,2,3,3,2,5,3,1",
    "road-usa colored labels=d9b28d6af479b3ef q=3fedc1f60cb294d0 stages=6 iters=5,6,7,6,2,1",
    "road-usa plm-serial labels=543a6851b19f081e q=3fedbea9b7fe1b3f stages=6 iters=9,6,7,5,3,1",
    "uk2002+churn seq labels=04b8448d0a965c51 q=3fe5d1d03f1dd3c3 stages=4 iters=9,6,2,1",
    "uk2002+churn seq-adaptive labels=6d6e88fa4e62258f q=3fe5ce4d19404cb9 stages=4 iters=6,7,2,1",
    "uk2002+churn parallel-cpu labels=b440488a4ce3ddc2 q=3fe4af45109cf3d0 stages=7 iters=27,5,2,3,2,2,1",
    "uk2002+churn colored labels=25eb9e83acb5d9b3 q=3fe5d3928ee85eac stages=4 iters=12,6,2,1",
    "uk2002+churn plm-serial labels=04b8448d0a965c51 q=3fe5d1d03f1dd3c3 stages=4 iters=9,6,2,1",
    "road-usa+churn seq labels=fd99623f4bc67586 q=3feab328a5742136 stages=6 iters=6,10,8,5,2,1",
    "road-usa+churn seq-adaptive labels=f6dd6fbcc1b60381 q=3feab45a764c1b5b stages=6 iters=4,3,3,2,3,1",
    "road-usa+churn parallel-cpu labels=428d4f263f3f7b33 q=3fe51c987684cbf4 stages=43 iters=2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,3,4,5,3,3,2,2,1",
    "road-usa+churn colored labels=80edef5a89e7cdc2 q=3feab356a7e919a5 stages=6 iters=6,7,6,5,2,1",
    "road-usa+churn plm-serial labels=fd99623f4bc67586 q=3feab328a5742136 stages=6 iters=6,11,8,5,2,1",
];
