//! Backend equivalence for the algorithm portfolio: the new label
//! propagation kernels (sync and async) and the Leiden refinement pass must
//! uphold the same bar as the Louvain pipeline — bit-identical labels and Q
//! across the `Instrumented`, `Racecheck`, and `Parallel` profiles,
//! independence from the native backend's thread count, and a clean
//! racecheck sweep over every new kernel.

use cd_core::{detect_communities, Algorithm, GpuLouvainConfig};
use cd_gpusim::{Device, DeviceConfig, Profile};
use cd_graph::gen::{add_random_edges, cliques, cycle, planted_partition};

fn device_triple() -> (Device, Device, Device) {
    (
        Device::new(DeviceConfig::tesla_k40m().with_profile(Profile::Instrumented)),
        Device::new(DeviceConfig::tesla_k40m().with_profile(Profile::Racecheck)),
        Device::new(DeviceConfig::tesla_k40m().with_profile(Profile::Parallel).with_threads(2)),
    )
}

fn test_graphs() -> [cd_graph::Csr; 4] {
    [
        cliques(4, 8, true),
        planted_partition(6, 40, 0.4, 0.01, 3).graph,
        planted_partition(5, 30, 0.4, 0.02, 11).graph,
        add_random_edges(&cycle(200), 400, 7),
    ]
}

fn labels_of(r: &cd_core::GpuLouvainResult, n: u32) -> Vec<u32> {
    (0..n).map(|v| r.partition.community_of(v)).collect()
}

/// The three portfolio members this PR adds; Louvain is covered by
/// `backend_equivalence`.
const NEW_MEMBERS: [Algorithm; 3] = [Algorithm::Leiden, Algorithm::LpaSync, Algorithm::LpaAsync];

#[test]
fn portfolio_identical_labels_and_modularity_across_profiles() {
    let (slow, rc, par) = device_triple();
    let cfg = GpuLouvainConfig::paper_default();
    for algorithm in NEW_MEMBERS {
        for (gi, g) in test_graphs().iter().enumerate() {
            let a = detect_communities(&slow, g, &cfg, algorithm).unwrap();
            let c = detect_communities(&rc, g, &cfg, algorithm).unwrap();
            let d = detect_communities(&par, g, &cfg, algorithm).unwrap();
            let n = g.num_vertices() as u32;
            let want = labels_of(&a, n);
            assert_eq!(want, labels_of(&c, n), "{algorithm} graph {gi}: racecheck labels diverge");
            assert_eq!(want, labels_of(&d, n), "{algorithm} graph {gi}: parallel labels diverge");
            for (other, name) in [(&c, "racecheck"), (&d, "parallel")] {
                assert_eq!(
                    a.modularity.to_bits(),
                    other.modularity.to_bits(),
                    "{algorithm} graph {gi}: {name} Q {} vs {}",
                    a.modularity,
                    other.modularity
                );
            }
        }
    }
    // The racecheck device watched every access of every LPA and refinement
    // kernel across the whole sweep and found nothing: the hazard-freedom
    // half of the acceptance bar.
    let reports = rc.race_reports();
    assert!(
        reports.is_empty(),
        "racecheck flagged {} hazard(s) in the portfolio kernels: {}",
        reports.len(),
        reports.iter().map(|r| r.to_string()).collect::<Vec<_>>().join("\n")
    );
    // And the instrumented device actually saw the new kernels run.
    let metrics = slow.metrics();
    let kernels = metrics.kernels();
    for needle in ["lpa_vote_b1", "lpa_commit", "refine_scan"] {
        assert!(
            kernels.iter().any(|(name, _)| name.starts_with(needle)),
            "instrumented run never launched {needle}"
        );
    }
}

#[test]
fn portfolio_results_independent_of_thread_count() {
    // Schedule independence for the new kernels: bit-identical labels and Q
    // at 1 (inline), 2 (pool), and 8 (oversubscribed) native threads.
    let cfg = GpuLouvainConfig::paper_default();
    for algorithm in NEW_MEMBERS {
        for (gi, g) in test_graphs().iter().enumerate() {
            let mut reference: Option<(Vec<u32>, u64)> = None;
            for threads in [1usize, 2, 8] {
                let dev = Device::new(
                    DeviceConfig::tesla_k40m()
                        .with_profile(Profile::Parallel)
                        .with_threads(threads),
                );
                let r = detect_communities(&dev, g, &cfg, algorithm).unwrap();
                let n = g.num_vertices() as u32;
                let got = (labels_of(&r, n), r.modularity.to_bits());
                match &reference {
                    None => reference = Some(got),
                    Some(want) => {
                        assert_eq!(
                            want.0, got.0,
                            "{algorithm} graph {gi} threads={threads}: labels diverge"
                        );
                        assert_eq!(
                            want.1,
                            got.1,
                            "{algorithm} graph {gi} threads={threads}: Q {} vs {}",
                            f64::from_bits(want.1),
                            f64::from_bits(got.1)
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn leiden_refinement_never_loses_modularity_at_any_stage() {
    // The refinement commit rule accepts a refined labeling only when its
    // modularity is at least the unrefined one's, so the per-stage
    // refinement delta recorded in the stage stats can never be negative.
    // (The *final* Leiden-vs-Louvain comparison is not an invariant:
    // refinement reshapes the contraction, so later stages explore a
    // different trajectory.)
    let dev = Device::new(DeviceConfig::tesla_k40m().with_profile(Profile::Parallel));
    let cfg = GpuLouvainConfig::paper_default();
    for (gi, g) in test_graphs().iter().enumerate() {
        let leiden = detect_communities(&dev, g, &cfg, Algorithm::Leiden).unwrap();
        for (si, s) in leiden.stages.iter().enumerate() {
            assert!(
                s.refine_delta_q >= -1e-12,
                "graph {gi} stage {si}: refinement lost {} modularity",
                -s.refine_delta_q
            );
        }
        // And Louvain runs record no refinement at all.
        let louvain = detect_communities(&dev, g, &cfg, Algorithm::Louvain).unwrap();
        for s in &louvain.stages {
            assert_eq!(s.refine_delta_q, 0.0, "graph {gi}: Louvain refined something");
        }
    }
}
