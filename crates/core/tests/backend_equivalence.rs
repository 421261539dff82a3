//! Backend-equivalence tests at the algorithm level: the `Instrumented`,
//! `Racecheck`, and `Parallel` execution profiles may differ
//! only in what they *record* and *where blocks run*, never in what they
//! *compute*. The hash-table proptests are the cd-core half of the
//! primitive-level equivalence bar (the thrust half lives in cd-gpusim); the
//! Louvain tests check the full pipeline end to end across all three
//! profiles, and the schedule-independence test sweeps the native backend's
//! thread count to prove results do not depend on the work-claiming
//! schedule.

use cd_core::hashtable::{TableSpace, TableStorage};
use cd_core::{louvain_gpu, GpuLouvainConfig};
use cd_gpusim::{
    BlockCounters, Device, DeviceConfig, GroupCtx, Instrumented, Parallel, Profile, Racecheck,
};
use cd_graph::gen::{cliques, planted_partition};
use proptest::prelude::*;

fn device_triple() -> (Device, Device, Device) {
    (
        Device::new(DeviceConfig::tesla_k40m().with_profile(Profile::Instrumented)),
        Device::new(DeviceConfig::tesla_k40m().with_profile(Profile::Racecheck)),
        Device::new(DeviceConfig::tesla_k40m().with_profile(Profile::Parallel).with_threads(2)),
    )
}

/// Everything observable from a table replay: per-insert running weights,
/// per-key lookups, and the filled entries in claim order.
type ReplayObservables = (Vec<f64>, Vec<f64>, Vec<(u32, f64)>);

/// Replays one op sequence against a fresh table over keys `0..40`.
fn replay<P: cd_gpusim::ExecutionProfile>(
    ops: &[(u32, f64)],
    slots: usize,
    space: TableSpace,
) -> ReplayObservables {
    let mut counters = BlockCounters::default();
    let mut ctx = GroupCtx::<P>::typed(0, 32, &mut counters);
    let mut storage = TableStorage::new::<P>(slots, 40);
    let mut table = storage.table(slots, space);
    table.reset(&mut ctx);
    let inserts: Vec<f64> = ops.iter().map(|&(k, w)| table.insert_add(&mut ctx, k, w)).collect();
    let lookups: Vec<f64> = ops.iter().map(|&(k, _)| table.get(&mut ctx, k)).collect();
    let filled: Vec<(u32, f64)> = table.iter_filled().collect();
    (inserts, lookups, filled)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn hash_table_identical_across_profiles(
        ops in proptest::collection::vec((0u32..40, -100.0f64..100.0), 0..60),
        shared in 0u32..2,
    ) {
        // 97 slots comfortably hold <= 40 distinct keys, so no overflow path.
        let space = if shared == 1 { TableSpace::Shared } else { TableSpace::Global };
        let slow = replay::<Instrumented>(&ops, 97, space);
        let rc = replay::<Racecheck>(&ops, 97, space);
        let par = replay::<Parallel>(&ops, 97, space);
        // Bit-identical running weights and lookups, same claim order.
        for (a, b) in [(&slow, &rc), (&slow, &par)] {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&a.0), bits(&b.0));
            prop_assert_eq!(bits(&a.1), bits(&b.1));
            prop_assert_eq!(&a.2, &b.2);
        }
    }

    #[test]
    fn parallel_profile_hash_ops_record_nothing(
        ops in proptest::collection::vec((0u32..20, 0.5f64..2.0), 1..30),
    ) {
        let mut counters = BlockCounters::default();
        {
            let mut ctx = GroupCtx::<Parallel>::typed(0, 32, &mut counters);
            let mut storage = TableStorage::new::<Parallel>(53, 20);
            let mut table = storage.table(53, TableSpace::Shared);
            table.reset(&mut ctx);
            for &(k, w) in &ops {
                table.insert_add(&mut ctx, k, w);
                table.get(&mut ctx, k);
            }
        }
        prop_assert_eq!(counters, BlockCounters::default());
    }
}

fn test_graphs() -> [cd_graph::Csr; 4] {
    [
        cliques(4, 8, true),
        planted_partition(6, 40, 0.4, 0.01, 3).graph,
        planted_partition(5, 30, 0.4, 0.02, 11).graph,
        cd_graph::gen::add_random_edges(&cd_graph::gen::cycle(200), 400, 7),
    ]
}

fn labels_of(r: &cd_core::louvain::GpuLouvainResult, n: u32) -> Vec<u32> {
    (0..n).map(|v| r.partition.community_of(v)).collect()
}

#[test]
fn louvain_identical_labels_and_modularity_across_profiles() {
    let (slow, rc, par) = device_triple();
    for (gi, g) in test_graphs().iter().enumerate() {
        for pruning in [false, true] {
            let mut cfg = GpuLouvainConfig::paper_default();
            cfg.pruning = pruning;
            let a = louvain_gpu(&slow, g, &cfg).unwrap();
            let c = louvain_gpu(&rc, g, &cfg).unwrap();
            let d = louvain_gpu(&par, g, &cfg).unwrap();
            let n = g.num_vertices() as u32;
            assert_eq!(
                labels_of(&a, n),
                labels_of(&c, n),
                "graph {gi} pruning={pruning}: racecheck labels diverge"
            );
            assert_eq!(
                labels_of(&a, n),
                labels_of(&d, n),
                "graph {gi} pruning={pruning}: parallel labels diverge"
            );
            assert_eq!(
                a.modularity.to_bits(),
                c.modularity.to_bits(),
                "graph {gi} pruning={pruning}: racecheck Q {} vs {}",
                a.modularity,
                c.modularity
            );
            assert_eq!(
                a.modularity.to_bits(),
                d.modularity.to_bits(),
                "graph {gi} pruning={pruning}: parallel Q {} vs {}",
                a.modularity,
                d.modularity
            );
            assert_eq!(a.stages.len(), c.stages.len());
            assert_eq!(a.stages.len(), d.stages.len());
        }
    }
    // The instrumented device recorded kernels; the parallel one recorded
    // none and says so.
    assert!(!slow.metrics().kernels().is_empty());
    let pm = par.metrics();
    assert!(pm.kernels().is_empty());
    assert_eq!(pm.profile(), Profile::Parallel);
    assert_eq!(pm.threads(), 2);
    // The racecheck device watched every access of every pipeline launch and
    // found no hazards: the false-positive guard for the detector.
    let reports = rc.race_reports();
    assert!(
        reports.is_empty(),
        "racecheck flagged {} hazard(s) in a race-free pipeline: {}",
        reports.len(),
        reports.iter().map(|r| r.to_string()).collect::<Vec<_>>().join("\n")
    );
    assert_eq!(rc.metrics().profile(), Profile::Racecheck);
}

#[test]
fn parallel_results_independent_of_thread_count() {
    // Schedule independence: the native backend must produce bit-identical
    // labels and Q no matter how many workers claim blocks (1 = inline, 2 =
    // pool, 8 = heavily oversubscribed on small hosts, which maximally
    // perturbs the claim order).
    for (gi, g) in test_graphs().iter().enumerate() {
        for pruning in [false, true] {
            let mut cfg = GpuLouvainConfig::paper_default();
            cfg.pruning = pruning;
            let reference: Option<(Vec<u32>, u64)> = None;
            let mut reference = reference;
            for threads in [1usize, 2, 8] {
                let dev = Device::new(
                    DeviceConfig::tesla_k40m()
                        .with_profile(Profile::Parallel)
                        .with_threads(threads),
                );
                let r = louvain_gpu(&dev, g, &cfg).unwrap();
                let n = g.num_vertices() as u32;
                let got = (labels_of(&r, n), r.modularity.to_bits());
                match &reference {
                    None => reference = Some(got),
                    Some(want) => {
                        assert_eq!(
                            want.0, got.0,
                            "graph {gi} pruning={pruning} threads={threads}: labels diverge"
                        );
                        assert_eq!(
                            want.1,
                            got.1,
                            "graph {gi} pruning={pruning} threads={threads}: Q {} vs {}",
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
fn aggregation_identical_across_profiles() {
    let (slow, rc, par) = device_triple();
    let g = cd_graph::gen::add_random_edges(&cd_graph::gen::cycle(150), 300, 5);
    let dg = cd_core::DeviceGraph::from_csr(&g);
    let comm: Vec<u32> = (0..150u32).map(|v| (v * 31 + 7) % 13).collect();
    let cfg = GpuLouvainConfig::paper_default();
    let a = cd_core::aggregate_graph(&slow, &dg, &comm, &cfg).unwrap();
    let c = cd_core::aggregate_graph(&rc, &dg, &comm, &cfg).unwrap();
    let d = cd_core::aggregate_graph(&par, &dg, &comm, &cfg).unwrap();
    assert_eq!(a.vertex_map, c.vertex_map);
    assert_eq!(a.vertex_map, d.vertex_map);
    assert_eq!(a.graph.offsets, c.graph.offsets);
    assert_eq!(a.graph.offsets, d.graph.offsets);
    assert_eq!(a.graph.targets, c.graph.targets);
    assert_eq!(a.graph.targets, d.graph.targets);
    let bits = |x: &cd_core::AggregateOutcome| {
        x.graph.weights.iter().map(|w| w.to_bits()).collect::<Vec<u64>>()
    };
    assert_eq!(bits(&a), bits(&c));
    assert_eq!(bits(&a), bits(&d));
    assert!(rc.race_reports().is_empty(), "racecheck flagged aggregation: {:?}", rc.race_reports());
}

#[test]
fn aggregation_identical_across_thread_counts() {
    // Member order decides the f64 summation order of `mergeCommunity`, and
    // the order-vertices cursor places members in the order workers claim
    // blocks. Communities `v % 61` spread every community over every block
    // of the launch, and the weights are fractional, so a member order that
    // followed the claim order would change weight bits.
    const N: u32 = 6000;
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let edges: Vec<(u32, u32, f64)> = (0..6 * N)
        .map(|_| {
            let u = (next() % N as u64) as u32;
            let v = (next() % N as u64) as u32;
            (u, v, 0.1 + (next() % 1000) as f64 / 7.0)
        })
        .collect();
    let g = cd_graph::csr_from_edges(N as usize, &edges);
    let dg = cd_core::DeviceGraph::from_csr(&g);
    let comm: Vec<u32> = (0..N).map(|v| v % 61).collect();
    let cfg = GpuLouvainConfig::paper_default();
    let contract = |threads: usize| {
        let dev = Device::new(
            DeviceConfig::tesla_k40m().with_profile(Profile::Parallel).with_threads(threads),
        );
        let out = cd_core::aggregate_graph(&dev, &dg, &comm, &cfg).unwrap();
        let bits: Vec<u64> = out.graph.weights.iter().map(|w| w.to_bits()).collect();
        (out.graph.offsets, out.graph.targets, bits)
    };
    let reference = contract(1);
    for rep in 0..6 {
        for threads in [1, 8] {
            let got = contract(threads);
            assert_eq!(got.0, reference.0, "rep {rep} threads {threads}: offsets");
            assert_eq!(got.1, reference.1, "rep {rep} threads {threads}: targets");
            assert_eq!(got.2, reference.2, "rep {rep} threads {threads}: weight bits");
        }
    }
}
