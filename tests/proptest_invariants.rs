//! Property-based tests of the core invariants, on arbitrary small graphs:
//! modularity bounds, gain-vs-recompute agreement, contraction invariance,
//! delta apply/inverse round-trips and patch-vs-rebuild identity,
//! GPU-vs-reference aggregation, and device collective correctness.

use community_gpu::core::{aggregate_graph, DeviceGraph, GpuLouvainConfig};
use community_gpu::gpusim::Device;
use community_gpu::graph::{
    apply_delta, contract, csr_from_edges, modularity, modularity_gain, Csr, DeltaBatch,
    DeltaBuilder, DeltaError, DeltaOp, GraphBuilder, Partition, VersionedCsr, VertexId,
};
use proptest::prelude::*;

/// An arbitrary small weighted graph: up to `max_n` vertices, arbitrary
/// (possibly duplicate, possibly self-loop) weighted edges.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = Csr> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 1u32..100), 1..max_m).prop_map(
            move |edges| {
                let weighted: Vec<(u32, u32, f64)> =
                    edges.into_iter().map(|(u, v, w)| (u, v, w as f64 / 8.0)).collect();
                csr_from_edges(n, &weighted)
            },
        )
    })
}

/// The canonical (`v >= u`) edge list of `g`.
fn existing_edges(g: &Csr) -> Vec<(VertexId, VertexId, f64)> {
    (0..g.num_vertices() as VertexId)
        .flat_map(|u| g.edges(u).filter(move |&(v, _)| v >= u).map(move |(v, w)| (u, v, w)))
        .collect()
}

/// Turns raw proptest picks into a batch that is valid against `g`: each
/// pick deletes or reweights an existing edge, or inserts a fresh one.
/// Picks that would collide (duplicate edge within the batch, insert of a
/// present edge) are skipped, so the result always applies cleanly — the
/// invalid shapes get their own dedicated test.
fn batch_from_picks(g: &Csr, picks: &[(usize, usize, u8, u16)]) -> DeltaBatch {
    let n = g.num_vertices();
    let existing = existing_edges(g);
    let mut b = DeltaBuilder::new(n);
    for &(i, j, action, wraw) in picks {
        let w = wraw as f64 / 16.0 + 0.0625;
        let _ = match action % 3 {
            0 if !existing.is_empty() => {
                let (u, v, _) = existing[i % existing.len()];
                b.delete(u, v).map(|_| ())
            }
            1 if !existing.is_empty() => {
                let (u, v, _) = existing[i % existing.len()];
                b.reweight(u, v, w).map(|_| ())
            }
            _ => {
                let (a, c) = ((i % n) as VertexId, (j % n) as VertexId);
                let (u, v) = if a <= c { (a, c) } else { (c, a) };
                if g.neighbors(u).binary_search(&v).is_ok() {
                    continue;
                }
                b.insert(u, v, w).map(|_| ())
            }
        };
    }
    b.build()
}

/// Raw material for [`batch_from_picks`].
fn arb_picks(max_ops: usize) -> impl Strategy<Value = Vec<(usize, usize, u8, u16)>> {
    proptest::collection::vec(
        (0usize..1_000_000, 0usize..1_000_000, 0u8..=255, 1u16..2048),
        0..max_ops,
    )
}

/// A graph together with an arbitrary community assignment (ids may exceed
/// the compact range and leave holes).
fn arb_graph_and_partition(max_n: usize, max_m: usize) -> impl Strategy<Value = (Csr, Partition)> {
    arb_graph(max_n, max_m).prop_flat_map(|g| {
        let n = g.num_vertices();
        proptest::collection::vec(0..(2 * n as u32), n)
            .prop_map(move |comm| (g.clone(), Partition::from_vec(comm)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn modularity_is_bounded((g, p) in arb_graph_and_partition(20, 60)) {
        let q = modularity(&g, &p);
        prop_assert!((-1.0..=1.0).contains(&q), "Q = {q}");
    }

    #[test]
    fn gain_matches_exact_recompute((g, p) in arb_graph_and_partition(14, 40)) {
        let n = g.num_vertices() as u32;
        for i in 0..n.min(6) {
            for dst in [0u32, 1, n - 1] {
                if dst == p.community_of(i) {
                    continue;
                }
                let gain = modularity_gain(&g, &p, i, dst);
                let before = modularity(&g, &p);
                let mut moved = p.clone();
                moved.assign(i, dst);
                let exact = modularity(&g, &moved) - before;
                prop_assert!(
                    (gain - exact).abs() < 1e-9,
                    "vertex {i} -> {dst}: Eq.2 gain {gain} vs recomputed {exact}"
                );
            }
        }
    }

    #[test]
    fn contraction_preserves_modularity_and_weight((g, p) in arb_graph_and_partition(20, 60)) {
        let q_before = modularity(&g, &p);
        let (cg, _) = contract(&g, &p);
        let q_after = modularity(&cg, &Partition::singleton(cg.num_vertices()));
        prop_assert!((q_before - q_after).abs() < 1e-9, "{q_before} vs {q_after}");
        prop_assert!((g.total_weight_2m() - cg.total_weight_2m()).abs() < 1e-9);
    }

    #[test]
    fn gpu_aggregation_preserves_modularity((g, p) in arb_graph_and_partition(18, 50)) {
        let dev = Device::k40m();
        // The kernel requires vertex-id community labels (its arrays are
        // |V|-sized, as in Alg. 3); renumbering provides that.
        let (p, _) = p.renumbered();
        let comm: Vec<u32> = p.as_slice().to_vec();
        let out = aggregate_graph(&dev, &DeviceGraph::from_csr(&g), &comm, &GpuLouvainConfig::paper_default()).unwrap();
        let cg = out.graph.to_csr();
        let q_before = modularity(&g, &p);
        let q_after = modularity(&cg, &Partition::singleton(cg.num_vertices()));
        prop_assert!((q_before - q_after).abs() < 1e-9, "{q_before} vs {q_after}");
        // Weight conservation through the kernel pipeline.
        prop_assert!((g.total_weight_2m() - cg.total_weight_2m()).abs() < 1e-9);
        // The vertex map covers the new vertex range.
        for v in 0..g.num_vertices() {
            prop_assert!((out.vertex_map[v] as usize) < cg.num_vertices());
        }
    }

    #[test]
    fn gpu_full_run_invariants(g in arb_graph(16, 40)) {
        let dev = Device::k40m();
        let res = louvain(&dev, &g);
        // Reported modularity equals from-scratch modularity and is at least
        // the singleton baseline.
        let q = modularity(&g, &res.partition);
        prop_assert!((q - res.modularity).abs() < 1e-9);
        let q0 = modularity(&g, &Partition::singleton(g.num_vertices()));
        prop_assert!(res.modularity >= q0 - 1e-9, "Q {} below singleton {}", res.modularity, q0);
    }

    #[test]
    fn delta_apply_then_inverse_restores_the_csr(g in arb_graph(20, 60), picks in arb_picks(12)) {
        let batch = batch_from_picks(&g, &picks);
        let inv = batch.inverse(&g).expect("a valid batch has an inverse");
        let (patched, touched) = apply_delta(&g, &batch).expect("valid batch applies");
        prop_assert_eq!(&touched, &batch.touched_vertices());
        let (restored, _) = apply_delta(&patched, &inv).expect("inverse applies to the patched graph");
        prop_assert_eq!(restored.offsets(), g.offsets());
        prop_assert_eq!(restored.targets(), g.targets());
        let restored_bits: Vec<u64> = restored.weights().iter().map(|w| w.to_bits()).collect();
        let base_bits: Vec<u64> = g.weights().iter().map(|w| w.to_bits()).collect();
        prop_assert_eq!(restored_bits, base_bits, "weights restored bit-for-bit");
    }

    #[test]
    fn delta_patch_path_matches_full_rebuild(g in arb_graph(20, 60), picks in arb_picks(12)) {
        let batch = batch_from_picks(&g, &picks);
        let (patched, _) = apply_delta(&g, &batch).expect("valid batch applies");

        // Oracle: rebuild the post-delta graph from the edge list through
        // the ordinary builder. Patch-path output must be bit-identical.
        let replaced: std::collections::HashSet<(VertexId, VertexId)> = batch
            .ops()
            .iter()
            .filter(|op| !matches!(op, DeltaOp::Insert { .. }))
            .map(|op| op.endpoints())
            .collect();
        let mut b = GraphBuilder::new(g.num_vertices());
        for (u, v, w) in existing_edges(&g) {
            if !replaced.contains(&(u, v)) {
                b.add_edge(u, v, w);
            }
        }
        for op in batch.ops() {
            match *op {
                DeltaOp::Insert { u, v, w }
                | DeltaOp::Reweight { u, v, w } => b.add_edge(u, v, w),
                DeltaOp::Delete { .. } => {}
            }
        }
        let rebuilt = b.build();
        prop_assert_eq!(patched.offsets(), rebuilt.offsets());
        prop_assert_eq!(patched.targets(), rebuilt.targets());
        let patched_bits: Vec<u64> = patched.weights().iter().map(|w| w.to_bits()).collect();
        let rebuilt_bits: Vec<u64> = rebuilt.weights().iter().map(|w| w.to_bits()).collect();
        prop_assert_eq!(patched_bits, rebuilt_bits, "patch path is bit-identical to a rebuild");

        // VersionedCsr lands on the same graph whichever path its churn
        // threshold selects, and records which one ran.
        let mut vg = VersionedCsr::new(g.clone());
        let applied = vg.apply(&batch).expect("valid batch applies");
        let churn = batch.len() as f64 / (g.num_edges().max(1) as f64);
        prop_assert_eq!(applied.rebuilt, churn > VersionedCsr::REBUILD_CHURN);
        prop_assert_eq!(vg.graph(), &patched);
        prop_assert_eq!(vg.version(), 1);
    }

    #[test]
    fn delta_misuse_surfaces_typed_errors(g in arb_graph(16, 40)) {
        let n = g.num_vertices();

        // Builder-level: out-of-range vertices, non-positive / non-finite
        // weights, and two ops addressing one edge.
        let mut b = DeltaBuilder::new(n);
        prop_assert_eq!(
            b.insert(0, n as VertexId, 1.0).unwrap_err(),
            DeltaError::VertexOutOfRange { vertex: n as VertexId, num_vertices: n }
        );
        for w in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            prop_assert!(matches!(b.insert(0, 1, w).unwrap_err(), DeltaError::BadWeight { .. }));
        }
        let mut b = DeltaBuilder::new(n);
        b.reweight(1, 0, 2.0).unwrap(); // canonicalized to {0, 1}
        prop_assert_eq!(b.delete(0, 1).unwrap_err(), DeltaError::DuplicateOp { u: 0, v: 1 });

        // Apply-level: inserting a present edge, touching an absent one.
        // `inverse` must make the same judgement as `apply_delta`.
        if let Some(&(u, v, _)) = existing_edges(&g).first() {
            let mut b = DeltaBuilder::new(n);
            b.insert(u, v, 1.0).unwrap();
            let batch = b.build();
            prop_assert_eq!(apply_delta(&g, &batch).unwrap_err(), DeltaError::DuplicateInsert { u, v });
            prop_assert_eq!(batch.inverse(&g).unwrap_err(), DeltaError::DuplicateInsert { u, v });
        }
        let absent = (0..n as VertexId)
            .flat_map(|u| (u..n as VertexId).map(move |v| (u, v)))
            .find(|&(u, v)| g.neighbors(u).binary_search(&v).is_err());
        if let Some((u, v)) = absent {
            let mut b = DeltaBuilder::new(n);
            b.delete(u, v).unwrap();
            let batch = b.build();
            prop_assert_eq!(apply_delta(&g, &batch).unwrap_err(), DeltaError::MissingEdge { u, v });
            prop_assert_eq!(batch.inverse(&g).unwrap_err(), DeltaError::MissingEdge { u, v });
            // A failed apply leaves a VersionedCsr exactly where it was.
            let mut vg = VersionedCsr::new(g.clone());
            prop_assert!(vg.apply(&batch).is_err());
            prop_assert_eq!(vg.version(), 0);
            prop_assert_eq!(vg.graph(), &g);
        }

        // A batch built for a different vertex count is rejected outright,
        // even when empty.
        let foreign = DeltaBuilder::new(n + 1).build();
        prop_assert!(matches!(
            apply_delta(&g, &foreign).unwrap_err(),
            DeltaError::VertexOutOfRange { .. }
        ));
    }

    #[test]
    fn device_scan_matches_reference(v in proptest::collection::vec(0usize..1000, 0..500)) {
        let dev = Device::k40m();
        let mut scanned = v.clone();
        let total = dev.exclusive_scan_usize(&mut scanned);
        let mut acc = 0usize;
        for (i, &x) in v.iter().enumerate() {
            prop_assert_eq!(scanned[i], acc);
            acc += x;
        }
        prop_assert_eq!(total, acc);
    }

    #[test]
    fn device_partition_is_stable_split(v in proptest::collection::vec(0u32..100, 0..300)) {
        let dev = Device::k40m();
        let (parted, count) = dev.partition(&v, |&x| x % 2 == 0);
        let evens: Vec<u32> = v.iter().copied().filter(|x| x % 2 == 0).collect();
        let odds: Vec<u32> = v.iter().copied().filter(|x| x % 2 == 1).collect();
        prop_assert_eq!(count, evens.len());
        prop_assert_eq!(&parted[..count], &evens[..]);
        prop_assert_eq!(&parted[count..], &odds[..]);
    }
}

fn louvain(dev: &Device, g: &Csr) -> community_gpu::core::GpuLouvainResult {
    community_gpu::core::louvain_gpu(dev, g, &GpuLouvainConfig::paper_default()).unwrap()
}
