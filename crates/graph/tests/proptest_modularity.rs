//! Property tests of the dense-array [`modularity`]: it must equal, bit for
//! bit, the `HashMap`-keyed reference it replaced — `a_c` folded by
//! ascending vertex, `in_c` by ascending vertex then arc order, the sum by
//! ascending community id — on fractional weights, self-loops, isolated
//! vertices, sparse label ids up to `u32::MAX`, and the empty graph. The
//! label-slice and `Partition` entry points must agree too.

use cd_graph::{
    community_aggregates, csr_from_edges, modularity, modularity_of_labels, Csr, Partition,
    VertexId,
};
use proptest::prelude::*;

/// The `HashMap`-keyed modularity, kept here as the reference.
fn hashmap_modularity(g: &Csr, p: &Partition) -> f64 {
    let two_m = g.total_weight_2m();
    if two_m == 0.0 {
        return 0.0;
    }
    let agg = community_aggregates(g, p);
    let mut ids: Vec<VertexId> = agg.a.keys().copied().collect();
    ids.sort_unstable();
    let mut q = 0.0;
    for c in ids {
        let a_c = agg.a[&c];
        let in_c = agg.inside.get(&c).copied().unwrap_or(0.0);
        q += in_c / two_m - (a_c / two_m) * (a_c / two_m);
    }
    q
}

/// A weighted graph on up to 40 vertices: fractional weights (churn-style
/// `0.5 + U`), self-loops, and — since edges only touch a random subset —
/// isolated vertices.
fn arb_graph() -> impl Strategy<Value = Csr> {
    (0usize..40).prop_flat_map(|n| {
        let edge = (0..n.max(1) as VertexId, 0..n.max(1) as VertexId, 0.5f64..1.5);
        (Just(n), proptest::collection::vec(edge, 0..(3 * n + 1))).prop_map(|(n, edges)| {
            if n == 0 {
                Csr::empty(0)
            } else {
                csr_from_edges(n, &edges)
            }
        })
    })
}

/// Labels for `n` vertices: picks below `n` are dense ids, the rest come
/// from a palette of sparse ids far above `n` and at the very top of the
/// `u32` range.
fn arb_labels(n: usize) -> impl Strategy<Value = Vec<VertexId>> {
    let top = n as VertexId;
    let palette = [top, 3 * top + 5, 1 << 20, u32::MAX - 2, u32::MAX - 1, u32::MAX];
    proptest::collection::vec(0..top + palette.len() as VertexId, n).prop_map(move |picks| {
        picks.into_iter().map(|x| if x < top { x } else { palette[(x - top) as usize] }).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn dense_modularity_equals_the_hashmap_reference(
        (g, labels) in arb_graph().prop_flat_map(|g| {
            let n = g.num_vertices();
            (Just(g), arb_labels(n))
        })
    ) {
        let p = Partition::from_vec(labels.clone());
        let want = hashmap_modularity(&g, &p);
        let by_partition = modularity(&g, &p);
        let by_slice = modularity_of_labels(&g, &labels);
        prop_assert_eq!(by_partition.to_bits(), want.to_bits(), "{} vs {}", by_partition, want);
        prop_assert_eq!(by_slice.to_bits(), by_partition.to_bits());
    }

    #[test]
    fn singleton_and_whole_graph_labelings_match(g in arb_graph()) {
        let n = g.num_vertices();
        for labels in [(0..n as VertexId).collect::<Vec<_>>(), vec![u32::MAX; n]] {
            let p = Partition::from_vec(labels.clone());
            prop_assert_eq!(modularity_of_labels(&g, &labels).to_bits(),
                hashmap_modularity(&g, &p).to_bits());
        }
    }
}

#[test]
fn empty_and_edgeless_graphs_score_zero() {
    assert_eq!(modularity_of_labels(&Csr::empty(0), &[]), 0.0);
    assert_eq!(modularity_of_labels(&Csr::empty(3), &[0, u32::MAX, 5]), 0.0);
    assert_eq!(modularity(&Csr::empty(0), &Partition::from_vec(Vec::new())), 0.0);
}
