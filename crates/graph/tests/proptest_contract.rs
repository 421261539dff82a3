//! Property tests of [`contract`]: it must equal, bit for bit, the
//! `HashMap`-per-community contraction it replaced — the same offsets,
//! targets, weight bits and renumbering — on fractional weights,
//! self-loops, isolated vertices, sparse label ids, and the singleton and
//! one-community partitions.

use cd_graph::gen::{add_random_edges, cliques, cycle};
use cd_graph::{contract, csr_from_edges, Csr, Partition, VertexId, Weight};
use proptest::prelude::*;
use std::collections::HashMap;

/// The `HashMap`-keyed contraction, kept here as the reference: each
/// community's sum for a target adds its members in ascending vertex id and
/// each member's arcs in CSR order.
fn hashmap_contract(g: &Csr, p: &Partition) -> (Csr, Partition) {
    let (renum, k) = p.renumbered();
    let mut per_comm: Vec<HashMap<VertexId, Weight>> = vec![HashMap::new(); k];
    for u in 0..g.num_vertices() as VertexId {
        let acc = &mut per_comm[renum.community_of(u) as usize];
        for (v, w) in g.edges(u) {
            *acc.entry(renum.community_of(v)).or_insert(0.0) += w;
        }
    }
    let mut offsets = vec![0usize];
    let (mut targets, mut weights) = (Vec::new(), Vec::new());
    for acc in per_comm {
        let mut entries: Vec<(VertexId, Weight)> = acc.into_iter().collect();
        entries.sort_unstable_by_key(|&(d, _)| d);
        for (d, w) in entries {
            targets.push(d);
            weights.push(w);
        }
        offsets.push(targets.len());
    }
    (Csr::from_parts(offsets, targets, weights), renum)
}

fn assert_matches_reference(g: &Csr, p: &Partition) {
    let (got, got_map) = contract(g, p);
    let (want, want_map) = hashmap_contract(g, p);
    assert_eq!(got_map.as_slice(), want_map.as_slice(), "renumbering");
    assert_eq!(got.offsets(), want.offsets(), "offsets");
    assert_eq!(got.targets(), want.targets(), "targets");
    let bits = |c: &Csr| c.weights().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got), bits(&want), "weight bits");
}

#[test]
fn matches_reference_on_cliques() {
    let g = cliques(4, 5, true);
    assert_matches_reference(&g, &Partition::from_vec((0..20).map(|v| v / 5).collect()));
}

#[test]
fn matches_reference_on_random() {
    let g = add_random_edges(&cycle(200), 400, 3);
    for seed in 0..3u32 {
        let p = Partition::from_vec((0..200u32).map(|v| (v * 7 + seed) % 13).collect());
        assert_matches_reference(&g, &p);
    }
}

#[test]
fn matches_reference_with_self_loops() {
    let g = csr_from_edges(4, &[(0, 1, 2.0), (1, 1, 3.0), (2, 3, 1.0), (0, 3, 1.5)]);
    assert_matches_reference(&g, &Partition::from_vec(vec![0, 0, 1, 1]));
}

#[test]
fn matches_reference_on_identity_partition() {
    assert_matches_reference(&cliques(2, 4, true), &Partition::singleton(8));
}

/// A weighted graph on up to 40 vertices: fractional weights, self-loops,
/// and — since edges only touch a random subset — isolated vertices.
fn arb_graph() -> impl Strategy<Value = Csr> {
    (0usize..40).prop_flat_map(|n| {
        let edge = (0..n.max(1) as VertexId, 0..n.max(1) as VertexId, 0.1f64..3.0);
        (Just(n), proptest::collection::vec(edge, 0..(3 * n + 1))).prop_map(|(n, edges)| {
            if n == 0 {
                Csr::empty(0)
            } else {
                csr_from_edges(n, &edges)
            }
        })
    })
}

/// A partition of `n` vertices: `mode` 0 is the singleton partition, 1 one
/// community, and anything else random labels from a small palette that
/// includes sparse ids far above `n`.
fn arb_partition(n: usize) -> impl Strategy<Value = Partition> {
    let palette = [0, 1, 2, 3, 5, 8, 1 << 20, u32::MAX - 1];
    (0u8..6, proptest::collection::vec(0..palette.len(), n)).prop_map(move |(mode, picks)| {
        match mode {
            0 => Partition::singleton(n),
            1 => Partition::from_vec(vec![7; n]),
            _ => Partition::from_vec(picks.into_iter().map(|i| palette[i]).collect()),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn contract_equals_the_hashmap_reference(
        (g, p) in arb_graph().prop_flat_map(|g| {
            let n = g.num_vertices();
            (Just(g), arb_partition(n))
        })
    ) {
        assert_matches_reference(&g, &p);
    }
}
