//! Graph aggregation (the second phase of each Louvain stage): merge every
//! community into a single vertex.
//!
//! Every host-side Louvain — the CPU baselines, the multi-device merge and
//! the sharded driver — contracts through [`contract`], and the GPU
//! aggregation kernel (`cd-core::aggregate`) is tested for agreement with
//! it.

use crate::csr::{Csr, VertexId, Weight};
use crate::partition::Partition;
use crate::scratch::NeighborScratch;

/// Contracts `g` according to `p`: each community becomes one vertex, parallel
/// edges between communities merge (weights summed) and intra-community edges
/// (plus pre-existing self-loops) merge into a self-loop.
///
/// Returns the contracted graph and the renumbered partition that maps each
/// original vertex to its new vertex id (`0..k` in order of first appearance,
/// matching [`Partition::renumbered`]).
///
/// Under the storage conventions of [`Csr`], the new self-loop weight of a
/// community `c` is `in_c` (internal ordered pairs + old self-loops), which
/// makes modularity invariant: `Q(contract(g, p), singleton) == Q(g, p)`.
///
/// The algorithm: a counting sort lists each community's members in
/// ascending vertex id; one [`NeighborScratch`] then gathers each
/// community's merged adjacency from its members' edges in CSR order, and
/// the entries are emitted sorted by target. Every merged weight is
/// therefore the f64 sum of its arcs in ascending member id, each member's
/// arcs in CSR order. That is the order in which the GPU aggregation
/// kernel's `mergeCommunity` adds them too (it sorts every member list into
/// ascending vertex id first), so this reference and the kernel add the same
/// terms in the same order.
pub fn contract(g: &Csr, p: &Partition) -> (Csr, Partition) {
    assert_eq!(g.num_vertices(), p.len(), "partition/vertex count mismatch");
    let (renum, k) = p.renumbered();
    let comm = renum.as_slice();

    // Counting sort: community c's members are members[start[c]..start[c + 1]].
    let mut start = vec![0usize; k + 1];
    for &c in comm {
        start[c as usize + 1] += 1;
    }
    for c in 0..k {
        start[c + 1] += start[c];
    }
    let mut next = start.clone();
    let mut members = vec![0 as VertexId; comm.len()];
    for (v, &c) in comm.iter().enumerate() {
        members[next[c as usize]] = v as VertexId;
        next[c as usize] += 1;
    }
    let members_of = |c: usize| &members[start[c]..start[c + 1]];

    // A community has at most as many distinct targets as it has arcs.
    let max_arcs =
        (0..k).map(|c| members_of(c).iter().map(|&v| g.degree(v)).sum()).max().unwrap_or(0);
    let mut scratch = NeighborScratch::new(max_arcs.min(k));
    let mut offsets = Vec::with_capacity(k + 1);
    offsets.push(0usize);
    let mut targets = Vec::new();
    let mut weights = Vec::new();
    let mut merged: Vec<(VertexId, Weight)> = Vec::new();
    for c in 0..k {
        // The self-loop bucket receives each internal edge from both
        // endpoints (2w) and each old self-loop once: exactly `in_c`.
        scratch.begin();
        for &v in members_of(c) {
            for (t, w) in g.edges(v) {
                scratch.add(comm[t as usize], w);
            }
        }
        merged.clear();
        merged.extend(scratch.iter());
        merged.sort_unstable_by_key(|&(d, _)| d);
        targets.extend(merged.iter().map(|&(d, _)| d));
        weights.extend(merged.iter().map(|&(_, w)| w));
        offsets.push(targets.len());
    }

    (Csr::from_parts(offsets, targets, weights), renum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{csr_from_edges, csr_from_unit_edges};
    use crate::modularity::modularity;

    fn two_triangles() -> Csr {
        csr_from_unit_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    }

    #[test]
    fn contract_two_triangles() {
        let g = two_triangles();
        let p = Partition::from_vec(vec![0, 0, 0, 1, 1, 1]);
        let (cg, renum) = contract(&g, &p);
        assert_eq!(cg.num_vertices(), 2);
        assert_eq!(renum.as_slice(), &[0, 0, 0, 1, 1, 1]);
        // Each triangle: 3 internal unit edges -> self-loop weight 6.
        assert_eq!(cg.self_loop(0), 6.0);
        assert_eq!(cg.self_loop(1), 6.0);
        // The bridge 2-3 becomes a unit edge between the two new vertices.
        assert_eq!(cg.neighbors(0), &[0, 1]);
        assert_eq!(cg.edge_weights(0)[1], 1.0);
    }

    #[test]
    fn total_weight_preserved() {
        let g = two_triangles();
        let p = Partition::from_vec(vec![0, 1, 0, 1, 0, 1]);
        let (cg, _) = contract(&g, &p);
        assert!((cg.total_weight_2m() - g.total_weight_2m()).abs() < 1e-12);
    }

    #[test]
    fn modularity_invariant_under_contraction() {
        let g = csr_from_edges(
            7,
            &[
                (0, 1, 2.0),
                (1, 2, 1.0),
                (2, 0, 0.5),
                (3, 4, 1.0),
                (4, 5, 4.0),
                (5, 6, 1.0),
                (2, 3, 1.0),
                (6, 0, 0.25),
                (1, 1, 3.0),
            ],
        );
        let p = Partition::from_vec(vec![0, 0, 0, 1, 1, 1, 2]);
        let q_before = modularity(&g, &p);
        let (cg, renum) = contract(&g, &p);
        let q_after = modularity(&cg, &Partition::singleton(cg.num_vertices()));
        assert!((q_before - q_after).abs() < 1e-12, "Q before {q_before} != Q after {q_after}");
        assert_eq!(renum.num_communities(), cg.num_vertices());
    }

    #[test]
    fn identity_partition_contracts_to_same_graph() {
        let g = two_triangles();
        let (cg, _) = contract(&g, &Partition::singleton(6));
        assert_eq!(cg, g);
    }

    #[test]
    fn contract_to_single_vertex() {
        let g = two_triangles();
        let (cg, _) = contract(&g, &Partition::from_vec(vec![4; 6]));
        assert_eq!(cg.num_vertices(), 1);
        assert_eq!(cg.self_loop(0), g.total_weight_2m());
    }

    #[test]
    fn skips_empty_community_ids() {
        // Community ids 10 and 20: holes must disappear after renumbering.
        let g = csr_from_unit_edges(3, &[(0, 1), (1, 2)]);
        let p = Partition::from_vec(vec![10, 10, 20]);
        let (cg, renum) = contract(&g, &p);
        assert_eq!(cg.num_vertices(), 2);
        assert_eq!(renum.as_slice(), &[0, 0, 1]);
    }
}
