//! Modularity (Newman-Girvan) and modularity gain — the paper's Eq. 1 and
//! Eq. 2 — as sequential reference implementations.
//!
//! These are the ground truth the GPU kernels and all baselines are tested
//! against. [`modularity`] accumulates into dense per-community arrays in a
//! fixed order, so it is bitwise deterministic and cheap enough for the
//! drivers to call on every stage and every sharded superstep;
//! [`community_aggregates`] and [`modularity_gain`] stay keyed by
//! `HashMap` — they are reference helpers, not hot paths.

use crate::csr::{Csr, VertexId, Weight};
use crate::partition::Partition;
use std::collections::HashMap;

/// Per-community accumulators used by Eq. 1 / Eq. 2:
/// `a_c = Σ_{i ∈ c} k_i` and `in_c = Σ_{i,j ∈ c} w_ij` (ordered pairs, so
/// internal edges count twice and self-loops once).
#[derive(Clone, Debug, Default)]
pub struct CommunityAggregates {
    /// `a_c` keyed by community id.
    pub a: HashMap<VertexId, Weight>,
    /// `in_c` keyed by community id.
    pub inside: HashMap<VertexId, Weight>,
}

/// Computes `a_c` and `in_c` for every community of `p`.
pub fn community_aggregates(g: &Csr, p: &Partition) -> CommunityAggregates {
    assert_eq!(g.num_vertices(), p.len(), "partition/vertex count mismatch");
    let mut agg = CommunityAggregates::default();
    for u in 0..g.num_vertices() as VertexId {
        let cu = p.community_of(u);
        *agg.a.entry(cu).or_insert(0.0) += g.weighted_degree(u);
        for (v, w) in g.edges(u) {
            if p.community_of(v) == cu {
                *agg.inside.entry(cu).or_insert(0.0) += w;
            }
        }
    }
    agg
}

/// Modularity of a partition — the paper's Eq. 1:
///
/// `Q = (1/2m) Σ_i e_{i→C(i)} − Σ_c a_c² / 4m²`
///
/// which under the conventions of [`Csr`] equals
/// `Σ_c [ in_c/2m − (a_c/2m)² ]`.
///
/// Returns 0 for an edgeless graph (the usual convention; Q is otherwise
/// undefined when `m = 0`).
pub fn modularity(g: &Csr, p: &Partition) -> f64 {
    modularity_of_labels(g, p.as_slice())
}

/// [`modularity`] of a bare label slice: `labels[v]` is the community of
/// vertex `v`. Callers that keep their labeling in a `Vec` need no
/// [`Partition`] (and no copy) to score it.
///
/// The accumulators are dense arrays indexed by community id, filled in a
/// fixed order — `a_c` by ascending vertex, `in_c` by ascending vertex then
/// arc order — and summed by ascending community id, so the result is
/// bitwise deterministic (f64 addition is not associative). Label ids far
/// above the vertex count are first compressed, order-preserving, to dense
/// ranks, which leaves the summation order unchanged.
pub fn modularity_of_labels(g: &Csr, labels: &[VertexId]) -> f64 {
    let two_m = g.total_weight_2m();
    if two_m == 0.0 {
        return 0.0;
    }
    let n = g.num_vertices();
    assert_eq!(n, labels.len(), "partition/vertex count mismatch");
    let max = labels.iter().copied().max().map_or(0, |c| c as usize);
    let ranks: Vec<VertexId>;
    let (ids, len) = if max < 2 * n {
        (labels, max + 1)
    } else {
        let mut distinct = labels.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        ranks = labels
            .iter()
            .map(|c| distinct.binary_search(c).expect("every label is in its own set") as VertexId)
            .collect();
        (&ranks[..], distinct.len())
    };
    let mut a = vec![0.0; len];
    let mut inside = vec![0.0; len];
    let mut present = vec![false; len];
    for u in 0..n as VertexId {
        let cu = ids[u as usize];
        let c = cu as usize;
        present[c] = true;
        // k_u summed in the row's own pass, in `Csr::weighted_degree`'s
        // order.
        let mut k_u = 0.0;
        for (v, w) in g.edges(u) {
            k_u += w;
            if ids[v as usize] == cu {
                inside[c] += w;
            }
        }
        a[c] += k_u;
    }
    let mut q = 0.0;
    for c in (0..len).filter(|&c| present[c]) {
        q += inside[c] / two_m - (a[c] / two_m) * (a[c] / two_m);
    }
    q
}

/// Modularity gain of moving vertex `i` from its current community to `dst`
/// — the paper's Eq. 2:
///
/// `ΔQ = (e_{i→dst} − e_{i→C(i)\{i}}) / m + k_i (a_{C(i)\{i}} − a_dst) / 2m²`
///
/// `dst` may equal `C(i)`, in which case the gain is 0. The self-loop of `i`
/// is excluded from both `e` terms, matching `C(i)\{i}`.
///
/// This is a reference implementation (O(deg i) with hashing); the kernels
/// compute the same quantity incrementally.
pub fn modularity_gain(g: &Csr, p: &Partition, i: VertexId, dst: VertexId) -> f64 {
    let src = p.community_of(i);
    if dst == src {
        return 0.0;
    }
    let m = g.total_weight_m();
    assert!(m > 0.0, "gain undefined on an edgeless graph");
    let k_i = g.weighted_degree(i);

    let mut e_to_dst = 0.0;
    let mut e_to_src = 0.0;
    for (j, w) in g.edges(i) {
        if j == i {
            continue; // exclude the self-loop: C(i)\{i}
        }
        let cj = p.community_of(j);
        if cj == dst {
            e_to_dst += w;
        } else if cj == src {
            e_to_src += w;
        }
    }

    let agg = community_aggregates(g, p);
    let a_src_minus_i = agg.a.get(&src).copied().unwrap_or(0.0) - k_i;
    let a_dst = agg.a.get(&dst).copied().unwrap_or(0.0);

    (e_to_dst - e_to_src) / m + k_i * (a_src_minus_i - a_dst) / (2.0 * m * m)
}

/// Applies a single vertex move and returns the *exact* modularity delta by
/// recomputing Eq. 1 before and after. Test-only helper that validates
/// [`modularity_gain`] against first principles.
pub fn exact_move_delta(g: &Csr, p: &Partition, i: VertexId, dst: VertexId) -> f64 {
    let before = modularity(g, p);
    let mut moved = p.clone();
    moved.assign(i, dst);
    modularity(g, &moved) - before
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{csr_from_edges, csr_from_unit_edges};

    /// Two triangles joined by a single bridge edge: the classic two-community
    /// graph.
    fn two_triangles() -> Csr {
        csr_from_unit_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    }

    #[test]
    fn modularity_of_two_triangles() {
        let g = two_triangles();
        let p = Partition::from_vec(vec![0, 0, 0, 1, 1, 1]);
        // m = 7. in_0 = 6 (3 internal edges, both directions), a_0 = 2+2+3 = 7.
        // Q = 2 * (6/14 - (7/14)^2) = 2 * (3/7 - 1/4) = 5/14.
        assert!((modularity(&g, &p) - 5.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn singleton_modularity_is_negative_or_zero() {
        let g = two_triangles();
        let p = Partition::singleton(6);
        let q = modularity(&g, &p);
        assert!(q < 0.0, "singleton modularity {q} should be negative here");
        assert!(q >= -1.0);
    }

    #[test]
    fn all_in_one_community_modularity_zero() {
        // Q of the trivial single community is always 2m/2m * ... = 1 - 1 = 0.
        let g = two_triangles();
        let p = Partition::from_vec(vec![0; 6]);
        assert!(modularity(&g, &p).abs() < 1e-12);
    }

    #[test]
    fn modularity_bounded() {
        let g = two_triangles();
        for bits in 0..64u32 {
            let assign: Vec<u32> = (0..6).map(|v| (bits >> v) & 1).collect();
            let q = modularity(&g, &Partition::from_vec(assign));
            assert!((-1.0..=1.0).contains(&q));
        }
    }

    #[test]
    fn gain_matches_exact_delta() {
        let g = two_triangles();
        let p = Partition::from_vec(vec![0, 0, 0, 1, 1, 1]);
        for i in 0..6u32 {
            for dst in [0u32, 1] {
                let gain =
                    if dst == p.community_of(i) { 0.0 } else { modularity_gain(&g, &p, i, dst) };
                let exact =
                    if dst == p.community_of(i) { 0.0 } else { exact_move_delta(&g, &p, i, dst) };
                assert!(
                    (gain - exact).abs() < 1e-12,
                    "vertex {i} -> {dst}: gain {gain} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn gain_with_self_loops_matches_exact_delta() {
        let g =
            csr_from_edges(4, &[(0, 1, 2.0), (1, 2, 1.0), (2, 3, 3.0), (0, 0, 5.0), (2, 2, 1.5)]);
        let p = Partition::from_vec(vec![0, 0, 1, 1]);
        for i in 0..4u32 {
            for dst in [0u32, 1] {
                if dst == p.community_of(i) {
                    continue;
                }
                let gain = modularity_gain(&g, &p, i, dst);
                let exact = exact_move_delta(&g, &p, i, dst);
                assert!(
                    (gain - exact).abs() < 1e-12,
                    "vertex {i} -> {dst}: gain {gain} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn gain_to_own_community_is_zero() {
        let g = two_triangles();
        let p = Partition::from_vec(vec![0, 0, 0, 1, 1, 1]);
        assert_eq!(modularity_gain(&g, &p, 0, 0), 0.0);
    }

    #[test]
    fn aggregates_sum_to_totals() {
        let g = two_triangles();
        let p = Partition::from_vec(vec![0, 0, 1, 1, 2, 2]);
        let agg = community_aggregates(&g, &p);
        let a_sum: f64 = agg.a.values().sum();
        assert!((a_sum - g.total_weight_2m()).abs() < 1e-12);
        let in_sum: f64 = agg.inside.values().sum();
        assert!(in_sum <= g.total_weight_2m() + 1e-12);
    }

    #[test]
    fn edgeless_graph_modularity_zero() {
        let g = Csr::empty(3);
        assert_eq!(modularity(&g, &Partition::singleton(3)), 0.0);
    }
}
