//! Weighted undirected graph in Compressed Sparse Row form.
//!
//! Conventions (shared by every crate in this workspace, and identical to the
//! original sequential Louvain implementation of Blondel et al.):
//!
//! * An undirected edge `{u, v}` with `u != v` is stored in **both** adjacency
//!   lists, each time with its full weight.
//! * A self-loop `{v, v}` is stored **once** in `v`'s list with its full
//!   weight.
//! * The weighted degree `k_v` is the sum of the entries of `v`'s list, so a
//!   self-loop contributes its weight once to `k_v`.
//! * `2m` (`total_weight_2m`) is the sum of all weighted degrees.
//!
//! Under these conventions modularity is exactly preserved by
//! [`contract`](crate::contract::contract) when the aggregated self-loop of a
//! community is given the weight of all ordered intra-community pairs plus the
//! old self-loops (which is precisely what hashing every neighbor of every
//! member vertex produces).

use crate::builder::GraphBuilder;

/// Vertex identifier. 32 bits keeps the CSR compact; graphs beyond 4G vertices
/// are out of scope for a single device.
pub type VertexId = u32;

/// Edge weight. `f64` matches the accumulation precision of the reference
/// sequential implementation.
pub type Weight = f64;

/// A weighted undirected graph in CSR form.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    /// `offsets[v]..offsets[v + 1]` indexes `v`'s adjacency in `targets` /
    /// `weights`. Length `n + 1`.
    offsets: Vec<usize>,
    /// Flattened adjacency lists, sorted within each vertex.
    targets: Vec<VertexId>,
    /// Weight of the corresponding entry of `targets`.
    weights: Vec<Weight>,
    /// Cached sum of all weighted degrees (`2m`).
    total_weight_2m: Weight,
}

impl Csr {
    /// Builds a CSR from raw parts, validating the structural invariants.
    ///
    /// # Panics
    ///
    /// Panics if the offsets are not monotone, targets are out of range, or
    /// `targets`/`weights` lengths disagree. Use [`GraphBuilder`] for a safe,
    /// order-insensitive construction path.
    pub fn from_parts(offsets: Vec<usize>, targets: Vec<VertexId>, weights: Vec<Weight>) -> Self {
        assert!(!offsets.is_empty(), "offsets must have length n + 1");
        assert_eq!(
            *offsets.last().unwrap(),
            targets.len(),
            "last offset must equal the adjacency length"
        );
        assert_eq!(targets.len(), weights.len(), "targets/weights length mismatch");
        let n = offsets.len() - 1;
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "offsets must be monotone");
        assert!(targets.iter().all(|&t| (t as usize) < n), "target out of range");
        let total_weight_2m = weights.iter().sum();
        Self { offsets, targets, weights, total_weight_2m }
    }

    /// An empty graph with `n` isolated vertices.
    pub fn empty(n: usize) -> Self {
        Self {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
            weights: Vec::new(),
            total_weight_2m: 0.0,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of adjacency entries (`2|E|` minus the number of self-loops,
    /// which are stored once).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Number of undirected edges, counting each `{u, v}` and each self-loop
    /// once.
    pub fn num_edges(&self) -> usize {
        let loops = (0..self.num_vertices() as VertexId)
            .filter(|&v| self.neighbors(v).binary_search(&v).is_ok())
            .count();
        (self.num_arcs() - loops) / 2 + loops
    }

    /// Unweighted degree of `v` (number of adjacency entries, self-loop
    /// counted once). This is the quantity the paper's degree-based binning
    /// uses.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// The neighbors of `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// The edge weights of `v`'s adjacency, parallel to [`Self::neighbors`].
    #[inline]
    pub fn edge_weights(&self, v: VertexId) -> &[Weight] {
        &self.weights[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Iterator over `(neighbor, weight)` pairs of `v`.
    #[inline]
    pub fn edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.neighbors(v).iter().copied().zip(self.edge_weights(v).iter().copied())
    }

    /// Weighted degree `k_v`: sum of the weights of `v`'s adjacency entries
    /// (self-loop counted once).
    pub fn weighted_degree(&self, v: VertexId) -> Weight {
        self.edge_weights(v).iter().sum()
    }

    /// Weight of `v`'s self-loop, or 0 if there is none.
    pub fn self_loop(&self, v: VertexId) -> Weight {
        match self.neighbors(v).binary_search(&v) {
            Ok(pos) => self.edge_weights(v)[pos],
            Err(_) => 0.0,
        }
    }

    /// `2m`: the sum of all weighted degrees. Constant across a modularity
    /// optimization phase, recomputed after each aggregation.
    #[inline]
    pub fn total_weight_2m(&self) -> Weight {
        self.total_weight_2m
    }

    /// `m`: the sum of all edge weights (undirected edges once, self-loops
    /// once — matching the denominator of the paper's Eq. 1 and 2 under the
    /// stored-twice convention).
    #[inline]
    pub fn total_weight_m(&self) -> Weight {
        self.total_weight_2m * 0.5
    }

    /// The raw offsets array (length `n + 1`). Exposed for kernels that index
    /// the CSR directly, mirroring the paper's `vertices` array.
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw flattened adjacency (the paper's `edges` array).
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// The raw flattened weights (the paper's `weights` array).
    #[inline]
    pub fn weights(&self) -> &[Weight] {
        &self.weights
    }

    /// Consumes the graph, returning its `(offsets, targets, weights)`
    /// arrays — the inverse of [`Self::from_parts`], without a copy.
    pub fn into_parts(self) -> (Vec<usize>, Vec<VertexId>, Vec<Weight>) {
        (self.offsets, self.targets, self.weights)
    }

    /// Maximum unweighted degree.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as VertexId).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Checks the symmetry invariant: every arc `(u, v, w)` has a matching
    /// arc `(v, u, w)`. `true` for every graph produced by [`GraphBuilder`].
    pub fn is_symmetric(&self) -> bool {
        for u in 0..self.num_vertices() as VertexId {
            for (v, w) in self.edges(u) {
                if u == v {
                    continue;
                }
                match self.neighbors(v).binary_search(&u) {
                    Ok(pos) => {
                        if (self.edge_weights(v)[pos] - w).abs() > 1e-9 * (1.0 + w.abs()) {
                            return false;
                        }
                    }
                    Err(_) => return false,
                }
            }
        }
        true
    }

    /// Converts back to a builder holding each undirected edge once (useful
    /// for perturbation-style tests and generators that post-process graphs).
    pub fn to_builder(&self) -> GraphBuilder {
        let mut b = GraphBuilder::new(self.num_vertices());
        for u in 0..self.num_vertices() as VertexId {
            for (v, w) in self.edges(u) {
                if v >= u {
                    b.add_edge(u, v, w);
                }
            }
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_with_loop() -> Csr {
        // 0-1 (w 1), 1-2 (w 2), 0-2 (w 3), loop at 2 (w 4)
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 2.0);
        b.add_edge(0, 2, 3.0);
        b.add_edge(2, 2, 4.0);
        b.build()
    }

    #[test]
    fn basic_accessors() {
        let g = triangle_with_loop();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_arcs(), 7); // 3 edges * 2 + 1 loop
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(2), &[0, 1, 2]);
    }

    #[test]
    fn weighted_degrees_and_total() {
        let g = triangle_with_loop();
        assert_eq!(g.weighted_degree(0), 4.0);
        assert_eq!(g.weighted_degree(1), 3.0);
        assert_eq!(g.weighted_degree(2), 9.0); // 3 + 2 + 4
        assert_eq!(g.total_weight_2m(), 16.0);
        assert_eq!(g.total_weight_m(), 8.0);
    }

    #[test]
    fn self_loop_lookup() {
        let g = triangle_with_loop();
        assert_eq!(g.self_loop(0), 0.0);
        assert_eq!(g.self_loop(2), 4.0);
    }

    #[test]
    fn symmetry_holds_for_builder_output() {
        assert!(triangle_with_loop().is_symmetric());
    }

    #[test]
    fn empty_graph() {
        let g = Csr::empty(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.total_weight_2m(), 0.0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn roundtrip_through_builder() {
        let g = triangle_with_loop();
        let g2 = g.to_builder().build();
        assert_eq!(g, g2);
    }

    #[test]
    #[should_panic(expected = "target out of range")]
    fn from_parts_rejects_bad_target() {
        Csr::from_parts(vec![0, 1], vec![7], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn from_parts_rejects_nonmonotone_offsets() {
        Csr::from_parts(vec![0, 2, 1], vec![0], vec![1.0]);
    }
}
