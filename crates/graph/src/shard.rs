//! Edge-cut sharding: splits a [`Csr`] into K owner shards with ghost
//! vertices and a routing table, the substrate of the out-of-core
//! (`cd-dist`) execution path.
//!
//! # Partitioning model
//!
//! Every vertex has exactly one *owner* shard. A shard's local view contains
//! its owned vertices plus *ghosts* — local copies of every cut-edge
//! endpoint owned by another shard. Owned rows carry the vertex's full
//! adjacency (remapped to local ids); ghost rows are empty, since ghosts
//! exist only to be read (their labels arrive through the halo exchange),
//! never to decide.
//!
//! Two owner assignments are implemented and the cheaper cut wins:
//!
//! * **contiguous** — the id-range blocks of [`crate::block_ranges`], the
//!   assignment the multi-device path used historically. Optimal when vertex
//!   ids encode locality (generated cliques, lattices);
//! * **seeded BFS growth** — K frontiers seeded at the contiguous block
//!   starts claim unowned vertices round-robin, one claim per shard per
//!   round, capped at ⌈n/K⌉ vertices per shard. A drained frontier re-seeds
//!   at the smallest unowned vertex. The round-robin discipline makes shard
//!   sizes differ by at most one until the caps engage, so balance is
//!   structural, not probabilistic.
//!
//! Both assignments are sequential host code and pure functions of the
//! graph, so the partition — and everything downstream of it — is identical
//! across thread counts and execution profiles.
//!
//! # Local id order
//!
//! Local ids are assigned in ascending *global* id over owned ∪ ghosts.
//! Remapping a (sorted) CSR row therefore preserves its order, which keeps
//! every local adjacency scan — and any floating-point accumulation over it
//! — in the same order the single-device kernels would use. This is what
//! lets the sharded driver promise bit-identical results across shard
//! counts.

use crate::csr::Csr;
use crate::subgraph::block_ranges;
use crate::{VertexId, Weight};

/// Which owner assignment a partition used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardStrategy {
    /// Contiguous id-range blocks ([`block_ranges`]).
    Contiguous,
    /// Seeded multi-source BFS growth with per-shard capacity caps.
    BfsGrowth,
}

impl ShardStrategy {
    /// Stable lower-case name (JSON telemetry).
    pub fn name(self) -> &'static str {
        match self {
            ShardStrategy::Contiguous => "contiguous",
            ShardStrategy::BfsGrowth => "bfs-growth",
        }
    }
}

/// Measured quality of an owner assignment.
#[derive(Clone, Copy, Debug)]
pub struct ShardStats {
    /// Strategy that produced the assignment.
    pub strategy: ShardStrategy,
    /// Number of shards.
    pub num_shards: usize,
    /// Directed arcs whose endpoints live on different shards.
    pub cut_arcs: usize,
    /// Total directed arcs in the graph.
    pub total_arcs: usize,
    /// `cut_arcs / total_arcs` (0 for an edgeless graph).
    pub cut_fraction: f64,
    /// Total edge weight on cut arcs (each undirected cut edge counted
    /// twice, like `total_weight_2m`).
    pub cut_weight: Weight,
    /// Vertices in the largest shard.
    pub max_shard: usize,
    /// Vertices in the smallest shard.
    pub min_shard: usize,
    /// `max_shard / (n / num_shards)` — 1.0 is perfect balance.
    pub balance: f64,
}

/// Contiguous owner assignment: vertex `v` belongs to the block of
/// [`block_ranges`] that contains it.
pub fn contiguous_owners(n: usize, k: usize) -> Vec<u32> {
    let mut owner = vec![0u32; n];
    for (b, members) in block_ranges(n, k).iter().enumerate() {
        for &v in members {
            owner[v as usize] = b as u32;
        }
    }
    owner
}

/// Seeded multi-source BFS growth with the contiguous block starts as
/// seeds (spread across the id space — the right prior when ids encode
/// locality). See [`grow_owners`] for the growth discipline.
pub fn bfs_owners(g: &Csr, k: usize) -> Vec<u32> {
    let n = g.num_vertices();
    let k = k.max(1).min(n.max(1));
    let seeds: Vec<VertexId> =
        block_ranges(n, k).iter().filter_map(|m| m.first().copied()).collect();
    grow_owners(g, k, &seeds)
}

/// BFS growth with *lazy* seeding: every frontier starts empty and
/// re-seeds at the smallest unowned vertex the moment it has nothing to
/// claim. The right prior when community structure is interleaved across
/// the id space (the block starts would all land in one region).
pub fn bfs_owners_lazy(g: &Csr, k: usize) -> Vec<u32> {
    let k = k.max(1).min(g.num_vertices().max(1));
    grow_owners(g, k, &[])
}

/// The shared growth discipline: K frontiers claim unowned vertices
/// round-robin, one claim per shard per round, capped at ⌈n/K⌉ owned
/// vertices each; a drained frontier re-seeds at the smallest unowned
/// vertex. The round-robin order makes shard sizes differ by at most one
/// until the caps engage, so balance is structural. Deterministic
/// sequential host code.
fn grow_owners(g: &Csr, k: usize, seeds: &[VertexId]) -> Vec<u32> {
    let n = g.num_vertices();
    let mut owner = vec![u32::MAX; n];
    if n == 0 {
        return owner;
    }
    let cap = n.div_ceil(k);
    let mut sizes = vec![0usize; k];
    let mut frontiers: Vec<std::collections::VecDeque<u32>> =
        (0..k).map(|_| std::collections::VecDeque::new()).collect();
    for (s, &seed) in seeds.iter().enumerate().take(k) {
        frontiers[s].push_back(seed);
    }
    let mut next_unowned = 0usize; // monotone scan pointer for re-seeding
    let mut claimed = 0usize;
    while claimed < n {
        let mut progressed = false;
        for s in 0..k {
            if sizes[s] == cap || claimed == n {
                continue;
            }
            // Pop until an unowned vertex surfaces; stale entries (claimed
            // by another shard since they were pushed) are discarded.
            let v = loop {
                match frontiers[s].pop_front() {
                    Some(v) if owner[v as usize] == u32::MAX => break Some(v),
                    Some(_) => continue,
                    None => {
                        while next_unowned < n && owner[next_unowned] != u32::MAX {
                            next_unowned += 1;
                        }
                        break (next_unowned < n).then_some(next_unowned as u32);
                    }
                }
            };
            let Some(v) = v else { continue };
            owner[v as usize] = s as u32;
            sizes[s] += 1;
            claimed += 1;
            progressed = true;
            for &u in g.neighbors(v) {
                if owner[u as usize] == u32::MAX {
                    frontiers[s].push_back(u);
                }
            }
        }
        debug_assert!(progressed, "BFS growth stalled with {claimed}/{n} claimed");
        if !progressed {
            break; // unreachable; belt against an infinite loop
        }
    }
    owner
}

/// Measures an owner assignment against the graph.
pub fn shard_stats(g: &Csr, owner: &[u32], k: usize, strategy: ShardStrategy) -> ShardStats {
    let n = g.num_vertices();
    let mut sizes = vec![0usize; k.max(1)];
    for &o in owner {
        sizes[o as usize] += 1;
    }
    let mut cut_arcs = 0usize;
    let mut cut_weight = 0.0;
    for v in 0..n as VertexId {
        let ov = owner[v as usize];
        for (u, w) in g.edges(v) {
            if owner[u as usize] != ov {
                cut_arcs += 1;
                cut_weight += w;
            }
        }
    }
    let total_arcs = g.num_arcs();
    let max_shard = sizes.iter().copied().max().unwrap_or(0);
    let min_shard = sizes.iter().copied().min().unwrap_or(0);
    let mean = n as f64 / k.max(1) as f64;
    ShardStats {
        strategy,
        num_shards: k,
        cut_arcs,
        total_arcs,
        cut_fraction: if total_arcs == 0 { 0.0 } else { cut_arcs as f64 / total_arcs as f64 },
        cut_weight,
        max_shard,
        min_shard,
        balance: if mean > 0.0 { max_shard as f64 / mean } else { 1.0 },
    }
}

/// Owner assignment for `k` shards: computes the contiguous assignment and
/// both BFS-growth variants and keeps whichever cuts the fewest arcs, the
/// contiguous one on ties (it is the cheaper structure and the historical
/// behavior of the multi-device path).
pub fn edge_cut_owners(g: &Csr, k: usize) -> (Vec<u32>, ShardStats) {
    let n = g.num_vertices();
    let k = k.max(1).min(n.max(1));
    let cont = contiguous_owners(n, k);
    let mut best_stats = shard_stats(g, &cont, k, ShardStrategy::Contiguous);
    let mut best = cont;
    for candidate in [bfs_owners(g, k), bfs_owners_lazy(g, k)] {
        let stats = shard_stats(g, &candidate, k, ShardStrategy::BfsGrowth);
        if stats.cut_arcs < best_stats.cut_arcs {
            best = candidate;
            best_stats = stats;
        }
    }
    (best, best_stats)
}

/// Member lists of [`edge_cut_owners`]: one ascending global-id list per
/// shard. Drop-in replacement for [`block_ranges`] where the caller wants
/// the measured-cut assignment instead of the id-range one.
pub fn edge_cut_members(g: &Csr, k: usize) -> (Vec<Vec<VertexId>>, ShardStats) {
    let (owner, stats) = edge_cut_owners(g, k);
    let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); stats.num_shards];
    for (v, &o) in owner.iter().enumerate() {
        members[o as usize].push(v as VertexId);
    }
    (members, stats)
}

/// One shard's local view.
#[derive(Clone, Debug)]
pub struct Shard {
    /// Global ids of owned vertices, ascending.
    pub owned: Vec<VertexId>,
    /// Global ids of every local vertex (owned ∪ ghosts), ascending; the
    /// local id of `locals[l]` is `l`.
    pub locals: Vec<VertexId>,
    /// Local ids of the owned vertices, ascending.
    pub owned_locals: Vec<u32>,
    /// Global ids of the ghosts (cut-edge endpoints owned elsewhere),
    /// ascending.
    pub ghosts: Vec<VertexId>,
    /// Local-view CSR: owned rows carry the vertex's full global adjacency
    /// remapped to local ids (order-preserving); ghost rows are empty.
    pub graph: Csr,
}

impl Shard {
    /// Local id of a global vertex, if it is resident on this shard.
    pub fn local_of(&self, global: VertexId) -> Option<u32> {
        self.locals.binary_search(&global).ok().map(|l| l as u32)
    }

    /// Number of local vertices (owned + ghosts).
    pub fn num_locals(&self) -> usize {
        self.locals.len()
    }
}

/// A CSR split into K owner shards with ghosts and a routing table.
#[derive(Clone, Debug)]
pub struct ShardedCsr {
    /// Owner shard of every global vertex.
    pub owner: Vec<u32>,
    /// The shards, indexed by owner id.
    pub shards: Vec<Shard>,
    /// `routes[s][t]` — global ids owned by shard `s` that shard `t` holds
    /// as ghosts, ascending. This is the owner→ghost routing table the halo
    /// exchange walks; `routes[s][s]` is empty.
    pub routes: Vec<Vec<Vec<VertexId>>>,
    /// Measured stats of the chosen owner assignment.
    pub stats: ShardStats,
}

impl ShardedCsr {
    /// Splits `g` into `k` shards using [`edge_cut_owners`].
    pub fn build(g: &Csr, k: usize) -> Self {
        let (owner, stats) = edge_cut_owners(g, k);
        Self::from_owners(g, owner, stats)
    }

    /// Splits `g` along a caller-provided owner assignment.
    ///
    /// One dense global→local array, reused across shards, serves both the
    /// ghost deduplication and the row remapping, so the build costs
    /// O(arcs + ghosts · log ghosts) rather than a binary search per arc.
    pub fn from_owners(g: &Csr, owner: Vec<u32>, stats: ShardStats) -> Self {
        const ABSENT: u32 = u32::MAX;
        let n = g.num_vertices();
        let k = stats.num_shards;
        debug_assert_eq!(owner.len(), n);
        let mut owned: Vec<Vec<VertexId>> = vec![Vec::new(); k];
        for (v, &o) in owner.iter().enumerate() {
            owned[o as usize].push(v as VertexId);
        }
        // `local[v]` is v's local id on the shard being built (any non-ABSENT
        // value marks a ghost already collected); reset after each shard.
        let mut local = vec![ABSENT; n];
        let mut shards = Vec::with_capacity(k);
        for (s, owned_s) in owned.into_iter().enumerate() {
            // Ghosts: cut-edge endpoints of owned vertices, deduplicated.
            let mut ghosts: Vec<VertexId> = Vec::new();
            for &v in &owned_s {
                for &u in g.neighbors(v) {
                    if owner[u as usize] != s as u32 && local[u as usize] == ABSENT {
                        local[u as usize] = 0;
                        ghosts.push(u);
                    }
                }
            }
            ghosts.sort_unstable();
            // Merge the two sorted, disjoint lists into the local id space.
            let mut locals = Vec::with_capacity(owned_s.len() + ghosts.len());
            let (mut i, mut j) = (0, 0);
            while i < owned_s.len() || j < ghosts.len() {
                if j == ghosts.len() || (i < owned_s.len() && owned_s[i] < ghosts[j]) {
                    locals.push(owned_s[i]);
                    i += 1;
                } else {
                    locals.push(ghosts[j]);
                    j += 1;
                }
            }
            for (l, &gv) in locals.iter().enumerate() {
                local[gv as usize] = l as u32;
            }
            let mut offsets = Vec::with_capacity(locals.len() + 1);
            let mut targets = Vec::new();
            let mut weights = Vec::new();
            offsets.push(0);
            for &gv in &locals {
                if owner[gv as usize] == s as u32 {
                    for (u, w) in g.edges(gv) {
                        targets.push(local[u as usize]);
                        weights.push(w);
                    }
                }
                offsets.push(targets.len());
            }
            let owned_locals = owned_s.iter().map(|&v| local[v as usize]).collect::<Vec<_>>();
            for &gv in &locals {
                local[gv as usize] = ABSENT;
            }
            shards.push(Shard {
                owned: owned_s,
                owned_locals,
                ghosts,
                graph: Csr::from_parts(offsets, targets, weights),
                locals,
            });
        }
        // Owner→ghost routing table: shard t's ghost list, grouped by owner.
        let mut routes: Vec<Vec<Vec<VertexId>>> = vec![vec![Vec::new(); k]; k];
        for (t, shard) in shards.iter().enumerate() {
            for &gv in &shard.ghosts {
                routes[owner[gv as usize] as usize][t].push(gv);
            }
        }
        ShardedCsr { owner, shards, routes, stats }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total ghost copies across all shards (the halo's resident footprint).
    pub fn total_ghosts(&self) -> usize {
        self.shards.iter().map(|s| s.ghosts.len()).sum()
    }

    /// Checks the structural invariants the CI smoke gate enforces: every
    /// vertex owned exactly once, ghost tables consistent with the cut
    /// edges, routing table consistent with the ghost tables. Returns the
    /// first violation as a description.
    pub fn validate(&self, g: &Csr) -> Result<(), String> {
        let n = g.num_vertices();
        if self.owner.len() != n {
            return Err(format!("owner table has {} entries for {n} vertices", self.owner.len()));
        }
        let mut seen = vec![false; n];
        for (s, shard) in self.shards.iter().enumerate() {
            for &v in &shard.owned {
                if self.owner[v as usize] != s as u32 {
                    return Err(format!(
                        "vertex {v} in shard {s} but owner table says {}",
                        self.owner[v as usize]
                    ));
                }
                if seen[v as usize] {
                    return Err(format!("vertex {v} owned twice"));
                }
                seen[v as usize] = true;
            }
            if shard.owned.len() + shard.ghosts.len() != shard.locals.len() {
                return Err(format!("shard {s}: owned + ghosts != locals"));
            }
        }
        if let Some(v) = seen.iter().position(|&s| !s) {
            return Err(format!("vertex {v} owned by no shard"));
        }
        // Per shard t, against a dense residency map of its own: every cut
        // edge of t's rows must end at a ghost of t; one marking pass over
        // those rows (`mark[u] == t + 1` iff some vertex t owns is adjacent
        // to u) must justify every ghost of t; and every route into t must
        // come from the vertex's owner and land on a resident copy. Each
        // vertex is owned exactly once (checked above), so the rows cover
        // every vertex once: O(arcs + residents) in total.
        let mut resident = vec![0u32; n];
        let mut mark = vec![0u32; n];
        for (t, shard) in self.shards.iter().enumerate() {
            let stamp = t as u32 + 1;
            for &gv in &shard.locals {
                if let Some(r) = resident.get_mut(gv as usize) {
                    *r = stamp;
                }
            }
            for &v in &shard.owned {
                for &u in g.neighbors(v) {
                    if self.owner[u as usize] != t as u32 && resident[u as usize] != stamp {
                        return Err(format!("cut edge {v}->{u}: {u} is not a ghost of shard {t}"));
                    }
                    mark[u as usize] = stamp;
                }
            }
            for &gv in &shard.ghosts {
                if mark.get(gv as usize) != Some(&stamp) {
                    return Err(format!("ghost {gv} on shard {t} has no cut edge"));
                }
            }
            for (s, per_target) in self.routes.iter().enumerate() {
                for &gv in per_target.get(t).into_iter().flatten() {
                    if self.owner[gv as usize] != s as u32 {
                        return Err(format!("route {s}->{t} carries {gv} not owned by {s}"));
                    }
                    if resident[gv as usize] != stamp {
                        return Err(format!("route {s}->{t} carries {gv} not resident on {t}"));
                    }
                }
            }
        }
        let routed: usize = self.routes.iter().flatten().map(|r| r.len()).sum();
        if routed != self.total_ghosts() {
            return Err(format!("routing table covers {routed} of {} ghosts", self.total_ghosts()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{cliques, planted_partition};

    #[test]
    fn contiguous_owner_matches_block_ranges() {
        let owner = contiguous_owners(10, 3);
        for (b, members) in block_ranges(10, 3).iter().enumerate() {
            for &v in members {
                assert_eq!(owner[v as usize], b as u32);
            }
        }
    }

    #[test]
    fn bfs_growth_respects_caps() {
        let g = planted_partition(6, 20, 0.3, 0.02, 7).graph;
        for k in [2usize, 3, 4, 5] {
            let owner = bfs_owners(&g, k);
            let stats = shard_stats(&g, &owner, k, ShardStrategy::BfsGrowth);
            let cap = g.num_vertices().div_ceil(k);
            assert!(stats.max_shard <= cap, "k={k}: {} > cap {cap}", stats.max_shard);
            assert!(owner.iter().all(|&o| (o as usize) < k));
        }
    }

    #[test]
    fn bfs_growth_beats_contiguous_on_shuffled_communities() {
        // Interleave two cliques by id so contiguous ranges cut both in
        // half; BFS growth follows the edges and reassembles them.
        let k = 2usize;
        let size = 16usize;
        let mut edges = Vec::new();
        for c in 0..2u32 {
            for a in 0..size as u32 {
                for b in (a + 1)..size as u32 {
                    edges.push((2 * a + c, 2 * b + c, 1.0));
                }
            }
        }
        let g = crate::builder::csr_from_edges(2 * size, &edges);
        let cont =
            shard_stats(&g, &contiguous_owners(g.num_vertices(), k), k, ShardStrategy::Contiguous);
        let (_, chosen) = edge_cut_owners(&g, k);
        assert!(chosen.cut_arcs < cont.cut_arcs, "{} !< {}", chosen.cut_arcs, cont.cut_arcs);
        assert_eq!(chosen.strategy, ShardStrategy::BfsGrowth);
        assert_eq!(chosen.cut_arcs, 0);
    }

    #[test]
    fn aligned_cliques_keep_the_contiguous_assignment_quality() {
        // Id-aligned cliques: contiguous is already optimal (only bridge
        // edges cut); the chooser must not do worse.
        let g = cliques(4, 8, true);
        let (_, stats) = edge_cut_owners(&g, 4);
        let cont =
            shard_stats(&g, &contiguous_owners(g.num_vertices(), 4), 4, ShardStrategy::Contiguous);
        assert!(stats.cut_arcs <= cont.cut_arcs);
    }

    #[test]
    fn sharded_csr_validates_and_preserves_rows() {
        let g = planted_partition(4, 25, 0.3, 0.05, 11).graph;
        for k in [1usize, 2, 3, 4] {
            let sharded = ShardedCsr::build(&g, k);
            sharded.validate(&g).unwrap();
            // Owned rows round-trip through the local id space.
            for shard in &sharded.shards {
                for (&gv, &lv) in shard.owned.iter().zip(&shard.owned_locals) {
                    let back: Vec<VertexId> = shard
                        .graph
                        .neighbors(lv)
                        .iter()
                        .map(|&lu| shard.locals[lu as usize])
                        .collect();
                    assert_eq!(back, g.neighbors(gv), "row of {gv}");
                    assert_eq!(shard.graph.edge_weights(lv), g.edge_weights(gv));
                }
                // Ghost rows are empty.
                for &gv in &shard.ghosts {
                    let lv = shard.local_of(gv).unwrap();
                    assert_eq!(shard.graph.degree(lv), 0);
                }
            }
            let arcs: usize = sharded.shards.iter().map(|s| s.graph.num_arcs()).sum();
            assert_eq!(arcs, g.num_arcs());
        }
    }

    /// A 3-shard split of a planted partition that has cut edges, plus a
    /// shard with at least one ghost.
    fn fixture() -> (Csr, ShardedCsr, usize) {
        let g = planted_partition(3, 20, 0.4, 0.1, 5).graph;
        let sharded = ShardedCsr::build(&g, 3);
        sharded.validate(&g).unwrap();
        let t = sharded.shards.iter().position(|s| !s.ghosts.is_empty()).expect("a cut edge");
        (g, sharded, t)
    }

    fn rejection(sharded: &ShardedCsr, g: &Csr) -> String {
        sharded.validate(g).expect_err("corruption must be rejected")
    }

    #[test]
    fn validate_rejects_an_unjustified_ghost() {
        let (g, mut sharded, _) = fixture();
        // On the last shard, a vertex of shard 0 that no row of the last
        // shard touches but shard 0's own rows do: only a per-shard mark
        // tells the two apart.
        let t = sharded.num_shards() - 1;
        let shard = &sharded.shards[t];
        let gv = (0..g.num_vertices() as VertexId)
            .find(|&u| {
                sharded.owner[u as usize] == 0
                    && g.neighbors(u).iter().any(|&x| sharded.owner[x as usize] == 0)
                    && shard.local_of(u).is_none()
                    && shard.owned.iter().all(|&v| g.neighbors(v).binary_search(&u).is_err())
            })
            .expect("a shard-0 vertex the last shard does not touch");
        let shard = &mut sharded.shards[t];
        for list in [&mut shard.ghosts, &mut shard.locals] {
            let at = list.binary_search(&gv).unwrap_err();
            list.insert(at, gv);
        }
        assert_eq!(rejection(&sharded, &g), format!("ghost {gv} on shard {t} has no cut edge"));
    }

    #[test]
    fn validate_rejects_a_missing_ghost() {
        let (g, mut sharded, t) = fixture();
        let shard = &mut sharded.shards[t];
        let gv = shard.ghosts.remove(0);
        shard.locals.retain(|&u| u != gv);
        let err = rejection(&sharded, &g);
        assert!(err.ends_with(&format!("{gv} is not a ghost of shard {t}")), "{err}");
    }

    #[test]
    fn validate_rejects_a_route_from_a_non_owner() {
        let (g, mut sharded, t) = fixture();
        // Shard t's ghost, routed as if shard t owned it.
        let gv = sharded.shards[t].ghosts[0];
        let to = (t + 1) % sharded.num_shards();
        sharded.routes[t][to].insert(0, gv);
        assert_eq!(
            rejection(&sharded, &g),
            format!("route {t}->{to} carries {gv} not owned by {t}")
        );
    }

    #[test]
    fn validate_rejects_a_vertex_owned_twice() {
        let (g, mut sharded, _) = fixture();
        let v = sharded.shards[0].owned[0];
        sharded.shards[0].owned.insert(0, v);
        assert_eq!(rejection(&sharded, &g), format!("vertex {v} owned twice"));
        // Listed by a second shard, it contradicts the owner table instead.
        let (g, mut sharded, _) = fixture();
        let v = sharded.shards[0].owned[0];
        sharded.shards[1].owned.insert(0, v);
        assert_eq!(
            rejection(&sharded, &g),
            format!("vertex {v} in shard 1 but owner table says 0")
        );
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = Csr::empty(0);
        let sharded = ShardedCsr::build(&g, 4);
        assert_eq!(sharded.num_shards(), 1); // clamped to n.max(1)
        sharded.validate(&g).unwrap();
        let g1 = Csr::empty(3);
        let sharded = ShardedCsr::build(&g1, 8);
        assert_eq!(sharded.num_shards(), 3);
        sharded.validate(&g1).unwrap();
    }
}
