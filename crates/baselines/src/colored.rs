//! Coloring-based parallel Louvain — the variant of Lu et al. the paper
//! describes in Section 3: "a graph coloring is used to divide the vertices
//! into independent subsets. The algorithm then performs one iteration of
//! the modularity optimization step on the vertices in each color class,
//! with any change in community structure being committed before considering
//! the vertices in the next color class."
//!
//! Because each class is an independent set, the vertices of a class cannot
//! invalidate each other's decisions — the sweep behaves like the sequential
//! algorithm at class granularity while exposing class-sized parallelism,
//! and needs none of the singleton heuristics the synchronous sweep does.

use crate::result::LouvainResult;
use crate::stages::{modularity_from_tot, run_stages};
use cd_graph::{parallel_coloring, Csr, NeighborScratch, Partition, VertexId, Weight};
use rayon::prelude::*;

/// Configuration for the coloring-based baseline.
#[derive(Clone, Copy, Debug)]
pub struct ColoredConfig {
    /// A phase ends when one full sweep (all color classes) improves
    /// modularity by less than this.
    pub threshold: f64,
    /// Stage loop ends when one stage gains less than this.
    pub stage_threshold: f64,
    /// Cap on sweeps per phase.
    pub max_iterations: usize,
}

impl Default for ColoredConfig {
    fn default() -> Self {
        Self { threshold: 1e-6, stage_threshold: 1e-6, max_iterations: 1000 }
    }
}

/// Runs the full multi-stage coloring-based parallel Louvain.
pub fn louvain_colored(graph: &Csr, cfg: &ColoredConfig) -> LouvainResult {
    run_stages(graph, cfg.stage_threshold, |g| one_phase(g, cfg))
}

/// One phase: color the graph once, then sweep the color classes until the
/// gain drops below the threshold.
fn one_phase(g: &Csr, cfg: &ColoredConfig) -> (Partition, f64, usize) {
    let n = g.num_vertices();
    let two_m = g.total_weight_2m();
    if two_m == 0.0 || n == 0 {
        return (Partition::singleton(n), 0.0, 0);
    }
    let m = two_m * 0.5;

    let coloring = parallel_coloring(g);
    let classes = coloring.classes();

    let k: Vec<Weight> = (0..n as VertexId).map(|v| g.weighted_degree(v)).collect();
    let mut comm: Vec<VertexId> = (0..n as VertexId).collect();
    let mut tot: Vec<Weight> = k.clone();
    let max_deg = g.max_degree();

    let mut q_cur = modularity_from_tot(g, &comm, &tot, two_m);
    let mut iterations = 0usize;

    while iterations < cfg.max_iterations {
        iterations += 1;
        let mut moves = 0usize;

        for class in &classes {
            // Decisions within a class are independent (no intra-class
            // edges), so computing them from the pre-class state and
            // committing together is exact.
            let decisions: Vec<(VertexId, VertexId)> = {
                let comm_ref = &comm;
                let tot_ref = &tot;
                class
                    .par_iter()
                    .with_min_len(64)
                    .map_init(
                        || NeighborScratch::new(max_deg.max(4)),
                        |scratch, &i| (i, decide(g, comm_ref, tot_ref, &k, m, i, scratch)),
                    )
                    .collect()
            };
            for (i, new_c) in decisions {
                let old = comm[i as usize];
                if new_c != old {
                    tot[old as usize] -= k[i as usize];
                    tot[new_c as usize] += k[i as usize];
                    comm[i as usize] = new_c;
                    moves += 1;
                }
            }
        }

        let q_new = modularity_from_tot(g, &comm, &tot, two_m);
        let gained = q_new - q_cur;
        q_cur = q_new;
        if moves == 0 || gained <= cfg.threshold {
            break;
        }
    }

    (Partition::from_vec(comm), q_cur, iterations)
}

/// The per-vertex decision: best neighboring community by Eq. 2, with the
/// vertex notionally removed from its own.
fn decide(
    g: &Csr,
    comm: &[VertexId],
    tot: &[Weight],
    k: &[Weight],
    m: f64,
    i: VertexId,
    scratch: &mut NeighborScratch,
) -> VertexId {
    let ci = comm[i as usize];
    scratch.begin();
    scratch.add(ci, 0.0);
    for (j, w) in g.edges(i) {
        if j != i {
            scratch.add(comm[j as usize], w);
        }
    }
    let ki = k[i as usize];
    let stay = scratch.get(ci) / m - ki * (tot[ci as usize] - ki) / (2.0 * m * m);
    let mut best_c = ci;
    let mut best_gain = f64::NEG_INFINITY;
    for (c, e) in scratch.iter() {
        if c == ci {
            continue;
        }
        let gain = e / m - ki * tot[c as usize] / (2.0 * m * m);
        if gain > best_gain + 1e-15 || ((gain - best_gain).abs() <= 1e-15 && c < best_c) {
            best_gain = gain;
            best_c = c;
        }
    }
    if best_gain > stay + 1e-15 {
        best_c
    } else {
        ci
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cd_graph::gen::{cliques, planted_partition, star};

    #[test]
    fn finds_cliques() {
        let g = cliques(4, 6, true);
        let res = louvain_colored(&g, &ColoredConfig::default());
        for c in 0..4u32 {
            let base = c * 6;
            for v in 1..6u32 {
                assert_eq!(res.partition.community_of(base), res.partition.community_of(base + v));
            }
        }
        assert!(res.modularity > 0.6);
    }

    #[test]
    fn matches_sequential_quality_closely() {
        use crate::sequential::{louvain_sequential, SequentialConfig};
        let pg = planted_partition(6, 40, 0.4, 0.01, 13);
        let seq = louvain_sequential(&pg.graph, &SequentialConfig::original());
        let col = louvain_colored(&pg.graph, &ColoredConfig::default());
        assert!(
            col.modularity > 0.98 * seq.modularity,
            "colored {:.4} vs sequential {:.4}",
            col.modularity,
            seq.modularity
        );
    }

    #[test]
    fn no_oscillation_on_star_without_singleton_rule() {
        // Independent sets make the hub and leaves move in different class
        // steps, so the star needs no singleton heuristic.
        let g = star(64);
        let res = louvain_colored(&g, &ColoredConfig::default());
        assert!(res.stages[0].iterations < 10);
        assert!(res.partition.num_communities() <= 2);
    }

    #[test]
    fn deterministic() {
        let pg = planted_partition(4, 25, 0.5, 0.05, 7);
        let a = louvain_colored(&pg.graph, &ColoredConfig::default());
        let b = louvain_colored(&pg.graph, &ColoredConfig::default());
        assert_eq!(a.partition.as_slice(), b.partition.as_slice());
    }

    #[test]
    fn empty_graph() {
        let res = louvain_colored(&Csr::empty(3), &ColoredConfig::default());
        assert_eq!(res.modularity, 0.0);
    }
}
