//! Sequential Louvain — a faithful port of the original implementation of
//! Blondel et al. ("Fast unfolding of community hierarchies in large
//! networks"), which the paper uses as its baseline for Table 1 and Fig. 3.
//!
//! The *adaptive* variant (paper Fig. 4) applies the same higher
//! per-iteration threshold the GPU algorithm uses while the graph is large,
//! which terminates the expensive early phases sooner at a small modularity
//! cost.

use crate::result::LouvainResult;
use crate::stages::run_stages;
use cd_graph::{Csr, Partition, ThresholdSchedule, VertexId, Weight};

/// Configuration for the sequential algorithm.
#[derive(Clone, Debug)]
pub struct SequentialConfig {
    /// The pass threshold of each stage, by the stage graph's vertex count:
    /// a modularity-optimization pass loop ends when one full sweep improves
    /// modularity by less than it.
    pub schedule: ThresholdSchedule,
    /// The stage loop (optimize + aggregate) ends when a stage improves
    /// modularity by less than this.
    pub stage_threshold: f64,
}

impl SequentialConfig {
    /// The original algorithm with the customary 1e-6 threshold at every
    /// size.
    pub fn original() -> Self {
        Self { schedule: ThresholdSchedule::multi_level(Vec::new(), 1e-6), stage_threshold: 1e-6 }
    }

    /// The paper's adaptive sequential baseline (Fig. 4): threshold `1e-2`
    /// while the graph is larger than 100k vertices (following Lu et al.),
    /// `1e-6` afterwards.
    pub fn adaptive() -> Self {
        Self { schedule: ThresholdSchedule::two_level(1e-2, 1e-6, 100_000), stage_threshold: 1e-6 }
    }
}

impl Default for SequentialConfig {
    fn default() -> Self {
        Self::original()
    }
}

/// Runs the full multi-stage sequential Louvain method.
pub fn louvain_sequential(graph: &Csr, cfg: &SequentialConfig) -> LouvainResult {
    run_stages(graph, cfg.stage_threshold, |g| {
        one_level(g, cfg.schedule.threshold_for(g.num_vertices()))
    })
}

/// One modularity-optimization phase on one graph. Returns the partition,
/// its modularity, and the number of full sweeps performed.
///
/// This mirrors `Community::one_level()` of the original code: vertices are
/// visited in index order; each is removed from its community and reinserted
/// into the neighboring community with the highest positive gain (lowest id
/// on ties, for determinism).
pub fn one_level(g: &Csr, pass_threshold: f64) -> (Partition, f64, usize) {
    let n = g.num_vertices();
    let two_m = g.total_weight_2m();
    if two_m == 0.0 {
        return (Partition::singleton(n), 0.0, 0);
    }
    let m = two_m * 0.5;

    let k: Vec<Weight> = (0..n as VertexId).map(|v| g.weighted_degree(v)).collect();
    let self_w: Vec<Weight> = (0..n as VertexId).map(|v| g.self_loop(v)).collect();
    let mut comm: Vec<VertexId> = (0..n as VertexId).collect();
    let mut tot = k.clone(); // a_c
    let mut inside = self_w.clone(); // in_c

    // Blondel's trick: a dense scratch array of per-community weights plus a
    // touched list, giving O(deg) neighbor-community accumulation with no
    // hashing.
    let mut neigh_weight: Vec<Weight> = vec![-1.0; n];
    let mut neigh_comms: Vec<VertexId> = Vec::with_capacity(64);

    let modularity_of = |tot: &[Weight], inside: &[Weight]| -> f64 {
        let mut q = 0.0;
        for c in 0..n {
            if tot[c] != 0.0 || inside[c] != 0.0 {
                q += inside[c] / two_m - (tot[c] / two_m) * (tot[c] / two_m);
            }
        }
        q
    };

    let mut q_cur = modularity_of(&tot, &inside);
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        let mut moved = false;
        for i in 0..n as VertexId {
            let ci = comm[i as usize];
            let ki = k[i as usize];

            // Gather e_{i -> c} for all neighbor communities (self-loop
            // excluded).
            neigh_comms.clear();
            neigh_weight[ci as usize] = 0.0; // ensure the home community is a candidate
            neigh_comms.push(ci);
            for (j, w) in g.edges(i) {
                if j == i {
                    continue;
                }
                let cj = comm[j as usize];
                if neigh_weight[cj as usize] < 0.0 {
                    neigh_weight[cj as usize] = 0.0;
                    neigh_comms.push(cj);
                }
                neigh_weight[cj as usize] += w;
            }

            // Remove i from its community.
            let e_i_ci = neigh_weight[ci as usize];
            tot[ci as usize] -= ki;
            inside[ci as usize] -= 2.0 * e_i_ci + self_w[i as usize];

            // Best insertion. With i removed, the gain of joining community c
            // is e_{i->c}/m - k_i * tot_c / 2m^2 (common terms dropped);
            // joining the home community back is the no-move option. Among
            // candidates of (approximately) maximal gain the lowest community
            // id wins, and a move happens only when it beats staying.
            let stay_gain = e_i_ci / m - ki * tot[ci as usize] / (2.0 * m * m);
            let mut best_c = ci;
            let mut best_gain = f64::NEG_INFINITY;
            for &c in &neigh_comms {
                if c == ci {
                    continue;
                }
                let gain = neigh_weight[c as usize] / m - ki * tot[c as usize] / (2.0 * m * m);
                if gain > best_gain + 1e-15 || ((gain - best_gain).abs() <= 1e-15 && c < best_c) {
                    best_gain = gain;
                    best_c = c;
                }
            }
            if best_gain <= stay_gain + 1e-15 {
                best_c = ci;
            }

            // Insert into the chosen community.
            tot[best_c as usize] += ki;
            inside[best_c as usize] += 2.0 * neigh_weight[best_c as usize] + self_w[i as usize];
            comm[i as usize] = best_c;
            if best_c != ci {
                moved = true;
            }

            // Reset scratch.
            for &c in &neigh_comms {
                neigh_weight[c as usize] = -1.0;
            }
        }

        let q_new = modularity_of(&tot, &inside);
        let gained = q_new - q_cur;
        q_cur = q_new;
        if !moved || gained <= pass_threshold {
            break;
        }
    }

    (Partition::from_vec(comm), q_cur, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cd_graph::gen::{cliques, cycle, planted_partition};
    use cd_graph::modularity as q_of;

    #[test]
    fn finds_cliques_exactly() {
        let g = cliques(4, 8, true);
        let res = louvain_sequential(&g, &SequentialConfig::original());
        // Each clique must be one community.
        let p = &res.partition;
        for c in 0..4u32 {
            let base = c * 8;
            for v in 1..8u32 {
                assert_eq!(p.community_of(base), p.community_of(base + v));
            }
        }
        assert!(res.modularity > 0.6);
    }

    #[test]
    fn recovers_planted_partition() {
        let pg = planted_partition(6, 40, 0.5, 0.01, 3);
        let res = louvain_sequential(&pg.graph, &SequentialConfig::original());
        let q_truth = q_of(&pg.graph, &pg.truth);
        assert!(
            res.modularity >= 0.95 * q_truth,
            "Louvain Q {} far below planted Q {}",
            res.modularity,
            q_truth
        );
    }

    #[test]
    fn one_level_improves_modularity() {
        let g = cliques(3, 6, true);
        let q0 = q_of(&g, &Partition::singleton(g.num_vertices()));
        let (p, q1, iters) = one_level(&g, 1e-6);
        assert!(q1 > q0);
        assert!(iters >= 1);
        // The reported modularity must agree with recomputing from scratch.
        assert!((q_of(&g, &p) - q1).abs() < 1e-9);
    }

    #[test]
    fn modularity_monotone_over_stages() {
        let pg = planted_partition(5, 30, 0.4, 0.02, 17);
        let res = louvain_sequential(&pg.graph, &SequentialConfig::original());
        let mut last = f64::NEG_INFINITY;
        for s in &res.stages {
            assert!(s.modularity >= last - 1e-9, "stage modularity decreased");
            last = s.modularity;
        }
    }

    #[test]
    fn cycle_graph_terminates() {
        let g = cycle(101);
        let res = louvain_sequential(&g, &SequentialConfig::original());
        assert!(res.modularity > 0.0);
        assert!(res.dendrogram.num_levels() >= 1);
    }

    #[test]
    fn adaptive_is_not_much_worse() {
        let pg = planted_partition(8, 50, 0.4, 0.01, 23);
        let orig = louvain_sequential(&pg.graph, &SequentialConfig::original());
        let adapt = louvain_sequential(&pg.graph, &SequentialConfig::adaptive());
        // Graph below the 100k adaptive limit: identical behaviour.
        assert_eq!(orig.partition.as_slice(), adapt.partition.as_slice());
        // Force the adaptive path with a tiny limit.
        let cfg = SequentialConfig {
            schedule: ThresholdSchedule::two_level(1e-2, 1e-6, 10),
            ..SequentialConfig::adaptive()
        };
        let forced = louvain_sequential(&pg.graph, &cfg);
        assert!(forced.modularity > 0.9 * orig.modularity);
    }

    #[test]
    fn deterministic() {
        let pg = planted_partition(4, 25, 0.5, 0.05, 5);
        let a = louvain_sequential(&pg.graph, &SequentialConfig::original());
        let b = louvain_sequential(&pg.graph, &SequentialConfig::original());
        assert_eq!(a.partition.as_slice(), b.partition.as_slice());
        assert_eq!(a.modularity, b.modularity);
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = Csr::empty(5);
        let res = louvain_sequential(&g, &SequentialConfig::original());
        assert_eq!(res.modularity, 0.0);
        let g1 = cd_graph::csr_from_unit_edges(2, &[(0, 1)]);
        let res1 = louvain_sequential(&g1, &SequentialConfig::original());
        assert!(res1.modularity <= 0.0 + 1e-12); // single edge: best is one community (Q=0)
    }
}
