//! PLM — parallel Louvain with asynchronous local moving, in the style of
//! Staudt & Meyerhenke ("Engineering Parallel Algorithms for Community
//! Detection in Massive Networks"), the second shared-memory baseline the
//! paper compares against.
//!
//! Unlike the synchronous sweep of [`crate::parallel_cpu`], every move is
//! published immediately: threads read the *live* community assignment and
//! update the community volumes atomically. This converges faster per sweep
//! but is inherently nondeterministic.

use crate::result::LouvainResult;
use crate::stages::run_stages;
use cd_graph::{modularity, Csr, NeighborScratch, Partition, VertexId, Weight};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// Configuration for PLM.
#[derive(Clone, Copy, Debug)]
pub struct PlmConfig {
    /// Stop a phase when a sweep moves fewer than this fraction of vertices.
    pub min_move_fraction: f64,
    /// Hard cap on sweeps per phase.
    pub max_iterations: usize,
    /// Stage loop ends when one stage gains less than this.
    pub stage_threshold: f64,
}

impl Default for PlmConfig {
    fn default() -> Self {
        Self { min_move_fraction: 1e-4, max_iterations: 100, stage_threshold: 1e-6 }
    }
}

/// Atomic f64 cell (CAS-loop add), local to this baseline.
struct AtomicF64(AtomicU64);

impl AtomicF64 {
    fn new(v: f64) -> Self {
        Self(AtomicU64::new(v.to_bits()))
    }

    fn load(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn add(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match self.0.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Runs the full multi-stage PLM.
pub fn louvain_plm(graph: &Csr, cfg: &PlmConfig) -> LouvainResult {
    run_stages(graph, cfg.stage_threshold, |g| {
        let (partition, iterations) = one_phase(g, cfg);
        let q = modularity(g, &partition);
        (partition, q, iterations)
    })
}

/// One asynchronous local-moving phase.
fn one_phase(g: &Csr, cfg: &PlmConfig) -> (Partition, usize) {
    let n = g.num_vertices();
    let two_m = g.total_weight_2m();
    if two_m == 0.0 || n == 0 {
        return (Partition::singleton(n), 0);
    }
    let m = two_m * 0.5;

    let k: Vec<Weight> = (0..n as VertexId).map(|v| g.weighted_degree(v)).collect();
    let comm: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let tot: Vec<AtomicF64> = k.iter().map(|&kv| AtomicF64::new(kv)).collect();
    let max_deg = g.max_degree();

    let mut iterations = 0usize;
    while iterations < cfg.max_iterations {
        iterations += 1;
        let moves = AtomicUsize::new(0);

        (0..n).into_par_iter().with_min_len(128).for_each_init(
            || NeighborScratch::new(max_deg.max(4)),
            |scratch, i| {
                let iv = i as VertexId;
                let ci = comm[i].load(Ordering::Relaxed);
                scratch.begin();
                scratch.add(ci, 0.0);
                for (j, w) in g.edges(iv) {
                    if j == iv {
                        continue;
                    }
                    scratch.add(comm[j as usize].load(Ordering::Relaxed), w);
                }
                let ki = k[i];
                let stay =
                    scratch.get(ci) / m - ki * (tot[ci as usize].load() - ki) / (2.0 * m * m);
                let mut best_c = ci;
                let mut best_gain = f64::NEG_INFINITY;
                for (c, e) in scratch.iter() {
                    if c == ci {
                        continue;
                    }
                    let gain = e / m - ki * tot[c as usize].load() / (2.0 * m * m);
                    if gain > best_gain + 1e-15 || ((gain - best_gain).abs() <= 1e-15 && c < best_c)
                    {
                        best_gain = gain;
                        best_c = c;
                    }
                }
                if best_gain > stay + 1e-12 && best_c != ci {
                    // Publish immediately (asynchronous move).
                    comm[i].store(best_c, Ordering::Relaxed);
                    tot[ci as usize].add(-ki);
                    tot[best_c as usize].add(ki);
                    moves.fetch_add(1, Ordering::Relaxed);
                }
            },
        );

        let moved = moves.load(Ordering::Relaxed);
        if (moved as f64) < cfg.min_move_fraction * n as f64 {
            break;
        }
    }

    let assignment: Vec<VertexId> = comm.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    (Partition::from_vec(assignment), iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cd_graph::gen::{cliques, planted_partition};

    #[test]
    fn finds_cliques() {
        let g = cliques(4, 8, true);
        let res = louvain_plm(&g, &PlmConfig::default());
        for c in 0..4u32 {
            let base = c * 8;
            for v in 1..8u32 {
                assert_eq!(res.partition.community_of(base), res.partition.community_of(base + v));
            }
        }
        assert!(res.modularity > 0.6);
    }

    #[test]
    fn quality_close_to_sequential() {
        use crate::sequential::{louvain_sequential, SequentialConfig};
        let pg = planted_partition(6, 40, 0.4, 0.01, 7);
        let seq = louvain_sequential(&pg.graph, &SequentialConfig::original());
        let plm = louvain_plm(&pg.graph, &PlmConfig::default());
        // The paper reports PLM within 0.2% of sequential modularity.
        assert!(
            plm.modularity > 0.95 * seq.modularity,
            "PLM Q {} vs sequential {}",
            plm.modularity,
            seq.modularity
        );
    }

    #[test]
    fn phases_terminate() {
        let pg = planted_partition(3, 50, 0.3, 0.03, 21);
        let res = louvain_plm(&pg.graph, &PlmConfig::default());
        for s in &res.stages {
            assert!(s.iterations <= PlmConfig::default().max_iterations);
        }
    }
}
