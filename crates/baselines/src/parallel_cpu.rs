//! Fine-grained shared-memory parallel Louvain — the analogue of the OpenMP
//! implementation of Lu, Halappanavar & Kalyanaraman ("Parallel heuristics
//! for scalable community detection") the paper compares against in Fig. 7.
//!
//! One iteration computes the destination community of *every* vertex in
//! parallel from the previous configuration, then commits all moves at once.
//! The heuristics from that work (which the GPU algorithm also adopts) keep
//! the synchronous scheme from oscillating:
//!
//! * **singleton ordering** — a vertex that is a community by itself only
//!   moves to another singleton community with a lower id;
//! * **minimum-label rule** — ties between equal-gain destinations resolve to
//!   the lowest community id;
//! * **adaptive thresholds** — a coarse threshold (`1e-2`) while the graph is
//!   larger than 100k vertices, the fine threshold (`1e-6`) afterwards.

use crate::result::LouvainResult;
use crate::stages::{modularity_from_tot, run_stages};
use cd_graph::{Csr, NeighborScratch, Partition, ThresholdSchedule, VertexId, Weight};
use rayon::prelude::*;

/// Configuration for the CPU-parallel baseline.
#[derive(Clone, Debug)]
pub struct ParallelCpuConfig {
    /// Iteration threshold by the stage graph's vertex count (the paper's
    /// `th_bin` above 100 000 vertices, `th_final` below).
    pub schedule: ThresholdSchedule,
    /// Stage loop ends when one stage gains less than this.
    pub stage_threshold: f64,
    /// Hard cap on iterations per phase (safety net against oscillation).
    pub max_iterations: usize,
}

impl Default for ParallelCpuConfig {
    fn default() -> Self {
        Self {
            schedule: ThresholdSchedule::two_level(1e-2, 1e-6, 100_000),
            stage_threshold: 1e-6,
            max_iterations: 1000,
        }
    }
}

/// Runs the full multi-stage CPU-parallel Louvain method.
pub fn louvain_parallel_cpu(graph: &Csr, cfg: &ParallelCpuConfig) -> LouvainResult {
    run_stages(graph, cfg.stage_threshold, |g| {
        one_phase(g, cfg.schedule.threshold_for(g.num_vertices()), cfg.max_iterations)
    })
}

/// One synchronous modularity-optimization phase. Returns the partition, its
/// modularity, and the iteration count.
pub fn one_phase(g: &Csr, threshold: f64, max_iterations: usize) -> (Partition, f64, usize) {
    let n = g.num_vertices();
    let two_m = g.total_weight_2m();
    if two_m == 0.0 || n == 0 {
        return (Partition::singleton(n), 0.0, 0);
    }
    let m = two_m * 0.5;

    let k: Vec<Weight> = (0..n as VertexId).map(|v| g.weighted_degree(v)).collect();
    let mut comm: Vec<VertexId> = (0..n as VertexId).collect();
    let mut tot: Vec<Weight> = k.clone();
    let mut comm_size: Vec<u32> = vec![1; n];
    let max_deg = g.max_degree();

    let mut q_cur = modularity_from_tot(g, &comm, &tot, two_m);
    let mut iterations = 0usize;
    // Best-labeling guard (same as the GPU driver): a synchronous sweep can
    // collectively decrease modularity; never return worse than the best
    // state seen.
    let mut best_q = q_cur;
    let mut best_comm: Option<Vec<VertexId>> = None;

    while iterations < max_iterations {
        iterations += 1;

        // Phase 1: everyone picks a destination from the previous snapshot.
        let next: Vec<VertexId> = (0..n)
            .into_par_iter()
            .with_min_len(128)
            .map_init(
                || NeighborScratch::new(max_deg.max(4)),
                |scratch, i| {
                    best_destination(g, &comm, &tot, &comm_size, &k, m, i as VertexId, scratch)
                },
            )
            .collect();

        // Phase 2: commit all moves, maintaining tot and community sizes.
        let mut moves = 0usize;
        for i in 0..n {
            let (old, new) = (comm[i], next[i]);
            if old != new {
                tot[old as usize] -= k[i];
                tot[new as usize] += k[i];
                comm_size[old as usize] -= 1;
                comm_size[new as usize] += 1;
                comm[i] = new;
                moves += 1;
            }
        }

        let q_new = modularity_from_tot(g, &comm, &tot, two_m);
        if q_new > best_q {
            best_q = q_new;
            best_comm = Some(comm.clone());
        }
        let gained = q_new - q_cur;
        q_cur = q_new;
        if moves == 0 || gained <= threshold {
            break;
        }
    }

    let final_comm = best_comm.unwrap_or_else(|| (0..n as VertexId).collect());
    (Partition::from_vec(final_comm), best_q, iterations)
}

/// The per-vertex move decision (one task of the parallel sweep).
#[allow(clippy::too_many_arguments)]
fn best_destination(
    g: &Csr,
    comm: &[VertexId],
    tot: &[Weight],
    comm_size: &[u32],
    k: &[Weight],
    m: f64,
    i: VertexId,
    scratch: &mut NeighborScratch,
) -> VertexId {
    let ci = comm[i as usize];
    scratch.begin();
    scratch.add(ci, 0.0);
    let i_is_singleton = comm_size[ci as usize] == 1;
    for (j, w) in g.edges(i) {
        if j == i {
            continue;
        }
        scratch.add(comm[j as usize], w);
    }

    let ki = k[i as usize];
    let e_i_ci = scratch.get(ci);
    // Gain relative terms with i notionally removed from ci.
    let stay_gain = e_i_ci / m - ki * (tot[ci as usize] - ki) / (2.0 * m * m);

    let mut best_c = ci;
    let mut best_gain = f64::NEG_INFINITY;
    for (c, e_i_c) in scratch.iter() {
        if c == ci {
            continue;
        }
        // Singleton ordering rule: a singleton vertex may only join another
        // singleton community with a smaller id.
        if i_is_singleton && comm_size[c as usize] == 1 && c >= ci {
            continue;
        }
        let gain = e_i_c / m - ki * tot[c as usize] / (2.0 * m * m);
        if gain > best_gain + 1e-15 || ((gain - best_gain).abs() <= 1e-15 && c < best_c) {
            best_gain = gain;
            best_c = c;
        }
    }
    if best_gain <= stay_gain + 1e-15 {
        ci
    } else {
        best_c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cd_graph::gen::{cliques, planted_partition, star};
    use cd_graph::modularity;

    #[test]
    fn finds_cliques() {
        let g = cliques(5, 6, true);
        let res = louvain_parallel_cpu(&g, &ParallelCpuConfig::default());
        for c in 0..5u32 {
            let base = c * 6;
            for v in 1..6u32 {
                assert_eq!(res.partition.community_of(base), res.partition.community_of(base + v));
            }
        }
        assert!(res.modularity > 0.6);
    }

    #[test]
    fn close_to_sequential_on_planted() {
        use crate::sequential::{louvain_sequential, SequentialConfig};
        let pg = planted_partition(6, 40, 0.4, 0.01, 3);
        let seq = louvain_sequential(&pg.graph, &SequentialConfig::original());
        let par = louvain_parallel_cpu(&pg.graph, &ParallelCpuConfig::default());
        assert!(
            par.modularity > 0.97 * seq.modularity,
            "parallel Q {} vs sequential Q {}",
            par.modularity,
            seq.modularity
        );
    }

    #[test]
    fn singleton_rule_prevents_oscillation_on_star() {
        // On a star, every leaf wants to join the hub and the hub wants a
        // leaf; without the singleton rule the synchronous sweep can swap
        // forever. Must converge in few iterations.
        let g = star(64);
        let res = louvain_parallel_cpu(&g, &ParallelCpuConfig::default());
        assert!(res.stages[0].iterations < 20);
        // A star has no community structure beyond "everything together".
        assert!(res.partition.num_communities() <= 2);
    }

    #[test]
    fn modularity_reported_consistently() {
        let pg = planted_partition(4, 30, 0.5, 0.02, 9);
        let res = louvain_parallel_cpu(&pg.graph, &ParallelCpuConfig::default());
        let recomputed = modularity(&pg.graph, &res.partition);
        assert!((res.modularity - recomputed).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_fixed_thread_independent_sums() {
        let pg = planted_partition(4, 30, 0.4, 0.02, 13);
        let a = louvain_parallel_cpu(&pg.graph, &ParallelCpuConfig::default());
        let b = louvain_parallel_cpu(&pg.graph, &ParallelCpuConfig::default());
        assert_eq!(a.partition.as_slice(), b.partition.as_slice());
    }

    #[test]
    fn handles_empty_graph() {
        let g = Csr::empty(4);
        let res = louvain_parallel_cpu(&g, &ParallelCpuConfig::default());
        assert_eq!(res.modularity, 0.0);
    }
}
