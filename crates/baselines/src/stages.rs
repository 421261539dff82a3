//! The stage loop every baseline shares: optimize, contract, repeat until a
//! stage gains too little or the graph stops shrinking.

use crate::result::{LouvainResult, StageStats};
use cd_graph::{contract, modularity, Csr, Dendrogram, Partition, VertexId, Weight};
use rayon::prelude::*;
use std::borrow::Cow;
use std::time::Instant;

/// Runs the multi-stage Louvain method with `local_moves` as the
/// optimization phase. `local_moves` maps a stage's graph to its partition,
/// the partition's modularity and the sweeps it took. The loop ends when a
/// stage gains at most `stage_threshold` or the graph does not contract.
pub(crate) fn run_stages(
    graph: &Csr,
    stage_threshold: f64,
    mut local_moves: impl FnMut(&Csr) -> (Partition, f64, usize),
) -> LouvainResult {
    let start = Instant::now();
    let mut dendrogram = Dendrogram::new();
    let mut stages = Vec::new();
    let mut current = Cow::Borrowed(graph);
    let mut q_prev = modularity(graph, &Partition::singleton(graph.num_vertices()));

    loop {
        let opt_start = Instant::now();
        let (partition, q_new, iterations) = local_moves(&current);
        let opt_time = opt_start.elapsed();

        let agg_start = Instant::now();
        let (contracted, renumbered) = contract(&current, &partition);
        let agg_time = agg_start.elapsed();

        stages.push(StageStats {
            num_vertices: current.num_vertices(),
            num_edges: current.num_edges(),
            iterations,
            modularity: q_new,
            opt_time,
            agg_time,
        });
        dendrogram.push_level(renumbered);

        if q_new - q_prev <= stage_threshold || contracted.num_vertices() == current.num_vertices()
        {
            break;
        }
        q_prev = q_new;
        current = Cow::Owned(contracted);
    }

    let partition = dendrogram.flatten();
    let q = modularity(graph, &partition);
    LouvainResult { partition, dendrogram, modularity: q, stages, total_time: start.elapsed() }
}

/// Modularity from a maintained `tot` array plus the intra-community edge
/// weight, summed over fixed 4096-vertex chunks so the result does not
/// depend on the thread count.
pub(crate) fn modularity_from_tot(g: &Csr, comm: &[VertexId], tot: &[Weight], two_m: f64) -> f64 {
    let inside: f64 = (0..g.num_vertices())
        .into_par_iter()
        .fold_chunks(
            4096,
            || 0.0f64,
            |acc, i| {
                let ci = comm[i];
                let mut s = acc;
                for (j, w) in g.edges(i as VertexId) {
                    if comm[j as usize] == ci {
                        s += w;
                    }
                }
                s
            },
        )
        .collect::<Vec<f64>>()
        .iter()
        .sum();
    let tot_sq: f64 = tot.iter().map(|&t| (t / two_m) * (t / two_m)).sum();
    inside / two_m - tot_sq
}
