//! Leiden-style refinement: a well-connectedness check of every community
//! before its contraction is committed.
//!
//! Louvain's local moves can strand a community whose members are only
//! connected *through* vertices that have since moved away — the
//! disconnected-community pathology the Leiden paper (Traag, Waltman, van
//! Eck) identifies. Once such a community is contracted it can never be
//! split again, so the check has to run between the optimization phase and
//! the aggregation.
//!
//! The pass has three steps, all on the same CSR machinery as the other
//! kernels:
//!
//! 1. **Component labeling** ([`community_components`]): iterative min-label
//!    propagation restricted to same-community edges. Each vertex starts as
//!    its own component and repeatedly adopts the smallest component id among
//!    its same-community neighbors (double-buffered, so the pass is race-free
//!    and deterministic); at the fixed point two vertices share a component
//!    id iff they are connected within their community.
//! 2. **Split**: every community spanning more than one component is *badly
//!    connected*; all of its vertices are re-seeded as fresh singletons
//!    (well-connected communities keep their labels, compactly renumbered).
//! 3. **Re-absorb**: one seeded optimization phase
//!    ([`crate::modopt::modularity_optimization_seeded`]) with the split
//!    vertices as the frontier lets each freed vertex rejoin its best
//!    *actually reachable* neighbor community.
//!
//! **Commit rule**: the refined labeling replaces the original iff its
//! modularity is at least the original's (ties prefer the refined labeling —
//! at equal quality, connected communities are strictly better input for the
//! contraction). Refinement therefore never decreases Q, which the portfolio
//! benchmark gates on.

use crate::config::GpuLouvainConfig;
use crate::dev_graph::DeviceGraph;
use crate::louvain::GpuLouvainError;
use crate::modopt::{modularity_optimization_seeded, OptOutcome, WarmSeed};
use cd_gpusim::{dispatch_profile, Device, ExecutionProfile};

/// Shard count for the iteration-change counter (same contention argument
/// as the modularity phase's accumulators).
const REFINE_SHARDS: usize = 64;

/// Labels each vertex with the minimum vertex id reachable from it through
/// same-community edges — the connected component of the vertex *within* its
/// community. Double-buffered min propagation: `scan` stages the
/// neighborhood minimum, `publish` commits it and counts changes; the loop
/// ends at the fixed point (at most `n` rounds on a path, typically a
/// handful on real communities).
fn community_components<P: ExecutionProfile>(
    dev: &Device,
    g: &DeviceGraph,
    labels: &[u32],
) -> Result<Vec<u32>, GpuLouvainError> {
    let n = g.num_vertices();
    let comp = dev.pool_u32(n);
    let staged = dev.pool_u32(n);
    let changed = dev.pool_u32(REFINE_SHARDS);
    dev.exec::<P>()
        .try_launch_threads("refine_init", n, |ctx, v| {
            comp.store(v, v as u32);
            staged.store(v, v as u32);
            ctx.global_write_coalesced(2);
        })
        .map_err(GpuLouvainError::Launch)?;

    // Each round moves every component id at least one hop closer to its
    // community minimum, so `n` rounds always suffice (and the loop exits
    // as soon as a round commits nothing).
    for _round in 0..n.max(1) {
        changed.fill(0);
        dev.exec::<P>()
            .try_launch_tasks(
                "refine_scan",
                n,
                4,
                0,
                || (),
                |ctx, _, i| {
                    let ci = labels[i];
                    let deg = g.degree(i);
                    ctx.strided_steps(deg.max(1));
                    ctx.global_read_coalesced(deg + 2);
                    ctx.global_read_scattered(deg); // component gathers
                    let mut m = comp.load(i);
                    for &j in g.neighbors(i) {
                        let j = j as usize;
                        if j != i && labels[j] == ci {
                            m = m.min(comp.load(j));
                        }
                    }
                    staged.store(i, m);
                    ctx.global_write_coalesced(1);
                },
            )
            .map_err(GpuLouvainError::Launch)?;
        dev.exec::<P>()
            .try_launch_threads("refine_publish", n, |ctx, v| {
                let old = comp.load(v);
                let new = staged.load(v);
                ctx.global_read_coalesced(2);
                if new != old {
                    comp.store(v, new);
                    ctx.global_write_coalesced(1);
                    ctx.atomic_add_u32(&changed, v & (REFINE_SHARDS - 1), 1);
                }
            })
            .map_err(GpuLouvainError::Launch)?;
        let total: usize = (0..REFINE_SHARDS).map(|s| changed.load(s) as usize).sum();
        if total == 0 {
            break;
        }
    }
    Ok(comp.to_vec())
}

/// Refines `outcome`'s labeling per the module-level scheme and returns the
/// labeling the contraction should commit. The returned outcome's
/// modularity is never below `outcome.modularity`; its iteration, move and
/// timing counters include the re-absorb phase when the refined labeling is
/// the one accepted.
pub fn refine_communities(
    dev: &Device,
    g: &DeviceGraph,
    cfg: &GpuLouvainConfig,
    threshold: f64,
    outcome: &OptOutcome,
) -> Result<OptOutcome, GpuLouvainError> {
    let n = g.num_vertices();
    if n == 0 || g.two_m == 0.0 {
        return Ok(outcome.clone());
    }
    let comp =
        dispatch_profile!(dev.profile(), P => community_components::<P>(dev, g, &outcome.comm))?;

    // A community is badly connected iff its members span two component ids.
    let mut first_comp = vec![u32::MAX; n];
    let mut bad = vec![false; n];
    let mut any_bad = false;
    for (&label, &component) in outcome.comm.iter().zip(&comp) {
        let c = label as usize;
        if first_comp[c] == u32::MAX {
            first_comp[c] = component;
        } else if first_comp[c] != component {
            bad[c] = true;
            any_bad = true;
        }
    }
    if !any_bad {
        return Ok(outcome.clone());
    }

    // Split: well-connected communities keep their labels (compactly
    // renumbered, the same scheme as the warm-start seeding); every vertex
    // of a badly-connected community becomes a fresh singleton and joins
    // the re-absorb frontier. Kept communities use fewer labels than kept
    // vertices, so the fresh ids always fit below n.
    let mut remap: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    let mut next = 0u32;
    let mut seed = vec![0u32; n];
    for (v, slot) in seed.iter_mut().enumerate() {
        let c = outcome.comm[v];
        if !bad[c as usize] {
            *slot = *remap.entry(c).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            });
        }
    }
    let mut frontier: Vec<u32> = Vec::new();
    for (v, slot) in seed.iter_mut().enumerate() {
        if bad[outcome.comm[v] as usize] {
            *slot = next;
            next += 1;
            frontier.push(v as u32);
        }
    }

    let refined = modularity_optimization_seeded(
        dev,
        g,
        cfg,
        threshold,
        &WarmSeed { labels: &seed, frontier: &frontier },
    )?;

    // Commit rule: accept the refined labeling iff it does not lose
    // modularity; at a tie the refined labeling wins (equal Q with
    // connected communities).
    if refined.modularity >= outcome.modularity {
        let mut iter_times = outcome.iter_times.clone();
        iter_times.extend(refined.iter_times.iter().copied());
        Ok(OptOutcome {
            comm: refined.comm,
            modularity: refined.modularity,
            iterations: outcome.iterations + refined.iterations,
            iter_times,
            moves: outcome.moves + refined.moves,
        })
    } else {
        Ok(outcome.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cd_gpusim::{DeviceConfig, Instrumented};
    use cd_graph::csr_from_edges;
    use cd_graph::gen::{cliques, planted_partition};
    use cd_graph::{modularity, Partition};

    fn dev() -> Device {
        Device::new(DeviceConfig::tesla_k40m())
    }

    #[test]
    fn components_split_disconnected_community() {
        // Two disjoint edges labeled into ONE community: two components.
        let g = csr_from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]);
        let dg = DeviceGraph::from_csr(&g);
        let labels = vec![0u32, 0, 0, 0];
        let comp = community_components::<Instrumented>(&dev(), &dg, &labels).unwrap();
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
    }

    #[test]
    fn components_connect_through_paths() {
        // A 5-path in one community collapses to a single component even
        // though min-propagation needs several rounds.
        let g = csr_from_edges(5, &[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)]);
        let dg = DeviceGraph::from_csr(&g);
        let labels = vec![0u32; 5];
        let comp = community_components::<Instrumented>(&dev(), &dg, &labels).unwrap();
        assert!(comp.iter().all(|&c| c == comp[0]));
    }

    #[test]
    fn components_respect_community_boundaries() {
        // 0-1-2 chained, but 1 is in another community: 0 and 2 must not
        // merge through it.
        let g = csr_from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]);
        let dg = DeviceGraph::from_csr(&g);
        let labels = vec![0u32, 1, 0];
        let comp = community_components::<Instrumented>(&dev(), &dg, &labels).unwrap();
        assert_ne!(comp[0], comp[2]);
    }

    #[test]
    fn refinement_splits_badly_connected_community() {
        // Two 4-cliques with no connecting edge, mislabeled as one
        // community: refinement must split them and re-absorb each side
        // into its own (higher-Q) community.
        let mut edges = Vec::new();
        for base in [0u32, 4u32] {
            for a in 0..4u32 {
                for b in (a + 1)..4u32 {
                    edges.push((base + a, base + b, 1.0));
                }
            }
        }
        let g = csr_from_edges(8, &edges);
        let dg = DeviceGraph::from_csr(&g);
        let bad_labels = vec![0u32; 8];
        let q_bad = modularity(&g, &Partition::from_vec(bad_labels.clone()));
        let outcome = OptOutcome {
            comm: bad_labels,
            modularity: q_bad,
            iterations: 1,
            iter_times: vec![],
            moves: 0,
        };
        let cfg = GpuLouvainConfig::paper_default();
        let refined = refine_communities(&dev(), &dg, &cfg, 1e-6, &outcome).unwrap();
        assert!(refined.modularity > q_bad, "{} !> {}", refined.modularity, q_bad);
        assert_ne!(refined.comm[0], refined.comm[4]);
        assert!(refined.comm[..4].iter().all(|&c| c == refined.comm[0]));
        assert!(refined.comm[4..].iter().all(|&c| c == refined.comm[4]));
    }

    #[test]
    fn refinement_never_decreases_modularity() {
        let pg = planted_partition(5, 30, 0.4, 0.02, 11);
        let dg = DeviceGraph::from_csr(&pg.graph);
        let cfg = GpuLouvainConfig::paper_default();
        let outcome = crate::modopt::modularity_optimization(&dev(), &dg, &cfg, 1e-6).unwrap();
        let refined = refine_communities(&dev(), &dg, &cfg, 1e-6, &outcome).unwrap();
        assert!(
            refined.modularity >= outcome.modularity,
            "{} < {}",
            refined.modularity,
            outcome.modularity
        );
    }

    #[test]
    fn well_connected_labeling_is_untouched() {
        // A clean clique labeling has no badly-connected community, so the
        // refinement is the identity.
        let g = cliques(3, 5, true);
        let dg = DeviceGraph::from_csr(&g);
        let labels: Vec<u32> = (0..15u32).map(|v| (v / 5) * 5).collect();
        let q = modularity(&g, &Partition::from_vec(labels.clone()));
        let outcome = OptOutcome {
            comm: labels.clone(),
            modularity: q,
            iterations: 2,
            iter_times: vec![],
            moves: 3,
        };
        let cfg = GpuLouvainConfig::paper_default();
        let refined = refine_communities(&dev(), &dg, &cfg, 1e-6, &outcome).unwrap();
        assert_eq!(refined.comm, labels);
        assert_eq!(refined.iterations, 2);
    }
}
