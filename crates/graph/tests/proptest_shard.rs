//! Property tests of the edge-cut partitioner and the sharded CSR: balance
//! is structural (max shard within 1.25× the mean), every vertex is owned
//! exactly once, ghost tables are consistent with the cut edges, and the
//! whole construction is a pure function of the graph (so identical across
//! repeated runs and thread counts).

use cd_graph::gen::{add_random_edges, cliques, planted_partition, rmat, RmatParams};
use cd_graph::{edge_cut_owners, shard_stats, Csr, ShardStrategy, ShardedCsr};
use proptest::prelude::*;

/// A small deterministic graph drawn from the generator families the suite
/// uses, parameterized enough to cover skewed, clustered and near-random
/// degree structure.
fn arb_graph() -> impl Strategy<Value = Csr> {
    (0usize..3, 2usize..6, 3usize..14, 0usize..2, 0u64..1000).prop_map(
        |(family, groups, size, flag, seed)| match family {
            0 => add_random_edges(&cliques(groups, size, flag == 1), size, seed),
            1 => planted_partition(groups, size + 2, 0.5, 0.05, seed).graph,
            _ => rmat(4 + groups as u32, 2 + size / 4, RmatParams::GRAPH500, seed),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn every_vertex_owned_exactly_once_and_balanced(g in arb_graph(), k in 1usize..6) {
        let (owner, stats) = edge_cut_owners(&g, k);
        let n = g.num_vertices();
        prop_assert_eq!(owner.len(), n);
        let k_eff = stats.num_shards;
        let mut sizes = vec![0usize; k_eff];
        for &o in &owner {
            prop_assert!((o as usize) < k_eff, "owner {} out of range", o);
            sizes[o as usize] += 1;
        }
        prop_assert_eq!(sizes.iter().sum::<usize>(), n);
        // Balance: the cap is ⌈n/K⌉, well within 1.25× the mean for any
        // graph with at least K vertices.
        let mean = n as f64 / k_eff as f64;
        prop_assert!(
            stats.max_shard as f64 <= (mean * 1.25).ceil(),
            "max shard {} vs mean {:.1}", stats.max_shard, mean
        );
        prop_assert!(stats.max_shard <= n.div_ceil(k_eff));
    }

    #[test]
    fn ghost_tables_match_cut_edges(g in arb_graph(), k in 1usize..6) {
        let sharded = ShardedCsr::build(&g, k);
        prop_assert!(sharded.validate(&g).is_ok(), "{:?}", sharded.validate(&g));
        // Ghost counts equal the number of distinct remote endpoints per
        // shard, and no shard has a ghost it also owns.
        for shard in &sharded.shards {
            for &ghost in &shard.ghosts {
                prop_assert!(shard.owned.binary_search(&ghost).is_err());
            }
        }
        // The routing table delivers every ghost exactly once.
        let routed: usize = sharded.routes.iter().flatten().map(|r| r.len()).sum();
        prop_assert_eq!(routed, sharded.total_ghosts());
    }

    #[test]
    fn validate_accepts_every_sharding_and_rejects_a_dropped_ghost(
        g in arb_graph(),
        k in 1usize..6,
        pick in 0usize..10_000,
    ) {
        let mut sharded = ShardedCsr::build(&g, k);
        prop_assert_eq!(sharded.validate(&g), Ok(()));
        // Dropping any one ghost leaves a cut edge without its ghost.
        let ghosts: Vec<(usize, usize)> = sharded
            .shards
            .iter()
            .enumerate()
            .flat_map(|(t, s)| (0..s.ghosts.len()).map(move |i| (t, i)))
            .collect();
        if !ghosts.is_empty() {
            let (t, i) = ghosts[pick % ghosts.len()];
            let shard = &mut sharded.shards[t];
            let gv = shard.ghosts.remove(i);
            shard.locals.retain(|&u| u != gv);
            let err = sharded.validate(&g).unwrap_err();
            prop_assert!(err.contains("is not a ghost of shard"), "{}", err);
        }
    }

    #[test]
    fn partitioner_is_deterministic(g in arb_graph(), k in 1usize..6) {
        // Pure sequential host code: two runs are identical, which is the
        // thread-count independence claim (nothing here depends on
        // CD_GPUSIM_THREADS or any scheduler).
        let (a, sa) = edge_cut_owners(&g, k);
        let (b, sb) = edge_cut_owners(&g, k);
        prop_assert_eq!(a, b);
        prop_assert_eq!(sa.cut_arcs, sb.cut_arcs);
        prop_assert_eq!(sa.strategy, sb.strategy);
        let x = ShardedCsr::build(&g, k);
        let y = ShardedCsr::build(&g, k);
        for (sx, sy) in x.shards.iter().zip(&y.shards) {
            prop_assert_eq!(&sx.owned, &sy.owned);
            prop_assert_eq!(&sx.ghosts, &sy.ghosts);
            prop_assert_eq!(sx.graph.offsets(), sy.graph.offsets());
            prop_assert_eq!(sx.graph.targets(), sy.graph.targets());
        }
    }

    #[test]
    fn chosen_cut_never_exceeds_contiguous(g in arb_graph(), k in 1usize..6) {
        let (_, stats) = edge_cut_owners(&g, k);
        let cont = cd_graph::contiguous_owners(g.num_vertices(), stats.num_shards);
        let cont_stats = shard_stats(&g, &cont, stats.num_shards, ShardStrategy::Contiguous);
        prop_assert!(stats.cut_arcs <= cont_stats.cut_arcs);
    }
}
