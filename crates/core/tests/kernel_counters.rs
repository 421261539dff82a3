//! Pins the per-kernel counters of every bucketed hash-table kernel family.
//!
//! `computeMove`, `mergeCommunity`, the label-propagation vote and the halo
//! move pass share one launch scheme: degree buckets with per-bucket group
//! widths, double-hashed tables in shared memory for the bounded buckets and
//! in global memory for the open-ended one, and an in-kernel overflow retry.
//! Every run below records, per kernel name, the launch and block counts and
//! every `BlockCounters` field under `Instrumented` at one worker thread
//! (where even the CAS counters are exact), plus a digest of the labels and
//! the modularity bits. A refactor of the launch scaffolding must leave every
//! line unchanged.

use cd_core::{
    halo_move_pass, label_propagation, leiden_gpu, louvain_gpu, DeviceGraph, GpuLouvainConfig,
    GpuLouvainResult, HaloView, HashPlacement, LpaMode,
};
use cd_gpusim::{Device, DeviceConfig, Profile};
use cd_graph::gen::planted_partition;
use cd_graph::Csr;

/// Eight planted communities of 50, four dense blocks of 20 and a path
/// tail, plus three hubs: vertex 0 joined to 340 vertices (the open-ended
/// bucket), vertex 2 to 101 and vertex 3 to 51. Vertex degrees span all
/// seven `computeMove` buckets, and community degree sums span all three
/// `mergeCommunity` buckets.
fn graph() -> Csr {
    let mut b = planted_partition(8, 50, 0.2, 0.01, 7).graph.to_builder();
    b.grow_to(500);
    for v in 1..=340 {
        b.add_unit_edge(0, v);
    }
    for v in 100..=200 {
        b.add_unit_edge(2, v);
    }
    for v in 300..=350 {
        b.add_unit_edge(3, v);
    }
    for block in 0..4u32 {
        let base = 400 + 20 * block;
        for u in 0..20 {
            for v in u + 1..20 {
                if (u + v) % 3 != 0 {
                    b.add_unit_edge(base + u, base + v);
                }
            }
        }
        b.add_unit_edge(base, 5 + block);
    }
    for v in 480..500 {
        b.add_unit_edge(v - 1, v);
    }
    b.build()
}

fn device() -> Device {
    Device::new(DeviceConfig::tesla_k40m().with_profile(Profile::Instrumented).with_threads(1))
}

/// One line per kernel in first-launch order: name, launches, blocks, then
/// every `BlockCounters` field.
fn counters(dev: &Device) -> String {
    let m = dev.metrics();
    let lines: Vec<String> = m
        .kernels()
        .iter()
        .map(|(name, k)| {
            let c = &k.counters;
            format!(
                "{name} {} {} | {} {} {} {} {} {} {} {} {} {} {} {}",
                k.launches,
                k.blocks,
                c.lane_slots,
                c.active_lanes,
                c.global_reads,
                c.global_writes,
                c.global_transactions,
                c.shared_accesses,
                c.atomic_adds,
                c.cas_ops,
                c.cas_failures,
                c.barriers,
                c.tasks,
                c.table_fallbacks,
            )
        })
        .collect();
    lines.join("\n")
}

/// FNV-1a over the labels.
fn digest(labels: &[u32]) -> u64 {
    labels.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &l| {
        (h ^ u64::from(l)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn outcome(labels: &[u32], q: f64) -> String {
    format!("labels {:016x} q {:016x}", digest(labels), q.to_bits())
}

fn result(res: &GpuLouvainResult) -> String {
    outcome(res.partition.as_slice(), res.modularity)
}

fn check(run: &str, dev: &Device, answer: String, expected: &str) {
    let actual = format!("{answer}\n{}", counters(dev));
    assert_eq!(actual, expected.trim(), "{run}: counters or answer changed");
}

#[test]
fn louvain_counters_are_pinned() {
    let (g, dev) = (graph(), device());
    let res = louvain_gpu(&dev, &g, &GpuLouvainConfig::paper_default()).unwrap();
    check("louvain", &dev, result(&res), LOUVAIN);
}

#[test]
fn louvain_force_global_counters_are_pinned() {
    let (g, dev) = (graph(), device());
    let mut cfg = GpuLouvainConfig::paper_default();
    cfg.hash_placement = HashPlacement::ForceGlobal;
    let res = louvain_gpu(&dev, &g, &cfg).unwrap();
    check("louvain force-global", &dev, result(&res), LOUVAIN_FORCE_GLOBAL);
}

#[test]
fn leiden_counters_are_pinned() {
    let (g, dev) = (graph(), device());
    let res = leiden_gpu(&dev, &g, &GpuLouvainConfig::paper_default()).unwrap();
    check("leiden", &dev, result(&res), LEIDEN);
}

#[test]
fn label_propagation_counters_are_pinned() {
    for (mode, expected) in [(LpaMode::Sync, LPA_SYNC), (LpaMode::Async, LPA_ASYNC)] {
        let (g, dev) = (graph(), device());
        let res = label_propagation(&dev, &g, &GpuLouvainConfig::paper_default(), mode).unwrap();
        check(&format!("lpa {mode:?}"), &dev, result(&res), expected);
    }
}

#[test]
fn halo_move_counters_are_pinned() {
    // A whole-graph shard at the singleton labeling: every vertex owned,
    // each community in its own table slot.
    let (g, dev) = (graph(), device());
    let dg = DeviceGraph::from_csr(&g);
    let n = g.num_vertices() as u32;
    let owned: Vec<u32> = (0..n).collect();
    let k: Vec<f64> = (0..n).map(|v| g.weighted_degree(v)).collect();
    let size = vec![1u32; n as usize];
    let view = HaloView {
        graph: &dg,
        owned: &owned,
        k: &k,
        labels: &owned,
        label_bound: owned.len(),
        comm_slot: &owned,
        comm_vol: &k,
        comm_size: &size,
        two_m: g.total_weight_2m(),
    };
    let proposals = halo_move_pass(&dev, &view, &GpuLouvainConfig::paper_default()).unwrap();
    check("halo", &dev, outcome(&proposals, 0.0), HALO);
}

const LOUVAIN: &str = r#"
labels 791da56de3a65ad6 q 3fe357e6f7974cd6
compute_k 9 24 | 8828 7797 9065 634 1482 0 0 0 0 0 634 0
init_opt_state 9 12 | 768 634 0 3170 634 0 0 0 0 0 0 0
modularity_partials 29 119 | 50572 45006 141828 3405 55949 0 0 0 0 0 3405 0
thrust::reduce 29 29 | 3405 3405 3405 3405 441 0 0 0 0 0 0 0
thrust::transform_reduce 29 29 | 3405 3405 3405 3405 441 0 0 0 0 0 0 0
bin_vertices 9 12 | 768 634 1268 634 1268 0 634 0 0 0 0 0
thrust::sort_by_key 10 2 | 8 8 8 8 2 0 0 0 0 0 0 0
compute_move_b1 30 30 | 8400 7131 5299 420 4057 7050 0 0 0 0 420 0
commit_publish 55 63 | 3424 2160 6480 1439 7919 0 7195 2878 0 0 0 0
compute_move_b2 30 30 | 13920 12760 8767 290 4997 12568 0 0 0 0 290 0
compute_move_b3 30 525 | 453040 428743 208299 4045 111273 325297 0 0 0 0 4045 0
compute_move_b4 11 264 | 267520 242198 72854 1045 36807 130144 0 0 0 0 1045 0
compute_move_b5 11 11 | 4224 3927 2659 11 1218 3974 0 0 0 0 11 0
compute_move_b6 11 11 | 18304 17292 4006 11 1685 10177 0 0 0 22 11 0
compute_move_b7 11 11 | 21120 19789 17800 6204 11189 0 3740 319 0 22 11 0
snapshot_best 21 51 | 5472 5199 5199 5199 10398 0 0 0 0 0 0 0
commit_deltas 79 93 | 37824 14512 56399 0 34578 0 6326 3290 0 0 0 0
update_communities 79 93 | 5440 3673 11019 1012 12031 0 0 0 0 0 0 0
aggregate_sizes 9 12 | 768 634 1268 0 634 0 1268 0 0 0 0 0
thrust::exclusive_scan 36 36 | 2047 2047 2047 2047 275 0 0 0 0 0 0 0
aggregate_order_vertices 9 12 | 768 634 0 634 634 0 634 0 0 0 0 0
thrust::copy_if 27 27 | 435 435 435 435 69 0 0 0 0 0 0 0
merge_community_b1 9 36 | 44416 32790 3548 1294 1616 35346 0 0 0 0 134 0
merge_community_b2 1 4 | 10240 3666 2023 22 769 4981 0 0 0 12 4 0
merge_community_b3 1 7 | 62976 16570 25045 10474 13956 0 6156 53 0 21 7 0
aggregate_compact 9 39 | 4640 642 1284 1284 308 0 0 0 0 0 145 0
aggregate_vertex_map 9 12 | 768 634 634 634 1268 0 0 0 0 0 0 0
"#;

const LOUVAIN_FORCE_GLOBAL: &str = r#"
labels 791da56de3a65ad6 q 3fe357e6f7974cd6
compute_k 9 24 | 8828 7797 9065 634 1482 0 0 0 0 0 634 0
init_opt_state 9 12 | 768 634 0 3170 634 0 0 0 0 0 0 0
modularity_partials 29 119 | 50572 45006 141828 3405 55949 0 0 0 0 0 3405 0
thrust::reduce 29 29 | 3405 3405 3405 3405 441 0 0 0 0 0 0 0
thrust::transform_reduce 29 29 | 3405 3405 3405 3405 441 0 0 0 0 0 0 0
bin_vertices 9 12 | 768 634 1268 634 1268 0 634 0 0 0 0 0
thrust::sort_by_key 10 2 | 8 8 8 8 2 0 0 0 0 0 0 0
compute_move_b1 30 30 | 8400 7131 6495 3360 5673 0 753 704 0 0 420 0
commit_publish 55 63 | 3424 2160 6480 1439 7919 0 7195 2878 0 0 0 0
compute_move_b2 30 30 | 13920 12760 11127 4060 7647 0 1916 1303 0 0 290 0
compute_move_b3 30 525 | 453040 428743 269037 121350 180101 0 52539 21088 0 0 4045 0
compute_move_b4 11 264 | 267520 242198 94093 56430 62226 0 19613 7147 0 0 1045 0
compute_move_b5 11 11 | 4224 3927 3450 1408 2097 0 770 123 0 0 11 0
compute_move_b6 11 11 | 18304 17292 5260 6204 3335 0 1243 122 0 22 11 0
compute_move_b7 11 11 | 21120 19789 17800 6204 11189 0 3740 319 0 22 11 0
snapshot_best 21 51 | 5472 5199 5199 5199 10398 0 0 0 0 0 0 0
commit_deltas 79 93 | 37824 14512 56399 0 34578 0 6326 3290 0 0 0 0
update_communities 79 93 | 5440 3673 11019 1012 12031 0 0 0 0 0 0 0
aggregate_sizes 9 12 | 768 634 1268 0 634 0 1268 0 0 0 0 0
thrust::exclusive_scan 36 36 | 2047 2047 2047 2047 275 0 0 0 0 0 0 0
aggregate_order_vertices 9 12 | 768 634 0 634 634 0 634 0 0 0 0 0
thrust::copy_if 27 27 | 435 435 435 435 69 0 0 0 0 0 0 0
merge_community_b1 9 36 | 44416 32790 4536 32516 4614 0 988 580 0 0 134 0
merge_community_b2 1 4 | 10240 3666 2676 3026 1610 0 653 9 0 12 4 0
merge_community_b3 1 7 | 62976 16570 25045 10474 13956 0 6156 53 0 21 7 0
aggregate_compact 9 39 | 4640 642 1284 1284 308 0 0 0 0 0 145 0
aggregate_vertex_map 9 12 | 768 634 634 634 1268 0 0 0 0 0 0 0
"#;

const LEIDEN: &str = r#"
labels 92380189e6b5f0fe q 3fe357e6f7974cd5
compute_k 15 46 | 17500 15482 17986 1252 2932 0 0 0 0 0 1252 0
init_opt_state 14 17 | 960 752 0 3760 752 0 0 0 0 0 0 0
modularity_partials 46 169 | 68496 60817 191941 4745 75825 0 0 0 0 0 4745 0
thrust::reduce 46 46 | 4745 4745 4745 4745 613 0 0 0 0 0 0 0
thrust::transform_reduce 46 46 | 4745 4745 4745 4745 613 0 0 0 0 0 0 0
bin_vertices 15 21 | 1472 1252 2504 1252 2504 0 1252 0 0 0 0 0
thrust::sort_by_key 18 5 | 206 206 206 206 29 0 0 0 0 0 0 0
compute_move_b1 40 40 | 11700 10006 7625 585 5748 9955 0 0 0 0 585 0
commit_publish 73 81 | 4000 2317 6951 1518 8469 0 7590 3036 0 0 0 0
compute_move_b2 38 38 | 16320 14958 10356 340 5940 14752 0 0 0 0 340 0
compute_move_b3 40 554 | 471968 446606 217264 4214 116284 339474 0 0 0 0 4214 0
compute_move_b4 11 264 | 267520 242198 72854 1045 36807 130144 0 0 0 0 1045 0
compute_move_b5 11 11 | 4224 3927 2659 11 1218 3974 0 0 0 0 11 0
compute_move_b6 11 11 | 18304 17292 4006 11 1685 10177 0 0 0 22 11 0
compute_move_b7 11 11 | 21120 19789 17800 6204 11189 0 3740 319 0 22 11 0
snapshot_best 25 58 | 6112 5768 5768 5768 11536 0 0 0 0 0 0 0
commit_deltas 89 103 | 43968 16579 64796 2188 41441 0 7725 5935 1780 0 0 0
update_communities 89 103 | 5888 3900 11700 1190 12890 0 0 0 0 0 0 0
refine_init 14 17 | 960 752 0 1504 752 0 0 0 0 0 0 0
refine_scan 30 92 | 35008 30969 66950 2506 36837 0 0 0 0 0 2506 0
refine_publish 30 42 | 2944 2506 5012 655 3161 0 655 0 0 0 0 0
init_warm_state 1 4 | 512 500 0 1500 500 0 1000 500 0 0 0 0
seed_frontier 1 1 | 128 97 0 194 194 0 0 0 0 0 0 0
bin_frontier 2 2 | 256 197 394 394 788 0 197 0 0 0 0 0
aggregate_sizes 14 17 | 960 752 1504 0 752 0 1504 0 0 0 0 0
thrust::exclusive_scan 56 56 | 2519 2519 2519 2519 339 0 0 0 0 0 0 0
aggregate_order_vertices 14 17 | 960 752 0 752 752 0 752 0 0 0 0 0
thrust::copy_if 42 42 | 789 789 789 789 117 0 0 0 0 0 0 0
merge_community_b1 14 69 | 82432 61319 5738 2342 2684 65480 0 0 0 0 252 0
merge_community_b2 1 4 | 9216 3569 1712 30 652 4686 0 0 0 12 4 0
merge_community_b3 1 7 | 62976 16570 25045 10474 13956 0 6156 53 0 21 7 0
aggregate_compact 14 71 | 8416 1111 2222 2222 554 0 0 0 0 0 263 0
aggregate_vertex_map 14 17 | 960 752 752 752 1504 0 0 0 0 0 0 0
"#;

const LPA_SYNC: &str = r#"
labels 385e54fa67290825 q 3fd0f40bbf0ad8fe
lpa_init 1 4 | 512 500 0 1500 500 0 0 0 0 0 0 0
thrust::sort_by_key 1 1 | 1 1 1 1 1 0 0 0 0 0 0 0
lpa_vote_b1 22 22 | 8800 7458 4334 440 3058 6990 0 0 0 0 440 0
lpa_vote_b2 22 22 | 16896 15488 8800 352 4224 13042 0 0 0 0 352 0
lpa_vote_b3 22 1012 | 901824 853534 346302 8052 153010 575651 0 0 0 0 8052 0
lpa_vote_b4 22 528 | 535040 484396 126038 2090 53944 236992 0 0 0 0 2090 0
lpa_vote_b5 22 22 | 8448 7854 4708 22 1826 7607 0 0 0 0 22 0
lpa_vote_b6 22 22 | 36608 34584 7546 22 2904 20116 0 0 0 44 22 0
lpa_vote_b7 22 22 | 42240 39578 29986 12408 16764 0 7480 363 0 44 22 0
lpa_check 22 88 | 11264 11000 33000 0 11000 0 2181 0 0 0 0 0
lpa_commit 21 84 | 10752 10500 21000 11355 21855 0 855 0 0 0 0 0
"#;

const LPA_ASYNC: &str = r#"
labels 554c4f0436edaf65 q 3fca3ed909781e29
lpa_init 1 4 | 512 500 0 1500 500 0 0 0 0 0 0 0
thrust::sort_by_key 8 1 | 1 1 1 1 1 0 0 0 0 0 0 0
lpa_vote_b2 154 154 | 16896 15488 8800 352 4224 12856 0 0 0 0 352 0
lpa_vote_b3 176 1078 | 901824 853534 346302 8052 153010 572976 0 0 0 0 8052 0
lpa_vote_b4 154 550 | 535040 484396 126038 2090 53944 235681 0 0 0 0 2090 0
lpa_vote_b5 22 22 | 8448 7854 4708 22 1826 7605 0 0 0 0 22 0
lpa_vote_b6 22 22 | 36608 34584 7546 22 2904 20118 0 0 0 44 22 0
lpa_vote_b7 22 22 | 42240 39578 29986 12408 16764 0 7480 364 0 44 22 0
lpa_commit 176 176 | 11264 11000 22000 11861 22861 0 861 0 0 0 0 0
lpa_vote_b1 22 22 | 8800 7458 4334 440 3058 6990 0 0 0 0 440 0
"#;

const HALO: &str = r#"
labels 4b76109848527694 q 0000000000000000
halo_init 1 4 | 512 500 1000 500 1500 0 0 0 0 0 0 0
thrust::sort_by_key 1 1 | 1 1 1 1 1 0 0 0 0 0 0 0
halo_move_b1 1 1 | 400 339 355 20 297 355 0 0 0 0 20 0
halo_move_b2 1 1 | 768 704 688 16 480 837 0 0 0 0 16 0
halo_move_b3 1 46 | 40992 38797 26723 366 17937 35875 0 0 0 0 366 0
halo_move_b4 1 24 | 24320 22018 9675 95 6398 14329 0 0 0 0 95 0
halo_move_b5 1 1 | 384 357 358 1 227 485 0 0 0 0 1 0
halo_move_b6 1 1 | 1664 1572 573 1 362 1129 0 0 0 2 1 0
halo_move_b7 1 1 | 1920 1799 2048 564 1447 0 340 340 0 2 1 0
"#;
