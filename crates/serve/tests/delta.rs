//! End-to-end tests of incremental serving: `submit_delta`, chained cache
//! keys, warm-start execution, base promotion, and snapshot persistence of
//! delta keys. All in manual mode for deterministic interleavings.

use cd_graph::{gen::cliques, Csr, DeltaBatch, DeltaBuilder, GraphBuilder, VertexId};
use cd_serve::{
    chained_graph_hash, delta_hash, structural_hash, DeltaBase, ExecPath, JobOptions, JobOutcome,
    Rejected, Server, ServerConfig,
};
use std::sync::Arc;

fn ring(n: usize) -> Arc<Csr> {
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        b.add_edge(v as VertexId, ((v + 1) % n) as VertexId, 1.0);
    }
    Arc::new(b.build())
}

fn manual() -> Server {
    Server::new(ServerConfig::test_manual())
}

/// A small batch against a ring: rewire one chord in, one ring edge out.
fn batch_a(n: usize) -> DeltaBatch {
    let mut b = DeltaBuilder::new(n);
    b.insert(0, (n / 2) as VertexId, 1.5).unwrap();
    b.delete(1, 2).unwrap();
    b.build()
}

fn batch_b(n: usize) -> DeltaBatch {
    let mut b = DeltaBuilder::new(n);
    b.insert(3, (n / 2 + 3) as VertexId, 2.0).unwrap();
    b.reweight(4, 5, 0.25).unwrap();
    b.build()
}

fn completed(server: &Server, id: cd_serve::JobId) -> (Arc<cd_serve::ServeResult>, ExecPath) {
    match server.await_result(id) {
        JobOutcome::Completed { result, path } => (result, path),
        other => panic!("expected completion, got {other:?}"),
    }
}

#[test]
fn resubmitted_delta_chain_warm_hits_with_zero_recompute() {
    let server = manual();
    let n = 64;
    let opts = JobOptions::default();

    // Build the chain: base → +batch_a → +batch_b, computing each link.
    let base = server.submit(ring(n), opts).unwrap();
    server.run_until_idle();
    let d1 = server.submit_delta(DeltaBase::Job(base), &batch_a(n), opts).unwrap();
    server.run_until_idle();
    let d2 = server.submit_delta(DeltaBase::Job(d1), &batch_b(n), opts).unwrap();
    server.run_until_idle();
    let (r1, p1) = completed(&server, d1);
    let (r2, p2) = completed(&server, d2);
    assert!(!p1.is_shared() && !p2.is_shared(), "first traversal computes: {p1:?}, {p2:?}");
    let computed = server.metrics().exec.count;

    // Replay the whole chain: every link must resolve from the cache —
    // zero producing runs, the very same Arcs handed back.
    let base2 = server.submit(ring(n), opts).unwrap();
    let e1 = server.submit_delta(DeltaBase::Job(base2), &batch_a(n), opts).unwrap();
    let e2 = server.submit_delta(DeltaBase::Job(e1), &batch_b(n), opts).unwrap();
    server.run_until_idle();
    for (id, orig) in [(e1, &r1), (e2, &r2)] {
        match server.await_result(id) {
            JobOutcome::Completed { result, path: ExecPath::CacheHit } => {
                assert!(Arc::ptr_eq(&result, orig), "replay hands back the same Arc");
            }
            other => panic!("replayed chain link was not a cache hit: {other:?}"),
        }
    }
    let m = server.metrics();
    assert_eq!(m.exec.count, computed, "replay ran zero producing runs");
    assert_eq!(m.delta_jobs, 4);
    server.run_until_idle();
}

#[test]
fn delta_jobs_warm_start_from_the_base_result() {
    let server = manual();
    let n = 48;
    let opts = JobOptions::default();
    let base = server.submit(ring(n), opts).unwrap();
    server.run_until_idle();
    server.await_result(base);

    let d = server.submit_delta(DeltaBase::Job(base), &batch_a(n), opts).unwrap();
    server.run_until_idle();
    let (_, path) = completed(&server, d);
    assert!(matches!(path, ExecPath::SingleDevice { .. }));
    assert_eq!(server.metrics().warm_started_jobs, 1, "the delta run was seeded");

    // Unknown-base deltas never reach the warm path — they bounce.
    assert!(matches!(
        server.submit_delta(DeltaBase::Graph(0xdead_beef), &batch_a(n), opts),
        Err(Rejected::UnknownBase { base: 0xdead_beef })
    ));
    let err = server
        .submit_delta(
            DeltaBase::Job(base),
            &{
                let mut b = DeltaBuilder::new(n);
                b.delete(0, 2).unwrap(); // not an edge of the ring
                b.build()
            },
            opts,
        )
        .unwrap_err();
    assert!(matches!(err, Rejected::InvalidDelta { .. }), "got {err:?}");
}

#[test]
fn delta_result_promotes_to_a_plain_base() {
    let server = manual();
    let n = 56;
    let opts = JobOptions::default();
    let base = server.submit(ring(n), opts).unwrap();
    server.run_until_idle();
    let d = server.submit_delta(DeltaBase::Job(base), &batch_a(n), opts).unwrap();
    server.run_until_idle();
    let (delta_result, _) = completed(&server, d);

    // Build the patched graph independently and submit it cold: the
    // structural hash matches (the patch path is bit-identical to a
    // rebuild), so the promoted entry answers it from the cache.
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        if (v, (v + 1) % n) == (1, 2) {
            continue;
        }
        b.add_edge(v as VertexId, ((v + 1) % n) as VertexId, 1.0);
    }
    b.add_edge(0, (n / 2) as VertexId, 1.5);
    let patched = Arc::new(b.build());
    let cold = server.submit(patched, opts).unwrap();
    match server.await_result(cold) {
        JobOutcome::Completed { result, path: ExecPath::CacheHit } => {
            assert!(Arc::ptr_eq(&result, &delta_result));
        }
        other => panic!("cold submission of the patched graph missed: {other:?}"),
    }
    server.run_until_idle();
}

#[test]
fn identical_inflight_deltas_coalesce() {
    let server = manual();
    let n = 40;
    let opts = JobOptions::default();
    let base = server.submit(ring(n), opts).unwrap();
    server.run_until_idle();

    // Two identical deltas before any processing: the second coalesces
    // onto the first (same chained key) instead of queuing.
    let d1 = server.submit_delta(DeltaBase::Job(base), &batch_a(n), opts).unwrap();
    let d2 = server.submit_delta(DeltaBase::Job(base), &batch_a(n), opts).unwrap();
    server.run_until_idle();
    let (r1, p1) = completed(&server, d1);
    let (r2, p2) = completed(&server, d2);
    assert!(!p1.is_shared());
    assert_eq!(p2, ExecPath::Coalesced);
    assert!(Arc::ptr_eq(&r1, &r2));
    server.run_until_idle();
}

#[test]
fn snapshot_persists_delta_chain_keys() {
    let dir = std::env::temp_dir().join(format!("cd-serve-delta-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("cache.snap");
    let n = 44;
    let opts = JobOptions::default();

    let (r_base, r_delta) = {
        let server = manual();
        let base = server.submit(ring(n), opts).unwrap();
        server.run_until_idle();
        let d = server.submit_delta(DeltaBase::Job(base), &batch_a(n), opts).unwrap();
        server.run_until_idle();
        let (rb, _) = completed(&server, base);
        let (rd, _) = completed(&server, d);
        assert!(server.snapshot_cache_to(&snap).unwrap() >= 2);
        (rb, rd)
    };

    // A fresh server restores the snapshot: resubmitting the chain is pure
    // cache hits, including the chained delta key — but the *base graph*
    // registry is not persisted, so the base must be submitted first (a
    // cache hit itself) to re-register it.
    let server = Server::new(ServerConfig {
        cache_snapshot: Some(snap.clone()),
        ..ServerConfig::test_manual()
    });
    assert!(server.metrics().cache_restored_entries >= 2);
    let base = server.submit(ring(n), opts).unwrap();
    let (rb2, pb) = completed(&server, base);
    assert_eq!(pb, ExecPath::CacheHit);
    assert_eq!(rb2.modularity.to_bits(), r_base.modularity.to_bits());

    let d = server.submit_delta(DeltaBase::Job(base), &batch_a(n), opts).unwrap();
    let (rd2, pd) = completed(&server, d);
    assert_eq!(pd, ExecPath::CacheHit, "restored chained key answers the delta");
    assert_eq!(rd2.partition.as_slice(), r_delta.partition.as_slice());
    assert_eq!(rd2.modularity.to_bits(), r_delta.modularity.to_bits());
    server.run_until_idle();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cliques_delta_improves_quality_not_just_speed() {
    // Sanity that warm-started results are *good*: merge two cliques of a
    // clique chain with a heavy bridge and check the warm result tracks a
    // from-scratch run within the equivalence band.
    let server = manual();
    let graph = Arc::new(cliques(4, 8, true));
    let n = graph.num_vertices();
    let opts = JobOptions::default();
    let base = server.submit(Arc::clone(&graph), opts).unwrap();
    server.run_until_idle();
    server.await_result(base);

    let mut b = DeltaBuilder::new(n);
    for i in 0..4u32 {
        b.insert(i, 8 + i, 4.0).unwrap(); // weld clique 0 to clique 1
    }
    let batch = b.build();
    let d = server.submit_delta(DeltaBase::Job(base), &batch, opts).unwrap();
    server.run_until_idle();
    let (warm, _) = completed(&server, d);

    // From-scratch reference on an independently patched graph.
    let (patched, _) = cd_graph::apply_delta(&graph, &batch).unwrap();
    let scratch_server = manual();
    let s = scratch_server.submit(Arc::new(patched), opts).unwrap();
    scratch_server.run_until_idle();
    let (scratch, _) = completed(&scratch_server, s);
    assert!(
        (warm.modularity - scratch.modularity).abs() <= 1e-3,
        "warm {} vs scratch {}",
        warm.modularity,
        scratch.modularity
    );
}

/// Bytes of a graph's CSR arrays, as `ServeMetrics::retained_graph_bytes`
/// counts them.
fn csr_bytes(g: &Csr) -> usize {
    std::mem::size_of_val(g.offsets())
        + std::mem::size_of_val(g.targets())
        + std::mem::size_of_val(g.weights())
}

/// Link `k` of a serial chain on a ring of `n` vertices: one new chord.
fn chord(n: usize, k: usize) -> DeltaBatch {
    let mut b = DeltaBuilder::new(n);
    b.insert(k as VertexId, (k + n / 2) as VertexId, 1.0 + k as f64 / 4.0).unwrap();
    b.build()
}

#[test]
fn settled_jobs_release_their_graph() {
    let server = manual();
    let graph = ring(32);
    let opts = JobOptions::default();
    let ids: Vec<_> = (0..10).map(|_| server.submit(Arc::clone(&graph), opts).unwrap()).collect();
    server.run_until_idle();
    for id in ids {
        completed(&server, id);
    }
    // The client's handle plus the base registry: no settled job holds it.
    assert_eq!(Arc::strong_count(&graph), 2);
    assert_eq!(server.metrics().retained_graph_bytes, csr_bytes(&graph));
}

#[test]
fn retained_graph_bytes_stay_at_the_submitted_graphs_under_delta_soak() {
    let server = Server::new(ServerConfig { queue_capacity: 256, ..ServerConfig::test_manual() });
    let n = 64;
    let graph = ring(n);
    let opts = JobOptions::default();
    let base = server.submit(Arc::clone(&graph), opts).unwrap();
    server.run_until_idle();
    let base_bytes = csr_bytes(&graph);

    // Fan-out: 200 distinct deltas off the one base, all queued at once.
    let fan: Vec<_> = (0..200)
        .map(|i| {
            let mut b = DeltaBuilder::new(n);
            b.insert(0, (n / 2) as VertexId, 2.0 + i as f64 / 8.0).unwrap();
            server.submit_delta(DeltaBase::Job(base), &b.build(), opts).unwrap()
        })
        .collect();
    assert!(server.metrics().retained_graph_bytes > base_bytes, "queued deltas hold graphs");
    server.run_until_idle();
    for id in fan {
        completed(&server, id);
    }
    assert_eq!(server.metrics().retained_graph_bytes, base_bytes);

    // Serial chain: each link is based on the previous one after it
    // settled, so every link's base is rebuilt from recipes.
    let (mut prev, mut patched) = (base, (*graph).clone());
    for k in 0..20 {
        let batch = chord(n, k);
        let id = server.submit_delta(DeltaBase::Job(prev), &batch, opts).unwrap();
        patched = cd_graph::apply_delta(&patched, &batch).unwrap().0;
        assert_eq!(
            server.metrics().retained_graph_bytes,
            base_bytes + csr_bytes(&patched),
            "the queued link holds exactly its own patched graph"
        );
        server.run_until_idle();
        completed(&server, id);
        prev = id;
    }
    server.run_until_idle();
    assert_eq!(server.metrics().retained_graph_bytes, base_bytes);
    assert_eq!(Arc::strong_count(&graph), 2, "the client plus the registry");
}

#[test]
fn replayed_chain_links_are_bit_identical_to_cold_patches() {
    let server = manual();
    let n = 48;
    let opts = JobOptions::default();
    let mut graph = ring(n);
    let base = server.submit(Arc::clone(&graph), opts).unwrap();
    server.run_until_idle();

    // Alternate naming the previous link by job id and by its chained
    // hash; each link is submitted after the previous one settled, so its
    // base exists only as a recipe and is replayed.
    let (mut prev_job, mut prev_hash) = (base, structural_hash(&graph));
    for k in 0..6 {
        let batch = chord(n, k);
        let link = if k % 2 == 0 { DeltaBase::Job(prev_job) } else { DeltaBase::Graph(prev_hash) };
        let id = server.submit_delta(link, &batch, opts).unwrap();
        server.run_until_idle();
        let (result, path) = completed(&server, id);
        assert!(!path.is_shared(), "link {k} computes: {path:?}");

        // Patch independently; the cold submission hits the promoted entry.
        graph = Arc::new(cd_graph::apply_delta(&graph, &batch).unwrap().0);
        let cold = server.submit(Arc::clone(&graph), opts).unwrap();
        server.run_until_idle();
        match server.await_result(cold) {
            JobOutcome::Completed { result: r, path: ExecPath::CacheHit } => {
                assert!(Arc::ptr_eq(&r, &result), "link {k}: the same Arc");
            }
            other => panic!("link {k}: cold submission of the patched graph missed: {other:?}"),
        }
        (prev_job, prev_hash) = (id, chained_graph_hash(prev_hash, delta_hash(&batch)));
    }
}
