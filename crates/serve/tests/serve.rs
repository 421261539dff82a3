//! End-to-end tests of the serving layer: admission control, scheduling
//! order, the cooperative lifecycle, result reuse, and trace determinism.
//!
//! Most tests run the server in *manual mode* (`workers = 0`): execution
//! happens only inside `process_one`, on the test thread, so every
//! interleaving is chosen by the test — the concurrency-sensitive paths
//! (priority dequeue, queue-full rejection, cancellation, promotion) are
//! exercised deterministically. Worker threads appear only where the test
//! is about them (mid-run cancellation, the seeded trace).

use cd_gpusim::{DeviceConfig, Profile};
use cd_graph::{gen::cliques, Csr, GraphBuilder, VertexId};
use cd_serve::{
    run_trace, ExecPath, JobOptions, JobOutcome, JobStatus, Priority, Rejected, Server,
    ServerConfig, TraceConfig,
};
use cd_workloads::Scale;
use std::sync::Arc;
use std::time::Duration;

/// A ring of `n` vertices — cheap to run, and every distinct `n` is a
/// distinct content key.
fn ring(n: usize) -> Arc<Csr> {
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        b.add_edge(v as VertexId, ((v + 1) % n) as VertexId, 1.0);
    }
    Arc::new(b.build())
}

fn manual(queue_capacity: usize) -> Server {
    Server::new(ServerConfig { queue_capacity, ..ServerConfig::test_manual() })
}

#[test]
fn queue_full_rejects_new_content_but_not_reuse() {
    let server = manual(2);
    let (g1, g2, g3, g4) = (ring(64), ring(65), ring(66), ring(67));
    let opts = JobOptions::default();

    let id1 = server.submit(Arc::clone(&g1), opts).unwrap();
    let id2 = server.submit(Arc::clone(&g2), opts).unwrap();
    // Queue is at capacity: new content bounces with the explicit signal.
    assert_eq!(server.submit(Arc::clone(&g3), opts), Err(Rejected::QueueFull { capacity: 2 }));
    // Identical in-flight content coalesces instead — it consumes no queue
    // slot, so backpressure does not apply.
    let id1b = server.submit(Arc::clone(&g1), opts).unwrap();

    server.run_until_idle();
    assert_eq!(server.await_result(id1).status(), JobStatus::Completed);
    assert_eq!(server.await_result(id2).status(), JobStatus::Completed);
    match server.await_result(id1b) {
        JobOutcome::Completed { path: ExecPath::Coalesced, .. } => {}
        other => panic!("coalesced submission completed as {other:?}"),
    }

    // Refill the queue, then submit already-cached content: a cache hit
    // completes synchronously and is exempt from the bound too.
    server.submit(Arc::clone(&g3), opts).unwrap();
    server.submit(Arc::clone(&g4), opts).unwrap();
    let cached = server.submit(g1, opts).unwrap();
    match server.await_result(cached) {
        JobOutcome::Completed { path: ExecPath::CacheHit, .. } => {}
        other => panic!("cached submission completed as {other:?}"),
    }
    let m = server.metrics();
    assert_eq!(m.rejected, 1);
    assert_eq!(m.cache.coalesced, 1);
    assert_eq!(m.cache.hits, 1);
    server.run_until_idle();
}

#[test]
fn dequeue_is_priority_then_fifo() {
    let server = manual(16);
    let low = server.submit(ring(70), JobOptions::default().with_priority(Priority::Low)).unwrap();
    let norm1 = server.submit(ring(71), JobOptions::default()).unwrap();
    let norm2 = server.submit(ring(72), JobOptions::default()).unwrap();
    let high =
        server.submit(ring(73), JobOptions::default().with_priority(Priority::High)).unwrap();

    // One dispatch at a time; completion order is the dequeue order.
    let mut order = Vec::new();
    while server.process_one() {
        for &id in &[low, norm1, norm2, high] {
            if !order.contains(&id) && server.status(id) == Some(JobStatus::Completed) {
                order.push(id);
            }
        }
    }
    // Strict priority first; FIFO (submission order) within Normal.
    assert_eq!(order, vec![high, norm1, norm2, low]);
}

#[test]
fn zero_deadline_expires_at_the_admission_checkpoint() {
    let server = manual(16);
    let id = server.submit(ring(80), JobOptions::default().with_deadline(Duration::ZERO)).unwrap();
    // Dead on arrival: settled synchronously, never occupying a queue slot.
    assert_eq!(server.status(id), Some(JobStatus::Expired));
    match server.await_result(id) {
        JobOutcome::Expired { stage: None } => {}
        other => panic!("expected admission-level expiry, got {other:?}"),
    }
    let m = server.metrics();
    assert_eq!((m.expired, m.expired_admission, m.queue_depth), (1, 1, 0));
}

#[test]
fn short_deadline_expires_at_a_stage_checkpoint() {
    // road-usa at Tiny runs ~9 stages over >10 ms even in release builds;
    // a 5 ms deadline survives the dequeue checkpoint (manual mode
    // dispatches immediately) and trips at a later stage gate.
    let graph = Arc::new(cd_workloads::load("road-usa", Scale::Tiny).unwrap().graph);
    let server = manual(16);
    let id = server
        .submit(graph, JobOptions::default().with_deadline(Duration::from_millis(5)))
        .unwrap();
    server.run_until_idle();
    match server.await_result(id) {
        JobOutcome::Expired { stage: Some(_) } => {}
        other => panic!("expected a stage-checkpoint expiry, got {other:?}"),
    }
}

#[test]
fn cancel_while_queued_resolves_immediately_and_promotes_followers() {
    let server = manual(16);
    let g = ring(90);
    let leader = server.submit(Arc::clone(&g), JobOptions::default()).unwrap();
    let follower = server.submit(Arc::clone(&g), JobOptions::default()).unwrap();
    assert_eq!(server.status(follower), Some(JobStatus::Queued));

    // Cancelling the queued leader settles it without any worker running…
    assert!(server.cancel(leader));
    match server.await_result(leader) {
        JobOutcome::Cancelled { stage: None } => {}
        other => panic!("expected queue-level cancel, got {other:?}"),
    }
    // …and a second cancel is too late.
    assert!(!server.cancel(leader));

    // The coalesced follower is promoted to leader and computes normally.
    server.run_until_idle();
    match server.await_result(follower) {
        JobOutcome::Completed { path: ExecPath::SingleDevice { .. }, .. } => {}
        other => panic!("promoted follower should compute its own result, got {other:?}"),
    }
    let m = server.metrics();
    assert_eq!((m.cancelled, m.completed), (1, 1));
}

#[test]
fn cancel_mid_run_aborts_at_a_stage_checkpoint() {
    // One worker executes; the test thread cancels as soon as the job is
    // observed Running. The flag is then seen at the next stage gate of a
    // multi-stage run (road-usa: ~9 stages).
    let mut server = Server::new(ServerConfig { workers: 1, ..ServerConfig::test_manual() });
    let graph = Arc::new(cd_workloads::load("road-usa", Scale::Tiny).unwrap().graph);
    let id = server.submit(graph, JobOptions::default()).unwrap();
    while server.status(id) != Some(JobStatus::Running) {
        std::thread::yield_now();
    }
    assert!(server.cancel(id));
    match server.await_result(id) {
        JobOutcome::Cancelled { stage: Some(_) } => {}
        other => panic!("expected a stage-checkpoint cancel, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn coalescing_computes_once_and_shares_the_result() {
    let server = manual(16);
    let g = ring(100);
    let a = server.submit(Arc::clone(&g), JobOptions::default()).unwrap();
    let b = server.submit(Arc::clone(&g), JobOptions::default()).unwrap();
    let c = server.submit(Arc::clone(&g), JobOptions::default()).unwrap();

    // A single dispatch settles all three.
    assert!(server.process_one());
    assert!(!server.process_one(), "one computation serves every twin");

    let ra = server.await_result(a);
    let rb = server.await_result(b);
    let rc = server.await_result(c);
    let (res_a, res_b, res_c) = (ra.result().unwrap(), rb.result().unwrap(), rc.result().unwrap());
    assert!(Arc::ptr_eq(res_a, res_b) && Arc::ptr_eq(res_a, res_c), "one shared Arc");
    match (rb, rc) {
        (
            JobOutcome::Completed { path: ExecPath::Coalesced, .. },
            JobOutcome::Completed { path: ExecPath::Coalesced, .. },
        ) => {}
        other => panic!("followers should report the coalesced path, got {other:?}"),
    }
    let m = server.metrics();
    assert_eq!(m.cache.coalesced, 2);
    assert_eq!(m.completed, 3);
    assert_eq!(m.devices.iter().map(|d| d.jobs_completed).sum::<u64>(), 1);
}

#[test]
fn cache_hits_are_bit_identical_to_cold_runs_across_profiles() {
    let graph = Arc::new(cliques(6, 8, true));
    let mut baseline: Option<(u64, Vec<VertexId>)> = None;
    for profile in [Profile::Instrumented, Profile::Racecheck, Profile::Parallel] {
        let opts = JobOptions::default().with_profile(profile);

        // Cold run on a fresh server.
        let server = manual(16);
        let cold_id = server.submit(Arc::clone(&graph), opts).unwrap();
        server.run_until_idle();
        let cold = server.await_result(cold_id);
        let cold_res = cold.result().expect("cold run completes").clone();

        // Cache hit on the same server: the identical Arc.
        let hit_id = server.submit(Arc::clone(&graph), opts).unwrap();
        let hit = server.await_result(hit_id);
        assert!(Arc::ptr_eq(&cold_res, hit.result().unwrap()));

        // Cold run on a *second* fresh server: bit-identical labels and Q,
        // proving the cached value equals what a fresh computation under
        // the same options would produce.
        let server2 = manual(16);
        let cold2_id = server2.submit(Arc::clone(&graph), opts).unwrap();
        server2.run_until_idle();
        let cold2 = server2.await_result(cold2_id);
        let cold2_res = cold2.result().expect("second cold run completes");
        assert_eq!(cold_res.modularity.to_bits(), cold2_res.modularity.to_bits());
        assert_eq!(cold_res.partition, cold2_res.partition);

        // Backend equivalence: every profile agrees bit-for-bit.
        let labels = cold_res.partition.as_slice().to_vec();
        match &baseline {
            None => baseline = Some((cold_res.modularity.to_bits(), labels)),
            Some((q_bits, base_labels)) => {
                assert_eq!(*q_bits, cold_res.modularity.to_bits(), "{profile:?} changes Q");
                assert_eq!(base_labels, &labels, "{profile:?} changes labels");
            }
        }
    }
}

#[test]
fn profiles_share_one_cache_line() {
    // The execution profile is scheduling, not semantics: the three-way
    // equivalence suite makes results bit-identical across profiles, so the
    // content key deliberately ignores the profile. A job computed under one
    // profile must therefore warm the cache for every other — resubmitting
    // under a different profile is a cache hit, not a recompute.
    let graph = Arc::new(cliques(6, 8, true));
    let server = manual(16);
    let cold_id = server
        .submit(Arc::clone(&graph), JobOptions::default().with_profile(Profile::Parallel))
        .unwrap();
    server.run_until_idle();
    let cold_res = server.await_result(cold_id).result().expect("cold run completes").clone();

    for profile in [Profile::Instrumented, Profile::Racecheck] {
        let id =
            server.submit(Arc::clone(&graph), JobOptions::default().with_profile(profile)).unwrap();
        match server.await_result(id) {
            JobOutcome::Completed { path: ExecPath::CacheHit, result } => {
                assert!(Arc::ptr_eq(&cold_res, &result), "{profile:?} should share the Arc");
            }
            other => panic!("{profile:?} resubmission should hit the cache, got {other:?}"),
        }
    }
    let m = server.metrics();
    assert_eq!((m.cache.misses, m.cache.hits), (1, 2), "one compute serves all three profiles");
}

#[test]
fn oversized_jobs_run_the_pooled_multi_device_path() {
    // Shrink device memory below the workload's footprint so placement
    // must take the exclusive multi-device path.
    let graph = Arc::new(cd_workloads::load("road-usa", Scale::Tiny).unwrap().graph);
    let footprint = cd_core::estimated_device_bytes(&graph);
    let mut device = DeviceConfig::tesla_k40m();
    device.global_mem_bytes = footprint * 3 / 4;
    let server = Server::new(ServerConfig {
        workers: 0,
        num_devices: 2,
        device,
        ..ServerConfig::test_manual()
    });
    let id = server.submit(graph, JobOptions::default()).unwrap();
    server.run_until_idle();
    match server.await_result(id) {
        JobOutcome::Completed { path: ExecPath::DevicePool { devices: 2, .. }, result } => {
            assert!(result.modularity > 0.0);
        }
        other => panic!("expected the pooled path, got {other:?}"),
    }
    let m = server.metrics();
    assert_eq!(m.pooled_jobs, 1);
    // The pooled path is the sharded out-of-core engine: the job must be
    // counted as sharded, with actual halo exchange traffic on record.
    assert_eq!(m.sharded_jobs, 1);
    assert!(m.exchange_rounds > 0, "a sharded run supersteps at least once");
    assert!(m.ghost_bytes > 0, "cut edges must have produced ghost updates");
}

#[test]
fn pool_exhaustion_without_fallback_fails_with_a_typed_error() {
    // Memory far too small even for per-device blocks, and degradation
    // disabled: the failover ladder runs dry and the error propagates.
    let graph = Arc::new(cd_workloads::load("road-usa", Scale::Tiny).unwrap().graph);
    let mut device = DeviceConfig::tesla_k40m();
    device.global_mem_bytes = 4096;
    let server = Server::new(ServerConfig {
        workers: 0,
        num_devices: 2,
        device,
        sequential_fallback: false,
        ..ServerConfig::test_manual()
    });
    let id = server.submit(graph, JobOptions::default()).unwrap();
    server.run_until_idle();
    match server.await_result(id) {
        JobOutcome::Failed(err) => {
            // The typed chain stays intact through the service boundary.
            let _: &cd_core::GpuLouvainError = &err;
        }
        other => panic!("expected a typed failure, got {other:?}"),
    }
    assert_eq!(server.metrics().failed, 1);
}

#[test]
fn seeded_trace_is_deterministic_lossless_and_reuses_work() {
    let cfg = TraceConfig {
        seed: 7,
        clients: 4,
        passes: 2,
        duplicates: 2,
        scale: Scale::Tiny,
        workloads: vec!["com-dblp".into(), "cnr2000".into()],
        base: JobOptions::default(),
        vary_pruning: true,
        oversized: None,
    };
    let run = |cfg: &TraceConfig| {
        let mut server = Server::new(ServerConfig {
            workers: 2,
            queue_capacity: 8,
            ..ServerConfig::test_manual()
        });
        let report = run_trace(&server, cfg).unwrap();
        server.shutdown();
        report
    };
    let a = run(&cfg);
    let b = run(&cfg);

    // 2 workloads × 2 pruning × 2 duplicates × 2 passes.
    assert_eq!(a.records.len(), 16);
    assert_eq!((a.lost, a.duplicated), (0, 0));
    assert_eq!((b.lost, b.duplicated), (0, 0));
    assert_eq!(a.completed(), 16);

    // Each of the 4 distinct content keys is computed exactly once; the
    // other 12 submissions reuse (cache hit or coalesced).
    let m = &a.metrics;
    assert_eq!(m.cache.hits + m.cache.coalesced, 12);
    assert_eq!(m.cache.misses, 4);
    assert!(a.results_consistent(), "reused results must be bit-identical");

    // Two replays of the same seed agree on every semantic outcome.
    assert_eq!(a.result_digest(), b.result_digest());
}
