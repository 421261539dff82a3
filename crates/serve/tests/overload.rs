//! Overload and recovery tests: the expiry checkpoint taxonomy, SLO-aware
//! shedding, device circuit breakers with failover, and cache snapshot
//! warm/cold starts.
//!
//! Like `serve.rs`, most tests drive the server in manual mode
//! (`workers = 0`) so each checkpoint is hit deterministically by the test
//! thread. Worker threads appear only in the concurrent accounting test,
//! which is about settlement under contention rather than any particular
//! interleaving.

use cd_gpusim::{FaultPlan, Profile};
use cd_graph::{Csr, GraphBuilder, VertexId};
use cd_serve::{
    BreakerConfig, ExecPath, JobOptions, JobOutcome, JobStatus, Rejected, Server, ServerConfig,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

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

/// A scratch path under the target-adjacent temp dir, unique per test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cd-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
}

// ---------------------------------------------------------------- expiry --

#[test]
fn passed_deadline_expires_exactly_once_at_the_sweep_checkpoint() {
    let server = manual();
    let id = server.submit(ring(90), JobOptions::default().with_deadline(Duration::from_millis(2)));
    let id = id.unwrap();
    std::thread::sleep(Duration::from_millis(10));

    // The sweep finds the stale job without anything being dequeued.
    assert_eq!(server.sweep_expired(), 1);
    assert_eq!(server.status(id), Some(JobStatus::Expired));
    match server.await_result(id) {
        JobOutcome::Expired { stage: None } => {}
        other => panic!("expected queue-level expiry, got {other:?}"),
    }
    // Exactly once: a second sweep and a drain both find nothing.
    assert_eq!(server.sweep_expired(), 0);
    assert!(!server.process_one());
    let m = server.metrics();
    assert_eq!((m.expired, m.expired_sweep, m.expired_dequeue), (1, 1, 0));
    assert_eq!(m.queue_depth, 0);
}

#[test]
fn passed_deadline_expires_exactly_once_at_the_dequeue_checkpoint() {
    let server = manual();
    let id = server.submit(ring(91), JobOptions::default().with_deadline(Duration::from_millis(2)));
    let id = id.unwrap();
    std::thread::sleep(Duration::from_millis(10));

    // No sweep: the dequeue checkpoint catches it on the next dispatch.
    server.run_until_idle();
    match server.await_result(id) {
        JobOutcome::Expired { stage: None } => {}
        other => panic!("expected dequeue-level expiry, got {other:?}"),
    }
    assert_eq!(server.sweep_expired(), 0);
    let m = server.metrics();
    assert_eq!((m.expired, m.expired_dequeue, m.expired_sweep), (1, 1, 0));
}

#[test]
fn expiry_checkpoint_counters_partition_the_total() {
    // One job per checkpoint: admission (zero deadline), sweep, dequeue.
    let server = manual();
    let at_admission =
        server.submit(ring(92), JobOptions::default().with_deadline(Duration::ZERO)).unwrap();
    let at_sweep = server
        .submit(ring(93), JobOptions::default().with_deadline(Duration::from_millis(2)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(10));
    assert_eq!(server.sweep_expired(), 1);
    let at_dequeue = server
        .submit(ring(94), JobOptions::default().with_deadline(Duration::from_millis(2)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(10));
    server.run_until_idle();

    for id in [at_admission, at_sweep, at_dequeue] {
        assert_eq!(server.status(id), Some(JobStatus::Expired));
    }
    let m = server.metrics();
    assert_eq!((m.expired_admission, m.expired_sweep, m.expired_dequeue), (1, 1, 1));
    assert_eq!(
        m.expired,
        m.expired_admission
            + m.expired_sweep
            + m.expired_dequeue
            + m.expired_stage
            + m.expired_settle
    );
    assert_eq!(m.expired, 3);
}

#[test]
fn concurrent_submit_and_cancel_settle_every_job_exactly_once() {
    // Worker-mode server under a burst of submissions with mixed deadlines
    // while another thread cancels half of them. The invariant under test
    // is accounting: every admitted job reaches exactly one terminal state
    // and the expiry checkpoint counters sum to the expiry total. Shedding
    // is off: once a worker settles a job the estimator is warm, and it
    // would refuse the 1 ms jobs at the door depending on how fast the
    // workers run (its own tests are `warmed_estimator_sheds_…` and
    // `cold_estimator_never_sheds`). With it off, every submission here is
    // admitted, whatever the host's speed.
    let server = Server::new(ServerConfig {
        workers: 2,
        queue_capacity: 64,
        sweep_interval: Duration::from_millis(1),
        shed_unattainable: false,
        ..ServerConfig::test_manual()
    });
    let mut ids = Vec::new();
    for i in 0..24usize {
        let opts = match i % 3 {
            0 => JobOptions::default(),
            1 => JobOptions::default().with_deadline(Duration::from_millis(1)),
            _ => JobOptions::default().with_deadline(Duration::from_secs(30)),
        };
        let id = server.submit(ring(100 + i), opts).unwrap();
        ids.push(id);
    }
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for (i, &id) in ids.iter().enumerate() {
                if i % 2 == 0 {
                    server.cancel(id);
                }
            }
        });
    });
    let outcomes: Vec<_> = ids.iter().map(|&id| server.await_result(id)).collect();
    // Terminal means terminal: a settled job's status never changes again.
    for (&id, outcome) in ids.iter().zip(&outcomes) {
        assert_eq!(server.status(id), Some(outcome.status()), "job {id:?} re-settled");
    }
    let m = server.metrics();
    assert_eq!(m.completed + m.cancelled + m.expired + m.failed, ids.len() as u64);
    assert_eq!(
        m.expired,
        m.expired_admission
            + m.expired_sweep
            + m.expired_dequeue
            + m.expired_stage
            + m.expired_settle
    );
    assert_eq!(m.failed, 0);
}

// -------------------------------------------------------------- shedding --

#[test]
fn warmed_estimator_sheds_unattainable_deadlines_at_the_door() {
    let server = manual();
    // Warm the execution-time estimator with one real run.
    let warm = server.submit(ring(64), JobOptions::default()).unwrap();
    server.run_until_idle();
    assert_eq!(server.status(warm), Some(JobStatus::Completed));
    assert_eq!(server.metrics().exec.count, 1);

    // A graph ~100× the warmup footprint cannot finish inside 1 ms; the
    // submission is refused synchronously with the honest reason.
    let big = ring(6400);
    match server.submit(big, JobOptions::default().with_deadline(Duration::from_millis(1))) {
        Err(Rejected::WontMeetDeadline { estimated, budget }) => {
            assert!(estimated > budget, "shed reason must be estimate > budget");
        }
        other => panic!("expected an SLO rejection, got {other:?}"),
    }
    let m = server.metrics();
    assert_eq!((m.rejected, m.rejected_slo), (1, 1));
    // Nothing was queued and nothing expired — the job never existed.
    assert_eq!((m.queue_depth, m.expired), (0, 0));
}

#[test]
fn cold_estimator_never_sheds() {
    // No run has completed: there is no evidence, so even an absurd
    // deadline is admitted (and expires at a checkpoint instead).
    let server = manual();
    let id = server
        .submit(ring(6400), JobOptions::default().with_deadline(Duration::from_millis(1)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(5));
    server.run_until_idle();
    assert_eq!(server.status(id), Some(JobStatus::Expired));
    assert_eq!(server.metrics().rejected_slo, 0);
}

// --------------------------------------------------------------- breaker --

/// A fault plan that kills every run on the device it is armed on.
fn lethal_plan() -> FaultPlan {
    FaultPlan::seeded(7).with_abort_rate(1.0)
}

#[test]
fn breaker_quarantines_faulty_device_and_failover_is_bit_identical() {
    let graphs: Vec<_> = (300..304).map(ring).collect();

    // Baseline: the same jobs fault-free.
    let baseline = manual();
    let expect: Vec<_> = graphs
        .iter()
        .map(|g| {
            let id = baseline
                .submit(Arc::clone(g), JobOptions::default().with_profile(Profile::Instrumented))
                .unwrap();
            baseline.run_until_idle();
            let outcome = baseline.await_result(id);
            let r = outcome.result().expect("baseline completes");
            (r.modularity.to_bits(), r.partition.as_slice().to_vec())
        })
        .collect();

    // Faulted: every job carries a plan that breaks device 0. With the
    // threshold at 3, jobs 1–3 fail on slot 0 and fail over to slot 1;
    // job 4 finds slot 0 quarantined and runs clean on slot 1. The backoff
    // is pinned far beyond the test's runtime so the quarantine cannot
    // lapse (and re-trip) between jobs on a slow debug build.
    let server = Server::new(ServerConfig {
        breaker: BreakerConfig {
            backoff_base: Duration::from_secs(600),
            ..BreakerConfig::default()
        },
        ..ServerConfig::test_manual()
    });
    let opts =
        JobOptions::default().with_profile(Profile::Instrumented).with_fault(0, lethal_plan());
    for (g, (q_bits, labels)) in graphs.iter().zip(&expect) {
        let id = server.submit(Arc::clone(g), opts).unwrap();
        server.run_until_idle();
        let outcome = server.await_result(id);
        let r = outcome.result().expect("failover completes");
        assert_eq!(r.modularity.to_bits(), *q_bits, "failover changed the result");
        assert_eq!(r.partition.as_slice(), labels.as_slice());
        match outcome {
            JobOutcome::Completed { path: ExecPath::FailedOver { device, attempts }, .. } => {
                assert_eq!(device, 1);
                assert!(attempts >= 2);
            }
            JobOutcome::Completed { path: ExecPath::SingleDevice { device }, .. } => {
                // Only possible once the breaker has opened.
                assert_eq!(device, 1);
                assert!(server.metrics().breaker_trips >= 1);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    let m = server.metrics();
    assert_eq!(m.breaker_trips, 1);
    assert_eq!(m.quarantined_devices, 1);
    assert_eq!(m.failed, 0);
    assert_eq!(m.completed, graphs.len() as u64);
    assert_eq!(m.failed_over_jobs, 3);
    assert!(m.retried_jobs >= 3);
}

#[test]
fn quarantined_device_is_reinstated_after_backoff() {
    let server = Server::new(ServerConfig {
        breaker: BreakerConfig {
            failure_threshold: 1,
            backoff_base: Duration::from_millis(5),
            ..BreakerConfig::default()
        },
        ..ServerConfig::test_manual()
    });
    let opts =
        JobOptions::default().with_profile(Profile::Instrumented).with_fault(0, lethal_plan());
    let id = server.submit(ring(310), opts).unwrap();
    server.run_until_idle();
    // Threshold 1: the single failure trips the breaker; the job fails over.
    match server.await_result(id) {
        JobOutcome::Completed { path: ExecPath::FailedOver { device: 1, .. }, .. } => {}
        other => panic!("expected failover, got {other:?}"),
    }
    assert_eq!(server.metrics().breaker_trips, 1);

    // After the backoff elapses the next placement lands on slot 0
    // (half-open) and its success fully closes the breaker.
    std::thread::sleep(Duration::from_millis(20));
    let clean = server.submit(ring(311), JobOptions::default()).unwrap();
    server.run_until_idle();
    match server.await_result(clean) {
        JobOutcome::Completed { path: ExecPath::SingleDevice { device: 0 }, .. } => {}
        other => panic!("expected a clean run on the reinstated device, got {other:?}"),
    }
    let m = server.metrics();
    assert_eq!(m.breaker_reinstatements, 1);
    assert_eq!(m.quarantined_devices, 0);
}

// ------------------------------------------------------------- snapshots --

#[test]
fn server_warm_starts_from_a_snapshot_file() {
    let path = scratch("warm.snap");
    let first = manual();
    let graphs: Vec<_> = (400..403).map(ring).collect();
    let expect: Vec<_> = graphs
        .iter()
        .map(|g| {
            let id = first.submit(Arc::clone(g), JobOptions::default()).unwrap();
            first.run_until_idle();
            let outcome = first.await_result(id);
            outcome.result().expect("completes").modularity.to_bits()
        })
        .collect();
    let entries = first.snapshot_cache_to(&path).expect("snapshot written");
    assert_eq!(entries, graphs.len());

    // A fresh server restores the snapshot and answers every key from it.
    let second =
        Server::new(ServerConfig { cache_snapshot: Some(path), ..ServerConfig::test_manual() });
    assert_eq!(second.metrics().cache_restored_entries, graphs.len() as u64);
    for (g, q_bits) in graphs.iter().zip(&expect) {
        let id = second.submit(Arc::clone(g), JobOptions::default()).unwrap();
        match second.await_result(id) {
            JobOutcome::Completed { path: ExecPath::CacheHit, result } => {
                assert_eq!(result.modularity.to_bits(), *q_bits);
            }
            other => panic!("warm start should hit the cache, got {other:?}"),
        }
    }
    let m = second.metrics();
    assert_eq!((m.cache.hits, m.cache.misses), (graphs.len() as u64, 0));
    assert_eq!(m.cache_restore_failures, 0);
}

#[test]
fn corrupt_snapshot_cold_starts_cleanly() {
    // Garbage, a truncated real snapshot, and a bit-flipped real snapshot:
    // each restore fails, is counted, and leaves a working empty cache.
    let donor = manual();
    let id = donor.submit(ring(420), JobOptions::default()).unwrap();
    donor.run_until_idle();
    donor.await_result(id);
    let real = donor.snapshot_cache();

    let mut flipped = real.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("garbage", b"not a snapshot at all".to_vec()),
        ("truncated", real[..real.len() / 2].to_vec()),
        ("bitflip", flipped),
    ];
    for (name, bytes) in cases {
        let path = scratch(&format!("corrupt-{name}.snap"));
        std::fs::write(&path, &bytes).unwrap();
        let server =
            Server::new(ServerConfig { cache_snapshot: Some(path), ..ServerConfig::test_manual() });
        let m = server.metrics();
        assert_eq!((m.cache_restore_failures, m.cache_restored_entries), (1, 0), "case {name}");
        // The server is fully functional on a clean cold cache.
        let id = server.submit(ring(421), JobOptions::default()).unwrap();
        server.run_until_idle();
        assert_eq!(server.status(id), Some(JobStatus::Completed), "case {name}");
    }
}

#[test]
fn missing_snapshot_path_is_a_silent_cold_start() {
    let server = Server::new(ServerConfig {
        cache_snapshot: Some(scratch("never-written.snap")),
        ..ServerConfig::test_manual()
    });
    let m = server.metrics();
    assert_eq!((m.cache_restore_failures, m.cache_restored_entries), (0, 0));
}
