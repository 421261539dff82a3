//! Fault injection on the sharded path. Each case runs `louvain_sharded` on
//! Instrumented shard devices under a seeded fault plan and checks that
//! recovery changes *where* a shard pass runs, never *what* it returns:
//! labels, Q bits and exchange counts equal the fault-free run, and the
//! recovery log holds exactly the expected kinds of action. A pass that is
//! retried, failed over or replayed on the host reads the same incremental
//! community tables, so these runs also pin that the tables survive a pass
//! that is re-run elsewhere.
//!
//! The last three cases run past the sharded level into the single-device
//! finish of the coarse level, whose ladder ends in the sequential Louvain
//! baseline: failover there is bit-identical too, while the sequential last
//! resort is held to a measured quality band instead.

use cd_core::{estimated_device_bytes, RecoveryAction, RetryPolicy};
use cd_dist::{louvain_sharded, DistConfig, DistResult};
use cd_gpusim::{FaultPlan, Profile};
use cd_graph::gen::{rmat, RmatParams};
use cd_graph::Csr;
use std::time::Duration;

const SHARDS: usize = 3;

fn graph() -> Csr {
    rmat(9, 6, RmatParams::GRAPH500, 11)
}

/// Three Instrumented shard devices sized below the graph (so the input
/// level must shard), `max_attempts` tries per pass and no backoff sleep.
/// The run stops after the sharded input level: the single-device finish
/// of a coarse level has its own stage retries, and its last resort is the
/// sequential Louvain baseline, a different algorithm, so only the sharded
/// level can be compared bit for bit under every plan.
fn config(g: &Csr, plan: FaultPlan, max_attempts: usize) -> DistConfig {
    DistConfig { max_levels: 1, ..finish_config(g, plan, max_attempts) }
}

/// [`config`] without the level cap: the coarse level that fits one device
/// runs the single-device finish and its recovery ladder.
fn finish_config(g: &Csr, plan: FaultPlan, max_attempts: usize) -> DistConfig {
    let mut cfg = DistConfig::k40m(SHARDS).with_retry(RetryPolicy {
        max_attempts,
        backoff_base: Duration::ZERO,
        backoff_multiplier: 1,
    });
    cfg.device = cfg.device.with_profile(Profile::Instrumented).with_fault_plan(plan);
    cfg.device.global_mem_bytes = estimated_device_bytes(g) * 4 / 5;
    cfg
}

fn run(g: &Csr, cfg: &DistConfig) -> DistResult {
    louvain_sharded(g, cfg).expect("sharded run completes")
}

fn assert_same_answer(faulty: &DistResult, clean: &DistResult) {
    assert_eq!(faulty.partition.as_slice(), clean.partition.as_slice(), "labels diverge");
    assert_eq!(faulty.modularity.to_bits(), clean.modularity.to_bits(), "Q bits diverge");
    let (f, c) = (&faulty.telemetry, &clean.telemetry);
    assert_eq!(f.exchange_rounds, c.exchange_rounds);
    assert_eq!(f.ghost_updates, c.ghost_updates);
    assert_eq!(f.ghost_bytes, c.ghost_bytes);
    assert_eq!(f.lost_labels, 0);
    assert_eq!(f.ownership_violations, 0);
    assert!(c.recovery.is_empty() && !c.degraded, "the reference run must be fault-free");
}

/// (local retries, failovers, sequential fallbacks) in the recovery log.
fn kinds(r: &DistResult) -> (usize, usize, usize) {
    let count =
        |f: fn(&RecoveryAction) -> bool| r.telemetry.recovery.iter().filter(|a| f(a)).count();
    (
        count(|a| matches!(a, RecoveryAction::LocalRetry { .. })),
        count(|a| matches!(a, RecoveryAction::Failover { .. })),
        count(|a| matches!(a, RecoveryAction::SequentialFallback { .. })),
    )
}

#[test]
fn aborted_and_stuck_passes_retry_on_their_home_device() {
    let g = graph();
    let clean = run(&g, &config(&g, FaultPlan::disabled(), 10));
    let plan = FaultPlan::seeded(7).with_abort_rate(0.05).with_stuck_rate(0.02);
    let faulty = run(&g, &config(&g, plan, 10));
    assert_same_answer(&faulty, &clean);
    let (retries, failovers, fallbacks) = kinds(&faulty);
    assert!(retries > 0, "the plan should force retries: {:?}", faulty.telemetry.recovery);
    assert_eq!((failovers, fallbacks), (0, 0), "{:?}", faulty.telemetry.recovery);
    assert!(!faulty.telemetry.degraded);
    assert!(faulty.telemetry.faults.injected() > 0);
    // Every failed pass attempt is a detected fault (71 on this plan), and
    // each retried pass is one recovery, which its `LocalRetry` reports.
    let faults = &faulty.telemetry.faults;
    assert_eq!(faults.detected, faults.injected(), "{faults:?}");
    assert_eq!(faults.recovered, local_recoveries(&faulty), "{faults:?}");
}

#[test]
fn a_failed_device_hands_its_passes_to_the_next_healthy_one() {
    // One attempt per pass: the first fault on a device marks it down and
    // its pass moves to the next healthy device. Under this seeded schedule
    // two devices fail and the third carries every later pass.
    let g = graph();
    let clean = run(&g, &config(&g, FaultPlan::disabled(), 1));
    let faulty = run(&g, &config(&g, FaultPlan::seeded(3).with_abort_rate(0.001), 1));
    assert_same_answer(&faulty, &clean);
    assert_eq!(kinds(&faulty), (0, 2, 0), "{:?}", faulty.telemetry.recovery);
    assert!(!faulty.telemetry.degraded);
}

#[test]
fn with_every_device_down_passes_replay_on_the_host() {
    // Every launch aborts, so every pass ends on `halo_move_host`.
    let g = graph();
    let clean = run(&g, &config(&g, FaultPlan::disabled(), 1));
    let faulty = run(&g, &config(&g, FaultPlan::seeded(5).with_abort_rate(1.0), 1));
    assert_same_answer(&faulty, &clean);
    // The first pass walks the whole ladder: home device, then each other
    // device once; every later pass finds no healthy device.
    let (retries, failovers, fallbacks) = kinds(&faulty);
    assert_eq!((retries, failovers), (0, SHARDS - 1), "{:?}", faulty.telemetry.recovery);
    assert!(fallbacks > 1, "every pass should fall back: {:?}", faulty.telemetry.recovery);
    assert!(faulty.telemetry.degraded);
}

/// Sum of `recoveries` over the `LocalRetry` actions in the recovery log.
fn local_recoveries(r: &DistResult) -> u64 {
    r.telemetry
        .recovery
        .iter()
        .map(|a| match a {
            RecoveryAction::LocalRetry { recoveries, .. } => *recoveries,
            _ => 0,
        })
        .sum()
}

/// Finish-level actions in the recovery log: (failovers, sequential
/// fallbacks).
fn finish_kinds(r: &DistResult) -> (usize, usize) {
    let log = &r.telemetry.recovery;
    let finish = |scope: &str| scope == "finish";
    (
        log.iter()
            .filter(|a| matches!(a, RecoveryAction::Failover { scope, .. } if finish(scope)))
            .count(),
        log.iter()
            .filter(|a| matches!(a, RecoveryAction::SequentialFallback { scope } if finish(scope)))
            .count(),
    )
}

#[test]
fn a_device_failing_the_finish_hands_it_to_the_next_healthy_one() {
    // Under this seeded schedule the sharded level runs clean, then device
    // 0 aborts a launch of the finish and the finish reruns on device 1.
    let g = graph();
    let clean = run(&g, &finish_config(&g, FaultPlan::disabled(), 1));
    assert_eq!((clean.telemetry.levels, clean.telemetry.sharded_levels), (2, 1));
    let faulty = run(&g, &finish_config(&g, FaultPlan::seeded(1).with_abort_rate(0.001), 1));
    assert_same_answer(&faulty, &clean);
    assert_eq!(
        faulty.telemetry.recovery,
        vec![RecoveryAction::Failover {
            scope: "finish".to_string(),
            from_device: 0,
            to_device: 1
        }]
    );
    assert!(!faulty.telemetry.degraded);
}

#[test]
fn stage_retries_of_the_finish_are_logged_and_change_nothing() {
    // Under this seeded schedule device 0 retries one stage of the finish
    // and completes it: no failover, and the same answer as the clean run.
    let g = graph();
    let clean = run(&g, &finish_config(&g, FaultPlan::disabled(), 3));
    let plan = FaultPlan::seeded(1).with_abort_rate(0.001).with_stuck_rate(0.0005);
    let faulty = run(&g, &finish_config(&g, plan, 3));
    assert_same_answer(&faulty, &clean);
    assert_eq!(finish_kinds(&faulty), (0, 0), "{:?}", faulty.telemetry.recovery);
    assert!(
        faulty
            .telemetry
            .recovery
            .iter()
            .any(|a| matches!(a, RecoveryAction::LocalRetry { scope, .. } if scope == "finish")),
        "{:?}",
        faulty.telemetry.recovery
    );
    assert!(!faulty.telemetry.degraded);
}

/// How far the sequential last resort may land from the GPU finish, in Q.
/// Measured on [`graph`]: the coarse level finished by the sequential
/// baseline gives Q = 0.170433, finished on a device Q = 0.161208, a gap of
/// 0.009225 (the host baseline, with its own move order, finds the better
/// partition here).
const SEQUENTIAL_FINISH_BAND: f64 = 0.0093;

#[test]
fn with_every_device_down_the_finish_falls_back_to_the_sequential_baseline() {
    // Every launch aborts: each pass of the sharded level replays on the
    // host, every device is down by the finish, and the finish runs the
    // sequential baseline exactly once.
    let g = graph();
    let clean = run(&g, &finish_config(&g, FaultPlan::disabled(), 1));
    let faulty = run(&g, &finish_config(&g, FaultPlan::seeded(5).with_abort_rate(1.0), 1));
    assert_eq!(finish_kinds(&faulty), (0, 1), "{:?}", faulty.telemetry.recovery);
    assert!(faulty.telemetry.degraded);
    assert_eq!(faulty.telemetry.levels, clean.telemetry.levels);
    assert_eq!(faulty.partition.len(), clean.partition.len());
    let gap = faulty.modularity - clean.modularity;
    assert!(
        gap.abs() <= SEQUENTIAL_FINISH_BAND,
        "sequential finish Q {} vs GPU finish Q {} (gap {gap:.6})",
        faulty.modularity,
        clean.modularity
    );
}
