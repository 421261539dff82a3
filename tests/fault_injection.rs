//! Fault-injection integration tests: the acceptance criteria of the
//! fault-tolerance work.
//!
//! With a seeded [`FaultPlan`] on the device, runs must (1) replay the
//! identical fault schedule and produce the identical result for the same
//! seed, (2) complete despite injected kernel aborts, watchdog timeouts, and
//! bit flips, with modularity close to the fault-free run, and (3) leave
//! fault-free behavior bitwise unchanged. Degenerate inputs must flow through
//! both public entry points without panicking.

use community_gpu::core::UpdateStrategy;
use community_gpu::gpusim::{FaultPlan, Profile};
use community_gpu::prelude::*;

/// Launch faults only: kernel aborts and watchdog timeouts, no bit flips.
/// Every injected fault fails one attempt, so a completed run must have
/// detected each of them.
fn launch_plan(seed: u64) -> FaultPlan {
    // Per-launch rates: a stage makes on the order of a hundred launches, so
    // even sub-percent rates fail most stage attempts at least once per run.
    FaultPlan::seeded(seed).with_abort_rate(0.01).with_stuck_rate(0.005)
}

/// [`launch_plan`] plus bit flips.
fn plan(seed: u64) -> FaultPlan {
    launch_plan(seed).with_bitflip_rate(0.001)
}

/// Paper-default algorithm config with a roomier retry budget — the injected
/// rates above make a single stage attempt fail more often than not.
fn cfg() -> GpuLouvainConfig {
    let mut cfg = GpuLouvainConfig::paper_default();
    cfg.retry.max_attempts = 10;
    cfg
}

fn faulty_device(plan: FaultPlan) -> Device {
    // Fault injection lives in the instrumented launch path, so these tests
    // pin the profile — the env-var default may be `Parallel`, which
    // rejects active fault plans.
    Device::new(
        DeviceConfig::tesla_k40m().with_profile(Profile::Instrumented).with_fault_plan(plan),
    )
}

fn test_graph() -> Csr {
    community_gpu::graph::gen::planted_partition(6, 30, 0.4, 0.02, 5).graph
}

#[test]
fn same_seed_same_fault_schedule_same_result() {
    let g = test_graph();
    let cfg = cfg();
    let (da, db) = (faulty_device(plan(42)), faulty_device(plan(42)));
    let a = louvain_gpu(&da, &g, &cfg).expect("run a");
    let b = louvain_gpu(&db, &g, &cfg).expect("run b");
    assert_eq!(a.partition.as_slice(), b.partition.as_slice(), "partitions diverge");
    assert_eq!(a.modularity, b.modularity);
    let (fa, fb) = (da.fault_stats(), db.fault_stats());
    assert_eq!(fa, fb, "fault schedules diverge: {fa:?} vs {fb:?}");
    assert!(fa.injected() > 0, "the plan should actually inject faults");
}

#[test]
fn incremental_modularity_resyncs_under_faults() {
    // resync_interval = 1 checks the incrementally-tracked Q against a full
    // device recompute every iteration (within 1e-9, else the stage fails
    // and retries) — here with faults injected, under both update
    // strategies and both pruning settings. Completion means every resync
    // on the surviving attempts agreed.
    let g = test_graph();
    for strategy in [UpdateStrategy::PerBucket, UpdateStrategy::Relaxed] {
        for pruning in [false, true] {
            let mut cfg = cfg();
            cfg.update_strategy = strategy;
            cfg.pruning = pruning;
            cfg.resync_interval = 1;
            let dev = faulty_device(plan(17));
            let out = louvain_gpu(&dev, &g, &cfg)
                .unwrap_or_else(|e| panic!("{strategy:?} pruning={pruning}: {e}"));
            assert!(out.modularity > 0.0, "{strategy:?} pruning={pruning}");
        }
    }
}

#[test]
fn different_seeds_draw_different_schedules() {
    let g = test_graph();
    let cfg = cfg();
    let (da, db) = (faulty_device(plan(1)), faulty_device(plan(2)));
    louvain_gpu(&da, &g, &cfg).expect("seed 1");
    louvain_gpu(&db, &g, &cfg).expect("seed 2");
    assert_ne!(da.fault_stats(), db.fault_stats());
}

#[test]
fn completes_under_faults_with_modularity_within_5_percent() {
    let g = test_graph();
    let cfg = cfg();
    let clean = louvain_gpu(&Device::k40m(), &g, &cfg).expect("fault-free run");
    // Not every seed draws a fault on a run this short; scan a range and
    // require that a healthy number of schedules actually injected.
    let mut injected_runs = 0;
    for seed in 1u64..=12 {
        let dev = faulty_device(plan(seed));
        let res = louvain_gpu(&dev, &g, &cfg)
            .unwrap_or_else(|e| panic!("seed {seed} failed to recover: {e}"));
        if dev.fault_stats().injected() > 0 {
            injected_runs += 1;
        }
        assert!(
            res.modularity >= 0.95 * clean.modularity,
            "seed {seed}: faulty Q {:.4} below 95% of clean Q {:.4}",
            res.modularity,
            clean.modularity
        );
    }
    assert!(injected_runs >= 3, "only {injected_runs}/12 seeds injected faults");
}

#[test]
fn recoveries_are_counted() {
    // Launch faults only (no bit flips): every transient failure must be
    // detected, and the run only succeeds if each one was later recovered.
    let g = test_graph();
    let cfg = cfg();
    let dev = faulty_device(launch_plan(7));
    louvain_gpu(&dev, &g, &cfg).expect("should recover");
    let stats = dev.fault_stats();
    assert!(stats.injected() > 0);
    assert!(stats.detected > 0, "injected faults should be detected: {stats:?}");
    assert!(stats.recovered > 0, "a successful run must have recovered: {stats:?}");
}

#[test]
fn fault_off_device_reports_zero_faults() {
    let g = test_graph();
    let dev = Device::k40m();
    let res = louvain_gpu(&dev, &g, &GpuLouvainConfig::paper_default()).unwrap();
    let stats = dev.fault_stats();
    assert_eq!(stats.injected(), 0);
    assert_eq!(stats.detected, 0);
    assert_eq!(stats.recovered, 0);
    assert!(res.modularity > 0.0);
}

#[test]
fn multi_gpu_completes_under_faults_and_reports_recovery() {
    let g = community_gpu::graph::gen::planted_partition(8, 32, 0.4, 0.01, 9).graph;
    let clean = louvain_multi_gpu(&g, &MultiGpuConfig::k40m(4)).expect("clean run");
    let mut cfg = MultiGpuConfig::k40m(4);
    cfg.gpu.retry.max_attempts = 10;
    cfg.device = cfg.device.with_profile(Profile::Instrumented).with_fault_plan(plan(11));
    let res = louvain_multi_gpu(&g, &cfg).expect("faulty run should complete");
    assert!(res.faults.injected() > 0, "devices should inject faults");
    assert!(
        res.modularity >= 0.95 * clean.modularity,
        "faulty multi-GPU Q {:.4} below 95% of clean Q {:.4}",
        res.modularity,
        clean.modularity
    );
    assert!(clean.recovery.is_empty());
}

#[test]
fn multi_gpu_failover_gives_the_same_answer() {
    // One attempt per stage: the first fault on a device fails its block,
    // marks the device down and moves the block on. Under this seeded
    // schedule block 0 walks from device 0 to device 2, and block 1 skips its
    // downed home device without a second failover.
    let g = community_gpu::graph::gen::planted_partition(8, 32, 0.4, 0.01, 9).graph;
    let clean = louvain_multi_gpu(&g, &MultiGpuConfig::k40m(4)).expect("clean run");
    let mut cfg = MultiGpuConfig::k40m(4);
    cfg.gpu.retry.max_attempts = 1;
    cfg.device = cfg
        .device
        .with_profile(Profile::Instrumented)
        .with_fault_plan(FaultPlan::seeded(6).with_abort_rate(0.002));
    let res = louvain_multi_gpu(&g, &cfg).expect("failover should save the run");
    assert_eq!(res.partition.as_slice(), clean.partition.as_slice(), "labels diverge");
    assert_eq!(res.modularity.to_bits(), clean.modularity.to_bits(), "Q bits diverge");
    let failover = |from_device, to_device| RecoveryAction::Failover {
        scope: "block 0".to_string(),
        from_device,
        to_device,
    };
    assert_eq!(res.recovery, vec![failover(0, 1), failover(1, 2)]);
    assert!(clean.recovery.is_empty());
}

#[test]
fn multi_gpu_fault_schedule_is_reproducible() {
    let g = test_graph();
    let mut cfg = MultiGpuConfig::k40m(3);
    cfg.gpu.retry.max_attempts = 10;
    cfg.device = cfg.device.with_profile(Profile::Instrumented).with_fault_plan(plan(23));
    let a = louvain_multi_gpu(&g, &cfg).expect("run a");
    let b = louvain_multi_gpu(&g, &cfg).expect("run b");
    assert_eq!(a.partition.as_slice(), b.partition.as_slice());
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.recovery, b.recovery);
}

#[test]
fn multi_gpu_survives_a_hopeless_device_via_fallback() {
    // Abort every launch: no device can ever finish, so every block and the
    // refinement must degrade to the sequential baseline — and still return
    // a sound clustering.
    let g = test_graph();
    let mut cfg = MultiGpuConfig::k40m(2);
    cfg.device = cfg
        .device
        .with_profile(Profile::Instrumented)
        .with_fault_plan(FaultPlan::seeded(5).with_abort_rate(1.0));
    let res = louvain_multi_gpu(&g, &cfg).expect("sequential fallback should save the run");
    assert!(res.modularity > 0.0);
    assert!(
        res.recovery.iter().any(|a| matches!(a, RecoveryAction::SequentialFallback { .. })),
        "expected sequential fallbacks, got {:?}",
        res.recovery
    );
    // With fallback disabled the same run must fail loudly, not hang or
    // panic.
    cfg.sequential_fallback = false;
    let err = louvain_multi_gpu(&g, &cfg).expect_err("no fallback, no result");
    assert!(matches!(err, GpuLouvainError::StageFailed { .. }), "got {err:?}");
}

#[test]
fn exhausted_retries_surface_as_stage_failed() {
    let g = test_graph();
    let cfg = GpuLouvainConfig::paper_default();
    for algorithm in Algorithm::ALL {
        let dev = Device::new(
            DeviceConfig::tesla_k40m()
                .with_profile(Profile::Instrumented)
                .with_fault_plan(FaultPlan::seeded(1).with_abort_rate(1.0)),
        );
        let err = detect_communities(&dev, &g, &cfg, algorithm).expect_err("every launch aborts");
        match err {
            GpuLouvainError::StageFailed { stage, attempts, cause } => {
                assert_eq!(stage, 0, "{algorithm}");
                assert_eq!(attempts, cfg.retry.max_attempts, "{algorithm}");
                assert!(matches!(*cause, GpuLouvainError::Launch(_)), "{algorithm}: {cause:?}");
            }
            other => panic!("{algorithm}: expected StageFailed, got {other:?}"),
        }
        let stats = dev.fault_stats();
        assert!(stats.detected >= stats.recovered, "{algorithm}");
    }
}

/// Runs `run` fault-free and then on ten launch-faulty devices: every
/// faulty run must complete with the fault-free labels and Q bits and
/// detect every fault it was dealt.
fn assert_recovers_exactly(name: &str, run: impl Fn(&Device) -> GpuLouvainResult) {
    let clean = run(&Device::k40m());
    let mut injected = 0;
    for seed in 0u64..10 {
        let dev = faulty_device(launch_plan(seed));
        let res = run(&dev);
        assert_eq!(res.partition.as_slice(), clean.partition.as_slice(), "{name} seed {seed}");
        assert_eq!(res.modularity.to_bits(), clean.modularity.to_bits(), "{name} seed {seed}");
        let faults = dev.fault_stats();
        assert_eq!(faults.detected, faults.injected(), "{name} seed {seed}: {faults:?}");
        injected += faults.injected();
    }
    assert!(injected > 0, "{name}: no seed injected a fault");
}

#[test]
fn every_algorithm_recovers_the_fault_free_answer() {
    let g = test_graph();
    let cfg = cfg();
    for algorithm in Algorithm::ALL {
        assert_recovers_exactly(algorithm.label(), |dev| {
            detect_communities(dev, &g, &cfg, algorithm)
                .unwrap_or_else(|e| panic!("{algorithm} failed to recover: {e}"))
        });
    }
}

#[test]
fn warm_start_recovers_the_fault_free_answer() {
    let g = test_graph();
    let cfg = cfg();
    let seed = louvain_gpu(&Device::k40m(), &g, &cfg).expect("seed run");
    let batch = community_gpu::workloads::churn(&g, 11, 0.05);
    let (patched, touched) =
        community_gpu::graph::apply_delta(&g, &batch).expect("churn batches apply cleanly");
    assert_recovers_exactly("warm start", |dev| {
        community_gpu::core::louvain_warm_start(dev, &patched, &cfg, &seed.partition, &touched)
            .unwrap_or_else(|e| panic!("warm start failed to recover: {e}"))
    });
}

// ---- degenerate inputs through both public entry points -------------------

fn degenerate_graphs() -> Vec<(&'static str, Csr)> {
    let mut isolated = GraphBuilder::new(5);
    isolated.add_unit_edge(0, 1); // vertices 2..5 isolated
    let mut self_loops = GraphBuilder::new(3);
    self_loops.add_edge(0, 0, 2.0);
    self_loops.add_edge(1, 1, 1.0);
    self_loops.add_edge(2, 2, 3.5);
    // GraphBuilder rejects non-positive weights, so a zero-weight graph is
    // assembled from raw parts (total weight 2m = 0 exercises the division
    // guards).
    let zero_weight =
        Csr::from_parts(vec![0, 1, 2, 3, 4], vec![1, 0, 3, 2], vec![0.0, 0.0, 0.0, 0.0]);
    vec![
        ("empty", Csr::empty(0)),
        ("single vertex", Csr::empty(1)),
        ("edgeless", Csr::empty(6)),
        ("isolated vertices", isolated.build()),
        ("self-loops only", self_loops.build()),
        ("zero-weight edges", zero_weight),
    ]
}

#[test]
fn degenerate_inputs_never_panic_single_gpu() {
    for (name, g) in degenerate_graphs() {
        for seed in [0u64, 9] {
            let dev = if seed == 0 { Device::k40m() } else { faulty_device(plan(seed)) };
            let res = louvain_gpu(&dev, &g, &cfg())
                .unwrap_or_else(|e| panic!("{name} (seed {seed}): {e}"));
            assert_eq!(res.partition.len(), g.num_vertices(), "{name}");
            assert!(res.modularity.is_finite(), "{name}");
        }
    }
}

#[test]
fn degenerate_inputs_never_panic_multi_gpu() {
    for (name, g) in degenerate_graphs() {
        for devices in [1usize, 3] {
            let res = louvain_multi_gpu(&g, &MultiGpuConfig::k40m(devices))
                .unwrap_or_else(|e| panic!("{name} ({devices} devices): {e}"));
            assert_eq!(res.partition.len(), g.num_vertices(), "{name}");
            assert!(res.modularity.is_finite(), "{name}");
        }
    }
}
