//! Racecheck-profile coverage at the algorithm level.
//!
//! Three angles: a deliberately racy kernel — the exact bug class the
//! cooperative hash-table kernels had before the barriers were added — must
//! be flagged with an actionable report; the same kernel with the barriers
//! restored must be clean; and the full Louvain pipeline must come out
//! race-free on real workload generators (the false-positive guard).

use cd_core::hashtable::{TableSpace, TableStorage};
use cd_core::{louvain_gpu, GpuLouvainConfig};
use cd_gpusim::{Device, DeviceConfig, Profile, RaceClass, Racecheck};

fn rc_device() -> Device {
    Device::new(DeviceConfig::tesla_k40m().with_profile(Profile::Racecheck))
}

/// One cooperative-table task per block: reset the table, then insert from
/// every lane, then read a slot back. With `fixed = false` the
/// `__syncthreads()`-equivalents between the phases are omitted — the
/// plain-store sentinel fill can overlap another warp's CAS probes, and the
/// extraction read can overlap a straggler's insert.
fn table_fixture(fixed: bool) -> Device {
    const SLOTS: usize = 97;
    let dev = rc_device();
    let name = if fixed { "table-fixture-fixed" } else { "table-fixture-racy" };
    dev.exec::<Racecheck>().launch_tasks(
        name,
        2,
        128,
        SLOTS * 16,
        || TableStorage::new::<Racecheck>(SLOTS, 0),
        |ctx, storage, task| {
            let mut t = storage.table(SLOTS, TableSpace::Shared);
            t.reset(ctx);
            if fixed {
                ctx.barrier();
            }
            for lane in 0..ctx.lanes() as u32 {
                t.insert_add(ctx, (lane + task as u32) % 19, 1.0);
            }
            if fixed {
                ctx.barrier();
            }
            let _ = t.get(ctx, 3);
        },
    );
    dev
}

#[test]
fn racy_table_fixture_is_flagged_with_actionable_report() {
    let dev = table_fixture(false);
    let reports = dev.race_reports();
    assert!(!reports.is_empty(), "missing-barrier fixture must produce at least one report");
    assert!(dev.metrics().race_events() > 0);
    // Every report names the offending launch and chains back to the arena
    // allocated in this test via #[track_caller].
    for r in &reports {
        assert_eq!(r.kernel, "table-fixture-racy");
        assert!(
            r.origin.file().ends_with("race_detection.rs"),
            "arena origin should point at the test's TableStorage::new call, got {}",
            r.origin
        );
    }
    // The sentinel fill is a plain store and the probes are atomics, so the
    // missing barrier surfaces as a mixed atomic/plain hazard.
    assert!(
        reports.iter().any(|r| r.class == RaceClass::AtomicMix),
        "expected a mixed atomic/plain report, got: {}",
        reports.iter().map(|r| r.to_string()).collect::<Vec<_>>().join("\n")
    );
    // Both conflicting sites resolve to real source lines in this file.
    let r = &reports[0];
    assert!(r.first.site.file().ends_with("race_detection.rs"), "first site: {}", r.first.site);
    assert!(r.second.site.file().ends_with("race_detection.rs"), "second site: {}", r.second.site);
}

#[test]
fn barriered_table_fixture_is_clean() {
    let dev = table_fixture(true);
    let reports = dev.race_reports();
    assert!(
        reports.is_empty(),
        "fixed fixture flagged: {}",
        reports.iter().map(|r| r.to_string()).collect::<Vec<_>>().join("\n")
    );
    assert_eq!(dev.metrics().race_events(), 0);
}

#[test]
fn louvain_pipeline_is_race_free_on_workloads() {
    // Tiny scale keeps this test fast; the medium-scale sweep runs under
    // `repro racecheck` in cd-bench.
    for spec in cd_workloads::featured() {
        let built = spec.build(cd_workloads::Scale::Tiny);
        for pruning in [false, true] {
            let dev = rc_device();
            let mut cfg = GpuLouvainConfig::paper_default();
            cfg.pruning = pruning;
            let res = louvain_gpu(&dev, &built.graph, &cfg).unwrap();
            assert!(res.modularity.is_finite());
            let reports = dev.race_reports();
            assert!(
                reports.is_empty(),
                "{} (pruning={pruning}): {} hazard(s):\n{}",
                spec.name,
                reports.len(),
                reports.iter().map(|r| r.to_string()).collect::<Vec<_>>().join("\n")
            );
            assert_eq!(dev.metrics().race_events(), 0, "{}: unreported events", spec.name);
        }
    }
}
