//! Microbenchmarks of the device primitives the paper's kernels are built
//! from: hash-table accumulation (the inner loop of `computeMove` /
//! `mergeCommunity`), the Thrust-style collectives, and atomic memory
//! operations. These isolate the costs behind every table/figure. The
//! `content_hash` group times the serving layer's content addressing, which
//! a `cd-serve` submission pays before its cache lookup unless the server
//! already holds the submitted graph.

use cd_core::hashtable::{TableSpace, TableStorage};
use cd_core::primes::table_size_for;
use cd_gpusim::{
    BlockCounters, Device, DeviceConfig, GlobalF64, GroupCtx, Instrumented, Parallel, Profile,
};
use cd_serve::{structural_hash, Fnv1a, JobOptions, Server, ServerConfig};
use cd_workloads::{by_name, Scale};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;

fn bench_hash_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash_insert");
    for &deg in &[8usize, 84, 1024] {
        let slots = table_size_for(deg).unwrap();
        // Pseudo-random community keys with ~50% duplicates, like a
        // half-converged neighborhood.
        let keys: Vec<u32> =
            (0..deg as u32).map(|i| (i * 2654435761) % (deg as u32 / 2 + 1)).collect();
        let domain = deg / 2 + 1;
        for space in [TableSpace::Shared, TableSpace::Global] {
            let label = format!("{space:?}/deg{deg}");
            group.bench_function(BenchmarkId::from_parameter(label), |b| {
                let mut storage = TableStorage::new::<Instrumented>(slots, domain);
                let mut counters = BlockCounters::default();
                b.iter(|| {
                    let mut ctx = GroupCtx::new(0, 32, &mut counters);
                    let mut t = storage.table(slots, space);
                    t.reset(&mut ctx);
                    for &k in &keys {
                        t.insert_add(&mut ctx, k, 1.0);
                    }
                    black_box(t.len())
                });
            });
        }
    }
    group.finish();
}

fn bench_thrust(c: &mut Criterion) {
    let dev = Device::new(DeviceConfig::tesla_k40m());
    let mut group = c.benchmark_group("thrust");
    let n = 100_000usize;
    let data: Vec<usize> = (0..n).map(|i| i % 17).collect();
    group.bench_function("exclusive_scan_100k", |b| {
        b.iter(|| {
            let mut v = data.clone();
            black_box(dev.exclusive_scan_usize(&mut v))
        });
    });
    let items: Vec<u32> = (0..n as u32).collect();
    group.bench_function("partition_100k", |b| {
        b.iter(|| black_box(dev.partition(&items, |&x| x % 3 == 0)));
    });
    let f: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
    group.bench_function("reduce_sum_100k", |b| {
        b.iter(|| black_box(dev.reduce_sum_f64(&f)));
    });
    group.finish();
}

/// Lockstep emulation vs the native direct path on the two loops the
/// parallel backend retargets: the hash-table probe loop (the inner loop of
/// `computeMove`) and frontier compaction (`copy_if` over the vertex set).
/// The lockstep legs carry per-lane `step()` bookkeeping and the probe
/// walk; the direct legs are what `Profile::Parallel` executes per block,
/// the key-index insert included.
fn bench_backend_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend_paths");

    let deg = 84usize;
    let slots = table_size_for(deg).unwrap();
    let keys: Vec<u32> = (0..deg as u32).map(|i| (i * 2654435761) % (deg as u32 / 2 + 1)).collect();
    macro_rules! probe_loop {
        ($name:literal, $profile:ty) => {
            group.bench_function(concat!("hash_probe/", $name), |b| {
                let mut storage = TableStorage::new::<$profile>(slots, deg / 2 + 1);
                let mut counters = BlockCounters::default();
                b.iter(|| {
                    let mut ctx = GroupCtx::<$profile>::typed(0, 32, &mut counters);
                    let mut t = storage.table(slots, TableSpace::Shared);
                    t.reset(&mut ctx);
                    for &k in &keys {
                        t.insert_add(&mut ctx, k, 1.0);
                    }
                    black_box(t.len())
                });
            });
        };
    }
    probe_loop!("lockstep", Instrumented);
    probe_loop!("direct", Parallel);

    // Frontier compaction as the pruned optimization phase issues it: keep
    // the ~1/8 of vertices whose community changed this iteration.
    let n = 100_000usize;
    let vertices: Vec<u32> = (0..n as u32).collect();
    for (name, dev) in [
        ("lockstep", Device::new(DeviceConfig::tesla_k40m().with_profile(Profile::Instrumented))),
        (
            "direct",
            Device::new(DeviceConfig::tesla_k40m().with_profile(Profile::Parallel).with_threads(1)),
        ),
    ] {
        group.bench_function(format!("frontier_compact_100k/{name}"), |b| {
            b.iter(|| black_box(dev.copy_if(&vertices, |&v| v % 8 == 0)));
        });
    }
    group.finish();
}

fn bench_atomics(c: &mut Criterion) {
    let mut group = c.benchmark_group("atomics");
    let buf = GlobalF64::zeroed(1024);
    let mut counters = BlockCounters::default();
    group.bench_function("f64_atomic_add_spread", |b| {
        b.iter(|| {
            let mut ctx = GroupCtx::new(0, 32, &mut counters);
            for i in 0..1024usize {
                ctx.atomic_add_f64(&buf, i, 1.0);
            }
        });
    });
    group.bench_function("f64_atomic_add_contended_cell", |b| {
        b.iter(|| {
            let mut ctx = GroupCtx::new(0, 32, &mut counters);
            for _ in 0..1024usize {
                ctx.atomic_add_f64(&buf, 0, 1.0);
            }
        });
    });
    group.finish();
}

fn bench_content_hash(c: &mut Criterion) {
    let mut group = c.benchmark_group("content_hash");
    let graph = Arc::new(by_name("cnr2000").expect("suite workload").build(Scale::Small).graph);
    group.bench_function("structural_hash/cnr2000_small", |b| {
        b.iter(|| black_box(structural_hash(black_box(&graph))));
    });
    // A cache-hit submission of the graph the server holds (no hash), and
    // of an equal allocation it does not hold (one hash per submit). Each
    // sample gets its own server, restored from one snapshot and holding
    // `graph`, so the job record a server keeps per request stays bounded.
    let opts = JobOptions::default();
    let config = ServerConfig { cache_bytes: 64 << 20, ..ServerConfig::test_manual() };
    let snap =
        std::env::temp_dir().join(format!("cd-bench-content-hash-{}.snap", std::process::id()));
    {
        let server = Server::new(config.clone());
        server.submit(Arc::clone(&graph), opts).expect("admitted");
        server.run_until_idle();
        server.snapshot_cache_to(&snap).expect("snapshot written");
    }
    let holding = || {
        let server =
            Server::new(ServerConfig { cache_snapshot: Some(snap.clone()), ..config.clone() });
        server.submit(Arc::clone(&graph), opts).expect("admitted");
        server
    };
    group.bench_function("submit_held/cnr2000_small", |b| {
        let server = holding();
        b.iter(|| server.submit(Arc::clone(&graph), opts).expect("admitted"));
    });
    let fresh = Arc::new((*graph).clone());
    group.bench_function("submit_fresh/cnr2000_small", |b| {
        let server = holding();
        b.iter(|| server.submit(Arc::clone(&fresh), opts).expect("admitted"));
    });
    let _ = std::fs::remove_file(&snap);
    // The byte image of a 1 MiB cache snapshot: labels are small u32 ids.
    let snapshot: Vec<u8> = (0..1u32 << 18).flat_map(|i| (i % 5000).to_le_bytes()).collect();
    group.bench_function("write_bytes/1MiB_snapshot", |b| {
        b.iter(|| {
            let mut h = Fnv1a::new();
            h.write_bytes(black_box(&snapshot));
            black_box(h.finish())
        });
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_hash_insert, bench_thrust, bench_backend_paths, bench_atomics,
        bench_content_hash
}
criterion_main!(benches);
