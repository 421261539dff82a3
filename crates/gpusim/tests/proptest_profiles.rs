//! Backend-equivalence properties: every Thrust-style collective must produce
//! bit-identical results under the `Instrumented`, `Racecheck`, and
//! `Parallel` profiles on arbitrary input. The profiles may only differ in
//! what they *record* and *where blocks run*, never in what they *compute* —
//! these tests are the primitive-level half of the backend-equivalence
//! acceptance bar (the hash-table half lives in cd-core).

use cd_gpusim::{Device, DeviceConfig, GlobalF64, Profile};
use proptest::prelude::*;

/// The collectives' fixed chunk length (`thrust::CHUNK`).
const CHUNK: usize = 4096;

fn triple() -> (Device, Device, Device) {
    (
        Device::new(DeviceConfig::tesla_k40m().with_profile(Profile::Instrumented)),
        Device::new(DeviceConfig::tesla_k40m().with_profile(Profile::Racecheck)),
        Device::new(DeviceConfig::tesla_k40m().with_profile(Profile::Parallel).with_threads(2)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn partition_identical_across_profiles(items in proptest::collection::vec(0u32..1000, 0..500)) {
        let (slow, rc, par) = triple();
        let (a, na) = slow.partition(&items, |&x| x % 3 == 0);
        let (c, nc) = rc.partition(&items, |&x| x % 3 == 0);
        let (d, nd) = par.partition(&items, |&x| x % 3 == 0);
        prop_assert_eq!(na, nc);
        prop_assert_eq!(na, nd);
        prop_assert_eq!(&a, &c);
        prop_assert_eq!(&a, &d);
    }

    #[test]
    fn copy_if_identical_across_profiles(items in proptest::collection::vec(0u32..100, 0..500)) {
        let (slow, rc, par) = triple();
        let expect = slow.copy_if(&items, |&x| x % 7 == 0);
        prop_assert_eq!(&expect, &rc.copy_if(&items, |&x| x % 7 == 0));
        prop_assert_eq!(&expect, &par.copy_if(&items, |&x| x % 7 == 0));
    }

    #[test]
    fn scans_identical_across_profiles(vals in proptest::collection::vec(0usize..5000, 0..600)) {
        let (slow, rc, par) = triple();
        let mut a = vals.clone();
        let mut c = vals.clone();
        let mut d = vals.clone();
        let ta = slow.exclusive_scan_usize(&mut a);
        prop_assert_eq!(ta, rc.exclusive_scan_usize(&mut c));
        prop_assert_eq!(ta, par.exclusive_scan_usize(&mut d));
        prop_assert_eq!(&a, &c);
        prop_assert_eq!(&a, &d);
        let mut a = vals.clone();
        let mut c = vals.clone();
        let mut d = vals;
        let ta = slow.inclusive_scan_usize(&mut a);
        prop_assert_eq!(ta, rc.inclusive_scan_usize(&mut c));
        prop_assert_eq!(ta, par.inclusive_scan_usize(&mut d));
        prop_assert_eq!(&a, &c);
        prop_assert_eq!(a, d);
    }

    #[test]
    fn sort_by_key_identical_across_profiles(
        items in proptest::collection::vec((0u32..50, 0u32..1000), 0..500),
    ) {
        let (slow, rc, par) = triple();
        let mut a = items.clone();
        let mut c = items.clone();
        let mut d = items;
        slow.sort_by_key(&mut a, |&(k, _)| k);
        rc.sort_by_key(&mut c, |&(k, _)| k);
        par.sort_by_key(&mut d, |&(k, _)| k);
        // Stable sort: payload order within equal keys must also agree.
        prop_assert_eq!(&a, &c);
        prop_assert_eq!(a, d);
    }

    #[test]
    fn sort_by_key_tie_order_matches_std_stable_sort(
        items in proptest::collection::vec((0u32..8, 0u32..1000), 0..500),
    ) {
        // `sort_by_key` documents thrust-style *stable* ordering: equal keys
        // keep their input order. Pin that contract against the reference
        // stable sort so a future switch to an unstable radix path cannot
        // silently reorder ties (which would change Louvain outcomes that
        // consume sorted community lists).
        let (slow, _, _) = triple();
        let mut got = items.clone();
        slow.sort_by_key(&mut got, |&(k, _)| k);
        let mut want = items;
        want.sort_by_key(|&(k, _)| k); // std's slice sort is documented stable
        prop_assert_eq!(got, want);
    }

    #[test]
    fn reductions_bitwise_identical_across_profiles(
        vals in proptest::collection::vec(-1e12f64..1e12, 0..600),
    ) {
        let (slow, rc, par) = triple();
        let sum = slow.reduce_sum_f64(&vals).to_bits();
        prop_assert_eq!(sum, rc.reduce_sum_f64(&vals).to_bits());
        prop_assert_eq!(sum, par.reduce_sum_f64(&vals).to_bits());
        if !vals.is_empty() {
            let buf = GlobalF64::zeroed(vals.len());
            buf.copy_from_slice(&vals);
            let gsum = slow.reduce_sum_f64_global(&buf).to_bits();
            prop_assert_eq!(gsum, rc.reduce_sum_f64_global(&buf).to_bits());
            prop_assert_eq!(gsum, par.reduce_sum_f64_global(&buf).to_bits());
            let tsum = slow.transform_reduce_f64_global(&buf, |x| x * x).to_bits();
            prop_assert_eq!(tsum, rc.transform_reduce_f64_global(&buf, |x| x * x).to_bits());
            prop_assert_eq!(tsum, par.transform_reduce_f64_global(&buf, |x| x * x).to_bits());
        }
        let lens: Vec<usize> = vals.iter().map(|v| v.abs() as usize % 97).collect();
        let usum = slow.reduce_sum_usize(&lens);
        prop_assert_eq!(usum, rc.reduce_sum_usize(&lens));
        prop_assert_eq!(usum, par.reduce_sum_usize(&lens));
        let umax = slow.max_usize(&lens);
        prop_assert_eq!(umax, rc.max_usize(&lens));
        prop_assert_eq!(umax, par.max_usize(&lens));
        let cnt = slow.count_if(&lens, |&x| x % 2 == 0);
        prop_assert_eq!(cnt, rc.count_if(&lens, |&x| x % 2 == 0));
        prop_assert_eq!(cnt, par.count_if(&lens, |&x| x % 2 == 0));
        // The racecheck device saw every one of these collectives and none of
        // them shares a cell between unordered actors.
        prop_assert!(rc.race_reports().is_empty());
    }
}

/// `Instrumented`, `Racecheck`, `Parallel` at one thread and `Parallel` at
/// eight (oversubscribed on purpose, so chunks finish out of order).
fn quad() -> [Device; 4] {
    let at = |p: Profile, t: usize| {
        Device::new(DeviceConfig::tesla_k40m().with_profile(p).with_threads(t))
    };
    [
        at(Profile::Instrumented, 1),
        at(Profile::Racecheck, 1),
        at(Profile::Parallel, 1),
        at(Profile::Parallel, 8),
    ]
}

/// `len` pseudo-random values from `seed` (xorshift), spanning signs and
/// magnitudes so f64 sums round differently in different orders.
fn values(len: usize, seed: u64) -> Vec<f64> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ((x >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 10f64.powi((x % 24) as i32 - 12)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Vectors spanning several chunks, with ragged last chunks: every
    /// collective is bit-identical across profiles and thread counts.
    #[test]
    fn collectives_across_chunks_identical_across_profiles_and_threads(
        chunks in 1usize..6,
        extra in 0usize..CHUNK,
        seed in 0u64..1_000_000,
    ) {
        let len = chunks * CHUNK + extra;
        let vals = values(len, seed);
        let lens: Vec<usize> = vals.iter().map(|v| (v.to_bits() % 97) as usize).collect();
        let buf = GlobalF64::zeroed(len);
        buf.copy_from_slice(&vals);
        let observe = |dev: &Device| {
            let mut ex = lens.clone();
            let mut inc = lens.clone();
            (
                dev.reduce_sum_f64(&vals).to_bits(),
                dev.reduce_sum_f64_global(&buf).to_bits(),
                dev.transform_reduce_f64_global(&buf, |x| x * x - 0.5 * x).to_bits(),
                (dev.exclusive_scan_usize(&mut ex), ex),
                (dev.inclusive_scan_usize(&mut inc), inc),
                dev.copy_if(&lens, |&x| x % 5 == 0),
                dev.partition(&lens, |&x| x % 3 == 0),
                (dev.reduce_sum_usize(&lens), dev.max_usize(&lens), dev.count_if(&lens, |&x| x > 50)),
            )
        };
        let [reference, rest @ ..] = quad();
        let want = observe(&reference);
        for dev in &rest {
            prop_assert_eq!(&observe(dev), &want, "{:?} at {} threads", dev.profile(), dev.config().threads);
        }
    }
}

#[test]
fn collectives_at_one_thread_run_on_the_calling_thread() {
    let me = std::thread::current().id();
    let data: Vec<usize> = (0..3 * CHUNK + 17).collect();
    for profile in [Profile::Instrumented, Profile::Parallel] {
        let dev = Device::new(DeviceConfig::tesla_k40m().with_profile(profile).with_threads(1));
        let here = |_: &usize| {
            assert_eq!(std::thread::current().id(), me, "{profile:?}: chunk ran off-thread");
            true
        };
        assert_eq!(dev.count_if(&data, here), data.len());
        assert_eq!(dev.copy_if(&data, here).len(), data.len());
        assert_eq!(dev.partition(&data, here).1, data.len());
    }
}
