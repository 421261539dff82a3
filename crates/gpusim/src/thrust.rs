//! Device-wide collective primitives — the simulator's stand-in for the
//! Thrust routines the paper calls (`partition`, prefix sums, sort,
//! reductions).
//!
//! All primitives are deterministic: they work in fixed chunks of `CHUNK`
//! elements, so floating-point results do not depend on scheduling. The
//! per-chunk partials run on the device's block scheduler
//! ([`crate::schedule::run_blocks`]) at the device's thread count — inline
//! on the calling thread at one thread — and are combined in chunk order.
//! Each call is recorded in the device metrics as a kernel launch named
//! `thrust::<op>` — unless the device runs the uninstrumented
//! [`crate::Profile::Parallel`] profile, in which case recording is skipped
//! (one branch per *call*, never per element; the collective computations
//! themselves are identical under every profile).

use crate::launch::Device;
use crate::memory::GlobalF64;
use crate::metrics::BlockCounters;
use crate::schedule::run_blocks;
use parking_lot::Mutex;
use std::time::Instant;

/// Chunk size for blocked scans/reductions. Fixed so results are
/// deterministic regardless of worker count.
const CHUNK: usize = 4096;

/// Timestamps the start of a primitive only when the device records metrics;
/// under [`crate::Profile::Parallel`] the clock read is skipped along with
/// the rest of the accounting.
fn maybe_start(dev: &Device) -> Option<Instant> {
    dev.config().profile.is_instrumented().then(Instant::now)
}

fn record_elems(dev: &Device, name: &str, elems: usize, start: Option<Instant>) {
    let Some(start) = start else {
        return;
    };
    let counters = BlockCounters {
        lane_slots: elems as u64,
        active_lanes: elems as u64,
        global_reads: elems as u64,
        global_writes: elems as u64,
        global_transactions: (2 * elems).div_ceil(16) as u64,
        ..Default::default()
    };
    dev.record(name, elems.div_ceil(CHUNK) as u64, counters, start.elapsed(), 0);
}

impl Device {
    /// Runs `f` on every part (one block per part) on the block scheduler at
    /// the device's thread count and returns the results in part order.
    fn map_parts<C: Send, R: Send>(
        &self,
        parts: impl Iterator<Item = C>,
        f: impl Fn(C) -> R + Sync,
    ) -> Vec<R> {
        let slots: Vec<Mutex<(Option<C>, Option<R>)>> =
            parts.map(|part| Mutex::new((Some(part), None))).collect();
        run_blocks(self.config().effective_threads(), slots.len(), |i| {
            let mut slot = slots[i].lock();
            let part = slot.0.take().expect("each part runs once");
            slot.1 = Some(f(part));
        });
        slots.into_iter().map(|slot| slot.into_inner().1.expect("every part ran")).collect()
    }

    /// Exclusive prefix sum in place; returns the grand total.
    /// (`thrust::exclusive_scan`.)
    pub fn exclusive_scan_usize(&self, data: &mut [usize]) -> usize {
        let start = maybe_start(self);
        let total = self.blocked_scan(data, false);
        record_elems(self, "thrust::exclusive_scan", data.len(), start);
        total
    }

    /// Inclusive prefix sum in place; returns the grand total.
    /// (`thrust::inclusive_scan`.)
    pub fn inclusive_scan_usize(&self, data: &mut [usize]) -> usize {
        let start = maybe_start(self);
        let total = self.blocked_scan(data, true);
        record_elems(self, "thrust::inclusive_scan", data.len(), start);
        total
    }

    /// Stable partition of `items` by a predicate: all selected items (in
    /// order) followed by the rest (in order), plus the selected count.
    /// This is the `thrust::partition` call of Alg. 1 line 5 / Alg. 3
    /// line 21 that extracts each degree bucket.
    pub fn partition<T, F>(&self, items: &[T], pred: F) -> (Vec<T>, usize)
    where
        T: Copy + Send + Sync,
        F: Fn(&T) -> bool + Sync,
    {
        let start = maybe_start(self);
        // Chunk-wise split, then selected chunks concatenated before
        // rejected ones: stable, and chunked over sub-slices so no
        // per-element intermediate is materialized.
        let parts: Vec<(Vec<T>, Vec<T>)> = self.map_parts(items.chunks(CHUNK), |c| {
            let mut sel = Vec::new();
            let mut rej = Vec::new();
            for &x in c {
                if pred(&x) {
                    sel.push(x);
                } else {
                    rej.push(x);
                }
            }
            (sel, rej)
        });
        let count = parts.iter().map(|(s, _)| s.len()).sum();
        let mut out = Vec::with_capacity(items.len());
        for (sel, _) in &parts {
            out.extend_from_slice(sel);
        }
        for (_, rej) in &parts {
            out.extend_from_slice(rej);
        }
        record_elems(self, "thrust::partition", items.len(), start);
        (out, count)
    }

    /// Selects the items satisfying the predicate, preserving order
    /// (`thrust::copy_if`).
    pub fn copy_if<T, F>(&self, items: &[T], pred: F) -> Vec<T>
    where
        T: Copy + Send + Sync,
        F: Fn(&T) -> bool + Sync,
    {
        let start = maybe_start(self);
        let parts: Vec<Vec<T>> = self
            .map_parts(items.chunks(CHUNK), |c| c.iter().copied().filter(|x| pred(x)).collect());
        let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        for part in &parts {
            out.extend_from_slice(part);
        }
        record_elems(self, "thrust::copy_if", items.len(), start);
        out
    }

    /// Stable sort by key (`thrust::stable_sort_by_key`).
    pub fn sort_by_key<T, K, F>(&self, items: &mut [T], key: F)
    where
        K: Ord,
        F: Fn(&T) -> K,
    {
        let start = maybe_start(self);
        items.sort_by_key(key);
        record_elems(self, "thrust::sort_by_key", items.len(), start);
    }

    /// Deterministic sum reduction over f64 (`thrust::reduce`). Fixed chunk
    /// boundaries make the result independent of thread count.
    pub fn reduce_sum_f64(&self, data: &[f64]) -> f64 {
        let start = maybe_start(self);
        let partials = self.map_parts(data.chunks(CHUNK), |c| c.iter().sum::<f64>());
        let total = partials.iter().sum();
        record_elems(self, "thrust::reduce", data.len(), start);
        total
    }

    /// Deterministic sum reduction reading a device buffer directly
    /// (`thrust::reduce` over a device pointer) — no `to_vec()` staging copy.
    pub fn reduce_sum_f64_global(&self, data: &GlobalF64) -> f64 {
        self.reduce_sum_map_f64_global(data, "thrust::reduce", |x| x)
    }

    /// Deterministic transform-reduce over a device buffer
    /// (`thrust::transform_reduce`): sums `f(x)` over all elements with fixed
    /// chunk boundaries.
    pub fn transform_reduce_f64_global<F>(&self, data: &GlobalF64, f: F) -> f64
    where
        F: Fn(f64) -> f64 + Sync,
    {
        self.reduce_sum_map_f64_global(data, "thrust::transform_reduce", f)
    }

    fn reduce_sum_map_f64_global<F>(&self, data: &GlobalF64, name: &str, f: F) -> f64
    where
        F: Fn(f64) -> f64 + Sync,
    {
        let start = maybe_start(self);
        let n = data.len();
        let partials = self.map_parts((0..n).step_by(CHUNK), |lo| {
            (lo..(lo + CHUNK).min(n)).map(|i| f(data.load(i))).sum::<f64>()
        });
        let total = partials.iter().sum();
        record_elems(self, name, n, start);
        total
    }

    /// Sum reduction over usize.
    pub fn reduce_sum_usize(&self, data: &[usize]) -> usize {
        let start = maybe_start(self);
        let total = self.map_parts(data.chunks(CHUNK), |c| c.iter().sum::<usize>()).iter().sum();
        record_elems(self, "thrust::reduce", data.len(), start);
        total
    }

    /// Maximum element, or `None` when empty (`thrust::max_element`).
    pub fn max_usize(&self, data: &[usize]) -> Option<usize> {
        let start = maybe_start(self);
        let m = self
            .map_parts(data.chunks(CHUNK), |c| c.iter().copied().max())
            .into_iter()
            .flatten()
            .max();
        record_elems(self, "thrust::max_element", data.len(), start);
        m
    }

    /// Counts items satisfying the predicate (`thrust::count_if`).
    pub fn count_if<T, F>(&self, data: &[T], pred: F) -> usize
    where
        T: Sync,
        F: Fn(&T) -> bool + Sync,
    {
        let start = maybe_start(self);
        let c = self
            .map_parts(data.chunks(CHUNK), |c| c.iter().filter(|x| pred(x)).count())
            .iter()
            .sum();
        record_elems(self, "thrust::count_if", data.len(), start);
        c
    }

    /// Blocked scan: per-chunk sums, a sequential scan over the chunk sums,
    /// then a per-chunk rewrite pass. Deterministic for integer element
    /// types.
    fn blocked_scan(&self, data: &mut [usize], inclusive: bool) -> usize {
        let mut bases = self.map_parts(data.chunks(CHUNK), |c| c.iter().sum::<usize>());
        let mut acc = 0usize;
        for s in bases.iter_mut() {
            let cur = *s;
            *s = acc;
            acc += cur;
        }
        self.map_parts(data.chunks_mut(CHUNK).zip(bases), |(chunk, base)| {
            let mut run = base;
            for v in chunk.iter_mut() {
                let cur = *v;
                if inclusive {
                    run += cur;
                    *v = run;
                } else {
                    *v = run;
                    run += cur;
                }
            }
        });
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use crate::profile::Profile;

    fn dev() -> Device {
        // Metrics-asserting tests must not be flipped by CD_GPUSIM_PROFILE.
        Device::new(DeviceConfig::test_tiny().with_profile(Profile::Instrumented))
    }

    #[test]
    fn exclusive_scan_matches_reference() {
        let dev = dev();
        let mut v: Vec<usize> = (0..10_000).map(|i| (i * 7 + 3) % 11).collect();
        let reference: Vec<usize> = {
            let mut out = Vec::with_capacity(v.len());
            let mut acc = 0;
            for &x in &v {
                out.push(acc);
                acc += x;
            }
            out
        };
        let expected_total: usize = v.iter().sum();
        let total = dev.exclusive_scan_usize(&mut v);
        assert_eq!(v, reference);
        assert_eq!(total, expected_total);
    }

    #[test]
    fn inclusive_scan_matches_reference() {
        let dev = dev();
        let mut v: Vec<usize> = (0..9_999).map(|i| i % 5).collect();
        let mut reference = v.clone();
        for i in 1..reference.len() {
            reference[i] += reference[i - 1];
        }
        let total = dev.inclusive_scan_usize(&mut v);
        assert_eq!(v, reference);
        assert_eq!(total, *reference.last().unwrap());
    }

    #[test]
    fn scan_empty_and_single() {
        let dev = dev();
        let mut empty: Vec<usize> = vec![];
        assert_eq!(dev.exclusive_scan_usize(&mut empty), 0);
        let mut one = vec![42usize];
        assert_eq!(dev.exclusive_scan_usize(&mut one), 42);
        assert_eq!(one, vec![0]);
    }

    #[test]
    fn partition_is_stable() {
        let dev = dev();
        let items: Vec<u32> = (0..1000).collect();
        let (parted, count) = dev.partition(&items, |&x| x % 3 == 0);
        assert_eq!(count, 334);
        assert!(parted[..count].windows(2).all(|w| w[0] < w[1]));
        assert!(parted[count..].windows(2).all(|w| w[0] < w[1]));
        assert!(parted[..count].iter().all(|&x| x % 3 == 0));
        assert!(parted[count..].iter().all(|&x| x % 3 != 0));
    }

    #[test]
    fn reduce_sum_deterministic() {
        let dev = dev();
        let data: Vec<f64> = (0..100_000).map(|i| (i as f64).sin()).collect();
        let a = dev.reduce_sum_f64(&data);
        let b = dev.reduce_sum_f64(&data);
        assert_eq!(a.to_bits(), b.to_bits(), "reduction must be bitwise deterministic");
    }

    #[test]
    fn sort_and_max_and_count() {
        let dev = dev();
        let mut items: Vec<(u32, u32)> = (0..500).map(|i| ((997 - i) % 100, i)).collect();
        dev.sort_by_key(&mut items, |&(k, _)| k);
        assert!(items.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(dev.max_usize(&[3, 9, 1]), Some(9));
        assert_eq!(dev.max_usize(&[]), None);
        assert_eq!(dev.count_if(&[1, 2, 3, 4], |&x| x % 2 == 0), 2);
    }

    #[test]
    fn global_reduce_matches_host_reduce() {
        let dev = dev();
        let host: Vec<f64> = (0..50_000).map(|i| (i as f64).cos()).collect();
        let buf = GlobalF64::zeroed(host.len());
        buf.copy_from_slice(&host);
        let a = dev.reduce_sum_f64(&host);
        let b = dev.reduce_sum_f64_global(&buf);
        assert_eq!(a.to_bits(), b.to_bits(), "same chunking ⇒ bitwise equal");
        let sq = dev.transform_reduce_f64_global(&buf, |x| x * x);
        let sq_host = dev.reduce_sum_f64(&host.iter().map(|x| x * x).collect::<Vec<_>>());
        assert_eq!(sq.to_bits(), sq_host.to_bits());
        let m = dev.metrics();
        assert_eq!(m.kernel("thrust::reduce").unwrap().launches, 3);
        assert_eq!(m.kernel("thrust::transform_reduce").unwrap().launches, 1);
    }

    #[test]
    fn thrust_calls_appear_in_metrics() {
        let dev = dev();
        let mut v = vec![1usize, 2, 3];
        dev.exclusive_scan_usize(&mut v);
        let m = dev.metrics();
        assert_eq!(m.kernel("thrust::exclusive_scan").unwrap().launches, 1);
    }

    #[test]
    fn parallel_profile_computes_identically_but_records_nothing() {
        let par = Device::new(DeviceConfig::test_tiny().with_profile(Profile::Parallel));
        let slow = dev();
        let mut a: Vec<usize> = (0..5000).map(|i| (i * 13 + 1) % 17).collect();
        let mut b = a.clone();
        assert_eq!(par.exclusive_scan_usize(&mut a), slow.exclusive_scan_usize(&mut b));
        assert_eq!(a, b);
        let data: Vec<f64> = (0..20_000).map(|i| (i as f64).sin()).collect();
        assert_eq!(
            par.reduce_sum_f64(&data).to_bits(),
            slow.reduce_sum_f64(&data).to_bits(),
            "chunked reduction must not depend on the profile"
        );
        assert!(par.metrics().kernels().is_empty());
        assert!(!slow.metrics().kernels().is_empty());
    }
}
