//! Device buffer pool — recycled global-memory allocations.
//!
//! Real GPU drivers amortize `cudaMalloc`/`cudaFree` with suballocators
//! because allocation synchronizes the device; the simulator's equivalent
//! cost is host heap traffic on every optimization iteration. The pool keeps
//! retired buffer allocations on the device, keyed by power-of-two size
//! class, and hands them back zeroed. `u64` and `f64` buffers share one
//! 64-bit word pool (an all-zero word is `0.0`).
//!
//! Acquisition goes through [`Device::pool_u32`] / [`Device::pool_u64`] /
//! [`Device::pool_f64`], which return RAII guards ([`PooledU32`] etc.) that
//! deref to the plain global-buffer types and return their allocation to the
//! pool on drop. Hit/miss and byte counters surface in
//! [`crate::MetricsReport::pool`].

use crate::launch::Device;
use crate::memory::{GlobalF64, GlobalU32, GlobalU64};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Counters of pool activity since the last metrics reset.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions served from a recycled allocation.
    pub hits: u64,
    /// Acquisitions that had to allocate fresh memory.
    pub misses: u64,
    /// Bytes served from recycled allocations (full size-class capacity).
    pub bytes_recycled: u64,
    /// Bytes freshly allocated on misses.
    pub bytes_allocated: u64,
}

impl PoolStats {
    /// Fraction of acquisitions served from the pool.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

/// Free lists behind the device mutex. Allocations are stored at exactly
/// their size-class capacity, so the class of a returned allocation is its
/// vector length.
#[derive(Debug, Default)]
pub(crate) struct PoolStore {
    words32: HashMap<usize, Vec<Vec<AtomicU32>>>,
    words64: HashMap<usize, Vec<Vec<AtomicU64>>>,
    pub(crate) stats: PoolStats,
}

/// Size class of a logical length: the next power of two (minimum 1).
fn size_class(len: usize) -> usize {
    len.max(1).next_power_of_two()
}

impl PoolStore {
    fn acquire_u32(&mut self, len: usize) -> Vec<AtomicU32> {
        let class = size_class(len);
        match self.words32.get_mut(&class).and_then(Vec::pop) {
            Some(cells) => {
                self.stats.hits += 1;
                self.stats.bytes_recycled += 4 * class as u64;
                for c in &cells[..len] {
                    c.store(0, std::sync::atomic::Ordering::Relaxed);
                }
                cells
            }
            None => {
                self.stats.misses += 1;
                self.stats.bytes_allocated += 4 * class as u64;
                (0..class).map(|_| AtomicU32::new(0)).collect()
            }
        }
    }

    fn acquire_u64(&mut self, len: usize) -> Vec<AtomicU64> {
        let class = size_class(len);
        match self.words64.get_mut(&class).and_then(Vec::pop) {
            Some(cells) => {
                self.stats.hits += 1;
                self.stats.bytes_recycled += 8 * class as u64;
                for c in &cells[..len] {
                    c.store(0, std::sync::atomic::Ordering::Relaxed);
                }
                cells
            }
            None => {
                self.stats.misses += 1;
                self.stats.bytes_allocated += 8 * class as u64;
                (0..class).map(|_| AtomicU64::new(0)).collect()
            }
        }
    }

    fn release_u32(&mut self, cells: Vec<AtomicU32>) {
        debug_assert!(cells.len().is_power_of_two());
        self.words32.entry(cells.len()).or_default().push(cells);
    }

    fn release_u64(&mut self, cells: Vec<AtomicU64>) {
        debug_assert!(cells.len().is_power_of_two());
        self.words64.entry(cells.len()).or_default().push(cells);
    }

    pub(crate) fn reset_stats(&mut self) {
        self.stats = PoolStats::default();
    }
}

/// Per-class cap on the thread-local free lists. Small on purpose: the hot
/// loop keeps a handful of scratch buffers per worker; anything beyond that
/// overflows to the shared device pool so one thread cannot hoard memory.
const TLS_CACHE_CAP: usize = 4;

/// Thread-local free lists used by the uninstrumented
/// [`crate::Profile::Parallel`] profile: acquisitions and releases on the hot
/// path skip the device mutex entirely, which matters when blocks run from
/// many worker threads at once. Buffers are plain host
/// allocations with no device affinity, so a list shared across devices is
/// safe; they are re-zeroed on every acquisition. The instrumented profiles
/// bypass this cache so [`PoolStats`] stays an exact account of pool
/// traffic.
#[derive(Default)]
struct TlsCache {
    words32: HashMap<usize, Vec<Vec<AtomicU32>>>,
    words64: HashMap<usize, Vec<Vec<AtomicU64>>>,
}

thread_local! {
    static TLS_POOL: RefCell<TlsCache> = RefCell::new(TlsCache::default());
}

fn tls_acquire_u32(len: usize) -> Option<Vec<AtomicU32>> {
    let cells = TLS_POOL.with(|p| p.borrow_mut().words32.get_mut(&size_class(len))?.pop())?;
    for c in &cells[..len] {
        c.store(0, Ordering::Relaxed);
    }
    Some(cells)
}

fn tls_acquire_u64(len: usize) -> Option<Vec<AtomicU64>> {
    let cells = TLS_POOL.with(|p| p.borrow_mut().words64.get_mut(&size_class(len))?.pop())?;
    for c in &cells[..len] {
        c.store(0, Ordering::Relaxed);
    }
    Some(cells)
}

/// Offers a retired allocation to the thread-local cache; returns it back
/// when the class is at capacity (the caller then releases to the device
/// pool).
fn tls_release_u32(cells: Vec<AtomicU32>) -> Option<Vec<AtomicU32>> {
    TLS_POOL.with(|p| {
        let mut cache = p.borrow_mut();
        let list = cache.words32.entry(cells.len()).or_default();
        if list.len() >= TLS_CACHE_CAP {
            return Some(cells);
        }
        list.push(cells);
        None
    })
}

fn tls_release_u64(cells: Vec<AtomicU64>) -> Option<Vec<AtomicU64>> {
    TLS_POOL.with(|p| {
        let mut cache = p.borrow_mut();
        let list = cache.words64.entry(cells.len()).or_default();
        if list.len() >= TLS_CACHE_CAP {
            return Some(cells);
        }
        list.push(cells);
        None
    })
}

impl Device {
    /// Acquires a zero-filled `u32` buffer of logical length `len` from the
    /// pool (allocating on miss). The guard returns the allocation on drop.
    #[track_caller]
    pub fn pool_u32(&self, len: usize) -> PooledU32<'_> {
        let cells = if self.profile().is_instrumented() {
            self.pool_store().acquire_u32(len)
        } else {
            tls_acquire_u32(len).unwrap_or_else(|| self.pool_store().acquire_u32(len))
        };
        PooledU32 { dev: self, buf: Some(GlobalU32::from_pooled(cells, len)) }
    }

    /// Acquires a zero-filled `u64` buffer of logical length `len` from the
    /// pool.
    #[track_caller]
    pub fn pool_u64(&self, len: usize) -> PooledU64<'_> {
        let cells = if self.profile().is_instrumented() {
            self.pool_store().acquire_u64(len)
        } else {
            tls_acquire_u64(len).unwrap_or_else(|| self.pool_store().acquire_u64(len))
        };
        PooledU64 { dev: self, buf: Some(GlobalU64::from_pooled(cells, len)) }
    }

    /// Acquires a zero-filled `f64` buffer of logical length `len` from the
    /// pool (shares the 64-bit word pool with [`Device::pool_u64`]).
    #[track_caller]
    pub fn pool_f64(&self, len: usize) -> PooledF64<'_> {
        let cells = if self.profile().is_instrumented() {
            self.pool_store().acquire_u64(len)
        } else {
            tls_acquire_u64(len).unwrap_or_else(|| self.pool_store().acquire_u64(len))
        };
        PooledF64 { dev: self, buf: Some(GlobalF64::from_pooled(cells, len)) }
    }

    /// Pool counters since the last metrics reset. Exact under the
    /// instrumented profiles; under Parallel the thread-local free
    /// lists serve steady-state traffic without touching these counters, so
    /// only cold misses and cache overflow show up here.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool_store().stats
    }
}

macro_rules! pooled_guard {
    ($guard:ident, $target:ident, $release:ident, $tls_release:ident, $doc:literal) => {
        #[doc = $doc]
        ///
        /// The drop path runs during unwinding too: a guard dropped while a
        /// kernel panics still returns its allocation to the pool.
        #[derive(Debug)]
        #[must_use = "dropping the guard immediately returns the buffer to the pool"]
        pub struct $guard<'d> {
            dev: &'d Device,
            buf: Option<$target>,
        }

        impl Deref for $guard<'_> {
            type Target = $target;
            #[inline]
            fn deref(&self) -> &$target {
                self.buf.as_ref().expect("pooled buffer taken")
            }
        }

        impl Drop for $guard<'_> {
            fn drop(&mut self) {
                if let Some(buf) = self.buf.take() {
                    let cells = buf.into_pooled();
                    if self.dev.profile().is_instrumented() {
                        self.dev.pool_store().$release(cells);
                    } else if let Some(overflow) = $tls_release(cells) {
                        self.dev.pool_store().$release(overflow);
                    }
                }
            }
        }
    };
}

pooled_guard!(
    PooledU32,
    GlobalU32,
    release_u32,
    tls_release_u32,
    "RAII guard over a pooled [`GlobalU32`]; derefs to it and returns the \
     allocation to the device pool on drop."
);
pooled_guard!(
    PooledU64,
    GlobalU64,
    release_u64,
    tls_release_u64,
    "RAII guard over a pooled [`GlobalU64`]; derefs to it and returns the \
     allocation to the device pool on drop."
);
pooled_guard!(
    PooledF64,
    GlobalF64,
    release_u64,
    tls_release_u64,
    "RAII guard over a pooled [`GlobalF64`]; derefs to it and returns the \
     allocation to the device pool on drop."
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;

    fn dev() -> Device {
        // Stats-asserting tests need the exact mutex-side accounting, which
        // only the instrumented profiles keep (the TLS cache bypasses it),
        // so they must not be flipped by CD_GPUSIM_PROFILE.
        Device::new(DeviceConfig::test_tiny().with_profile(crate::profile::Profile::Instrumented))
    }

    #[test]
    fn acquire_is_zeroed_and_logical_length() {
        let d = dev();
        let b = d.pool_u32(100);
        assert_eq!(b.len(), 100);
        assert_eq!(b.to_vec(), vec![0u32; 100]);
        b.store(99, 7);
        drop(b);
        // Same size class (128) — the dirtied allocation comes back zeroed.
        let b2 = d.pool_u32(120);
        assert_eq!(b2.len(), 120);
        assert!(b2.to_vec().iter().all(|&x| x == 0));
    }

    #[test]
    fn recycling_by_size_class_and_stats() {
        let d = dev();
        {
            let _a = d.pool_u32(100); // class 128: miss
            let _b = d.pool_u32(100); // class 128: miss (first still live)
        }
        let _c = d.pool_u32(65); // class 128: hit
        let _d = d.pool_u32(200); // class 256: miss
        let s = d.pool_stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
        assert_eq!(s.bytes_recycled, 4 * 128);
        assert_eq!(s.bytes_allocated, 4 * (128 + 128 + 256));
        assert!((s.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn u64_and_f64_share_the_word_pool() {
        let d = dev();
        {
            let u = d.pool_u64(50);
            u.store(3, u64::MAX);
        }
        let f = d.pool_f64(50); // class 64: hit from the u64 release
        assert_eq!(d.pool_stats().hits, 1);
        assert_eq!(f.to_vec(), vec![0.0; 50]);
    }

    #[test]
    fn stats_reach_metrics_report_and_reset() {
        let d = dev();
        {
            let _a = d.pool_f64(10);
        }
        let _b = d.pool_f64(10);
        let report = d.metrics();
        assert_eq!(report.pool().hits, 1);
        assert_eq!(report.pool().misses, 1);
        d.reset_metrics();
        assert_eq!(d.pool_stats(), PoolStats::default());
        // Buffers survive the stats reset: next acquisition still hits.
        drop(_b);
        let _c = d.pool_f64(10);
        assert_eq!(d.pool_stats().hits, 1);
    }

    #[test]
    fn guard_dropped_during_unwind_returns_buffer_to_pool() {
        let d = dev();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let b = d.pool_u32(100);
            b.store(7, 42);
            panic!("kernel failed mid-iteration");
        }));
        assert!(r.is_err());
        assert_eq!(
            d.pool_stats(),
            PoolStats { misses: 1, bytes_allocated: 4 * 128, ..Default::default() }
        );
        // The unwound guard put its allocation back: the next same-class
        // acquisition is a pool hit, and the buffer comes back zeroed.
        let b2 = d.pool_u32(100);
        assert_eq!(d.pool_stats().hits, 1);
        assert!(b2.to_vec().iter().all(|&x| x == 0));
    }

    #[test]
    fn uninstrumented_profiles_recycle_through_the_tls_cache() {
        use crate::profile::Profile;
        let d = Device::new(DeviceConfig::test_tiny().with_profile(Profile::Parallel));
        // Cold acquisition misses through to the device pool...
        {
            let b = d.pool_u32(100);
            b.store(5, 17);
        }
        let misses_after_cold = d.pool_stats().misses;
        assert_eq!(misses_after_cold, 1);
        // ...but steady-state reuse is served thread-locally: no new device
        // pool traffic, and the buffer still comes back zeroed.
        for _ in 0..10 {
            let b = d.pool_u32(100);
            assert!(b.to_vec().iter().all(|&x| x == 0));
            b.store(0, 1);
        }
        let s = d.pool_stats();
        assert_eq!(s.misses, misses_after_cold);
        assert_eq!(s.hits, 0);
    }

    #[test]
    fn tls_cache_overflow_returns_to_the_device_pool() {
        use crate::profile::Profile;
        let d = Device::new(DeviceConfig::test_tiny().with_profile(Profile::Parallel));
        // Hold more same-class buffers than the TLS cap, then drop them all:
        // the overflow must land in the shared pool, where an instrumented
        // device can observe it as a hit.
        let held: Vec<_> = (0..super::TLS_CACHE_CAP + 2).map(|_| d.pool_u32(1000)).collect();
        drop(held);
        assert_eq!(
            d.pool_stats().misses as usize,
            super::TLS_CACHE_CAP + 2,
            "every cold acquisition missed"
        );
        // Reacquiring beyond the TLS cap pulls the spilled buffers back from
        // the device pool as hits.
        let held: Vec<_> = (0..super::TLS_CACHE_CAP + 2).map(|_| d.pool_u32(1000)).collect();
        assert!(d.pool_stats().hits >= 2, "overflow buffers came back from the shared pool");
        drop(held);
    }

    #[test]
    fn pooled_buffers_work_in_kernels() {
        let d = dev();
        let counts = d.pool_u32(4);
        d.launch_threads("histogram", 100, |ctx, t| {
            ctx.atomic_add_u32(&counts, t % 4, 1);
        });
        assert_eq!(counts.to_vec(), vec![25, 25, 25, 25]);
    }
}
