//! Lockstep thread groups — the simulator's unit of SIMT execution.
//!
//! The paper assigns each task (a vertex in `computeMove`, a community in
//! `mergeCommunity`) to a *thread group*: a fraction of a warp (4/8/16/32
//! lanes) or a whole 128-thread block. A group's lanes execute in lockstep;
//! the simulator runs them on one CPU thread (which is exactly what SIMD
//! lanes are) while distinct groups run concurrently across cores.
//!
//! [`GroupCtx`] carries the group's identity, its divergence/memory counters,
//! and counted wrappers for the atomic operations kernels perform on global
//! memory. Warp collectives (reduction, scan, ballot) are provided with the
//! `log2(width)` step costs they have on the device.
//!
//! The context is generic over an [`ExecutionProfile`]: under
//! [`crate::Instrumented`] (the default) every wrapper updates the block's
//! [`BlockCounters`]; under [`crate::Parallel`] the accounting bodies are
//! gated on the `const` [`ExecutionProfile::INSTRUMENTED`] flag and compile to
//! no-ops, leaving only the memory semantics. Kernels written against
//! `GroupCtx<P>` therefore monomorphize into an instrumented and an
//! uninstrumented variant from one source.

use std::marker::PhantomData;

use crate::memory::{GlobalF64, GlobalU32, GlobalU64};
use crate::metrics::BlockCounters;
use crate::profile::{ExecutionProfile, Instrumented};

/// Valid thread-group widths: subwarp slices, one warp, or one block.
pub const VALID_GROUP_LANES: [usize; 5] = [4, 8, 16, 32, 128];

/// Execution context handed to kernel bodies, scoped to one thread group.
///
/// The profile parameter `P` selects at compile time whether the accounting
/// wrappers record into [`BlockCounters`] ([`crate::Instrumented`], the
/// default) or compile to no-ops ([`crate::Parallel`]). Memory and collective
/// *semantics* are identical under every profile.
pub struct GroupCtx<'a, P: ExecutionProfile = Instrumented> {
    /// Index of the block this group belongs to.
    pub block_id: usize,
    /// Lanes in this group (4, 8, 16, 32, or 128).
    lanes: usize,
    counters: &'a mut BlockCounters,
    _profile: PhantomData<P>,
}

impl<'a> GroupCtx<'a, Instrumented> {
    /// Creates a standalone *instrumented* context over caller-provided
    /// counters. Kernel launches construct contexts internally; this is
    /// public for unit tests and custom harnesses that exercise group-level
    /// code directly. For a profile-generic context use [`GroupCtx::typed`].
    pub fn new(block_id: usize, lanes: usize, counters: &'a mut BlockCounters) -> Self {
        Self::typed(block_id, lanes, counters)
    }
}

impl<'a, P: ExecutionProfile> GroupCtx<'a, P> {
    /// Creates a standalone context under profile `P` (the generic form of
    /// [`GroupCtx::new`]). Under [`crate::Parallel`] the counters reference is
    /// still held — launches reuse one scratch `BlockCounters` per block —
    /// but never written.
    pub fn typed(block_id: usize, lanes: usize, counters: &'a mut BlockCounters) -> Self {
        debug_assert!(VALID_GROUP_LANES.contains(&lanes), "invalid group width {lanes}");
        Self { block_id, lanes, counters, _profile: PhantomData }
    }

    /// Number of lanes in this group.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    // ----- SIMT step / divergence accounting -------------------------------

    /// Records one lockstep step in which `active` of the group's lanes were
    /// enabled. This is what the active-lane-fraction profiling metric is
    /// computed from.
    #[inline]
    pub fn step(&mut self, active: usize) {
        if P::INSTRUMENTED {
            debug_assert!(active <= self.lanes);
            self.counters.lane_slots += self.lanes as u64;
            self.counters.active_lanes += active as u64;
        }
    }

    /// Records `steps` identical lockstep steps with `total_active` active
    /// lane-slots in total (bulk version of [`Self::step`]).
    #[inline]
    pub fn steps(&mut self, steps: u64, total_active: u64) {
        if P::INSTRUMENTED {
            debug_assert!(total_active <= steps * self.lanes as u64);
            self.counters.lane_slots += steps * self.lanes as u64;
            self.counters.active_lanes += total_active;
        }
    }

    /// Records the steps needed to process `items` items strided across the
    /// group (the paper's interleaved edge distribution): `ceil(items/lanes)`
    /// steps, with only `items mod lanes` lanes active in the last one.
    #[inline]
    pub fn strided_steps(&mut self, items: usize) {
        if P::INSTRUMENTED {
            if items == 0 {
                return;
            }
            let steps = items.div_ceil(self.lanes) as u64;
            self.steps(steps, items as u64);
        }
    }

    /// Block-wide barrier (`__syncthreads`). Semantically a no-op under
    /// lockstep execution; counted for the cost model. Under
    /// [`crate::Racecheck`] it advances the block's barrier epoch, ordering
    /// all of the block's earlier accesses before its later ones in the
    /// happens-before detector.
    #[inline]
    pub fn barrier(&mut self) {
        if P::INSTRUMENTED {
            self.counters.barriers += 1;
        }
        if P::RACECHECK {
            crate::racecheck::advance_epoch();
        }
    }

    /// Marks one task as processed.
    #[inline]
    pub fn finish_task(&mut self) {
        if P::INSTRUMENTED {
            self.counters.tasks += 1;
        }
    }

    // ----- memory traffic accounting ---------------------------------------

    /// Records a coalesced global read of `words` consecutive 8-byte words
    /// (e.g. scanning a neighbor list): `ceil(words / 16)` 128-byte
    /// transactions.
    #[inline]
    pub fn global_read_coalesced(&mut self, words: usize) {
        if P::INSTRUMENTED {
            self.counters.global_reads += words as u64;
            self.counters.global_transactions += words.div_ceil(16) as u64;
        }
    }

    /// Records a scattered global read of `words` words (e.g. hash probes):
    /// one transaction each.
    #[inline]
    pub fn global_read_scattered(&mut self, words: usize) {
        if P::INSTRUMENTED {
            self.counters.global_reads += words as u64;
            self.counters.global_transactions += words as u64;
        }
    }

    /// Records a coalesced global write of `words` consecutive words.
    #[inline]
    pub fn global_write_coalesced(&mut self, words: usize) {
        if P::INSTRUMENTED {
            self.counters.global_writes += words as u64;
            self.counters.global_transactions += words.div_ceil(16) as u64;
        }
    }

    /// Records a scattered global write.
    #[inline]
    pub fn global_write_scattered(&mut self, words: usize) {
        if P::INSTRUMENTED {
            self.counters.global_writes += words as u64;
            self.counters.global_transactions += words as u64;
        }
    }

    /// Records `words` shared-memory accesses (assumed conflict-free; the
    /// paper's hash tables use double hashing to spread banks).
    #[inline]
    pub fn shared_access(&mut self, words: usize) {
        if P::INSTRUMENTED {
            self.counters.shared_accesses += words as u64;
        }
    }

    // ----- counted atomics on global memory --------------------------------

    /// `atomicAdd` on a global f64 cell (CAS-loop emulation, as on the K40m).
    /// Retries are counted as CAS failures.
    #[inline]
    #[track_caller]
    pub fn atomic_add_f64(&mut self, buf: &GlobalF64, idx: usize, v: f64) {
        self.atomic_add_f64_prev(buf, idx, v);
    }

    /// `atomicAdd` on a global f64 cell returning the previous value — what
    /// the hardware `atomicAdd` gives back, needed by callers that derive
    /// incremental quantities (e.g. Σa² updates) from the pre-add value.
    #[inline]
    #[track_caller]
    pub fn atomic_add_f64_prev(&mut self, buf: &GlobalF64, idx: usize, v: f64) -> f64 {
        let (prev, attempts) = buf.atomic_add_prev(idx, v);
        if P::INSTRUMENTED {
            self.counters.atomic_adds += 1;
            self.counters.cas_ops += attempts as u64;
            self.counters.cas_failures += (attempts - 1) as u64;
        }
        prev
    }

    /// `atomicAdd` on a global u32 cell; returns the previous value.
    #[inline]
    #[track_caller]
    pub fn atomic_add_u32(&mut self, buf: &GlobalU32, idx: usize, v: u32) -> u32 {
        if P::INSTRUMENTED {
            self.counters.atomic_adds += 1;
        }
        buf.atomic_add(idx, v)
    }

    /// `atomicAdd` on a global u64 cell; returns the previous value.
    #[inline]
    #[track_caller]
    pub fn atomic_add_u64(&mut self, buf: &GlobalU64, idx: usize, v: u64) -> u64 {
        if P::INSTRUMENTED {
            self.counters.atomic_adds += 1;
        }
        buf.atomic_add(idx, v)
    }

    /// `atomicCAS` on a global u32 cell. `Ok(prev)` when the swap succeeded.
    #[inline]
    #[track_caller]
    pub fn cas_u32(
        &mut self,
        buf: &GlobalU32,
        idx: usize,
        current: u32,
        new: u32,
    ) -> Result<u32, u32> {
        let r = buf.cas(idx, current, new);
        if P::INSTRUMENTED {
            self.counters.cas_ops += 1;
            if r.is_err() {
                self.counters.cas_failures += 1;
            }
        }
        r
    }

    /// Accounts atomic adds performed on block-private storage (e.g. a hash
    /// table that lives in global memory but is only touched by this block,
    /// so the simulator backs it with plain memory). Semantically the adds
    /// are already serialized by lockstep execution; this records their cost.
    #[inline]
    pub fn note_atomic_adds(&mut self, n: u64) {
        if P::INSTRUMENTED {
            self.counters.atomic_adds += n;
        }
    }

    /// Accounts CAS operations performed on block-private storage (see
    /// [`Self::note_atomic_adds`]).
    #[inline]
    pub fn note_cas(&mut self, ops: u64, failures: u64) {
        if P::INSTRUMENTED {
            debug_assert!(failures <= ops);
            self.counters.cas_ops += ops;
            self.counters.cas_failures += failures;
        }
    }

    /// Records one shared→global hash-table fallback (a shared-memory table
    /// overflowed and the task was retried against global memory).
    #[inline]
    pub fn note_table_fallback(&mut self) {
        if P::INSTRUMENTED {
            self.counters.table_fallbacks += 1;
        }
    }

    // ----- warp/block collectives ------------------------------------------

    /// Records the cost of a `log2(lanes)`-step shuffle collective. For
    /// block-spanning groups the collective is a shared-memory reduction
    /// with `__syncthreads` inside on hardware, so under
    /// [`crate::Racecheck`] it also advances the barrier epoch — a kernel
    /// that reduces and then reads data written before the reduction is
    /// properly ordered, exactly as it would be on the device.
    #[inline]
    fn collective_cost(&mut self) {
        if P::INSTRUMENTED {
            let steps = self.lanes.trailing_zeros() as u64;
            self.steps(steps, steps * self.lanes as u64);
        }
        if P::RACECHECK && self.lanes > 32 {
            crate::racecheck::advance_epoch();
        }
    }

    /// Tournament argmax over per-lane `(score, key)` pairs — the reduction
    /// `computeMove` uses to pick the best destination community (Alg. 2
    /// line 14). Ties in score resolve to the **lowest key**, implementing
    /// the paper's "move to the community with the lowest index among
    /// candidates of maximal gain" rule. Returns `None` for an empty slice.
    pub fn reduce_best(&mut self, lane_vals: &[(f64, u32)]) -> Option<(f64, u32)> {
        debug_assert!(lane_vals.len() <= self.lanes);
        self.collective_cost();
        lane_vals.iter().copied().reduce(
            |a, b| {
                if b.0 > a.0 || (b.0 == a.0 && b.1 < a.1) {
                    b
                } else {
                    a
                }
            },
        )
    }

    /// Sum reduction over per-lane values.
    pub fn reduce_sum_f64(&mut self, lane_vals: &[f64]) -> f64 {
        debug_assert!(lane_vals.len() <= self.lanes);
        self.collective_cost();
        lane_vals.iter().sum()
    }

    /// Exclusive prefix sum across lanes; returns the total. Used when
    /// threads claim output slots (the edge-compaction step of
    /// `mergeCommunity`).
    pub fn exclusive_scan_usize(&mut self, lane_vals: &mut [usize]) -> usize {
        debug_assert!(lane_vals.len() <= self.lanes);
        self.collective_cost();
        let mut acc = 0usize;
        for v in lane_vals.iter_mut() {
            let cur = *v;
            *v = acc;
            acc += cur;
        }
        acc
    }

    /// Warp ballot: bitmask of lanes whose predicate is true (lane 0 = LSB).
    /// Block-spanning ballots are `__syncthreads`-based votes on hardware,
    /// so they advance the racecheck barrier epoch like the reductions do.
    pub fn ballot(&mut self, lane_preds: &[bool]) -> u128 {
        debug_assert!(lane_preds.len() <= self.lanes);
        self.step(lane_preds.len());
        if P::RACECHECK && self.lanes > 32 {
            crate::racecheck::advance_epoch();
        }
        lane_preds.iter().enumerate().fold(0u128, |m, (i, &p)| if p { m | (1u128 << i) } else { m })
    }

    /// Read-only view of the counters accumulated so far by this group's
    /// block (tests and instrumentation). All-zero under [`crate::Parallel`].
    pub fn counters(&self) -> &BlockCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Parallel;

    fn ctx(counters: &mut BlockCounters) -> GroupCtx<'_> {
        GroupCtx::new(0, 32, counters)
    }

    #[test]
    fn step_accounting() {
        let mut c = BlockCounters::default();
        let mut g = ctx(&mut c);
        g.step(20);
        g.strided_steps(70); // ceil(70/32) = 3 steps, 70 active
        assert_eq!(c.lane_slots, 32 + 96);
        assert_eq!(c.active_lanes, 20 + 70);
    }

    #[test]
    fn reduce_best_prefers_low_key_on_tie() {
        let mut c = BlockCounters::default();
        let mut g = ctx(&mut c);
        let best = g.reduce_best(&[(1.0, 9), (2.0, 5), (2.0, 3), (0.5, 1)]).unwrap();
        assert_eq!(best, (2.0, 3));
        assert!(g.reduce_best(&[]).is_none());
    }

    #[test]
    fn exclusive_scan() {
        let mut c = BlockCounters::default();
        let mut g = ctx(&mut c);
        let mut v = [3usize, 0, 2, 5];
        let total = g.exclusive_scan_usize(&mut v);
        assert_eq!(v, [0, 3, 3, 5]);
        assert_eq!(total, 10);
    }

    #[test]
    fn ballot_mask() {
        let mut c = BlockCounters::default();
        let mut g = ctx(&mut c);
        assert_eq!(g.ballot(&[true, false, true, true]), 0b1101);
    }

    #[test]
    fn atomic_wrappers_count() {
        let mut c = BlockCounters::default();
        let f = GlobalF64::zeroed(1);
        let u = GlobalU32::zeroed(1);
        {
            let mut g = GroupCtx::new(0, 4, &mut c);
            g.atomic_add_f64(&f, 0, 2.0);
            assert_eq!(g.atomic_add_u32(&u, 0, 3), 0);
            assert!(g.cas_u32(&u, 0, 3, 7).is_ok());
            assert!(g.cas_u32(&u, 0, 3, 9).is_err());
        }
        assert_eq!(f.load(0), 2.0);
        assert_eq!(u.load(0), 7);
        assert_eq!(c.atomic_adds, 2);
        assert_eq!(c.cas_ops, 3); // 1 from f64 add + 2 explicit
        assert_eq!(c.cas_failures, 1);
    }

    #[test]
    fn transaction_model() {
        let mut c = BlockCounters::default();
        let mut g = ctx(&mut c);
        g.global_read_coalesced(32); // 2 transactions
        g.global_read_scattered(5); // 5 transactions
        assert_eq!(c.global_transactions, 7);
        assert_eq!(c.global_reads, 37);
    }

    #[test]
    fn parallel_profile_same_semantics_zero_counters() {
        let mut c = BlockCounters::default();
        let f = GlobalF64::zeroed(1);
        let u = GlobalU32::zeroed(1);
        {
            let mut g: GroupCtx<'_, Parallel> = GroupCtx::typed(0, 32, &mut c);
            g.step(20);
            g.strided_steps(70);
            g.barrier();
            g.global_read_coalesced(32);
            g.shared_access(4);
            g.note_atomic_adds(5);
            g.note_cas(3, 1);
            g.note_table_fallback();
            g.atomic_add_f64(&f, 0, 2.5);
            assert_eq!(g.atomic_add_u32(&u, 0, 3), 0);
            assert!(g.cas_u32(&u, 0, 3, 7).is_ok());
            assert_eq!(g.reduce_best(&[(1.0, 9), (2.0, 3)]), Some((2.0, 3)));
            let mut v = [3usize, 0, 2, 5];
            assert_eq!(g.exclusive_scan_usize(&mut v), 10);
            assert_eq!(g.ballot(&[true, false, true]), 0b101);
            g.finish_task();
        }
        // Memory semantics applied...
        assert_eq!(f.load(0), 2.5);
        assert_eq!(u.load(0), 7);
        // ...but no accounting recorded.
        assert_eq!(c, BlockCounters::default());
    }
}
