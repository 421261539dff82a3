//! The open-addressing hash table at the heart of both phases (Alg. 2
//! lines 2-13): keys are community ids, values are accumulated edge weights,
//! probing is double hashing over a prime-sized table.
//!
//! One table instance lives in a block's scratch and is reused across the
//! tasks the block processes. The backing space ([`TableSpace`]) only changes
//! *accounting*: a shared-memory table charges shared accesses, a
//! global-memory table charges scattered global transactions plus the
//! atomics/CAS traffic the paper's kernel issues (`atomicAdd` per weight
//! update, CAS per slot claim). Lockstep execution already serializes lanes,
//! so the simulated CAS always succeeds — the operation counts are what the
//! cost model consumes.
//!
//! Modeled and host cost differ for the whole-table passes. A table is sized
//! for its bucket's largest task, and the device clears it and scans it for
//! extraction in a few lockstep steps, so [`HashTable::reset`] charges a
//! write per slot. On the host, [`TableStorage`] keeps the list of slots
//! claimed since it was last clean — every other slot of the storage is
//! `(EMPTY, 0.0)` — so reset, [`HashTable::iter_filled`] and
//! [`HashTable::len`] touch only the claimed slots, whatever size the
//! table models.

use cd_gpusim::racecheck::{self, AccessKind};
use cd_gpusim::{ExecutionProfile, GroupCtx};
use std::panic::Location;

/// Sentinel for an unclaimed slot (the paper's `null`; community ids are
/// 32-bit, so `u32::MAX` is never a valid id).
pub const EMPTY: u32 = u32::MAX;

/// Which memory space the table is modeled to occupy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TableSpace {
    /// On-chip shared memory (buckets whose tables fit the block budget).
    Shared,
    /// Off-chip global memory (the paper's bucket 7 / largest communities).
    Global,
}

/// Recoverable capacity fault: the probe sequence visited every slot without
/// finding the key or an empty slot. The 1.5x sizing rule makes this
/// unreachable for well-formed inputs, but corrupted labels or degree sums
/// can undersize a table; callers recover by retrying the task against a
/// larger (next-prime) table, falling back from shared to global memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableOverflow {
    /// Slot count of the table that overflowed.
    pub size: usize,
}

impl std::fmt::Display for TableOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "hash table overflow: size {} too small", self.size)
    }
}

impl std::error::Error for TableOverflow {}

/// A community→weight accumulation table over a borrowed [`TableStorage`].
pub struct HashTable<'t> {
    keys: &'t mut [u32],
    weights: &'t mut [f64],
    /// The storage's claimed-slot list (see [`TableStorage`]).
    claimed: &'t mut Vec<u32>,
    size: usize,
    space: TableSpace,
    /// Shadow identity of the backing arena for the race detector.
    object: u64,
    /// Allocation site of the backing arena (reported on violations).
    origin: &'static Location<'static>,
    /// Whether the table is *block-cooperative* — filled by all of a block's
    /// warps concurrently. Only cooperative tables are visible to the race
    /// detector; per-thread private tables (see
    /// [`TableStorage::table_private`]) cannot race by construction.
    coop: bool,
    /// Per-borrow operation counter used to spread simulated insert lanes
    /// across the group (lockstep execution erases which lane issued which
    /// insert; on hardware consecutive arcs go to consecutive lanes).
    ops: u32,
}

impl HashTable<'_> {
    /// True when accesses to this borrow should be routed to the race
    /// detector: a cooperative table, under the `Racecheck` profile, in a
    /// group wide enough to span multiple warps (sub-warp groups are
    /// warp-lockstep on hardware and cannot race with themselves).
    #[inline]
    fn rc_active<P: ExecutionProfile>(&self, ctx: &GroupCtx<P>) -> bool {
        P::RACECHECK && self.coop && ctx.lanes() > 32
    }

    /// Number of slots.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Clears all slots (done once per task). Modeled and charged as a
    /// block-strided cooperative fill of every slot — slot `s` is written by
    /// lane `s % lanes`, which is how the detector attributes the plain
    /// stores — but on the host only the slots claimed since the last reset
    /// are written back to `(EMPTY, 0.0)`.
    #[track_caller]
    pub fn reset<P: ExecutionProfile>(&mut self, ctx: &mut GroupCtx<P>) {
        for slot in self.claimed.drain(..) {
            self.keys[slot as usize] = EMPTY;
            self.weights[slot as usize] = 0.0;
        }
        self.charge_writes(ctx, self.size);
        ctx.strided_steps(self.size);
        if self.rc_active(ctx) {
            let site = Location::caller();
            let lanes = ctx.lanes();
            for slot in 0..self.size {
                racecheck::record_shared(
                    self.object,
                    self.origin,
                    slot,
                    slot % lanes,
                    AccessKind::Write,
                    site,
                );
            }
        }
    }

    #[inline]
    fn h1(&self, key: u32) -> usize {
        // Multiplicative scramble before the mod, so consecutive community
        // ids don't collide into runs.
        (key as usize).wrapping_mul(0x9E37_79B9) % self.size
    }

    #[inline]
    fn h2(&self, key: u32) -> usize {
        // Non-zero and < size; with a prime size every stride visits all
        // slots.
        1 + (key as usize).wrapping_mul(0x85EB_CA6B) % (self.size - 1)
    }

    /// The probe sequence position for `key` at attempt `it` — the paper's
    /// `hash(C[j], it)`.
    #[inline]
    pub fn probe(&self, key: u32, it: usize) -> usize {
        (self.h1(key) + it * self.h2(key)) % self.size
    }

    /// Algorithm 2, lines 2-13: accumulate `w` onto `key`'s slot, claiming a
    /// slot with CAS when the key is not yet present. Returns the slot index
    /// and its weight *after* the update (the "current value" a lane tracks
    /// its local best with).
    ///
    /// Panics if the table is full; fault-tolerant kernels use
    /// [`HashTable::try_insert_add`] and retry the task with a larger table.
    #[track_caller]
    pub fn insert_add<P: ExecutionProfile>(
        &mut self,
        ctx: &mut GroupCtx<P>,
        key: u32,
        w: f64,
    ) -> (usize, f64) {
        self.try_insert_add(ctx, key, w).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`HashTable::insert_add`]: a full table is returned
    /// as a [`TableOverflow`] instead of panicking, so the caller can retry
    /// the whole task against a resized table.
    ///
    /// Probe visits are recorded as *atomic* accesses for the race detector:
    /// the key read is part of the CAS-validated lock-free claim protocol
    /// (Alg. 2 lines 9-13), so concurrent inserts from different warps are
    /// ordered by the hardware atomics — only pairings with the plain stores
    /// of [`HashTable::reset`] or the plain loads of extraction constitute
    /// hazards.
    #[track_caller]
    pub fn try_insert_add<P: ExecutionProfile>(
        &mut self,
        ctx: &mut GroupCtx<P>,
        key: u32,
        w: f64,
    ) -> Result<(usize, f64), TableOverflow> {
        debug_assert_ne!(key, EMPTY);
        // `Location::caller()` must be taken directly in this #[track_caller]
        // body (a closure would see its own definition site).
        let site = Location::caller();
        let rc = if self.rc_active(ctx) {
            // Attribute this insert to a rotating lane: lockstep execution
            // erases the issuing lane, but on hardware consecutive arcs are
            // handled by consecutive lanes of the group.
            let lane = self.ops as usize % ctx.lanes();
            self.ops = self.ops.wrapping_add(1);
            Some((lane, site))
        } else {
            None
        };
        // Walk the probe sequence (h1 + it*h2) mod size incrementally: the
        // stride is already reduced mod size, so each step is an add plus a
        // conditional subtract — no division inside the loop. The visited
        // slots are exactly those of [`HashTable::probe`].
        let mut pos = self.h1(key);
        let stride = self.h2(key);
        let mut it = 0usize;
        loop {
            if it >= self.size {
                return Err(TableOverflow { size: self.size });
            }
            it += 1;
            self.charge_reads(ctx, 1);
            if let Some((lane, site)) = rc {
                racecheck::record_shared(
                    self.object,
                    self.origin,
                    pos,
                    lane,
                    AccessKind::Atomic,
                    site,
                );
            }
            let k = self.keys[pos];
            if k == key {
                // Key already claimed: atomicAdd the weight (line 7).
                self.weights[pos] += w;
                self.charge_atomic_add(ctx);
                return Ok((pos, self.weights[pos]));
            }
            if k == EMPTY {
                // Claim the slot with CAS (line 9). Lockstep execution means
                // the claim always succeeds here; the paper's lines 11-13
                // handle the lost-race case, which cannot arise within a
                // serialized group.
                self.keys[pos] = key;
                self.claimed.push(pos as u32);
                self.charge_cas(ctx);
                self.weights[pos] += w;
                self.charge_atomic_add(ctx);
                return Ok((pos, self.weights[pos]));
            }
            // Occupied by another community: continue the probe sequence.
            pos += stride;
            if pos >= self.size {
                pos -= self.size;
            }
        }
    }

    /// Looks up the accumulated weight for `key` (0 when absent). The lookup
    /// is a *plain* load (extraction side): the detector flags it against any
    /// unordered concurrent insert, which is exactly the fill→read
    /// missing-barrier hazard.
    #[track_caller]
    pub fn get<P: ExecutionProfile>(&self, ctx: &mut GroupCtx<P>, key: u32) -> f64 {
        let site = Location::caller();
        let rc = self.rc_active(ctx).then_some(site);
        let mut pos = self.h1(key);
        let stride = self.h2(key);
        let mut it = 0usize;
        loop {
            if it >= self.size {
                return 0.0;
            }
            it += 1;
            self.charge_reads_const(ctx, 1);
            if let Some(site) = rc {
                racecheck::record_shared(self.object, self.origin, pos, 0, AccessKind::Read, site);
            }
            let k = self.keys[pos];
            if k == key {
                return self.weights[pos];
            }
            if k == EMPTY {
                return 0.0;
            }
            pos += stride;
            if pos >= self.size {
                pos -= self.size;
            }
        }
    }

    /// Key stored at a slot (`EMPTY` if unclaimed).
    pub fn key_at(&self, pos: usize) -> u32 {
        self.keys[pos]
    }

    /// Weight stored at a slot.
    pub fn weight_at(&self, pos: usize) -> f64 {
        self.weights[pos]
    }

    /// Tells the race detector the group is about to scan every slot with
    /// plain loads (the extraction pass preceding [`HashTable::iter_filled`],
    /// modeled as a block-strided read: slot `s` by lane `s % lanes`).
    /// Cooperative kernels call this right before iterating so an unordered
    /// concurrent insert from another warp is flagged. No-op outside the
    /// `Racecheck` profile.
    #[track_caller]
    pub fn note_scan<P: ExecutionProfile>(&self, ctx: &GroupCtx<P>) {
        if self.rc_active(ctx) {
            let site = Location::caller();
            let lanes = ctx.lanes();
            for slot in 0..self.size {
                racecheck::record_shared(
                    self.object,
                    self.origin,
                    slot,
                    slot % lanes,
                    AccessKind::Read,
                    site,
                );
            }
        }
    }

    /// Iterates the filled `(key, weight)` slots in the order their slots
    /// were claimed since the last reset (the order keys were first
    /// inserted), unless [`HashTable::sort_filled_by_key`] reordered them.
    pub fn iter_filled(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.claimed.iter().map(|&s| (self.keys[s as usize], self.weights[s as usize]))
    }

    /// Reorders what [`HashTable::iter_filled`] yields by `f(key)` (keys are
    /// distinct, so an injective `f` fixes the order). Host-side only: slot
    /// positions and the modeled cost do not change.
    pub fn sort_filled_by_key<K: Ord>(&mut self, mut f: impl FnMut(u32) -> K) {
        let keys = &*self.keys;
        self.claimed.sort_unstable_by_key(|&s| f(keys[s as usize]));
    }

    /// Number of filled slots.
    pub fn len(&self) -> usize {
        self.claimed.len()
    }

    /// True when no slot is claimed.
    pub fn is_empty(&self) -> bool {
        self.claimed.is_empty()
    }

    fn charge_reads<P: ExecutionProfile>(&self, ctx: &mut GroupCtx<P>, n: usize) {
        match self.space {
            TableSpace::Shared => ctx.shared_access(n),
            TableSpace::Global => ctx.global_read_scattered(n),
        }
    }

    fn charge_reads_const<P: ExecutionProfile>(&self, ctx: &mut GroupCtx<P>, n: usize) {
        self.charge_reads(ctx, n);
    }

    fn charge_writes<P: ExecutionProfile>(&self, ctx: &mut GroupCtx<P>, n: usize) {
        match self.space {
            TableSpace::Shared => ctx.shared_access(n),
            TableSpace::Global => ctx.global_write_coalesced(n),
        }
    }

    fn charge_atomic_add<P: ExecutionProfile>(&self, ctx: &mut GroupCtx<P>) {
        match self.space {
            TableSpace::Shared => ctx.shared_access(2),
            TableSpace::Global => ctx.note_atomic_adds(1),
        }
    }

    fn charge_cas<P: ExecutionProfile>(&self, ctx: &mut GroupCtx<P>) {
        match self.space {
            TableSpace::Shared => ctx.shared_access(2),
            TableSpace::Global => ctx.note_cas(1, 0),
        }
    }
}

/// Reusable backing storage for one block's hash table. Takes a shadow
/// object id at construction so the race detector can tell arenas apart
/// (and report the allocation site of the racy one).
///
/// Invariant: every slot not listed in `claimed` is `(EMPTY, 0.0)`. Inserts
/// append the slots they claim; [`HashTable::reset`] clears exactly the
/// listed slots. It holds across borrows of any size (a small table's reset
/// clears slots a larger earlier borrow claimed) and across growth (new
/// slots start clean).
#[derive(Debug)]
pub struct TableStorage {
    keys: Vec<u32>,
    weights: Vec<f64>,
    /// Slots claimed since the storage was last clean, in claim order.
    claimed: Vec<u32>,
    object: u64,
    origin: &'static Location<'static>,
}

impl Default for TableStorage {
    #[track_caller]
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl TableStorage {
    /// Storage able to hold tables up to `capacity` slots.
    #[track_caller]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            keys: vec![EMPTY; capacity],
            weights: vec![0.0; capacity],
            claimed: Vec::with_capacity(capacity),
            object: racecheck::next_object_id(),
            origin: Location::caller(),
        }
    }

    /// Borrows a *block-cooperative* table of `size` slots (growing the
    /// storage if needed): all warps of the block fill it concurrently, so
    /// under the `Racecheck` profile its accesses are routed to the race
    /// detector. Kernels whose table is private to one thread use
    /// [`TableStorage::table_private`] instead.
    pub fn table(&mut self, size: usize, space: TableSpace) -> HashTable<'_> {
        self.borrow_table(size, space, true)
    }

    /// Borrows a table that is *private to one simulated thread* (the
    /// node-centric kernels give every vertex its own table). Private tables
    /// cannot race by construction, so the detector does not track them —
    /// recording them would misattribute sequential per-vertex reuse as
    /// cross-warp hazards.
    pub fn table_private(&mut self, size: usize, space: TableSpace) -> HashTable<'_> {
        self.borrow_table(size, space, false)
    }

    fn borrow_table(&mut self, size: usize, space: TableSpace, coop: bool) -> HashTable<'_> {
        if self.keys.len() < size {
            self.keys.resize(size, EMPTY);
            self.weights.resize(size, 0.0);
        }
        assert!(size >= 2);
        HashTable {
            keys: &mut self.keys,
            weights: &mut self.weights,
            claimed: &mut self.claimed,
            size,
            space,
            object: self.object,
            origin: self.origin,
            coop,
            ops: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::table_size_for;
    use cd_gpusim::{BlockCounters, GroupCtx};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn with_ctx<R>(f: impl FnOnce(&mut GroupCtx) -> R) -> (R, BlockCounters) {
        let mut counters = BlockCounters::default();
        let r = {
            let mut ctx = GroupCtx::new(0, 32, &mut counters);
            f(&mut ctx)
        };
        (r, counters)
    }

    #[test]
    fn insert_and_accumulate() {
        let mut storage = TableStorage::with_capacity(64);
        let ((), counters) = with_ctx(|ctx| {
            let mut t = storage.table(table_size_for(10).unwrap(), TableSpace::Shared);
            t.reset(ctx);
            t.insert_add(ctx, 5, 1.0);
            t.insert_add(ctx, 7, 2.0);
            let (_, running) = t.insert_add(ctx, 5, 0.5);
            assert_eq!(running, 1.5);
            assert_eq!(t.get(ctx, 5), 1.5);
            assert_eq!(t.get(ctx, 7), 2.0);
            assert_eq!(t.get(ctx, 9), 0.0);
            assert_eq!(t.len(), 2);
        });
        assert!(counters.shared_accesses > 0);
        assert_eq!(counters.atomic_adds, 0, "shared tables must not charge global atomics");
    }

    #[test]
    fn global_space_charges_atomics() {
        let mut storage = TableStorage::with_capacity(64);
        let ((), counters) = with_ctx(|ctx| {
            let mut t = storage.table(table_size_for(10).unwrap(), TableSpace::Global);
            t.reset(ctx);
            t.insert_add(ctx, 1, 1.0);
            t.insert_add(ctx, 1, 1.0);
        });
        assert_eq!(counters.atomic_adds, 2);
        assert_eq!(counters.cas_ops, 1);
        assert!(counters.global_reads > 0);
    }

    #[test]
    fn handles_colliding_keys_to_capacity() {
        // Fill a small prime table completely; every key must remain
        // retrievable.
        let size = table_size_for(4).unwrap(); // 7
        let mut storage = TableStorage::with_capacity(size);
        with_ctx(|ctx| {
            let mut t = storage.table(size, TableSpace::Shared);
            t.reset(ctx);
            for key in 0..size as u32 {
                t.insert_add(ctx, key * 7919, key as f64 + 1.0);
            }
            for key in 0..size as u32 {
                assert_eq!(t.get(ctx, key * 7919), key as f64 + 1.0);
            }
            assert_eq!(t.len(), size);
        });
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let size = table_size_for(2).unwrap(); // 5
        let mut storage = TableStorage::with_capacity(size);
        with_ctx(|ctx| {
            let mut t = storage.table(size, TableSpace::Shared);
            t.reset(ctx);
            for key in 0..=size as u32 {
                t.insert_add(ctx, key, 1.0);
            }
        });
    }

    #[test]
    fn overflow_is_recoverable_with_a_resized_table() {
        // The fault-tolerant kernel path: on overflow, the kernels' one retry
        // helper re-runs the whole task against a larger table until every
        // key fits. Returns the table sizes tried, the final entries and the
        // fallbacks counted.
        let keys: Vec<u32> = (0..12u32).map(|k| k * 7919).collect();
        let run = |slots: usize, space: TableSpace| {
            let mut storage = TableStorage::with_capacity(4);
            let mut sizes = Vec::new();
            let mut entries = Vec::new();
            let ((), counters) = with_ctx(|ctx| {
                crate::bucketed::with_table_retry(ctx, &mut storage, slots, space, |ctx, t| {
                    sizes.push(t.size());
                    t.reset(ctx);
                    let size = t.size();
                    for &k in &keys {
                        t.try_insert_add(ctx, k, 1.0)
                            .inspect_err(|overflow| assert_eq!(overflow.size, size))?;
                    }
                    entries = t.iter_filled().collect();
                    Ok(())
                })
            });
            entries.sort_unstable_by_key(|&(k, _)| k);
            (sizes, entries, counters.table_fallbacks)
        };
        let large = table_size_for(keys.len()).unwrap();
        let (sizes, reference, fallbacks) = run(large, TableSpace::Shared);
        assert_eq!((sizes, fallbacks), (vec![large], 0));
        assert_eq!(reference, keys.iter().map(|&k| (k, 1.0)).collect::<Vec<_>>());

        let small = table_size_for(2).unwrap(); // 5 — too small for 12 keys
        for (space, expected_fallbacks) in [(TableSpace::Shared, 1), (TableSpace::Global, 0)] {
            let (sizes, entries, fallbacks) = run(small, space);
            assert!(sizes.len() > 1, "{space:?}: recovery must have grown the table");
            assert_eq!(sizes[0], small);
            assert!(sizes.windows(2).all(|w| w[0] < w[1]), "{space:?}: sizes {sizes:?}");
            assert_eq!(entries, reference, "{space:?}");
            assert_eq!(fallbacks, expected_fallbacks, "{space:?}");
        }
    }

    #[test]
    fn iter_filled_sees_all_entries() {
        let mut storage = TableStorage::with_capacity(32);
        with_ctx(|ctx| {
            let mut t = storage.table(table_size_for(8).unwrap(), TableSpace::Shared);
            t.reset(ctx);
            for key in [3u32, 14, 159, 2653] {
                t.insert_add(ctx, key, key as f64);
            }
            let mut entries: Vec<(u32, f64)> = t.iter_filled().collect();
            entries.sort_unstable_by_key(|&(k, _)| k);
            assert_eq!(entries, vec![(3, 3.0), (14, 14.0), (159, 159.0), (2653, 2653.0)]);
        });
    }

    #[test]
    fn storage_reuse_and_growth() {
        let mut storage = TableStorage::with_capacity(4);
        with_ctx(|ctx| {
            {
                let mut t = storage.table(5, TableSpace::Shared);
                t.reset(ctx);
                t.insert_add(ctx, 9, 1.0);
            }
            // Bigger request grows the storage; reset clears old entries.
            let mut t = storage.table(11, TableSpace::Shared);
            t.reset(ctx);
            assert_eq!(t.get(ctx, 9), 0.0);
        });
    }

    /// Asserts the storage is clean: nothing claimed, every slot
    /// `(EMPTY, +0.0)`.
    fn assert_clean(storage: &TableStorage) {
        assert!(storage.claimed.is_empty(), "claimed slots left: {:?}", storage.claimed);
        for (slot, (&k, &w)) in storage.keys.iter().zip(&storage.weights).enumerate() {
            assert_eq!((k, w.to_bits()), (EMPTY, 0), "stale slot {slot}");
        }
    }

    #[test]
    fn overflowed_attempt_leaves_no_stale_slot() {
        let small = table_size_for(2).unwrap(); // 5 — too small for 12 keys
        let keys: Vec<u32> = (0..12u32).map(|k| k * 7919).collect();
        let mut storage = TableStorage::with_capacity(small);
        let mut sizes = Vec::new();
        let space = TableSpace::Shared;
        with_ctx(|ctx| {
            crate::bucketed::with_table_retry(ctx, &mut storage, small, space, |ctx, t| {
                sizes.push(t.size());
                t.reset(ctx);
                for &k in &keys {
                    t.try_insert_add(ctx, k, 1.5)?;
                }
                Ok(())
            });
            assert!(sizes.len() > 1, "the attempt must have overflowed at least once");
            // The next task borrows the original (smaller) size; its reset
            // must also clear the slots the grown table claimed beyond it.
            let mut t = storage.table(small, TableSpace::Shared);
            t.reset(ctx);
            assert!(t.is_empty());
            assert!(keys.iter().all(|&k| t.get(ctx, k) == 0.0));
        });
        assert_clean(&storage);
    }

    /// One step of the reference-checked table sequence.
    #[derive(Clone, Debug)]
    enum Op {
        Insert(u32, f64),
        Get(u32),
        /// Borrow a table of `SIZES[i]` slots and reset it.
        Reset(usize),
    }

    const SIZES: [usize; 6] = [5, 7, 13, 31, 53, 97];

    /// Inserts, gets and resets in proportion 6 : 2 : 1.
    fn op() -> impl Strategy<Value = Op> {
        (0u32..9, 0u32..70, -4.0f64..4.0, 0..SIZES.len()).prop_map(|(kind, k, w, i)| match kind {
            0..=5 => Op::Insert(k, w),
            6 | 7 => Op::Get(k),
            _ => Op::Reset(i),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        #[test]
        fn claimed_slot_table_matches_a_map_across_sizes(
            first in 0..SIZES.len(),
            ops in proptest::collection::vec(op(), 0..200),
        ) {
            let mut storage = TableStorage::with_capacity(4);
            let mut size = SIZES[first];
            // Reference: key -> accumulated weight, plus first-insert order.
            let mut map: HashMap<u32, f64> = HashMap::new();
            let mut order: Vec<u32> = Vec::new();
            with_ctx(|ctx| storage.table(size, TableSpace::Shared).reset(ctx));
            assert_clean(&storage);
            for op in ops {
                match op {
                    Op::Reset(i) => {
                        size = SIZES[i];
                        with_ctx(|ctx| storage.table(size, TableSpace::Shared).reset(ctx));
                        assert_clean(&storage);
                        map.clear();
                        order.clear();
                    }
                    Op::Insert(k, w) => {
                        let full = !map.contains_key(&k) && map.len() == size;
                        let (got, _) = with_ctx(|ctx| {
                            storage.table(size, TableSpace::Shared).try_insert_add(ctx, k, w)
                        });
                        if full {
                            prop_assert_eq!(got, Err(TableOverflow { size }));
                        } else {
                            let acc = map.entry(k).or_insert_with(|| {
                                order.push(k);
                                0.0
                            });
                            *acc += w;
                            let (slot, running) = got.expect("room in the table");
                            prop_assert!(slot < size);
                            prop_assert_eq!(running.to_bits(), acc.to_bits());
                        }
                    }
                    Op::Get(k) => {
                        let (got, _) =
                            with_ctx(|ctx| storage.table(size, TableSpace::Shared).get(ctx, k));
                        prop_assert_eq!(got.to_bits(), map.get(&k).copied().unwrap_or(0.0).to_bits());
                    }
                }
                let t = storage.table(size, TableSpace::Shared);
                let want: Vec<(u32, u64)> = order.iter().map(|k| (*k, map[k].to_bits())).collect();
                let got: Vec<(u32, u64)> = t.iter_filled().map(|(k, w)| (k, w.to_bits())).collect();
                prop_assert_eq!(got, want, "iter_filled yields claim order");
                prop_assert_eq!(t.len(), map.len());
            }
        }
    }

    #[test]
    fn probe_sequence_covers_table() {
        let size = 13;
        let mut storage = TableStorage::with_capacity(size);
        let t = storage.table(size, TableSpace::Shared);
        for key in [0u32, 1, 12, 911, u32::MAX - 1] {
            let mut seen = std::collections::HashSet::new();
            for it in 0..size {
                seen.insert(t.probe(key, it));
            }
            assert_eq!(seen.len(), size, "probe sequence for {key} must be a full cycle");
        }
    }
}
