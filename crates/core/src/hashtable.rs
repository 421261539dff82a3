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
//!
//! They differ for the probe walk too. `Instrumented` and `Racecheck` walk
//! the double-hashing sequence, because their counters and shadow records
//! are per slot position. Under `Parallel`, which records nothing, a
//! storage built by [`TableStorage::new`] resolves a key through a
//! direct-indexed *key index* over the key domain (the graph's community
//! ids) and claims slots `0, 1, 2, …` in order: the per-thread accumulator
//! arrays of CPU Louvain codes. Claim order, `len`, every running weight
//! (`0.0 + w₁ + w₂ + …` in insert order) and every overflow are the same
//! as the probe walk's, so results are bit-identical across profiles.
//! Each thread keeps one spare key index: a storage takes it when built
//! and hands it back clean when dropped, so a launch allocates no index
//! once its threads have seen the largest key domain, no lock is taken,
//! and the memory kept is one index per thread that built a table.

use cd_gpusim::racecheck::{self, AccessKind};
use cd_gpusim::{ExecutionProfile, GroupCtx};
use std::cell::Cell;
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
    /// The storage's key index (empty unless built for `Parallel`).
    index: &'t mut [u32],
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
    /// are written back to `(EMPTY, 0.0)`, and their keys' index entries
    /// to `EMPTY`.
    #[track_caller]
    pub fn reset<P: ExecutionProfile>(&mut self, ctx: &mut GroupCtx<P>) {
        unclaim(self.claimed, self.keys, self.weights, self.index);
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
    /// slot with CAS when the key is not yet present. Returns the key's
    /// weight *after* the update (the "current value" a lane tracks its
    /// local best with).
    ///
    /// Panics if the table is full; fault-tolerant kernels use
    /// [`HashTable::try_insert_add`] and retry the task with a larger table.
    #[track_caller]
    pub fn insert_add<P: ExecutionProfile>(
        &mut self,
        ctx: &mut GroupCtx<P>,
        key: u32,
        w: f64,
    ) -> f64 {
        self.try_insert_add(ctx, key, w).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`HashTable::insert_add`]: a full table is returned
    /// as a [`TableOverflow`] instead of panicking, so the caller can retry
    /// the whole task against a resized table. The probe walk runs under
    /// the instrumented profiles; `Parallel` resolves the key through the
    /// key index (see the module docs).
    #[track_caller]
    #[inline]
    pub fn try_insert_add<P: ExecutionProfile>(
        &mut self,
        ctx: &mut GroupCtx<P>,
        key: u32,
        w: f64,
    ) -> Result<f64, TableOverflow> {
        debug_assert_ne!(key, EMPTY);
        if !P::INSTRUMENTED {
            return self.indexed_insert_add(key, w);
        }
        // `Location::caller()` must be taken directly in this #[track_caller]
        // body (a closure would see its own definition site).
        self.probe_insert_add(ctx, key, w, Location::caller())
    }

    /// The probe walk of [`HashTable::try_insert_add`]. Probe visits are
    /// recorded as *atomic* accesses for the race detector: the key read is
    /// part of the CAS-validated lock-free claim protocol (Alg. 2 lines
    /// 9-13), so concurrent inserts from different warps are ordered by the
    /// hardware atomics — only pairings with the plain stores of
    /// [`HashTable::reset`] or the plain loads of extraction constitute
    /// hazards.
    fn probe_insert_add<P: ExecutionProfile>(
        &mut self,
        ctx: &mut GroupCtx<P>,
        key: u32,
        w: f64,
        site: &'static Location<'static>,
    ) -> Result<f64, TableOverflow> {
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
                return Ok(self.weights[pos]);
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
                return Ok(self.weights[pos]);
            }
            // Occupied by another community: continue the probe sequence.
            pos += stride;
            if pos >= self.size {
                pos -= self.size;
            }
        }
    }

    /// The `Parallel` insert: a claimed key's slot comes from the key
    /// index, and a new key claims the next slot in order. The table
    /// overflows exactly when the probe walk would — a new key with every
    /// slot claimed.
    #[inline]
    fn indexed_insert_add(&mut self, key: u32, w: f64) -> Result<f64, TableOverflow> {
        let slot = match self.indexed_slot(key) {
            Some(slot) => slot,
            None => {
                let slot = self.claimed.len();
                if slot == self.size {
                    return Err(TableOverflow { size: self.size });
                }
                debug_assert_eq!(self.keys[slot], EMPTY, "a storage serves one profile");
                self.keys[slot] = key;
                self.claimed.push(slot as u32);
                if let Some(entry) = self.index.get_mut(key as usize) {
                    *entry = slot as u32;
                }
                slot
            }
        };
        self.weights[slot] += w;
        Ok(self.weights[slot])
    }

    /// The slot holding `key` under `Parallel`, if claimed. A key outside
    /// the index's domain (possible only with corrupted labels) is found by
    /// a scan of the claimed slots, so a bad key never grows the index.
    #[inline]
    fn indexed_slot(&self, key: u32) -> Option<usize> {
        match self.index.get(key as usize) {
            Some(&EMPTY) => None,
            Some(&slot) => Some(slot as usize),
            None => self.scan_claimed(key),
        }
    }

    #[cold]
    fn scan_claimed(&self, key: u32) -> Option<usize> {
        self.claimed.iter().map(|&s| s as usize).find(|&s| self.keys[s] == key)
    }

    /// Looks up the accumulated weight for `key` (0 when absent). The lookup
    /// is a *plain* load (extraction side): the detector flags it against any
    /// unordered concurrent insert, which is exactly the fill→read
    /// missing-barrier hazard.
    #[track_caller]
    #[inline]
    pub fn get<P: ExecutionProfile>(&self, ctx: &mut GroupCtx<P>, key: u32) -> f64 {
        if !P::INSTRUMENTED {
            return self.indexed_slot(key).map_or(0.0, |slot| self.weights[slot]);
        }
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
            self.charge_reads(ctx, 1);
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

/// Writes every claimed slot back to `(EMPTY, 0.0)` and its key's index
/// entry (if the key is in the index's domain) back to `EMPTY`, leaving the
/// claimed list empty.
fn unclaim(claimed: &mut Vec<u32>, keys: &mut [u32], weights: &mut [f64], index: &mut [u32]) {
    for slot in claimed.drain(..) {
        let key = std::mem::replace(&mut keys[slot as usize], EMPTY);
        weights[slot as usize] = 0.0;
        if let Some(entry) = index.get_mut(key as usize) {
            *entry = EMPTY;
        }
    }
}

thread_local! {
    /// This thread's spare key index, every entry `EMPTY`.
    static SPARE_INDEX: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
}

#[cfg(test)]
thread_local! {
    /// Bytes of key index this thread has allocated.
    static INDEX_BYTES_ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// Takes this thread's spare key index, grown to cover `domain` keys. A
/// storage built while another built on this thread is still alive finds
/// none and allocates its own.
fn take_index(domain: usize) -> Vec<u32> {
    let mut index = SPARE_INDEX.take();
    if index.len() < domain {
        #[cfg(test)]
        let before = index.capacity();
        index.resize(domain, EMPTY);
        #[cfg(test)]
        INDEX_BYTES_ALLOCATED.with(|n| n.set(n.get() + (index.capacity() - before) * 4));
    }
    index
}

/// Returns a clean key index to this thread, which keeps the larger of it
/// and any spare already returned.
fn give_back_index(index: Vec<u32>) {
    // An exiting thread has no slot left; the index is then freed.
    let _ = SPARE_INDEX.try_with(|spare| {
        let other = spare.take();
        spare.set(if other.len() > index.len() { other } else { index });
    });
}

/// Reusable backing storage for one block's hash table. Takes a shadow
/// object id at construction so the race detector can tell arenas apart
/// (and report the allocation site of the racy one).
///
/// A storage serves the profile it was built for.
///
/// Invariant: every slot not listed in `claimed` is `(EMPTY, 0.0)`, and
/// every key-index entry is `EMPTY` except those of claimed keys, which
/// hold their slot. Inserts append the slots they claim;
/// [`HashTable::reset`] clears exactly the listed slots and their index
/// entries. It holds across borrows of any size (a small table's reset
/// clears slots a larger earlier borrow claimed) and across growth (new
/// slots start clean).
#[derive(Debug)]
pub struct TableStorage {
    keys: Vec<u32>,
    weights: Vec<f64>,
    /// Slots claimed since the storage was last clean, in claim order.
    claimed: Vec<u32>,
    /// Key → claimed slot over the key domain (`Parallel` storages only;
    /// taken from and returned to the thread's spare).
    index: Vec<u32>,
    object: u64,
    origin: &'static Location<'static>,
}

impl Drop for TableStorage {
    fn drop(&mut self) {
        if self.index.is_empty() {
            return;
        }
        unclaim(&mut self.claimed, &mut self.keys, &mut self.weights, &mut self.index);
        give_back_index(std::mem::take(&mut self.index));
    }
}

impl TableStorage {
    /// Storage able to hold tables up to `capacity` slots, for kernels of
    /// profile `P` whose keys lie in `0..key_domain`. A `Parallel` storage
    /// takes its thread's spare key index, grown to cover the domain (a key
    /// outside it still works, by a scan of the claimed slots); the
    /// instrumented profiles walk the probe sequence and take none.
    #[track_caller]
    pub fn new<P: ExecutionProfile>(capacity: usize, key_domain: usize) -> Self {
        Self {
            keys: vec![EMPTY; capacity],
            weights: vec![0.0; capacity],
            claimed: Vec::with_capacity(capacity),
            index: if P::INSTRUMENTED { Vec::new() } else { take_index(key_domain) },
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
            index: &mut self.index,
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
    use cd_gpusim::{
        BlockCounters, Device, DeviceConfig, GroupCtx, Instrumented, Parallel, Profile,
    };
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
        let mut storage = TableStorage::new::<Instrumented>(64, 0);
        let ((), counters) = with_ctx(|ctx| {
            let mut t = storage.table(table_size_for(10).unwrap(), TableSpace::Shared);
            t.reset(ctx);
            t.insert_add(ctx, 5, 1.0);
            t.insert_add(ctx, 7, 2.0);
            let running = t.insert_add(ctx, 5, 0.5);
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
        let mut storage = TableStorage::new::<Instrumented>(64, 0);
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
        let mut storage = TableStorage::new::<Instrumented>(size, 0);
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
        let mut storage = TableStorage::new::<Instrumented>(size, 0);
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
            let mut storage = TableStorage::new::<Instrumented>(4, 0);
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
        let mut storage = TableStorage::new::<Instrumented>(32, 0);
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
        let mut storage = TableStorage::new::<Instrumented>(4, 0);
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
    /// `(EMPTY, +0.0)`, every key-index entry `EMPTY`.
    fn assert_clean(storage: &TableStorage) {
        assert!(storage.claimed.is_empty(), "claimed slots left: {:?}", storage.claimed);
        for (slot, (&k, &w)) in storage.keys.iter().zip(&storage.weights).enumerate() {
            assert_eq!((k, w.to_bits()), (EMPTY, 0), "stale slot {slot}");
        }
        if let Some(key) = storage.index.iter().position(|&e| e != EMPTY) {
            panic!("stale index entry for key {key}");
        }
    }

    /// This thread's spare key index: its length, and whether every entry
    /// is `EMPTY`.
    fn spare_index() -> (usize, bool) {
        let spare = SPARE_INDEX.take();
        let seen = (spare.len(), spare.iter().all(|&e| e == EMPTY));
        SPARE_INDEX.set(spare);
        seen
    }

    #[test]
    fn overflowed_attempt_leaves_no_stale_slot() {
        let small = table_size_for(2).unwrap(); // 5 — too small for 12 keys
        let keys: Vec<u32> = (0..12u32).map(|k| k * 7919).collect();
        let mut storage = TableStorage::new::<Instrumented>(small, 0);
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

    /// Key domain of the `Parallel` storage: keys are drawn from `0..70`, so
    /// the sequences also take the out-of-domain scan.
    const DOMAIN: usize = 64;

    /// Inserts, gets and resets in proportion 6 : 2 : 1.
    fn op() -> impl Strategy<Value = Op> {
        (0u32..9, 0u32..70, -4.0f64..4.0, 0..SIZES.len()).prop_map(|(kind, k, w, i)| match kind {
            0..=5 => Op::Insert(k, w),
            6 | 7 => Op::Get(k),
            _ => Op::Reset(i),
        })
    }

    /// Applies `op` to a `size`-slot table of `storage` under profile `P`:
    /// an insert's running weight bits or overflow, a lookup's bits, or
    /// `None` for a reset.
    fn apply<P: ExecutionProfile>(
        storage: &mut TableStorage,
        size: usize,
        op: &Op,
    ) -> Option<Result<u64, TableOverflow>> {
        let mut counters = BlockCounters::default();
        let mut ctx = GroupCtx::<P>::typed(0, 32, &mut counters);
        let mut t = storage.table(size, TableSpace::Shared);
        match *op {
            Op::Insert(k, w) => Some(t.try_insert_add(&mut ctx, k, w).map(f64::to_bits)),
            Op::Get(k) => Some(Ok(t.get(&mut ctx, k).to_bits())),
            Op::Reset(_) => {
                t.reset(&mut ctx);
                None
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// The probe walk (`Instrumented`) and the key index (`Parallel`)
        /// replay every sequence bit for bit against a map: same running
        /// weights, lookups and overflows, same claim order and `len`, and
        /// a clean storage (index included) after every reset.
        #[test]
        fn claimed_slot_table_matches_a_map_across_sizes(
            first in 0..SIZES.len(),
            ops in proptest::collection::vec(op(), 0..200),
        ) {
            let mut probe = TableStorage::new::<Instrumented>(4, DOMAIN);
            let mut indexed = TableStorage::new::<Parallel>(4, DOMAIN);
            prop_assert!(probe.index.is_empty());
            prop_assert!(indexed.index.len() >= DOMAIN);
            let mut size = SIZES[first];
            // Reference: key -> accumulated weight, plus first-insert order.
            let mut map: HashMap<u32, f64> = HashMap::new();
            let mut order: Vec<u32> = Vec::new();
            for op in std::iter::once(Op::Reset(first)).chain(ops) {
                if let Op::Reset(i) = op {
                    size = SIZES[i];
                }
                let got = apply::<Instrumented>(&mut probe, size, &op);
                prop_assert_eq!(apply::<Parallel>(&mut indexed, size, &op), got);
                match op {
                    Op::Reset(_) => {
                        assert_clean(&probe);
                        assert_clean(&indexed);
                        map.clear();
                        order.clear();
                    }
                    Op::Insert(k, w) => {
                        if !map.contains_key(&k) && map.len() == size {
                            prop_assert_eq!(got, Some(Err(TableOverflow { size })));
                        } else {
                            let acc = map.entry(k).or_insert_with(|| {
                                order.push(k);
                                0.0
                            });
                            *acc += w;
                            prop_assert_eq!(got, Some(Ok(acc.to_bits())));
                        }
                    }
                    Op::Get(k) => {
                        let want = map.get(&k).copied().unwrap_or(0.0).to_bits();
                        prop_assert_eq!(got, Some(Ok(want)));
                    }
                }
                let want: Vec<(u32, u64)> = order.iter().map(|k| (*k, map[k].to_bits())).collect();
                for storage in [&mut probe, &mut indexed] {
                    let t = storage.table(size, TableSpace::Shared);
                    let got: Vec<(u32, u64)> =
                        t.iter_filled().map(|(k, w)| (k, w.to_bits())).collect();
                    prop_assert_eq!(&got, &want, "iter_filled yields claim order");
                    prop_assert_eq!(t.len(), map.len());
                }
            }
        }
    }

    #[test]
    fn key_index_covers_the_largest_valid_key() {
        const N: usize = 1000;
        let last = N as u32 - 1;
        // Beyond any index's domain: accumulates through the scan.
        let far = EMPTY - 1;
        let mut storage = TableStorage::new::<Parallel>(7, N);
        let mut counters = BlockCounters::default();
        let mut ctx = GroupCtx::<Parallel>::typed(0, 32, &mut counters);
        {
            let mut t = storage.table(7, TableSpace::Global);
            t.reset(&mut ctx);
            assert_eq!(t.insert_add(&mut ctx, last, 1.5), 1.5);
            assert_eq!(t.insert_add(&mut ctx, far, 2.0), 2.0);
            assert_eq!(t.insert_add(&mut ctx, last, 0.25), 1.75);
            assert_eq!((t.get(&mut ctx, last), t.get(&mut ctx, far)), (1.75, 2.0));
            assert_eq!(t.iter_filled().collect::<Vec<_>>(), vec![(last, 1.75), (far, 2.0)]);
        }
        assert!(storage.index.len() >= N);
        assert_eq!(storage.index[last as usize], 0, "key n - 1 holds its slot");
        storage.table(7, TableSpace::Global).reset(&mut ctx);
        assert_clean(&storage);
    }

    #[test]
    fn a_launch_after_one_that_left_keys_claimed_starts_clean() {
        // Every task of the first launch leaves its keys claimed (no reset
        // after the inserts), so each participant drops a dirty storage.
        // Every storage of the second launch, on whichever worker and with
        // whichever thread's index, must start clean, at 1 and 4 threads.
        const N: usize = 500;
        const SLOTS: usize = 31;
        let keys = |task: usize| (0..8).map(move |j| ((task * 37 + j * 61) % N) as u32);
        let launch = |threads: usize, check: bool| {
            let dev = Device::new(
                DeviceConfig::test_tiny().with_profile(Profile::Parallel).with_threads(threads),
            );
            dev.exec::<Parallel>().launch_tasks(
                "leave_claimed",
                64,
                32,
                0,
                || TableStorage::new::<Parallel>(SLOTS, N),
                |ctx, storage, task| {
                    if check {
                        assert!(storage.index.len() >= N);
                        assert_clean(storage);
                    }
                    let mut t = storage.table(SLOTS, TableSpace::Shared);
                    t.reset(ctx);
                    for k in keys(task) {
                        t.insert_add(ctx, k, 1.0);
                    }
                    if check {
                        let want: Vec<(u32, f64)> = keys(task).map(|k| (k, 1.0)).collect();
                        assert_eq!(t.iter_filled().collect::<Vec<_>>(), want);
                        t.reset(ctx);
                    }
                },
            )
        };
        for threads in [1, 4] {
            launch(threads, false);
            launch(threads, true);
        }
        assert!(spare_index().1, "the thread's spare index is clean");
    }

    #[test]
    fn storages_return_their_index_to_the_thread() {
        const N: usize = 300;
        let mut counters = BlockCounters::default();
        let mut ctx = GroupCtx::<Parallel>::typed(0, 32, &mut counters);
        {
            // Two storages alive at once on one thread: the second finds
            // no spare and allocates its own.
            let mut a = TableStorage::new::<Parallel>(13, N);
            let mut b = TableStorage::new::<Parallel>(13, 2 * N);
            for (storage, w) in [(&mut a, 1.0), (&mut b, 2.0)] {
                let mut t = storage.table(13, TableSpace::Shared);
                t.reset(&mut ctx);
                t.insert_add(&mut ctx, 7, w);
                t.insert_add(&mut ctx, N as u32 - 1, w);
            }
            assert_eq!(spare_index().0, 0, "both indexes are in use");
        }
        // Dropped with keys claimed: the thread keeps the larger index,
        // clean, and a later storage takes it without allocating.
        assert_eq!(spare_index(), (2 * N, true));
        let before = INDEX_BYTES_ALLOCATED.get();
        let c = TableStorage::new::<Parallel>(13, N);
        assert_eq!((c.index.len(), INDEX_BYTES_ALLOCATED.get()), (2 * N, before));
    }

    #[test]
    fn repeated_parallel_solves_allocate_no_key_index() {
        // At one thread every launch runs on this thread, so this
        // thread's allocation count covers the whole solve.
        let dev =
            Device::new(DeviceConfig::tesla_k40m().with_profile(Profile::Parallel).with_threads(1));
        let g = cd_graph::gen::planted_partition(8, 60, 0.3, 0.01, 5).graph;
        let cfg = crate::GpuLouvainConfig::paper_default();
        let solve = |algorithm| {
            let r = crate::detect_communities(&dev, &g, &cfg, algorithm).unwrap();
            (r.modularity.to_bits(), r.partition.num_communities())
        };
        let algorithms = [crate::Algorithm::Louvain, crate::Algorithm::LpaSync];
        let first: Vec<_> = algorithms.iter().map(|&a| solve(a)).collect();
        let warm = INDEX_BYTES_ALLOCATED.get();
        let n = g.num_vertices();
        assert!(warm >= 4 * n, "a {n}-vertex solve indexes {n} keys, allocated {warm} B");
        for _ in 0..3 {
            let again: Vec<_> = algorithms.iter().map(|&a| solve(a)).collect();
            assert_eq!(again, first);
        }
        assert_eq!(INDEX_BYTES_ALLOCATED.get(), warm, "a repeated solve allocated key-index bytes");
        assert_eq!(spare_index(), (n, true));
    }

    #[test]
    fn probe_sequence_covers_table() {
        let size = 13;
        let mut storage = TableStorage::new::<Instrumented>(size, 0);
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
