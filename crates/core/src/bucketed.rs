//! The degree-bucketed hash-table launch shared by every kernel that
//! accumulates a neighborhood into a hash table: `computeMove` (Alg. 2,
//! [`crate::modopt`]), `mergeCommunity` (Alg. 3, [`crate::aggregate`]), the
//! label-propagation vote ([`crate::labelprop`]) and the sharded halo move
//! pass ([`crate::halo`]).
//!
//! Tasks are binned by their work measure (vertex degree, community degree
//! sum) into the rungs of a bucket table. A bounded bucket is one
//! [`launch_bounded`]: groups as wide as the bucket's `lanes`, one table per
//! group sized for the bucket's bound, in shared memory unless
//! [`HashPlacement::ForceGlobal`]. The open-ended bucket is one
//! [`launch_open_ended`]: its tasks, sorted by descending work, are dealt
//! interleaved across [`GpuLouvainConfig::global_bucket_blocks`] block-wide
//! groups with per-task global-memory tables, so block loads balance
//! (Section 4.1).
//!
//! Either way each task runs its family's attempt body under the one
//! in-kernel overflow recovery, [`with_table_retry`]. Only the attempt body
//! and the per-task id read differ between the families; they pass both as
//! generic closures, so every family's hot path is monomorphized.

use crate::config::{BucketSpec, GpuLouvainConfig, HashPlacement, MODOPT_BUCKETS};
use crate::hashtable::{HashTable, TableOverflow, TableSpace, TableStorage};
use crate::louvain::GpuLouvainError;
use crate::primes::{next_prime_at_least, table_size_for};
use crate::schedule::WidthSchedule;
use cd_gpusim::{Device, ExecutionProfile, GroupCtx};

/// Work-to-width mapping of the vertex kernels (`computeMove`, the vote and
/// the halo pass); const evaluation validates the bucket-table shape at
/// build time.
pub(crate) const MODOPT_WIDTHS: WidthSchedule = WidthSchedule::new(&MODOPT_BUCKETS);

/// Number of bounded (shared-memory) buckets of [`MODOPT_BUCKETS`].
const BOUNDED: usize = MODOPT_BUCKETS.len() - 1;

/// A family's per-task body over (table, lane-best slots, task id); it
/// returns [`TableOverflow`] before staging any output.
pub(crate) trait Attempt<P: ExecutionProfile>:
    Fn(&mut GroupCtx<P>, &mut HashTable<'_>, &mut [(f64, u32)], usize) -> Result<(), TableOverflow>
    + Sync
{
}

impl<P: ExecutionProfile, F> Attempt<P> for F where
    F: Fn(
            &mut GroupCtx<P>,
            &mut HashTable<'_>,
            &mut [(f64, u32)],
            usize,
        ) -> Result<(), TableOverflow>
        + Sync
{
}

/// Per-block scratch: a reusable hash table and the per-lane
/// best-candidate slots (kernels that track no best ignore the latter).
pub(crate) struct Scratch {
    pub(crate) table: TableStorage,
    pub(crate) lane_best: Vec<(f64, u32)>,
}

impl Scratch {
    /// Scratch for profile `P` with a table of `table_slots` slots over
    /// keys `0..key_domain` (see [`TableStorage::new`]).
    pub(crate) fn new<P: ExecutionProfile>(table_slots: usize, key_domain: usize) -> Self {
        Self {
            table: TableStorage::new::<P>(table_slots, key_domain),
            lane_best: vec![(0.0, 0); 128],
        }
    }
}

/// The table size a task retries with after overflowing a `slots`-slot
/// table.
pub(crate) fn grown_table_size(slots: usize) -> usize {
    next_prime_at_least(slots.saturating_mul(2) | 1)
}

/// Runs one task's `attempt` against a block-cooperative table of `slots`
/// slots in `space`, with capacity-fault recovery. An attempt that
/// overflows its table (possible only under corrupted state; the 1.5x
/// sizing rule covers well-formed inputs) is retried from scratch against
/// the next-prime table of at least twice the size. The first retry of a
/// shared-memory table moves it to global memory and counts one
/// `table_fallbacks`.
pub(crate) fn with_table_retry<P: ExecutionProfile>(
    ctx: &mut GroupCtx<P>,
    storage: &mut TableStorage,
    mut slots: usize,
    mut space: TableSpace,
    mut attempt: impl FnMut(&mut GroupCtx<P>, &mut HashTable<'_>) -> Result<(), TableOverflow>,
) {
    loop {
        let mut table = storage.table(slots, space);
        match attempt(ctx, &mut table) {
            Ok(()) => return,
            Err(TableOverflow { .. }) => {
                if space == TableSpace::Shared {
                    space = TableSpace::Global;
                    ctx.note_table_fallback();
                }
                slots = grown_table_size(slots);
            }
        }
    }
}

/// Launches one bounded bucket as kernel `name`: `n_tasks` tasks on groups
/// of `spec.lanes` lanes, each with a table sized for `spec.max_work` over
/// keys `0..key_domain`. `task_id` maps a task index to the id its attempt
/// runs on and charges the read that costs; `attempt` is the family's
/// per-task body.
#[allow(clippy::too_many_arguments)]
pub(crate) fn launch_bounded<P, I, A>(
    dev: &Device,
    cfg: &GpuLouvainConfig,
    name: &str,
    key_domain: usize,
    n_tasks: usize,
    spec: BucketSpec,
    task_id: I,
    attempt: A,
) -> Result<(), GpuLouvainError>
where
    P: ExecutionProfile,
    I: Fn(&mut GroupCtx<P>, usize) -> usize + Sync,
    A: Attempt<P>,
{
    let slots = table_size_for(spec.max_work)?;
    let (space, shared_bytes) = match cfg.hash_placement {
        HashPlacement::Auto => (TableSpace::Shared, slots * 12),
        HashPlacement::ForceGlobal => (TableSpace::Global, 0),
    };
    dev.exec::<P>()
        .try_launch_tasks(
            name,
            n_tasks,
            spec.lanes,
            shared_bytes,
            || Scratch::new::<P>(slots, key_domain),
            |ctx, scratch, task| {
                let id = task_id(ctx, task);
                let Scratch { table, lane_best } = scratch;
                with_table_retry(ctx, table, slots, space, |ctx, t| attempt(ctx, t, lane_best, id));
            },
        )
        .map_err(GpuLouvainError::Launch)
}

/// Launches the open-ended bucket as kernel `name`. `sorted` holds the task
/// ids by descending work (see [`sort_open_ended`]) and `slots` each
/// task's table size; keys lie in `0..key_domain`. Tasks are dealt
/// interleaved to `cfg.global_bucket_blocks` block-wide groups, and every
/// table lives in global memory. `sorted` must not be empty.
pub(crate) fn launch_open_ended<P, A>(
    dev: &Device,
    cfg: &GpuLouvainConfig,
    name: &str,
    key_domain: usize,
    sorted: &[u32],
    slots: &[usize],
    attempt: A,
) -> Result<(), GpuLouvainError>
where
    P: ExecutionProfile,
    A: Attempt<P>,
{
    debug_assert_eq!(sorted.len(), slots.len());
    let n_blocks = cfg.global_bucket_blocks.min(sorted.len()).max(1);
    dev.exec::<P>()
        .try_launch_blocks(
            name,
            n_blocks,
            // A block's largest task is its first (interleaved deal of a
            // descending sort), so one allocation serves all its tasks.
            |block| Scratch::new::<P>(slots[block], key_domain),
            |ctx, scratch| {
                let mut idx = ctx.block_id;
                while idx < sorted.len() {
                    let id = sorted[idx] as usize;
                    let Scratch { table, lane_best } = scratch;
                    with_table_retry(ctx, table, slots[idx], TableSpace::Global, |ctx, t| {
                        attempt(ctx, t, lane_best, id)
                    });
                    ctx.finish_task();
                    idx += n_blocks;
                }
            },
        )
        .map_err(GpuLouvainError::Launch)
}

/// Orders an open-ended bucket for [`launch_open_ended`]: sorts `ids` by
/// descending `work`, ties by id, and returns each task's table size. The
/// sizes are resolved host-side, so an out-of-ladder work measure is a
/// typed error, not an in-kernel panic.
pub(crate) fn sort_open_ended(
    dev: &Device,
    ids: &mut [u32],
    work: impl Fn(u32) -> usize + Sync,
) -> Result<Vec<usize>, GpuLouvainError> {
    dev.sort_by_key(ids, |&id| (std::cmp::Reverse(work(id)), id));
    ids.iter().map(|&id| table_size_for(work(id))).collect()
}

/// Host-side degree bins of a fixed task set over [`MODOPT_BUCKETS`], for
/// kernels whose tasks' degrees do not change between launches (the vote
/// and the halo pass). Degree-0 tasks are left out.
pub(crate) struct HostBins {
    /// Ids of the bounded buckets, in input order.
    bounded: [Vec<u32>; BOUNDED],
    /// Ids of the open-ended bucket, in [`sort_open_ended`] order.
    open: Vec<u32>,
    /// Table size per entry of `open`.
    open_slots: Vec<usize>,
}

impl HostBins {
    /// Bins `ids` by `degree(id)`.
    pub(crate) fn build(
        dev: &Device,
        ids: impl Iterator<Item = u32>,
        degree: impl Fn(u32) -> usize + Sync,
    ) -> Result<Self, GpuLouvainError> {
        let mut bounded: [Vec<u32>; BOUNDED] = Default::default();
        let mut open = Vec::new();
        for id in ids {
            match degree(id) {
                0 => {}
                d => match MODOPT_WIDTHS.bucket_for(d) {
                    BOUNDED => open.push(id),
                    b => bounded[b].push(id),
                },
            }
        }
        let open_slots = sort_open_ended(dev, &mut open, degree)?;
        Ok(Self { bounded, open, open_slots })
    }

    /// Launches every non-empty bucket in bucket order, bucket `b` as kernel
    /// `kernels[b]`, over keys `0..key_domain`. A bounded-bucket task
    /// charges one coalesced read of its id.
    pub(crate) fn launch<P, A>(
        &self,
        dev: &Device,
        cfg: &GpuLouvainConfig,
        kernels: &[&str; BOUNDED + 1],
        key_domain: usize,
        attempt: A,
    ) -> Result<(), GpuLouvainError>
    where
        P: ExecutionProfile,
        A: Attempt<P>,
    {
        for (b, ids) in self.bounded.iter().enumerate() {
            if ids.is_empty() {
                continue;
            }
            let task_id = |ctx: &mut GroupCtx<P>, task: usize| {
                ctx.global_read_coalesced(1);
                ids[task] as usize
            };
            let spec = MODOPT_BUCKETS[b];
            launch_bounded(dev, cfg, kernels[b], key_domain, ids.len(), spec, task_id, &attempt)?;
        }
        if !self.open.is_empty() {
            let (open, slots) = (&self.open, &self.open_slots);
            launch_open_ended(dev, cfg, kernels[BOUNDED], key_domain, open, slots, &attempt)?;
        }
        Ok(())
    }
}
