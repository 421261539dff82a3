//! Persistent work-claiming block scheduler: every launch, under every
//! execution profile, hands its blocks to this module, and every
//! [`crate::thrust`] collective its chunks. The design mirrors
//! the vendored-rayon persistent pool (spawn once, park between launches,
//! propagate panics) but differs where the simulator needs it to:
//!
//! * **Grow on demand.** The vendored pool is sized to the host's available
//!   parallelism at first use. Launches here carry an explicit thread count
//!   (`CD_GPUSIM_THREADS` / [`crate::DeviceConfig::with_threads`]), which may
//!   deliberately oversubscribe a small host — the determinism suite sweeps
//!   1/2/8 threads on single-core CI — so the pool grows to the largest
//!   count ever requested (capped at [`MAX_POOL_THREADS`]).
//! * **Work-claiming, not work-splitting.** A launch publishes one [`Job`]
//!   with an atomic claim cursor; every participant (the submitting thread
//!   plus idle workers) grabs the next unclaimed block index until none
//!   remain. Block cost in Louvain kernels is highly skewed (degree-binned
//!   frontiers), so dynamic claiming load-balances where a static split
//!   would straggle. Claim *order* is schedule-dependent; results are not,
//!   because kernels commit through order-insensitive paths (sharded
//!   accumulators folded in fixed shard order, sorted compactions) — see
//!   DESIGN.md "Native-parallel backend".
//! * **Concurrent jobs.** `cd-serve` runs independent devices from multiple
//!   OS threads; the jobs list holds any number of in-flight launches and
//!   workers scan it for claimable work.
//!
//! A panicking block records the payload, lets the job drain, and the panic
//! resumes on the submitting thread once every block has settled — a launch
//! never leaves blocks running after it returns.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Upper bound on pool growth, far above any sane `CD_GPUSIM_THREADS`.
pub const MAX_POOL_THREADS: usize = 256;

/// One in-flight launch: `n` blocks claimed through `cursor`, executed via
/// the type-erased `run` pointer.
///
/// `run` borrows the submitter's closure. Soundness: the pointer is only
/// dereferenced for a block index claimed below `n`, and [`run_blocks`] does
/// not return (keeping the closure alive) until `completed == n`, which is
/// only reached after every such call has returned. After that, workers may
/// still hold the `Arc<Job>` but only ever touch the atomics.
struct Job {
    run: *const (dyn Fn(usize) + Sync),
    n: usize,
    cursor: AtomicUsize,
    completed: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs blocks until none remain. The last participant to
    /// settle a block notifies the pool's completion condvar.
    fn participate(&self, pool: &Pool) {
        loop {
            let block = self.cursor.fetch_add(1, Ordering::Relaxed);
            if block >= self.n {
                return;
            }
            let run = unsafe { &*self.run };
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| run(block))) {
                let mut slot = self.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            if self.completed.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
                // Lock-then-notify so a submitter between its condition
                // check and `wait` cannot miss the wakeup.
                let _guard = pool.state.lock().unwrap();
                pool.done_cv.notify_all();
            }
        }
    }

    fn has_unclaimed(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) < self.n
    }
}

struct PoolState {
    jobs: Vec<Arc<Job>>,
    spawned: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    done_cv: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState { jobs: Vec::new(), spawned: 0 }),
        work_cv: Condvar::new(),
        done_cv: Condvar::new(),
    })
}

fn worker(pool: &'static Pool) {
    let mut guard = pool.state.lock().unwrap();
    loop {
        let claimable = guard.jobs.iter().find(|j| j.has_unclaimed()).cloned();
        match claimable {
            Some(job) => {
                drop(guard);
                job.participate(pool);
                guard = pool.state.lock().unwrap();
            }
            None => guard = pool.work_cv.wait(guard).unwrap(),
        }
    }
}

/// Number of pool workers spawned so far (tests/metrics only).
pub fn workers_spawned() -> usize {
    pool().state.lock().unwrap().spawned
}

/// Runs `run(block)` for every block in `0..n_blocks` across up to `threads`
/// participants (the calling thread plus pool workers) and returns once all
/// blocks have settled. Blocks are claimed dynamically; completion order is
/// unspecified. A panic in any block is re-raised on the calling thread
/// after the whole launch drains.
///
/// `threads <= 1` or `n_blocks <= 1` degenerates to an inline loop on the
/// calling thread with zero synchronisation — a single-thread launch must
/// not pay pool overhead to stay within the single-core perf budget.
pub fn run_blocks(threads: usize, n_blocks: usize, run: impl Fn(usize) + Sync) {
    if n_blocks == 0 {
        return;
    }
    if threads <= 1 || n_blocks == 1 {
        for block in 0..n_blocks {
            run(block);
        }
        return;
    }

    let pool = pool();
    // Erase the closure's lifetime so workers can hold it through the Arc;
    // see the soundness note on `Job::run`.
    let run_ptr = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(&run)
    };
    let job = Arc::new(Job {
        run: run_ptr,
        n: n_blocks,
        cursor: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        panic: Mutex::new(None),
    });

    {
        let mut state = pool.state.lock().unwrap();
        // Caller participates, so `threads` participants need `threads - 1`
        // workers; the pool keeps the high-water mark across launches.
        let want = (threads - 1).min(MAX_POOL_THREADS);
        while state.spawned < want {
            let id = state.spawned;
            std::thread::Builder::new()
                .name(format!("cd-gpusim-{id}"))
                .spawn(move || worker(pool))
                .expect("failed to spawn gpusim pool worker");
            state.spawned += 1;
        }
        state.jobs.push(Arc::clone(&job));
        pool.work_cv.notify_all();
    }

    job.participate(pool);

    let mut state = pool.state.lock().unwrap();
    while job.completed.load(Ordering::Acquire) < n_blocks {
        state = pool.done_cv.wait(state).unwrap();
    }
    if let Some(pos) = state.jobs.iter().position(|j| Arc::ptr_eq(j, &job)) {
        state.jobs.remove(pos);
    }
    drop(state);

    let payload = job.panic.lock().unwrap().take();
    if let Some(payload) = payload {
        panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_block_runs_exactly_once() {
        for threads in [1, 2, 8] {
            for n in [0, 1, 2, 7, 128, 1000] {
                let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
                run_blocks(threads, n, |b| {
                    hits[b].fetch_add(1, Ordering::Relaxed);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "threads={threads} n={n}"
                );
            }
        }
    }

    #[test]
    fn oversubscription_beyond_core_count_is_fine() {
        let sum = AtomicU64::new(0);
        run_blocks(32, 500, |b| {
            sum.fetch_add(b as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 500 * 499 / 2);
    }

    #[test]
    fn concurrent_launches_from_multiple_threads() {
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let sum = AtomicU64::new(0);
                    run_blocks(4, 200, |b| {
                        sum.fetch_add(b as u64 + 1, Ordering::Relaxed);
                    });
                    assert_eq!(sum.load(Ordering::Relaxed), 200 * 201 / 2);
                });
            }
        });
    }

    #[test]
    fn block_panic_resumes_on_the_submitter_after_draining() {
        let ran = AtomicU64::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            run_blocks(4, 64, |b| {
                ran.fetch_add(1, Ordering::Relaxed);
                if b == 13 {
                    panic!("block 13 exploded");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "block 13 exploded");
        // The launch drains: every block still ran despite the panic.
        assert_eq!(ran.load(Ordering::Relaxed), 64);
        // And the pool survives for the next launch.
        let sum = AtomicU64::new(0);
        run_blocks(4, 32, |b| {
            sum.fetch_add(b as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 32 * 31 / 2);
    }
}
