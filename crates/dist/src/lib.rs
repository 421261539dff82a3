//! # cd-dist — partitioned out-of-core Louvain
//!
//! Runs the Louvain method on graphs **no single modeled device can hold**,
//! following the distributed-memory heuristics of Lu et al. ("Parallel
//! Heuristics for Scalable Community Detection"): vertex-partitioned shards,
//! ghost copies of cut-edge neighbors, and iterative halo label exchange
//! between owners and ghosts.
//!
//! ## Execution model
//!
//! The host holds the full graph (host RAM is the out-of-core tier); each of
//! the K devices holds one shard — its owned vertices' full adjacency rows
//! plus ghost entries for every cut-edge endpoint owned elsewhere
//! ([`cd_graph::ShardedCsr`]). A **superstep** is:
//!
//! 1. every shard runs the `computeMove` gain kernel
//!    ([`cd_core::halo_move_pass`]) over its owned vertices against a frozen
//!    snapshot of the previous superstep's labels and globally folded
//!    community aggregates;
//! 2. proposals are gathered in fixed shard order (each vertex is owned
//!    exactly once, so the gather is conflict-free);
//! 3. the halo exchange delivers only the wave's *changed* labels: each
//!    move goes to its owner's resident copy and along the vertex's ghost
//!    destination list (built once per level from the owner→ghost routing
//!    table). Each resident slot is written at most once per wave, so the
//!    final resident state does not depend on delivery order. The per-shard
//!    resident label arrays are the literal exchanged state, and the sorted
//!    per-shard community tables handed to the kernel are kept in step with
//!    them slot by slot. The arrays are revalidated against the canonical
//!    labeling every superstep ([`DistTelemetry::lost_labels`] counts
//!    mismatches and the CI smoke gate pins it at zero);
//! 4. community volumes/sizes are re-folded **on the host in ascending
//!    vertex-id order** — a canonical order independent of the shard count.
//!    (Folding shard partials in shard order would make the f64 sums depend
//!    on K; see DESIGN.md "Sharded execution" for the determinism argument.)
//!
//! Convergence is detected globally (zero committed moves, or
//! [`DistConfig::stall_patience`] supersteps whose realized modularity gain
//! stays under the level's adaptive threshold — the same
//! `th_bin`/`th_final` stop rule as the single-device phase; the best
//! labeling seen is kept). The level then contracts on the host and the next
//! level either re-shards or — once the coarse graph fits a single device —
//! finishes on the ordinary single-device path.
//!
//! Every per-vertex decision is a pure function of (its full adjacency row,
//! the previous superstep's global labeling, the global community
//! aggregates), so the final partition is **bit-identical across shard
//! counts and thread counts**; `tests/` and the `repro dist` gate both pin
//! this.
//!
//! ## Fault tolerance
//!
//! Per-shard passes thread the same typed-error/retry/failover stack as the
//! multi-device path: in-driver retries with exponential backoff on
//! device-attributable errors, failover to the next healthy device, and —
//! when every device is down — a sequential host fallback
//! ([`cd_core::halo_move_host`]) that replays the kernel's exact observation
//! structure, so even the degraded path changes *where* the pass runs, not
//! what it returns.

#![warn(missing_docs)]

use cd_baselines::{louvain_sequential, SequentialConfig};
use cd_core::{
    estimated_device_bytes, halo_move_host, halo_move_pass, louvain_gpu, DeviceGraph,
    GpuLouvainConfig, GpuLouvainError, HaloView, RecoveryAction, RetryPolicy, ThresholdSchedule,
    WidthSchedule, MODOPT_BUCKETS,
};
use cd_gpusim::{Device, DeviceConfig, FaultStats};
use cd_graph::{contract, modularity, Csr, Dendrogram, Partition, ShardedCsr};
use std::time::{Duration, Instant};

/// Configuration of a sharded out-of-core run.
#[derive(Clone, Debug)]
pub struct DistConfig {
    /// Number of shards — one simulated device each (clamped to at least 1
    /// and at most the vertex count).
    pub num_shards: usize,
    /// Per-device algorithm configuration (thresholds, hash placement, the
    /// in-driver [`RetryPolicy`]).
    pub gpu: GpuLouvainConfig,
    /// Device model used for every shard device. Its fault-plan seed is
    /// salted per device so devices draw independent fault schedules, and
    /// its `global_mem_bytes` is the admission limit each shard must fit.
    pub device: DeviceConfig,
    /// Superstep budget per sharded level.
    pub max_supersteps: usize,
    /// Level budget (matches the single-device `max_stages` spirit).
    pub max_levels: usize,
    /// Consecutive supersteps whose realized modularity gain stays under
    /// the level's adaptive threshold before the level stops (the best
    /// labeling seen is kept).
    pub stall_patience: usize,
    /// Degrade a pass to the sequential host replica when no healthy device
    /// can run it (on by default). When off, an all-devices-down state
    /// propagates the last device error.
    pub sequential_fallback: bool,
}

impl DistConfig {
    /// `k` K40m-like shard devices with the paper-default algorithm
    /// settings.
    pub fn k40m(num_shards: usize) -> Self {
        Self {
            num_shards,
            gpu: GpuLouvainConfig::paper_default(),
            device: DeviceConfig::tesla_k40m(),
            max_supersteps: 64,
            max_levels: 500,
            stall_patience: 4,
            sequential_fallback: true,
        }
    }

    /// Returns the configuration with the given per-pass retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.gpu.retry = retry;
        self
    }
}

/// Telemetry of a sharded run — the exchange-volume and memory accounting
/// `repro dist` and the serve metrics report.
#[derive(Clone, Debug, Default)]
pub struct DistTelemetry {
    /// Contraction levels executed in total.
    pub levels: usize,
    /// Levels that ran sharded (the rest finished single-device).
    pub sharded_levels: usize,
    /// Supersteps executed across all sharded levels (each superstep is one
    /// halo exchange round).
    pub exchange_rounds: usize,
    /// Changed-label deliveries the halo exchange made.
    pub ghost_updates: usize,
    /// Bytes the exchange moved (8 bytes per delivery: vertex id + label).
    pub ghost_bytes: usize,
    /// Ghost copies resident across all shards at the first sharded level.
    pub resident_ghosts: usize,
    /// Cut fraction of the first sharded level's partition.
    pub cut_fraction: f64,
    /// Partitioning strategy chosen at the first sharded level.
    pub strategy: &'static str,
    /// Largest per-shard device footprint at the first sharded level.
    pub max_shard_bytes: usize,
    /// Ghost label copies that disagreed with the canonical labeling after
    /// an exchange (must be zero; the CI smoke gate enforces it).
    pub lost_labels: usize,
    /// Vertices owned by zero or multiple shards (must be zero).
    pub ownership_violations: usize,
    /// Wall time of the first superstep of the first sharded level (the
    /// paper-style TEPS denominator).
    pub first_superstep: Duration,
    /// Recovery actions taken, in order. Empty on a fault-free run.
    pub recovery: Vec<RecoveryAction>,
    /// True when any pass fell back to the sequential host replica.
    pub degraded: bool,
    /// Fault counts merged across every shard device.
    pub faults: FaultStats,
}

/// Result of a sharded out-of-core run.
#[derive(Clone, Debug)]
pub struct DistResult {
    /// Final communities of the original vertices.
    pub partition: Partition,
    /// Modularity of the final partition on the input graph.
    pub modularity: f64,
    /// Exchange, memory and recovery telemetry.
    pub telemetry: DistTelemetry,
    /// Total wall time.
    pub total_time: Duration,
}

/// True when `graph` (plus kernel working state) fits a single device of
/// this configuration — the admission test the serve scheduler and the
/// driver's single-device finish share.
pub fn fits_single_device(graph: &Csr, device: &DeviceConfig) -> bool {
    estimated_device_bytes(graph) <= device.global_mem_bytes
}

/// Runs sharded out-of-core Louvain on `graph`.
///
/// The input level always runs sharded (the caller chose this path because
/// the graph exceeds every device; on a graph that happens to fit, sharding
/// it anyway is what the bit-identity tests rely on). Coarser levels switch
/// to the ordinary single-device driver as soon as they fit one device.
/// Every shard must fit its device, or the run fails with
/// [`GpuLouvainError::OutOfMemory`] — raise `num_shards` in that case.
pub fn louvain_sharded(graph: &Csr, cfg: &DistConfig) -> Result<DistResult, GpuLouvainError> {
    let start = Instant::now();
    let n = graph.num_vertices();
    if n >= u32::MAX as usize {
        return Err(GpuLouvainError::TooManyVertices(n));
    }
    let mut telemetry = DistTelemetry::default();
    if n == 0 {
        return Ok(DistResult {
            partition: Partition::from_vec(Vec::new()),
            modularity: 0.0,
            telemetry,
            total_time: start.elapsed(),
        });
    }

    let num_shards = cfg.num_shards.clamp(1, n);
    let devices: Vec<Device> = (0..num_shards)
        .map(|i| {
            let mut dc = cfg.device.clone();
            dc.fault_plan.seed =
                dc.fault_plan.seed.wrapping_add((i as u64).wrapping_mul(0x9E3779B97F4A7C15));
            Device::try_new(dc).map_err(GpuLouvainError::Config)
        })
        .collect::<Result<_, _>>()?;
    let mut exec = ShardExec {
        devices,
        healthy: vec![true; num_shards],
        recovery: Vec::new(),
        degraded: false,
    };

    let mut dendrogram = Dendrogram::new();
    let mut owned_graph: Option<Csr> = None;
    loop {
        let g: &Csr = owned_graph.as_ref().unwrap_or(graph);
        if telemetry.levels >= cfg.max_levels {
            break;
        }
        // Coarse levels that fit one device finish on the ordinary
        // single-device path (still deterministic: its input is the
        // bit-identical coarse graph). The input level always shards.
        if telemetry.levels > 0 && fits_single_device(g, &cfg.device) {
            let res = finish_with_recovery(g, cfg, &mut exec)?;
            dendrogram.push_level(res);
            telemetry.levels += 1;
            break;
        }
        let sharded = ShardedCsr::build(g, num_shards);
        if telemetry.sharded_levels == 0 {
            telemetry.cut_fraction = sharded.stats.cut_fraction;
            telemetry.strategy = sharded.stats.strategy.name();
            telemetry.resident_ghosts = sharded.total_ghosts();
            telemetry.max_shard_bytes =
                sharded.shards.iter().map(|s| estimated_device_bytes(&s.graph)).max().unwrap_or(0);
            if let Err(detail) = sharded.validate(g) {
                telemetry.ownership_violations += 1;
                return Err(GpuLouvainError::InvariantViolation { stage: "shard", detail });
            }
        }
        for shard in &sharded.shards {
            let required = estimated_device_bytes(&shard.graph);
            if required > cfg.device.global_mem_bytes {
                return Err(GpuLouvainError::OutOfMemory {
                    required,
                    available: cfg.device.global_mem_bytes,
                });
            }
        }
        let labels = sharded_level(g, sharded, cfg, &mut exec, &mut telemetry)?;
        let (level, communities) = Partition::from_vec(labels).renumbered();
        telemetry.levels += 1;
        telemetry.sharded_levels += 1;
        if communities == g.num_vertices() {
            // No coarsening — the level is converged and so is the run.
            dendrogram.push_level(level);
            break;
        }
        let (coarse, map) = contract(g, &level);
        dendrogram.push_level(map);
        owned_graph = Some(coarse);
    }

    let partition = dendrogram.flatten();
    let q = modularity(graph, &partition);
    for dev in &exec.devices {
        telemetry.faults.merge(&dev.fault_stats());
    }
    telemetry.recovery = exec.recovery;
    telemetry.degraded = exec.degraded;
    Ok(DistResult { partition, modularity: q, telemetry, total_time: start.elapsed() })
}

/// One degree bucket's owned vertices on one shard: local ids, their global
/// ids, and their weighted degrees, all aligned and ascending by global id.
/// `ghost_dsts[ghost_off[i]..ghost_off[i + 1]]` lists the (shard, local id)
/// ghost copies of vertex `i` that the halo exchange refreshes when it
/// moves.
struct PhaseSlice {
    locals: Vec<u32>,
    globals: Vec<u32>,
    k: Vec<f64>,
    ghost_off: Vec<u32>,
    ghost_dsts: Vec<(u32, u32)>,
}

impl Default for PhaseSlice {
    fn default() -> Self {
        Self {
            locals: Vec::new(),
            globals: Vec::new(),
            k: Vec::new(),
            ghost_off: vec![0],
            ghost_dsts: Vec::new(),
        }
    }
}

impl PhaseSlice {
    fn ghosts_of(&self, i: usize) -> &[(u32, u32)] {
        &self.ghost_dsts[self.ghost_off[i] as usize..self.ghost_off[i + 1] as usize]
    }
}

/// One shard's community table: the sorted distinct labels of its resident
/// (owned + ghost) vertices, with a resident count per label. The halo
/// exchange updates it slot by slot through [`CommTable::relabel`]; labels
/// gained or emptied during a wave are merged in or dropped by
/// [`CommTable::settle`], so a wave costs O(changed slots + |ids|) on the
/// shards it touches instead of a sort of every resident label.
struct CommTable {
    ids: Vec<u32>,
    count: Vec<u32>,
    /// Labels gained this wave that are not in `ids` yet (with repeats).
    inserts: Vec<u32>,
    /// Some `count` entry reached zero this wave.
    emptied: bool,
}

impl CommTable {
    /// Table of a shard at the start of a level, when every resident vertex
    /// is its own community: `locals` is ascending, so it is the table.
    fn singletons(locals: &[u32]) -> Self {
        Self {
            ids: locals.to_vec(),
            count: vec![1; locals.len()],
            inserts: Vec::new(),
            emptied: false,
        }
    }

    /// One resident slot changes from `old` to `new`. `old` is the slot's
    /// value at the start of the wave, so it is always in `ids`.
    fn relabel(&mut self, old: u32, new: u32) {
        let i = self.ids.binary_search(&old).expect("resident label missing from its table");
        self.count[i] -= 1;
        self.emptied |= self.count[i] == 0;
        match self.ids.binary_search(&new) {
            Ok(j) => self.count[j] += 1,
            Err(_) => self.inserts.push(new),
        }
    }

    /// Drops emptied labels and merges this wave's new ones in sorted
    /// order, after which `ids` is again exactly the resident label set.
    /// Both steps work in place, so a wave allocates nothing.
    fn settle(&mut self) {
        if self.emptied {
            let mut w = 0;
            for r in 0..self.ids.len() {
                if self.count[r] > 0 {
                    self.ids[w] = self.ids[r];
                    self.count[w] = self.count[r];
                    w += 1;
                }
            }
            self.ids.truncate(w);
            self.count.truncate(w);
            self.emptied = false;
        }
        if self.inserts.is_empty() {
            return;
        }
        // Backward merge of the sorted, run-length-counted inserts into the
        // tail-extended table. Inserts are disjoint from `ids`: a label is
        // only inserted when the table does not hold it.
        self.inserts.sort_unstable();
        let distinct = 1 + self.inserts.windows(2).filter(|p| p[0] != p[1]).count();
        let (mut i, mut j) = (self.ids.len(), self.inserts.len());
        let mut w = i + distinct;
        self.ids.resize(w, 0);
        self.count.resize(w, 0);
        while j > 0 {
            let c = self.inserts[j - 1];
            let run = self.inserts[..j].iter().rev().take_while(|&&x| x == c).count();
            while i > 0 && self.ids[i - 1] > c {
                w -= 1;
                i -= 1;
                self.ids[w] = self.ids[i];
                self.count[w] = self.count[i];
            }
            w -= 1;
            self.ids[w] = c;
            self.count[w] = run as u32;
            j -= run;
        }
        self.inserts.clear();
    }
}

/// Sorted distinct labels and their multiplicities — the reference a
/// [`CommTable`] must equal after every wave.
fn resident_table(labels: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let mut sorted = labels.to_vec();
    sorted.sort_unstable();
    let (mut ids, mut count) = (Vec::new(), Vec::<u32>::new());
    for c in sorted {
        if ids.last() == Some(&c) {
            *count.last_mut().expect("aligned with ids") += 1;
        } else {
            ids.push(c);
            count.push(1);
        }
    }
    (ids, count)
}

/// Shard devices plus the failover bookkeeping shared by every pass.
struct ShardExec {
    devices: Vec<Device>,
    healthy: Vec<bool>,
    recovery: Vec<RecoveryAction>,
    degraded: bool,
}

/// Id-residue subphases per degree bucket. Fully synchronous commits let
/// adjacent vertices swap communities in endless two-cycles; committing the
/// bucket in id-residue waves makes later waves re-evaluate against the
/// earlier waves' fresh aggregates, which collapses the swaps and tracks
/// the (higher-quality) sequential update order more closely. Tuned across
/// the featured suite: two waves fix the regular meshes but not the
/// web-crawl stand-ins, four fix those but push the small social graphs out
/// of their dispersion band; eight is the first width where every workload
/// lands at-or-above its single-device oracle. The residue is a pure
/// function of the global id, so any value preserves the determinism
/// contract.
const SUBPHASES: usize = 8;

/// One sharded level: supersteps until global convergence, returning the
/// best labeling observed (labels are global vertex ids, one community per
/// label value).
///
/// Each superstep sweeps the degree buckets **in sequence**, each bucket
/// split into [`SUBPHASES`] vertex-id-residue waves, committing the labels
/// and re-folding the community aggregates between waves (one halo exchange
/// per non-empty wave). Fully synchronous updates — every vertex deciding
/// against the same frozen state — oscillate and converge to visibly worse
/// labelings (the paper's `Relaxed` ablation); bucket-phased commits replay
/// the single-device path's per-bucket update semantics, and the residue
/// waves break the swap cycles that survive even per-bucket commits. A
/// vertex's subphase is a function of its degree and global id — global
/// properties — so phasing preserves bit-identity across shard counts.
fn sharded_level(
    g: &Csr,
    mut sharded: ShardedCsr,
    cfg: &DistConfig,
    exec: &mut ShardExec,
    telemetry: &mut DistTelemetry,
) -> Result<Vec<u32>, GpuLouvainError> {
    let n = g.num_vertices();
    let k = sharded.num_shards();
    let two_m = g.total_weight_2m();
    let weighted_degree: Vec<f64> = (0..n as u32).map(|v| g.weighted_degree(v)).collect();

    // Device-resident per-shard structures, built once per level. Each
    // shard's CSR moves onto its device rather than being copied: the host
    // never reads it again.
    let shard_graphs: Vec<DeviceGraph> = sharded
        .shards
        .iter_mut()
        .map(|s| {
            let (offsets, targets, weights) =
                std::mem::replace(&mut s.graph, Csr::empty(0)).into_parts();
            DeviceGraph::from_parts(offsets, targets, weights)
        })
        .collect();

    // Degree-bucket phases in id-residue waves: phase[SUBPHASES*b + r][s]
    // holds (local id, global id, k_i) of shard s's owned vertices in
    // bucket b whose global id ≡ r (mod SUBPHASES), ascending global id.
    // The wave split matters most where one bucket holds almost every
    // vertex (meshes: one degree class; LFR web crawls: the low-degree
    // tail): without it the bucket updates fully synchronously and adjacent
    // vertices swap communities in endless cycles. Bucket and residue are
    // functions of global vertex identity, so the split is identical for
    // every shard count. Degree-0 vertices are in no phase — they keep
    // their singleton label.
    let widths = WidthSchedule::new(&MODOPT_BUCKETS);
    let num_buckets = MODOPT_BUCKETS.len();
    let mut phases: Vec<Vec<PhaseSlice>> = (0..SUBPHASES * num_buckets)
        .map(|_| (0..k).map(|_| PhaseSlice::default()).collect())
        .collect();
    // Ownership audit alongside phase construction: every vertex must be
    // owned exactly once (degree-0 vertices are counted directly).
    let mut owned_times = vec![0u32; n];
    for (s, shard) in sharded.shards.iter().enumerate() {
        // routes[s][t] is ascending and owned by s, so one cursor per target
        // shard pairs every owned vertex with its ghost copies in O(k) each.
        let mut cursor = vec![0usize; k];
        for (&v, &l) in shard.owned.iter().zip(&shard.owned_locals) {
            owned_times[v as usize] += 1;
            let d = shard_graphs[s].degree(l as usize);
            if d == 0 {
                continue;
            }
            let slice = &mut phases[SUBPHASES * widths.bucket_for(d) + (v as usize) % SUBPHASES][s];
            slice.locals.push(l);
            slice.globals.push(v);
            slice.k.push(weighted_degree[v as usize]);
            for (t, route) in sharded.routes[s].iter().enumerate() {
                if route.get(cursor[t]) == Some(&v) {
                    cursor[t] += 1;
                    let lt = sharded.shards[t].local_of(v).expect("routed vertex must be resident");
                    slice.ghost_dsts.push((t as u32, lt));
                }
            }
            slice.ghost_off.push(slice.ghost_dsts.len() as u32);
        }
        debug_assert!(
            cursor.iter().zip(&sharded.routes[s]).all(|(&c, route)| c == route.len()),
            "shard {s}: a routed vertex has no phase slot"
        );
    }
    telemetry.ownership_violations += owned_times.iter().filter(|&&c| c != 1).count();

    // Canonical labeling (host), the per-shard resident copies — the
    // literal halo-exchanged state — and their community tables.
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut local_labels: Vec<Vec<u32>> = sharded.shards.iter().map(|s| s.locals.clone()).collect();
    let mut tables: Vec<CommTable> =
        sharded.shards.iter().map(|s| CommTable::singletons(&s.locals)).collect();
    // This wave's committed moves as (shard, phase-slice index, new label),
    // in gather order.
    let mut wave_moves: Vec<(usize, usize, u32)> = Vec::new();

    let mut vol = vec![0.0f64; n];
    let mut size = vec![0u32; n];
    let mut best = labels.clone();
    let mut best_q = modularity(g, &Partition::from_vec(labels.clone()));
    let mut stalled = 0usize;
    let first_level = telemetry.sharded_levels == 0;
    // Same stop rule as the single-device phase: a superstep whose realized
    // modularity gain stays under the level's threshold (the paper's
    // adaptive th_bin/th_final pair) counts toward the stall patience.
    // Grinding past that point over-merges the level and bakes the damage
    // into the contraction — worst on hub-heavy graphs, where early
    // contraction is what makes later levels effective.
    let threshold = ThresholdSchedule::two_level(
        cfg.gpu.threshold_bin,
        cfg.gpu.threshold_final,
        cfg.gpu.size_limit,
    )
    .threshold_for(n);

    for superstep in 0..cfg.max_supersteps {
        let step_start = Instant::now();
        let mut moves = 0usize;
        for phase in &phases {
            if phase.iter().all(|p| p.locals.is_empty()) {
                continue;
            }
            // Canonical community fold, ascending vertex id: identical
            // across shard counts and thread counts (the determinism
            // anchor — shard-order f64 folding would depend on K).
            vol.iter_mut().for_each(|x| *x = 0.0);
            size.iter_mut().for_each(|x| *x = 0);
            for v in 0..n {
                vol[labels[v] as usize] += weighted_degree[v];
                size[labels[v] as usize] += 1;
            }

            // Shard passes in fixed shard order, each on its own device
            // through the retry/failover ladder. Every pass reads the
            // wave's frozen state, so moves are only collected here (in
            // gather order: shard, then ascending global id) and applied
            // after the last pass.
            wave_moves.clear();
            for (s, slice) in phase.iter().enumerate() {
                if slice.locals.is_empty() {
                    continue;
                }
                let table = &tables[s];
                let comm_vol: Vec<f64> = table.ids.iter().map(|&c| vol[c as usize]).collect();
                let comm_size: Vec<u32> = table.ids.iter().map(|&c| size[c as usize]).collect();
                let view = HaloView {
                    graph: &shard_graphs[s],
                    owned: &slice.locals,
                    k: &slice.k,
                    labels: &local_labels[s],
                    comm_ids: &table.ids,
                    comm_vol: &comm_vol,
                    comm_size: &comm_size,
                    two_m,
                };
                let props = pass_with_recovery(&view, cfg, exec, s, superstep)?;
                for (i, (&v, &p)) in slice.globals.iter().zip(&props).enumerate() {
                    if p != labels[v as usize] {
                        wave_moves.push((s, i, p));
                    }
                }
            }
            moves += wave_moves.len();

            // Halo exchange of the changed labels only: the owner refreshes
            // its resident copy, then the label goes to every ghost copy of
            // the vertex. Ownership is exclusive (audited above) and each
            // vertex has at most one copy per shard, so every resident slot
            // is written at most once per wave and the final state does not
            // depend on the delivery order.
            for &(s, i, p) in &wave_moves {
                let slice = &phase[s];
                labels[slice.globals[i] as usize] = p;
                let mut write = |t: usize, l: usize| {
                    let old = std::mem::replace(&mut local_labels[t][l], p);
                    tables[t].relabel(old, p);
                };
                write(s, slice.locals[i] as usize);
                for &(t, lt) in slice.ghosts_of(i) {
                    write(t as usize, lt as usize);
                    telemetry.ghost_updates += 1;
                    telemetry.ghost_bytes += 8; // (vertex id, label)
                }
            }
            tables.iter_mut().for_each(CommTable::settle);
            debug_assert!(
                tables.iter().zip(&local_labels).all(|(table, resident)| {
                    let (ids, count) = resident_table(resident);
                    table.ids == ids && table.count == count
                }),
                "a community table diverged from its resident labels"
            );
            telemetry.exchange_rounds += 1;
        }
        if first_level && superstep == 0 {
            telemetry.first_superstep = step_start.elapsed();
        }

        // Exchange consistency: every resident copy must now agree with the
        // canonical labeling. A mismatch is a lost label.
        for (s, shard) in sharded.shards.iter().enumerate() {
            for (l, &v) in shard.locals.iter().enumerate() {
                if local_labels[s][l] != labels[v as usize] {
                    telemetry.lost_labels += 1;
                }
            }
        }

        if moves == 0 {
            break;
        }
        let q = modularity(g, &Partition::from_vec(labels.clone()));
        if q > best_q + threshold {
            stalled = 0;
        } else {
            stalled += 1;
        }
        if q > best_q {
            best_q = q;
            best = labels.clone();
        }
        if stalled >= cfg.stall_patience {
            break; // gains are under threshold (or cycling); keep the best
        }
    }
    Ok(best)
}

/// Runs one shard's move pass with in-driver retries, failover to the next
/// healthy device, and the sequential host replica as last resort.
fn pass_with_recovery(
    view: &HaloView<'_>,
    cfg: &DistConfig,
    exec: &mut ShardExec,
    home: usize,
    superstep: usize,
) -> Result<Vec<u32>, GpuLouvainError> {
    let d = exec.devices.len();
    let mut last_err: Option<GpuLouvainError> = None;
    let mut failed_from: Option<usize> = None;
    for step in 0..d {
        let di = (home + step) % d;
        if !exec.healthy[di] {
            continue;
        }
        if let Some(from) = failed_from {
            exec.recovery.push(RecoveryAction::Failover {
                scope: format!("shard {home} superstep {superstep}"),
                from_device: from,
                to_device: di,
            });
        }
        match pass_with_retry(&exec.devices[di], view, &cfg.gpu) {
            Ok((props, retries)) => {
                if retries > 0 {
                    exec.recovery
                        .push(RecoveryAction::LocalRetry { device: di, recoveries: retries });
                }
                if failed_from.is_some() {
                    exec.devices[di].note_fault_recovered();
                }
                return Ok(props);
            }
            Err(e) if e.is_device_attributable() => {
                exec.healthy[di] = false;
                failed_from = Some(di);
                last_err = Some(e);
            }
            Err(e) => return Err(e),
        }
    }
    if cfg.sequential_fallback {
        exec.recovery.push(RecoveryAction::SequentialFallback {
            scope: format!("shard {home} superstep {superstep}"),
        });
        exec.degraded = true;
        // The host replica replays the kernel's observation structure, so
        // degraded supersteps stay bit-identical to healthy ones.
        return Ok(halo_move_host(view));
    }
    Err(last_err.unwrap_or(GpuLouvainError::InvariantViolation {
        stage: "dist",
        detail: format!("no healthy device for shard {home} and sequential fallback is disabled"),
    }))
}

/// One device's attempts at a pass under the configured [`RetryPolicy`].
/// Returns the proposals and the number of retries that were needed.
fn pass_with_retry(
    dev: &Device,
    view: &HaloView<'_>,
    gpu: &GpuLouvainConfig,
) -> Result<(Vec<u32>, u64), GpuLouvainError> {
    let attempts = gpu.retry.max_attempts.max(1);
    let mut last: Option<GpuLouvainError> = None;
    for attempt in 1..=attempts {
        match halo_move_pass(dev, view, gpu) {
            Ok(p) => return Ok((p, attempt as u64 - 1)),
            Err(e) if e.is_device_attributable() && attempt < attempts => {
                std::thread::sleep(gpu.retry.backoff_for(attempt));
                last = Some(e);
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("loop returns unless a retryable error was seen"))
}

/// Single-device finish for a coarse graph that fits one device, with the
/// same failover ladder as the shard passes and the sequential Louvain
/// baseline as last resort.
fn finish_with_recovery(
    g: &Csr,
    cfg: &DistConfig,
    exec: &mut ShardExec,
) -> Result<Partition, GpuLouvainError> {
    let d = exec.devices.len();
    let mut last_err: Option<GpuLouvainError> = None;
    let mut failed_from: Option<usize> = None;
    for di in 0..d {
        if !exec.healthy[di] {
            continue;
        }
        if let Some(from) = failed_from {
            exec.recovery.push(RecoveryAction::Failover {
                scope: "finish".to_string(),
                from_device: from,
                to_device: di,
            });
        }
        match louvain_gpu(&exec.devices[di], g, &cfg.gpu) {
            Ok(res) => {
                if failed_from.is_some() {
                    exec.devices[di].note_fault_recovered();
                }
                return Ok(res.partition);
            }
            Err(e) if e.is_device_attributable() => {
                exec.healthy[di] = false;
                failed_from = Some(di);
                last_err = Some(e);
            }
            Err(e) => return Err(e),
        }
    }
    if cfg.sequential_fallback {
        exec.recovery.push(RecoveryAction::SequentialFallback { scope: "finish".to_string() });
        exec.degraded = true;
        let seq = louvain_sequential(g, &SequentialConfig::original());
        return Ok(seq.partition);
    }
    Err(last_err.unwrap_or(GpuLouvainError::InvariantViolation {
        stage: "dist",
        detail: "no healthy device for the finish level".to_string(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cd_gpusim::Profile;
    use cd_graph::gen::{cliques, planted_partition, rmat, RmatParams};

    fn small_cfg(num_shards: usize, mem: usize) -> DistConfig {
        let mut cfg = DistConfig::k40m(num_shards);
        cfg.device.global_mem_bytes = mem;
        cfg
    }

    #[test]
    fn comm_table_tracks_its_resident_labels() {
        // Waves of random relabelings, each slot written at most once per
        // wave, against the sort + dedup reference: labels leave, return,
        // arrive several times in one wave, and empty out.
        let mut resident: Vec<u32> = (0..64).map(|v| 2 * v).collect();
        let mut table = CommTable::singletons(&resident);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % m) as usize
        };
        for _ in 0..300 {
            let mut unwritten: Vec<usize> = (0..resident.len()).collect();
            for _ in 0..next(24) {
                let slot = unwritten.swap_remove(next(unwritten.len() as u64));
                let new = next(40) as u32;
                let old = std::mem::replace(&mut resident[slot], new);
                table.relabel(old, new);
            }
            table.settle();
            assert_eq!((table.ids.clone(), table.count.clone()), resident_table(&resident));
        }
    }

    #[test]
    fn oversized_graph_completes_and_matches_across_shard_counts() {
        // Footprint exceeds the configured device: only the sharded path
        // can run it. K ∈ {2, 4} must agree bit for bit.
        let g = rmat(10, 8, RmatParams::GRAPH500, 42);
        let full = estimated_device_bytes(&g);
        let mem = (full as f64 * 0.75) as usize;
        assert!(full > mem, "fixture must exceed the device");
        let r2 = louvain_sharded(&g, &small_cfg(2, mem)).unwrap();
        let r4 = louvain_sharded(&g, &small_cfg(4, mem)).unwrap();
        assert_eq!(r2.partition.as_slice(), r4.partition.as_slice());
        assert_eq!(r2.modularity.to_bits(), r4.modularity.to_bits());
        assert!(r2.modularity > 0.0, "Q = {}", r2.modularity);
        assert_eq!(r2.telemetry.lost_labels, 0);
        assert_eq!(r2.telemetry.ownership_violations, 0);
        assert!(r2.telemetry.exchange_rounds > 0);
        assert!(r2.telemetry.ghost_bytes > 0);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // The PR 7 native-parallel backend at 1 and 8 threads, across both
        // shard counts — the acceptance matrix at test scale.
        let g = rmat(9, 6, RmatParams::GRAPH500, 7);
        let full = estimated_device_bytes(&g);
        let mut outs = Vec::new();
        for shards in [2usize, 4] {
            for threads in [1usize, 8] {
                let mut cfg = small_cfg(shards, (full as f64 * 0.8) as usize);
                cfg.device = cfg.device.with_profile(Profile::Parallel).with_threads(threads);
                let r = louvain_sharded(&g, &cfg).unwrap();
                assert_eq!(r.telemetry.lost_labels, 0);
                outs.push((r.partition.into_vec(), r.modularity.to_bits()));
            }
        }
        for o in &outs[1..] {
            assert_eq!(o, &outs[0]);
        }
    }

    #[test]
    fn quality_tracks_single_device_on_planted_partition() {
        let pg = planted_partition(8, 24, 0.45, 0.02, 17);
        let single =
            louvain_gpu(&Device::k40m(), &pg.graph, &GpuLouvainConfig::paper_default()).unwrap();
        let full = estimated_device_bytes(&pg.graph);
        let r = louvain_sharded(&pg.graph, &small_cfg(3, (full as f64 * 0.8) as usize)).unwrap();
        assert!(
            r.modularity > 0.9 * single.modularity,
            "sharded {:.4} vs single {:.4}",
            r.modularity,
            single.modularity
        );
    }

    #[test]
    fn clique_fixture_is_recovered_exactly() {
        let g = cliques(4, 8, true);
        let r = louvain_sharded(&g, &small_cfg(2, estimated_device_bytes(&g))).unwrap();
        for c in 0..4u32 {
            let base = c * 8;
            for v in 1..8u32 {
                assert_eq!(r.partition.community_of(base), r.partition.community_of(base + v));
            }
        }
        assert!(r.modularity > 0.6);
    }

    #[test]
    fn shard_too_big_for_device_is_a_typed_oom() {
        let g = cliques(4, 8, true);
        let mut cfg = DistConfig::k40m(2);
        cfg.device.global_mem_bytes = 64; // nothing fits
        match louvain_sharded(&g, &cfg) {
            Err(GpuLouvainError::OutOfMemory { required, available }) => {
                assert!(required > available);
            }
            other => panic!("expected OutOfMemory, got {other:?}"),
        }
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Csr::empty(0);
        let r = louvain_sharded(&g, &DistConfig::k40m(4)).unwrap();
        assert_eq!(r.partition.len(), 0);
        assert_eq!(r.modularity, 0.0);
    }

    #[test]
    fn more_shards_than_vertices_is_clamped() {
        let g = cliques(2, 3, true);
        let r = louvain_sharded(&g, &small_cfg(64, estimated_device_bytes(&g))).unwrap();
        assert_eq!(r.partition.len(), 6);
    }
}
