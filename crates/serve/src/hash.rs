//! Content addressing: structural hashes of graphs and job options.
//!
//! The result cache is keyed by *content*, not identity — two submissions of
//! structurally equal graphs with semantically equal options share a key no
//! matter where the `Csr` values came from. The hash is FNV-1a over the CSR
//! arrays (offsets, targets, weight bit patterns) plus every
//! result-affecting option field. Scheduling-only fields (priority,
//! deadline) are deliberately left out: they change *when* a job runs, never
//! *what* it computes.

use crate::job::JobOptions;
use cd_core::{Algorithm, HashPlacement, ThreadAssignment, UpdateStrategy};
use cd_graph::{Csr, DeltaBatch, DeltaOp};

/// 64-bit FNV-1a, the same construction gpusim uses for fault-plan seeding:
/// tiny, dependency-free, and stable across platforms.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` little-endian.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `usize` widened to 64 bits (stable across word sizes).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs an `f64` by bit pattern — exact, so two configs hash equal
    /// iff their floats are bit-identical, matching the bit-identity the
    /// cache promises.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Structural hash of a CSR graph: vertex count, offsets, targets, and
/// weight bit patterns. Equal CSRs hash equal; the converse holds up to
/// 64-bit collision odds, which is the usual content-addressing bargain.
pub fn structural_hash(graph: &Csr) -> u64 {
    let mut h = Fnv1a::new();
    h.write_usize(graph.num_vertices());
    for &o in graph.offsets() {
        h.write_usize(o);
    }
    for &t in graph.targets() {
        h.write_u64(t as u64);
    }
    for &w in graph.weights() {
        h.write_f64(w);
    }
    h.finish()
}

/// Hash of every result-affecting field of [`JobOptions`]: the selected
/// portfolio algorithm plus its full configuration.
///
/// The algorithm discriminant comes **first**: two submissions of the same
/// graph under different algorithms compute different partitions, so they
/// must never share a cache line — including through the delta-promotion
/// path, where a delta job's result is re-inserted under the structural
/// hash of its patched graph. That promoted key carries this options hash
/// too, so one algorithm's partition can never be served to another.
///
/// The execution profile contributes **nothing** to the key: the three-way
/// equivalence suite enforces (in CI, on every medium workload, across
/// thread counts) that Instrumented/Racecheck/Parallel produce
/// bit-identical labels and Q, so a result computed under one profile *is*
/// the result under any other. Coalescing them into one cache line means a
/// Parallel submission warms the cache for Instrumented clients and vice
/// versa instead of recomputing per profile. Profile-dependent observability
/// (metrics, race reports) is not part of the cached result.
pub fn options_hash(options: &JobOptions) -> u64 {
    let cfg = &options.config;
    let mut h = Fnv1a::new();
    h.write_u64(match options.algorithm {
        Algorithm::Louvain => 0,
        Algorithm::Leiden => 1,
        Algorithm::LpaSync => 2,
        Algorithm::LpaAsync => 3,
    });
    h.write_f64(cfg.threshold_bin);
    h.write_f64(cfg.threshold_final);
    h.write_usize(cfg.size_limit);
    h.write_f64(cfg.stage_threshold);
    h.write_u64(match cfg.update_strategy {
        UpdateStrategy::PerBucket => 0,
        UpdateStrategy::Relaxed => 1,
    });
    h.write_u64(match cfg.hash_placement {
        HashPlacement::Auto => 0,
        HashPlacement::ForceGlobal => 1,
    });
    h.write_u64(match cfg.assignment {
        ThreadAssignment::DegreeBinned => 0,
        ThreadAssignment::NodeCentric => 1,
    });
    h.write_usize(cfg.max_iterations);
    h.write_usize(cfg.max_stages);
    h.write_usize(cfg.global_bucket_blocks);
    h.write_u64(cfg.pruning as u64);
    h.write_usize(cfg.resync_interval);
    // Retry policy cannot change a fault-free run's result, but it is part
    // of the configuration a degraded/faulty deployment observes; keep it.
    h.write_usize(cfg.retry.max_attempts);
    h.write_u64(cfg.retry.backoff_base.as_nanos() as u64);
    h.write_u64(cfg.retry.backoff_multiplier as u64);
    // A slot-targeted fault plan can change what a run produces (absorbed
    // bit flips, degraded recovery), so faulty submissions must never share
    // a cache line with fault-free ones — or with differently-faulty ones.
    match &options.fault {
        None => h.write_u64(0),
        Some(f) => {
            h.write_u64(1);
            h.write_usize(f.device);
            h.write_u64(f.plan.seed);
            h.write_f64(f.plan.abort_rate);
            h.write_f64(f.plan.stuck_rate);
            h.write_f64(f.plan.bitflip_rate);
            h.write_u64(f.plan.watchdog_cycle_budget);
        }
    }
    h.finish()
}

/// Content hash of a delta batch: vertex count plus every op in order
/// (tag, canonical endpoints, weight bits). Order matters — deltas are
/// applied sequentially, so `[A, B]` and `[B, A]` are different edits even
/// when they commute structurally.
pub fn delta_hash(batch: &DeltaBatch) -> u64 {
    let mut h = Fnv1a::new();
    h.write_usize(batch.num_vertices());
    for op in batch.ops() {
        match *op {
            DeltaOp::Insert { u, v, w } => {
                h.write_u64(0);
                h.write_u64(u as u64);
                h.write_u64(v as u64);
                h.write_f64(w);
            }
            DeltaOp::Delete { u, v } => {
                h.write_u64(1);
                h.write_u64(u as u64);
                h.write_u64(v as u64);
            }
            DeltaOp::Reweight { u, v, w } => {
                h.write_u64(2);
                h.write_u64(u as u64);
                h.write_u64(v as u64);
                h.write_f64(w);
            }
        }
    }
    h.finish()
}

/// Graph hash of `base` after applying a delta with hash `delta`, *without
/// materializing the patched graph*: `fnv(base_hash, delta_hash)`.
///
/// This is how delta chains warm-hit: a resubmitted chain
/// `base → d1 → d2` folds to the same chained hash both times, so the
/// second submission is a pure cache lookup. Because `apply_delta` and the
/// from-scratch builder produce bit-identical CSRs, every completed delta
/// job is *also* inserted under the [`structural_hash`] of its patched
/// graph — promoting the result to a plain base that cold submissions of
/// the same graph can hit.
pub fn chained_graph_hash(base_graph_hash: u64, delta: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(base_graph_hash);
    h.write_u64(delta);
    h.finish()
}

/// The content address of a (graph, options) pair — the key of the result
/// cache and of in-flight coalescing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`structural_hash`] of the input graph.
    pub graph: u64,
    /// [`options_hash`] of the result-affecting options.
    pub options: u64,
}

impl CacheKey {
    /// Computes the key for a submission.
    pub fn compute(graph: &Csr, options: &JobOptions) -> Self {
        Self { graph: structural_hash(graph), options: options_hash(options) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Priority;
    use cd_gpusim::Profile;
    use cd_graph::{Csr, GraphBuilder, VertexId};
    use std::time::Duration;

    fn ring(n: usize) -> Csr {
        let mut b = GraphBuilder::new(n);
        for v in 0..n {
            b.add_edge(v as VertexId, ((v + 1) % n) as VertexId, 1.0);
        }
        b.build()
    }

    #[test]
    fn structural_hash_is_content_addressed() {
        // Two independently built but structurally equal graphs share a hash.
        assert_eq!(structural_hash(&ring(16)), structural_hash(&ring(16)));
        assert_ne!(structural_hash(&ring(16)), structural_hash(&ring(17)));

        // A weight change flips the hash even when topology is unchanged.
        let mut b = GraphBuilder::new(16);
        for v in 0..16u32 {
            b.add_edge(v, (v + 1) % 16, if v == 3 { 2.0 } else { 1.0 });
        }
        assert_ne!(structural_hash(&ring(16)), structural_hash(&b.build()));
    }

    #[test]
    fn options_hash_separates_semantic_from_scheduling() {
        let base = JobOptions::default();

        // Scheduling knobs do not move the key.
        let scheduled = base.with_priority(Priority::High).with_deadline(Duration::from_millis(5));
        assert_eq!(options_hash(&base), options_hash(&scheduled));

        // Semantic knobs do.
        assert_ne!(options_hash(&base), options_hash(&base.with_pruning(true)));

        // The algorithm is the most semantic knob of all: every portfolio
        // member gets its own key, pairwise distinct.
        let hashes: Vec<u64> = cd_core::Algorithm::ALL
            .iter()
            .map(|&a| options_hash(&base.with_algorithm(a)))
            .collect();
        for i in 0..hashes.len() {
            for j in 0..i {
                assert_ne!(
                    hashes[i],
                    hashes[j],
                    "{} and {} share an options hash",
                    cd_core::Algorithm::ALL[i],
                    cd_core::Algorithm::ALL[j]
                );
            }
        }
        assert_eq!(options_hash(&base), hashes[0], "Louvain is the default");

        // The execution profile is *not* semantic: all three profiles are
        // bit-identical (enforced by the equivalence suite), so they share
        // one cache line and warm each other's entries.
        for p in [Profile::Instrumented, Profile::Racecheck, Profile::Parallel] {
            assert_eq!(options_hash(&base), options_hash(&base.with_profile(p)), "{p}");
        }

        // A slot-targeted fault plan is semantic too: a faulty run may not
        // produce what a fault-free run would, so it gets its own key.
        let plan = cd_gpusim::FaultPlan::seeded(7).with_abort_rate(0.5);
        let faulty = base.with_fault(0, plan);
        assert_ne!(options_hash(&base), options_hash(&faulty));
        assert_ne!(options_hash(&faulty), options_hash(&base.with_fault(1, plan)));
    }

    #[test]
    fn delta_hash_is_order_sensitive_and_chains_fold() {
        use cd_graph::DeltaBuilder;
        let mk = |first_insert: bool| {
            let mut b = DeltaBuilder::new(16);
            if first_insert {
                b.insert(0, 5, 1.0).unwrap();
                b.delete(1, 2).unwrap();
            } else {
                b.delete(1, 2).unwrap();
                b.insert(0, 5, 1.0).unwrap();
            }
            b.build()
        };
        // Same ops, same order → same hash; same ops, different order → not.
        assert_eq!(delta_hash(&mk(true)), delta_hash(&mk(true)));
        assert_ne!(delta_hash(&mk(true)), delta_hash(&mk(false)));

        // Chained hashes are deterministic and position-sensitive.
        let (a, b) = (delta_hash(&mk(true)), delta_hash(&mk(false)));
        let g = structural_hash(&ring(16));
        assert_eq!(chained_graph_hash(g, a), chained_graph_hash(g, a));
        assert_ne!(chained_graph_hash(g, a), chained_graph_hash(g, b));
        assert_ne!(
            chained_graph_hash(chained_graph_hash(g, a), b),
            chained_graph_hash(chained_graph_hash(g, b), a)
        );
    }

    #[test]
    fn cache_key_combines_both_axes() {
        let g = ring(12);
        let a = CacheKey::compute(&g, &JobOptions::default());
        let b = CacheKey::compute(&g, &JobOptions::default().with_pruning(true));
        assert_eq!(a.graph, b.graph);
        assert_ne!(a.options, b.options);
        assert_ne!(a, b);
    }
}
