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
/// tiny, dependency-free, and stable across platforms. Zero bytes are
/// absorbed a run at a time (see [`Fnv1a::write_u64`]); every digest equals
/// the byte-at-a-time definition's.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a {
    /// The FNV-1a state is `h · P^pending`: the multiplies of the last
    /// step and of the zero bytes after it are deferred and paid as one
    /// multiply before the next nonzero byte, or at [`Fnv1a::finish`].
    h: u64,
    /// At most 8 between calls.
    pending: usize,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` for `k` in `0..=16`. An FNV-1a step on a zero byte is
/// `(h ^ 0) · P = h · P`, so a run of `k` zero bytes is one multiply by
/// `P^k`, which also absorbs the multiply of the step before the run.
const POW: [u64; 17] = {
    let mut powers = [1u64; 17];
    let mut k = 1;
    while k < powers.len() {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

impl Fnv1a {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self { h: FNV_OFFSET, pending: 0 }
    }

    /// Absorbs raw bytes: whole 8-byte chunks as little-endian words, the
    /// tail as one shorter word.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let tail = chunks.remainder();
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        self.write_word(u64::from_le_bytes(word), tail.len());
    }

    /// Absorbs a `u64` little-endian. Bit-identical to eight byte steps,
    /// but the zero runs at either end of the word cost no multiply of
    /// their own (see [`Self::write_word`]).
    pub fn write_u64(&mut self, v: u64) {
        self.write_word(v, 8);
    }

    /// Absorbs the low `len` bytes of `v`, little-endian; the bytes above
    /// them must be zero. CSR words are mostly zero bytes (small ids and
    /// offsets, weights like 1.0 = `0x3FF0_0000_0000_0000`): the zero runs
    /// at either end of the word fold into the multiplies around them, so
    /// only the bytes from the first to the last nonzero one cost a step.
    #[inline(always)]
    fn write_word(&mut self, v: u64, len: usize) {
        if v == 0 {
            self.pending += len;
        } else {
            let low = (v.trailing_zeros() / 8) as usize;
            let end = 8 - (v.leading_zeros() / 8) as usize;
            let mut rest = v >> (8 * low);
            self.h = self.h.wrapping_mul(POW[self.pending + low]) ^ (rest & 0xff);
            for _ in low + 1..end {
                rest >>= 8;
                self.h = self.h.wrapping_mul(FNV_PRIME) ^ (rest & 0xff);
            }
            self.pending = 1 + len - end;
        }
        if self.pending > 8 {
            self.h = self.h.wrapping_mul(POW[self.pending]);
            self.pending = 0;
        }
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
        self.h.wrapping_mul(POW[self.pending])
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

    /// The byte-at-a-time FNV-1a loop, from state `h`: the definition the
    /// word-wise hasher must reproduce bit for bit.
    fn reference(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
    }

    #[test]
    fn write_u64_matches_the_byte_wise_loop_on_every_zero_byte_mask() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xf00d);
        // Bit i of the mask zeroes byte i; every other byte is nonzero. The
        // 256 masks cover the all-zero word, zero runs at the low end, the
        // high end and inside the word, and words with no zero byte.
        for mask in 0..=255u32 {
            for _ in 0..200 {
                let bytes: [u8; 8] = std::array::from_fn(|i| {
                    if mask >> i & 1 == 1 {
                        0
                    } else {
                        rng.gen_range(1..=255u32) as u8
                    }
                });
                // From every deferred state: `pending` zero bytes not yet
                // multiplied in.
                let (start, pending) = (rng.gen::<u64>(), rng.gen_range(0..=8usize));
                let mut h = Fnv1a { h: start, pending };
                h.write_u64(u64::from_le_bytes(bytes));
                let state = start.wrapping_mul(POW[pending]);
                assert_eq!(h.finish(), reference(state, &bytes), "bytes {bytes:02x?}");
            }
        }
    }

    #[test]
    fn write_bytes_matches_the_byte_wise_loop_at_every_length() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xbeef);
        // Lengths 0..=64 cover every length mod 8, so every tail length.
        // Zero bytes at rates up to 1 give zero runs of every shape,
        // including runs across words and tails. Each string is also
        // written in two parts, so a deferred zero run crosses the calls.
        for len in 0..=64 {
            for zero_rate in [0.5, 0.9, 1.0] {
                for _ in 0..20 {
                    let bytes: Vec<u8> = (0..len)
                        .map(|_| {
                            if rng.gen_bool(zero_rate) {
                                0
                            } else {
                                rng.gen_range(0..=255u32) as u8
                            }
                        })
                        .collect();
                    let want = reference(FNV_OFFSET, &bytes);
                    let mut h = Fnv1a::new();
                    h.write_bytes(&bytes);
                    assert_eq!(h.finish(), want, "bytes {bytes:02x?}");
                    let (a, b) = bytes.split_at(rng.gen_range(0..=len));
                    let mut h = Fnv1a::new();
                    h.write_bytes(a);
                    h.write_bytes(b);
                    assert_eq!(h.finish(), want, "bytes {a:02x?} then {b:02x?}");
                }
            }
        }
    }

    /// A graph whose weight bit patterns hold zero runs at the low end
    /// (1.0, 0.5, 3.25) and inside the word (1 + ε = `0x3FF0_0000_0000_0001`).
    fn golden_graph() -> Csr {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 0.5);
        b.add_edge(2, 3, 3.25);
        b.add_edge(3, 4, 1.0 + f64::EPSILON);
        b.add_edge(4, 0, 1.0);
        b.add_edge(1, 3, 1.0);
        b.build()
    }

    /// Digests computed by the byte-at-a-time FNV-1a loop. Every cache key,
    /// coalescing key and persisted snapshot depends on these; a change
    /// here re-keys every cache in the field.
    #[test]
    fn digests_match_the_byte_wise_goldens() {
        use cd_graph::DeltaBuilder;
        assert_eq!(structural_hash(&golden_graph()), 0x4c05_b817_82cb_7248);
        let mut b = DeltaBuilder::new(5);
        b.insert(0, 2, 2.5).unwrap();
        b.delete(1, 2).unwrap();
        b.reweight(3, 4, 0.75).unwrap();
        assert_eq!(delta_hash(&b.build()), 0x4812_3721_a0b4_b2b4);
        assert_eq!(options_hash(&JobOptions::default()), 0x73a9_2274_1046_a0ef);
        assert_eq!(chained_graph_hash(0x0123_4567_89ab_cdef, 0xff00), 0x9b13_4b75_ac13_6730);
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
