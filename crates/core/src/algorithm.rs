//! The algorithm portfolio: one selector enum and one dispatching entry
//! point over every community-detection algorithm the crate implements.
//!
//! All portfolio members share the paper's CSR + label-buffer substrate and
//! the degree-binned, hash-table-voting kernel machinery; they differ in
//! objective and update schedule:
//!
//! | Algorithm | Objective | Schedule | Contracts? |
//! |---|---|---|---|
//! | [`Algorithm::Louvain`] | modularity | per-bucket commits | yes |
//! | [`Algorithm::Leiden`] | modularity + connectedness | per-bucket + refinement | yes |
//! | [`Algorithm::LpaSync`] | label agreement | double-buffered | no |
//! | [`Algorithm::LpaAsync`] | label agreement | chunked in-place | no |
//!
//! Every member is bit-deterministic across all three execution profiles and
//! any thread count — the property the serving layer's cross-profile cache
//! sharing rests on. The algorithm itself, however, is result-affecting and
//! therefore part of the result-cache key (`cd-serve` hashes the
//! discriminant into its options hash).

use crate::config::GpuLouvainConfig;
use crate::labelprop::{label_propagation_gated, LpaMode};
use crate::louvain::{
    leiden_gpu_gated, louvain_gpu_gated, GpuLouvainError, GpuLouvainResult, StageAbort,
    StageCheckpoint,
};
use cd_gpusim::Device;
use cd_graph::{Csr, ThresholdSchedule};

/// Which community-detection algorithm a run executes. The default is the
/// paper's Louvain method; the other members trade quality for speed
/// (label propagation) or speed for connectedness guarantees (Leiden).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// The paper's GPU Louvain method (modularity optimization +
    /// contraction).
    #[default]
    Louvain,
    /// Louvain with the Leiden-style well-connectedness refinement before
    /// every contraction ([`crate::refine`]).
    Leiden,
    /// Synchronous (double-buffered) weighted label propagation
    /// ([`crate::labelprop`]).
    LpaSync,
    /// Asynchronous (chunked in-place) weighted label propagation.
    LpaAsync,
}

impl Algorithm {
    /// Every portfolio member, in menu order.
    pub const ALL: [Algorithm; 4] =
        [Algorithm::Louvain, Algorithm::Leiden, Algorithm::LpaSync, Algorithm::LpaAsync];

    /// Stable lowercase name (CLI flags, benchmark tables, JSON reports).
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Louvain => "louvain",
            Algorithm::Leiden => "leiden",
            Algorithm::LpaSync => "lpa-sync",
            Algorithm::LpaAsync => "lpa-async",
        }
    }

    /// Parses a [`Algorithm::label`] back into the enum.
    pub fn parse(s: &str) -> Option<Algorithm> {
        Algorithm::ALL.into_iter().find(|a| a.label() == s)
    }

    /// True for the members whose driver contracts the graph (and can
    /// therefore warm-start from a previous partition).
    pub fn is_louvain_family(self) -> bool {
        matches!(self, Algorithm::Louvain | Algorithm::Leiden)
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Runs the selected portfolio algorithm on `graph` — the un-gated
/// convenience form of [`detect_communities_gated`].
pub fn detect_communities(
    dev: &Device,
    graph: &Csr,
    cfg: &GpuLouvainConfig,
    algorithm: Algorithm,
) -> Result<GpuLouvainResult, GpuLouvainError> {
    let schedule = cfg.threshold_schedule();
    detect_communities_gated(dev, graph, cfg, &schedule, algorithm, &mut |_| Ok(()))
}

/// Dispatches to the selected algorithm's gated driver. The threshold
/// schedule applies to the contracting (Louvain-family) members; label
/// propagation has no stages to threshold and uses the gate as a per-sweep
/// cancellation point instead.
pub fn detect_communities_gated(
    dev: &Device,
    graph: &Csr,
    cfg: &GpuLouvainConfig,
    schedule: &ThresholdSchedule,
    algorithm: Algorithm,
    gate: &mut dyn FnMut(&StageCheckpoint) -> Result<(), StageAbort>,
) -> Result<GpuLouvainResult, GpuLouvainError> {
    match algorithm {
        Algorithm::Louvain => louvain_gpu_gated(dev, graph, cfg, schedule, gate),
        Algorithm::Leiden => leiden_gpu_gated(dev, graph, cfg, schedule, gate),
        Algorithm::LpaSync => label_propagation_gated(dev, graph, cfg, LpaMode::Sync, gate),
        Algorithm::LpaAsync => label_propagation_gated(dev, graph, cfg, LpaMode::Async, gate),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cd_gpusim::DeviceConfig;
    use cd_graph::gen::cliques;

    #[test]
    fn labels_round_trip() {
        for a in Algorithm::ALL {
            assert_eq!(Algorithm::parse(a.label()), Some(a));
            assert_eq!(a.to_string(), a.label());
        }
        assert_eq!(Algorithm::parse("no-such"), None);
        assert_eq!(Algorithm::default(), Algorithm::Louvain);
    }

    #[test]
    fn every_algorithm_solves_cliques() {
        let g = cliques(3, 6, true);
        let dev = Device::new(DeviceConfig::tesla_k40m());
        let cfg = GpuLouvainConfig::paper_default();
        for a in Algorithm::ALL {
            let res = detect_communities(&dev, &g, &cfg, a).unwrap();
            assert!(res.modularity > 0.4, "{a}: Q = {}", res.modularity);
            for c in 0..3u32 {
                let base = c * 6;
                for v in 1..6u32 {
                    assert_eq!(
                        res.partition.community_of(base),
                        res.partition.community_of(base + v),
                        "{a}: clique {c} split"
                    );
                }
            }
        }
    }
}
