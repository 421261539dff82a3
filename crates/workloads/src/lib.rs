//! # cd-workloads — the synthetic stand-in for the paper's graph collection
//!
//! The paper evaluates on 55 graphs from the Florida sparse matrix
//! collection, SNAP and KONECT. Those files are not redistributable here, so
//! this crate defines one seeded generator-backed workload per *graph
//! family* of Table 1, reproducing the structural property that drives each
//! family's behaviour under the algorithm: degree skew (social/web), uniform
//! mid-size degrees (FEM meshes, KKT systems), geometric locality (`rgg_*`),
//! extreme sparsity and diameter (road/OSM), and explicit community structure
//! (`com-*`, with ground truth).
//!
//! Every workload builds at five [`Scale`]s so tests stay fast while the
//! reproduction harness can run at a size where parallelism pays — up to
//! [`Scale::Huge`], sized past a single modeled device for the sharded
//! out-of-core path.

#![warn(missing_docs)]

use cd_graph::gen::{
    grid_3d, lfr, perturbed_grid_2d, planted_partition, random_geometric, road_network,
    GridStencil, LfrParams,
};
use cd_graph::{Csr, DeltaBatch, DeltaBuilder, Partition, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Graph family, mirroring how Table 1 groups by structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Family {
    /// Social networks (heavy-tailed degree distribution).
    Social,
    /// Web crawls (skewed, hub-dominated).
    Web,
    /// Collaboration networks (heavy-tailed, locally dense).
    Collaboration,
    /// FEM / structural meshes (uniform mid-size degrees).
    Mesh,
    /// KKT optimization systems (`nlpkkt*`, `channel-*`: weak initial
    /// community structure — the Fig. 6 anomaly).
    Kkt,
    /// Random geometric graphs.
    Geometric,
    /// Road and OSM networks (near-planar, bounded degree, huge diameter).
    Road,
    /// Graphs with explicit community ground truth (`com-*`).
    Clustered,
}

impl Family {
    /// All families, in Table-1-ish order.
    pub const ALL: [Family; 8] = [
        Family::Social,
        Family::Web,
        Family::Collaboration,
        Family::Mesh,
        Family::Kkt,
        Family::Geometric,
        Family::Road,
        Family::Clustered,
    ];
}

/// Workload size class. `factor()` scales vertex counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scale {
    /// A few thousand vertices — unit tests.
    Tiny,
    /// Tens of thousands — quick experiments.
    Small,
    /// Low hundreds of thousands — the default for the reproduction harness.
    Medium,
    /// Around a million vertices — the slow, faithful runs.
    Large,
    /// Several million vertices, tens of millions of edges — deliberately
    /// bigger than one modeled device's memory, for the sharded out-of-core
    /// path (`repro dist`). Expect minutes per run.
    Huge,
}

impl Scale {
    /// Vertex-count multiplier relative to [`Scale::Tiny`].
    pub fn factor(self) -> usize {
        match self {
            Scale::Tiny => 1,
            Scale::Small => 8,
            Scale::Medium => 32,
            Scale::Large => 128,
            Scale::Huge => 512,
        }
    }

    /// The adaptive-threshold switch for graphs of this scale. The paper's
    /// switch sits at 100,000 vertices, below every graph of its collection,
    /// so every first stage ran under `th_bin`. These workloads are scaled
    /// down, and the limit scales with them (1,000 × [`Scale::factor`]) to
    /// keep that regime: first stages coarse, contracted stages fine. The
    /// `repro` harness runs both sides of every comparison at this limit;
    /// the library, serve and dist defaults stay at the paper's 100,000.
    /// The benchmark package (`cdbench`) keeps its own copy of this rule,
    /// frozen with the benchmark.
    pub fn size_limit(self) -> usize {
        1000 * self.factor()
    }

    /// Parses `tiny|small|medium|large|huge` (case-insensitive). `smoke` is
    /// an alias for `tiny` — the name CI steps use for their fastest runs —
    /// and `xl` for `huge`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" | "smoke" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "large" => Some(Scale::Large),
            "huge" | "xl" => Some(Scale::Huge),
            _ => None,
        }
    }
}

/// A built workload: the graph plus ground truth when the generator has one.
#[derive(Debug)]
pub struct BuiltWorkload {
    /// The graph.
    pub graph: Csr,
    /// Planted communities, for the `com-*` analogues.
    pub truth: Option<Partition>,
}

impl BuiltWorkload {
    fn plain(graph: Csr) -> Self {
        Self { graph, truth: None }
    }
}

/// A named workload of the suite.
pub struct WorkloadSpec {
    /// Short name used by the harness CLI.
    pub name: &'static str,
    /// The Table 1 graph(s) this stands in for.
    pub paper_analogue: &'static str,
    /// Structural family.
    pub family: Family,
    build: fn(Scale) -> BuiltWorkload,
}

impl WorkloadSpec {
    /// Generates the workload at the given scale (deterministic).
    pub fn build(&self, scale: Scale) -> BuiltWorkload {
        (self.build)(scale)
    }
}

impl std::fmt::Debug for WorkloadSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadSpec")
            .field("name", &self.name)
            .field("family", &self.family)
            .field("paper_analogue", &self.paper_analogue)
            .finish()
    }
}

fn side_2d(scale: Scale, base: usize) -> usize {
    // Area scales with factor, so the side scales with sqrt(factor).
    (base as f64 * (scale.factor() as f64).sqrt()).round() as usize
}

fn side_3d(scale: Scale, base: usize) -> usize {
    (base as f64 * (scale.factor() as f64).cbrt()).round() as usize
}

// ---- social / web / collaboration ------------------------------------------

fn w_orkut(s: Scale) -> BuiltWorkload {
    let mut p = LfrParams::social(2500 * s.factor());
    p.avg_degree = 30.0;
    let (graph, truth) = lfr(&p, 0xC0);
    BuiltWorkload { graph, truth: Some(truth) }
}

fn w_livejournal(s: Scale) -> BuiltWorkload {
    let mut p = LfrParams::social(3000 * s.factor());
    p.avg_degree = 17.0;
    p.mu = 0.25;
    let (graph, truth) = lfr(&p, 0xC1);
    BuiltWorkload { graph, truth: Some(truth) }
}

fn w_pokec(s: Scale) -> BuiltWorkload {
    let mut p = LfrParams::social(2800 * s.factor());
    p.avg_degree = 20.0;
    p.mu = 0.3;
    let (graph, truth) = lfr(&p, 0xC2);
    BuiltWorkload { graph, truth: Some(truth) }
}

fn w_uk2002(s: Scale) -> BuiltWorkload {
    let (graph, truth) = lfr(&LfrParams::web(4500 * s.factor()), 0xC3);
    BuiltWorkload { graph, truth: Some(truth) }
}

fn w_cnr2000(s: Scale) -> BuiltWorkload {
    let mut p = LfrParams::web(1500 * s.factor());
    p.avg_degree = 10.0;
    let (graph, truth) = lfr(&p, 0xC4);
    BuiltWorkload { graph, truth: Some(truth) }
}

fn w_flickr(s: Scale) -> BuiltWorkload {
    let mut p = LfrParams::social(3500 * s.factor());
    p.avg_degree = 9.0;
    p.mu = 0.35;
    let (graph, truth) = lfr(&p, 0xC5);
    BuiltWorkload { graph, truth: Some(truth) }
}

fn w_hollywood(s: Scale) -> BuiltWorkload {
    // Collaboration networks are the densest rows of Table 1 (hollywood-2009
    // averages ~99 adjacent actors); heavy tail plus strong communities.
    let mut p = LfrParams::social(2200 * s.factor());
    p.avg_degree = 48.0;
    p.mu = 0.15;
    let (graph, truth) = lfr(&p, 0xC6);
    BuiltWorkload { graph, truth: Some(truth) }
}

fn w_actor(s: Scale) -> BuiltWorkload {
    let mut p = LfrParams::social(1500 * s.factor());
    p.avg_degree = 60.0;
    p.mu = 0.25;
    let (graph, truth) = lfr(&p, 0xC7);
    BuiltWorkload { graph, truth: Some(truth) }
}

fn w_copapers(s: Scale) -> BuiltWorkload {
    let mut p = LfrParams::social(1800 * s.factor());
    p.avg_degree = 28.0;
    p.mu = 0.12;
    let (graph, truth) = lfr(&p, 0xC8);
    BuiltWorkload { graph, truth: Some(truth) }
}

// ---- meshes / KKT -----------------------------------------------------------

fn w_audikw(s: Scale) -> BuiltWorkload {
    let side = side_3d(s, 11);
    BuiltWorkload::plain(grid_3d(side, side, side, GridStencil::Moore))
}

fn w_bone(s: Scale) -> BuiltWorkload {
    let side = side_3d(s, 10);
    BuiltWorkload::plain(grid_3d(side, side, 2 * side, GridStencil::Moore))
}

fn w_flan(s: Scale) -> BuiltWorkload {
    let side = side_3d(s, 12);
    BuiltWorkload::plain(grid_3d(side, 2 * side, side, GridStencil::Moore))
}

fn w_nlpkkt(s: Scale) -> BuiltWorkload {
    let side = side_3d(s, 14);
    BuiltWorkload::plain(grid_3d(side, side, side, GridStencil::VonNeumann))
}

fn w_channel(s: Scale) -> BuiltWorkload {
    let side = side_3d(s, 9);
    // A long channel: one stretched dimension, as in channel-500x100x100.
    BuiltWorkload::plain(grid_3d(5 * side, side, side, GridStencil::VonNeumann))
}

// ---- geometric ----------------------------------------------------------------

fn w_rgg_dense(s: Scale) -> BuiltWorkload {
    let n = 3000 * s.factor();
    let radius = (14.0 / n as f64).sqrt(); // E[deg] ~ pi * 14
    BuiltWorkload::plain(random_geometric(n, radius, 0xD0))
}

fn w_rgg_sparse(s: Scale) -> BuiltWorkload {
    let n = 5000 * s.factor();
    let radius = (7.0 / n as f64).sqrt();
    BuiltWorkload::plain(random_geometric(n, radius, 0xD1))
}

// ---- road ---------------------------------------------------------------------

fn w_road_usa(s: Scale) -> BuiltWorkload {
    let side = side_2d(s, 70);
    BuiltWorkload::plain(road_network(side, side, 0.72, 0xE0))
}

fn w_europe_osm(s: Scale) -> BuiltWorkload {
    let side = side_2d(s, 90);
    BuiltWorkload::plain(road_network(side, side, 0.62, 0xE1))
}

fn w_delaunay(s: Scale) -> BuiltWorkload {
    // Real triangulations are irregular; a perfect lattice would be
    // degenerate for every synchronous parallel Louvain (see
    // `perturbed_grid_2d`).
    let side = side_2d(s, 55);
    BuiltWorkload::plain(perturbed_grid_2d(side, side, GridStencil::Moore, 0.88, 0xE2))
}

fn w_hugetrace(s: Scale) -> BuiltWorkload {
    let side = side_2d(s, 80);
    BuiltWorkload::plain(perturbed_grid_2d(side, side, GridStencil::VonNeumann, 0.93, 0xE3))
}

// ---- clustered (ground truth) ---------------------------------------------------

/// `p_out` that yields an expected *external* degree of `ext` per vertex.
fn p_out_for(k: usize, size: usize, ext: f64) -> f64 {
    ext / ((k - 1) as f64 * size as f64)
}

fn w_com_dblp(s: Scale) -> BuiltWorkload {
    let k = 60 * s.factor();
    let pg = planted_partition(k, 32, 0.28, p_out_for(k, 32, 2.5), 0xF0);
    BuiltWorkload { graph: pg.graph, truth: Some(pg.truth) }
}

fn w_com_amazon(s: Scale) -> BuiltWorkload {
    let k = 90 * s.factor();
    let pg = planted_partition(k, 24, 0.30, p_out_for(k, 24, 1.8), 0xF1);
    BuiltWorkload { graph: pg.graph, truth: Some(pg.truth) }
}

fn w_com_youtube(s: Scale) -> BuiltWorkload {
    let k = 40 * s.factor();
    let pg = planted_partition(k, 64, 0.10, p_out_for(k, 64, 2.0), 0xF2);
    BuiltWorkload { graph: pg.graph, truth: Some(pg.truth) }
}

/// The full suite, in roughly Table 1's decreasing-average-degree order.
pub const SUITE: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "actor-collab",
        paper_analogue: "out.actor-collaboration",
        family: Family::Collaboration,
        build: w_actor,
    },
    WorkloadSpec {
        name: "hollywood",
        paper_analogue: "hollywood-2009",
        family: Family::Collaboration,
        build: w_hollywood,
    },
    WorkloadSpec {
        name: "audikw",
        paper_analogue: "audikw_1, dielFilterV3real, F1",
        family: Family::Mesh,
        build: w_audikw,
    },
    WorkloadSpec {
        name: "orkut",
        paper_analogue: "com-orkut",
        family: Family::Social,
        build: w_orkut,
    },
    WorkloadSpec {
        name: "flan",
        paper_analogue: "Flan_1565, Long_Coup_dt6, Cube_Coup_dt0",
        family: Family::Mesh,
        build: w_flan,
    },
    WorkloadSpec {
        name: "bone",
        paper_analogue: "bone010, boneS10, Emilia_923",
        family: Family::Mesh,
        build: w_bone,
    },
    WorkloadSpec {
        name: "copapers",
        paper_analogue: "coPapersDBLP",
        family: Family::Collaboration,
        build: w_copapers,
    },
    WorkloadSpec {
        name: "pokec",
        paper_analogue: "soc-pokec-relationships",
        family: Family::Social,
        build: w_pokec,
    },
    WorkloadSpec {
        name: "uk2002",
        paper_analogue: "uk-2002",
        family: Family::Web,
        build: w_uk2002,
    },
    WorkloadSpec {
        name: "livejournal",
        paper_analogue: "soc-LiveJournal1, com-lj",
        family: Family::Social,
        build: w_livejournal,
    },
    WorkloadSpec {
        name: "nlpkkt",
        paper_analogue: "nlpkkt120/160/200",
        family: Family::Kkt,
        build: w_nlpkkt,
    },
    WorkloadSpec {
        name: "cnr2000",
        paper_analogue: "cnr-2000",
        family: Family::Web,
        build: w_cnr2000,
    },
    WorkloadSpec {
        name: "flickr",
        paper_analogue: "out.flickr-links, out.flixster",
        family: Family::Social,
        build: w_flickr,
    },
    WorkloadSpec {
        name: "channel",
        paper_analogue: "channel-500x100x100-b050",
        family: Family::Kkt,
        build: w_channel,
    },
    WorkloadSpec {
        name: "rgg-dense",
        paper_analogue: "rgg_n_2_24_s0",
        family: Family::Geometric,
        build: w_rgg_dense,
    },
    WorkloadSpec {
        name: "rgg-sparse",
        paper_analogue: "rgg_n_2_22_s0",
        family: Family::Geometric,
        build: w_rgg_sparse,
    },
    WorkloadSpec {
        name: "com-youtube",
        paper_analogue: "com-youtube",
        family: Family::Clustered,
        build: w_com_youtube,
    },
    WorkloadSpec {
        name: "com-dblp",
        paper_analogue: "com-dblp",
        family: Family::Clustered,
        build: w_com_dblp,
    },
    WorkloadSpec {
        name: "com-amazon",
        paper_analogue: "com-amazon",
        family: Family::Clustered,
        build: w_com_amazon,
    },
    WorkloadSpec {
        name: "delaunay",
        paper_analogue: "delaunay_n24",
        family: Family::Road,
        build: w_delaunay,
    },
    WorkloadSpec {
        name: "hugetrace",
        paper_analogue: "hugetrace-00020, hugebubbles-*",
        family: Family::Road,
        build: w_hugetrace,
    },
    WorkloadSpec {
        name: "road-usa",
        paper_analogue: "road_usa, germany_osm",
        family: Family::Road,
        build: w_road_usa,
    },
    WorkloadSpec {
        name: "europe-osm",
        paper_analogue: "europe_osm, asia_osm, italy_osm",
        family: Family::Road,
        build: w_europe_osm,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static WorkloadSpec> {
    SUITE.iter().find(|w| w.name == name)
}

/// The error [`load`] reports for a name outside the suite — carries the
/// valid names so a CLI or service boundary can echo them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownWorkload {
    /// The name that failed to resolve.
    pub name: String,
}

impl std::fmt::Display for UnknownWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = SUITE.iter().map(|w| w.name).collect();
        write!(f, "unknown workload '{}' (known: {})", self.name, names.join(", "))
    }
}

impl std::error::Error for UnknownWorkload {}

/// The shared name→graph loader: resolves `name` against the suite and
/// builds it at `scale`. Every consumer that accepts workload names — the
/// bench harness's experiments and the `cd-serve` load generator — routes
/// through this one entry point, so name resolution and its error message
/// exist exactly once (`cd-serve` layers its content-addressed graph cache
/// on top).
pub fn load(name: &str, scale: Scale) -> Result<BuiltWorkload, UnknownWorkload> {
    match by_name(name) {
        Some(spec) => Ok(spec.build(scale)),
        None => Err(UnknownWorkload { name: name.to_string() }),
    }
}

/// Generates a deterministic edge-churn [`DeltaBatch`] for `graph`:
/// `max(1, round(frac * |E|))` operations, roughly 40% deletes, 30%
/// inserts, and 30% reweights (skewed toward deletes so the batch exercises
/// both shrinking and growing adjacencies). Deletes and reweights are
/// sampled without replacement from the existing edge set; inserts are
/// rejection-sampled from the non-edges. The same `(graph, seed, frac)`
/// always yields the same batch — this generator is the single churn source
/// shared by the delta tests, the warm-start equivalence suite, and
/// `repro incremental`.
pub fn churn(graph: &Csr, seed: u64, frac: f64) -> DeltaBatch {
    assert!((0.0..=1.0).contains(&frac), "churn fraction must be in [0, 1], got {frac}");
    let n = graph.num_vertices();
    let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(graph.num_arcs() / 2);
    for u in 0..n as VertexId {
        for v in graph.neighbors(u) {
            if *v >= u {
                edges.push((u, *v));
            }
        }
    }
    let ops = ((frac * edges.len() as f64).round() as usize).max(1);
    let mut r = SmallRng::seed_from_u64(seed ^ 0x6368_7572_6e21_2121); // "churn!!!"
    let mut b = DeltaBuilder::new(n);
    // Partial Fisher–Yates over the edge list: positions [0, drawn) hold the
    // edges already claimed by a delete or reweight.
    let mut drawn = 0usize;
    let has_edge = |u: VertexId, v: VertexId| graph.neighbors(u).binary_search(&v).is_ok();
    while b.len() < ops {
        let roll: f64 = r.gen();
        if roll < 0.3 && n >= 2 {
            // Insert a currently-absent edge. Bounded rejection sampling: on
            // dense or tiny graphs a free pair can be rare, so give up after
            // a fixed number of tries and fall through to the edge ops.
            let mut placed = false;
            for _ in 0..64 {
                let u = r.gen_range(0..n) as VertexId;
                let v = r.gen_range(0..n) as VertexId;
                let (u, v) = if u <= v { (u, v) } else { (v, u) };
                if !has_edge(u, v) && b.insert(u, v, 0.5 + r.gen::<f64>()).is_ok() {
                    placed = true;
                    break;
                }
            }
            if placed {
                continue;
            }
        }
        if drawn >= edges.len() {
            // Every existing edge is claimed; only inserts remain. On a
            // complete graph this cannot make progress — accept the short
            // batch rather than spin.
            if b.is_empty() {
                let w = 0.5 + r.gen::<f64>();
                let (u, v) = edges[r.gen_range(0..edges.len())];
                b.reweight(u, v, w).ok();
            }
            break;
        }
        let pick = r.gen_range(drawn..edges.len());
        edges.swap(drawn, pick);
        let (u, v) = edges[drawn];
        drawn += 1;
        if roll < 0.7 {
            b.delete(u, v).expect("sampled without replacement");
        } else {
            b.reweight(u, v, 0.5 + r.gen::<f64>()).expect("sampled without replacement");
        }
    }
    b.build()
}

/// The four workloads used for the per-stage breakdown and comparison
/// figures (road-like for Fig. 5, KKT for Fig. 6, a web graph for profiling,
/// a channel mesh for TEPS).
pub fn featured() -> [&'static WorkloadSpec; 4] {
    [
        by_name("road-usa").unwrap(),
        by_name("nlpkkt").unwrap(),
        by_name("uk2002").unwrap(),
        by_name("channel").unwrap(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cd_graph::degree_stats;

    #[test]
    fn all_workloads_build_tiny() {
        for spec in SUITE {
            let built = spec.build(Scale::Tiny);
            let n = built.graph.num_vertices();
            let m = built.graph.num_edges();
            assert!(n >= 500, "{}: too few vertices ({n})", spec.name);
            assert!(m >= n / 2, "{}: too few edges ({m})", spec.name);
            assert!(n <= 40_000, "{}: tiny scale too large for unit tests ({n})", spec.name);
        }
    }

    #[test]
    fn deterministic_builds() {
        for spec in SUITE.iter().take(5) {
            let a = spec.build(Scale::Tiny);
            let b = spec.build(Scale::Tiny);
            assert_eq!(a.graph, b.graph, "{} not deterministic", spec.name);
        }
    }

    #[test]
    fn families_have_expected_degree_shapes() {
        // At Tiny scale the degree cap (n/20) limits the tail; the spread is
        // still well beyond any uniform-degree family.
        let social = by_name("orkut").unwrap().build(Scale::Tiny).graph;
        let s = degree_stats(&social);
        assert!(
            s.max_degree as f64 > 2.5 * s.avg_degree,
            "social graphs must be heavy-tailed (max {} avg {})",
            s.max_degree,
            s.avg_degree
        );

        let road = by_name("road-usa").unwrap().build(Scale::Tiny).graph;
        let r = degree_stats(&road);
        assert!(r.max_degree <= 8, "roads have bounded degree, got {}", r.max_degree);
        assert!(r.avg_degree < 4.0);

        let mesh = by_name("audikw").unwrap().build(Scale::Tiny).graph;
        let m = degree_stats(&mesh);
        assert!(m.avg_degree > 15.0, "FEM mesh should be locally dense, avg {}", m.avg_degree);
        assert!(m.max_degree <= 26);
    }

    #[test]
    fn clustered_workloads_carry_truth() {
        let w = by_name("com-dblp").unwrap().build(Scale::Tiny);
        let truth = w.truth.expect("ground truth expected");
        assert_eq!(truth.len(), w.graph.num_vertices());
        let q = cd_graph::modularity(&w.graph, &truth);
        assert!(q > 0.5, "planted structure too weak: Q = {q}");
    }

    #[test]
    fn scales_grow() {
        let spec = by_name("com-dblp").unwrap();
        let tiny = spec.build(Scale::Tiny).graph.num_vertices();
        let small = spec.build(Scale::Small).graph.num_vertices();
        assert!(small > 4 * tiny);
    }

    #[test]
    fn by_name_and_featured() {
        assert!(by_name("orkut").is_some());
        assert!(by_name("nope").is_none());
        assert_eq!(featured()[0].name, "road-usa");
    }

    #[test]
    fn scale_parse() {
        assert_eq!(Scale::parse("Medium"), Some(Scale::Medium));
        assert_eq!(Scale::parse("x"), None);
        assert_eq!(Scale::parse("smoke"), Some(Scale::Tiny));
        assert!(Scale::Large.factor() > Scale::Tiny.factor());
    }

    #[test]
    fn scale_parse_round_trips_every_tier() {
        let all = [Scale::Tiny, Scale::Small, Scale::Medium, Scale::Large, Scale::Huge];
        for s in all {
            let name = format!("{s:?}").to_ascii_lowercase();
            assert_eq!(Scale::parse(&name), Some(s), "{name} must round-trip");
        }
        // Tiers are strictly ordered by factor.
        for pair in all.windows(2) {
            assert!(pair[0].factor() < pair[1].factor());
        }
    }

    #[test]
    fn huge_tier_parses_with_alias() {
        assert_eq!(Scale::parse("huge"), Some(Scale::Huge));
        assert_eq!(Scale::parse("HUGE"), Some(Scale::Huge));
        assert_eq!(Scale::parse("xl"), Some(Scale::Huge));
        assert_eq!(Scale::Huge.factor(), 512);
    }

    #[test]
    fn churn_is_deterministic_applicable_and_sized() {
        let g = by_name("com-dblp").unwrap().build(Scale::Tiny).graph;
        for frac in [0.0005, 0.01, 0.1] {
            let batch = churn(&g, 42, frac);
            let again = churn(&g, 42, frac);
            assert_eq!(batch, again, "churn must be deterministic");
            let expect = ((frac * g.num_edges() as f64).round() as usize).max(1);
            assert_eq!(batch.len(), expect, "frac {frac}");
            // The batch must apply cleanly to the graph it was drawn from.
            let (patched, touched) = cd_graph::apply_delta(&g, &batch).unwrap();
            assert!(patched.is_symmetric());
            assert!(!touched.is_empty());
        }
        assert_ne!(churn(&g, 42, 0.01), churn(&g, 43, 0.01), "seed must matter");
    }

    #[test]
    fn shared_loader_resolves_and_reports_unknown_names() {
        let built = load("com-dblp", Scale::Tiny).unwrap();
        assert_eq!(built.graph, by_name("com-dblp").unwrap().build(Scale::Tiny).graph);
        let err = load("nope", Scale::Tiny).unwrap_err();
        assert_eq!(err.name, "nope");
        assert!(err.to_string().contains("com-dblp"), "error should list the known names");
    }
}
