//! # sg-dist — simulated distributed-memory compression (§7.3)
//!
//! The paper compresses its largest graphs (up to Web Data Commons 2012 at
//! ≈128 B edges) with a *distributed* implementation of compression kernels
//! built on MPI Remote Memory Access. That substrate is simulated here:
//! each MPI rank becomes an OS thread owning a contiguous shard of the
//! graph (`sg_graph::partition`), kernels run per shard, and the root
//! merges what the ranks decided.
//!
//! Three kernel classes run distributed, all through
//! [`distributed_compress`]:
//!
//! * **edge kernels** and **vertex kernels** — decisions are pure in
//!   `(seed, element id)`, so every rank runs sg-core's range primitive
//!   ([`sg_core::decide_edges`] / [`sg_core::decide_vertices`]) over the
//!   range it owns;
//! * **Plain Triangle Reduction** — likewise stateless: each rank runs
//!   [`sg_core::schemes::plain_tr_deletions`] over its vertex range;
//! * **Edge-Once / Count-Triangles** — the stateful disciplines run the
//!   superstep reservation protocol of [`sharded`].
//!
//! In every case the distributed result is **bit-identical** to the
//! shared-memory `scheme.apply(g, seed)` for any rank count — the property
//! the tests pin down. Schemes without a sharded plan (global rewrites:
//! summarization, spanners, collapse; reweighting spectral sparsification)
//! report [`DistError::Unsupported`].
//!
//! The `shard_*` helpers at the bottom are the *federation* building
//! blocks: sg-serve's coordinator splits a request into `(shard, shards)`
//! sub-requests answered by worker daemons holding full graph replicas —
//! each runs the same per-range runner as one in-process rank — and
//! merges the returned deletion lists with [`merge_outcomes`].

pub mod error;
pub mod sharded;

pub use error::DistError;
pub use sharded::ShardedContext;

use crossbeam::channel;
use sg_core::kernel::{EdgeDecision, EdgeKernel};
use sg_core::schemes::{plain_tr_deletions, Discipline};
use sg_core::{
    decide_edges, decide_vertices, CompressionResult, CompressionScheme, DistPlan, SgContext,
};
use sg_graph::partition::{partition_edges, partition_vertices};
use sg_graph::{CsrGraph, EdgeId, VertexId};
use std::ops::Range;
use std::time::Instant;

/// Per-rank execution statistics returned by the simulated pipeline.
#[derive(Clone, Debug)]
pub struct RankStats {
    /// Rank id.
    pub rank: usize,
    /// Canonical edges owned by the rank.
    pub owned_edges: usize,
    /// Owned edges that survived compression.
    pub kept_edges: usize,
    /// Vertices owned by the rank (0 on the edge-partitioned path, which
    /// shards the edge array directly).
    pub owned_vertices: usize,
    /// Messages the rank sent over the exchange (gather sends included).
    pub messages_sent: u64,
    /// Superstep rounds the rank executed (1 for stateless kernels).
    pub supersteps: u64,
}

/// Outcome of a distributed compression run.
#[derive(Clone, Debug)]
pub struct DistResult {
    /// The compressed graph (gathered at the root).
    pub result: CompressionResult,
    /// Per-rank statistics.
    pub ranks: Vec<RankStats>,
    /// Merged degree histogram of the compressed graph
    /// (`degree -> #vertices`), the Figure-8 artifact.
    pub degree_histogram: Vec<(usize, usize)>,
}

impl DistResult {
    /// Largest relative deviation of any rank's `owned_edges` from the
    /// mean, in percent — the load-imbalance figure of the dist_scale
    /// bench.
    pub fn edge_imbalance_pct(&self) -> f64 {
        if self.ranks.is_empty() {
            return 0.0;
        }
        let total: usize = self.ranks.iter().map(|r| r.owned_edges).sum();
        let mean = total as f64 / self.ranks.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        self.ranks
            .iter()
            .map(|r| ((r.owned_edges as f64 - mean).abs() / mean) * 100.0)
            .fold(0.0, f64::max)
    }

    /// Total messages sent across all ranks.
    pub fn total_messages(&self) -> u64 {
        self.ranks.iter().map(|r| r.messages_sent).sum()
    }

    /// Maximum superstep count over the ranks.
    pub fn max_supersteps(&self) -> u64 {
        self.ranks.iter().map(|r| r.supersteps).max().unwrap_or(0)
    }
}

/// What one rank — or one federation shard — owns under a stateless plan.
struct Owned {
    /// Canonical edge ids the rank owns.
    edges: Range<EdgeId>,
    /// Vertex ids the rank owns; empty on the edge-partitioned path.
    vertices: Range<VertexId>,
}

/// Every rank's ownership under `plan`. Edge kernels split the canonical
/// edge array into balanced shards; triangle and vertex plans split the
/// vertex set, and each rank owns the canonical edges whose smaller
/// endpoint it owns.
fn ownership(g: &CsrGraph, plan: &DistPlan, ranks: usize) -> Vec<Owned> {
    if let DistPlan::EdgeKernel(_) = plan {
        return partition_edges(g, ranks)
            .iter()
            .map(|s| Owned { edges: s.start..s.end, vertices: 0..0 })
            .collect();
    }
    let parts = partition_vertices(g.num_vertices(), ranks);
    let starts = sharded::edge_rank_starts(g, &parts);
    parts
        .iter()
        .enumerate()
        .map(|(rank, &(lo, hi))| Owned {
            edges: starts[rank] as EdgeId..starts[rank + 1] as EdgeId,
            vertices: lo as VertexId..hi as VertexId,
        })
        .collect()
}

/// The one stateless runner: decides `plan` over the range `own` owns.
/// An in-process rank and a federation shard both call exactly this.
/// Triangle plans must be Plain (the caller routes Edge-Once elsewhere).
fn run_range(g: &CsrGraph, plan: &DistPlan, own: &Owned, seed: u64) -> ShardOutcome {
    match plan {
        DistPlan::EdgeKernel(kernel) => {
            ShardOutcome::Edges(edge_deletions(g, kernel.as_ref(), own.edges.clone(), seed))
        }
        DistPlan::Triangle(cfg) => {
            ShardOutcome::Edges(plain_tr_deletions(g, *cfg, seed, own.vertices.clone()))
        }
        DistPlan::Vertex(kernel) => {
            let sg = SgContext::new(g, seed);
            let removed = decide_vertices(&sg, kernel.as_ref(), own.vertices.clone());
            ShardOutcome::Vertices(
                own.vertices.clone().zip(removed).filter_map(|(v, r)| r.then_some(v)).collect(),
            )
        }
    }
}

/// Edge ids in `ids` that `kernel` deletes, ascending. Decides in blocks
/// so a shard holds the decisions of one block, not of every owned edge.
fn edge_deletions(
    g: &CsrGraph,
    kernel: &dyn EdgeKernel,
    ids: Range<EdgeId>,
    seed: u64,
) -> Vec<EdgeId> {
    const BLOCK: EdgeId = 1 << 16;
    let sg = SgContext::new(g, seed);
    let mut deleted = Vec::new();
    for lo in ids.clone().step_by(BLOCK as usize) {
        let block = lo..ids.end.min(lo.saturating_add(BLOCK));
        let decisions = decide_edges(&sg, kernel, block.clone());
        deleted.extend(
            block.zip(decisions).filter(|&(_, d)| d == EdgeDecision::Delete).map(|(e, _)| e),
        );
    }
    deleted
}

/// Runs any registry scheme with a sharded-execution plan over the
/// simulated distributed pipeline:
///
/// * stateless plans — edge kernels (`uniform`, `spectral` without
///   reweighting, `cut`), Plain Triangle Reduction (`tr`), and vertex
///   kernels (`lowdeg`) — run one thread per rank over the rank's owned
///   range, then the root merges in rank order;
/// * the Edge-Once disciplines (`tr-eo`, `tr-ct`, `tr-mw`) run the
///   superstep reservation protocol of [`sharded`].
///
/// Schemes without a plan (`collapse`, `spanner`, `summary`, reweighting
/// `spectral`) return [`DistError::Unsupported`]. Results are
/// bit-identical to `scheme.apply(g, seed)` for any rank count.
pub fn distributed_compress(
    g: &CsrGraph,
    scheme: &dyn CompressionScheme,
    ranks: usize,
    seed: u64,
) -> Result<DistResult, DistError> {
    if ranks == 0 {
        return Err(DistError::InvalidRanks { ranks });
    }
    match scheme.dist_plan(g).ok_or_else(|| unsupported(scheme))? {
        DistPlan::Triangle(cfg) if cfg.discipline != Discipline::Plain => {
            sharded::sharded_triangle_compress(g, cfg, ranks, seed)
        }
        plan => Ok(stateless_compress(g, &plan, ranks, seed)),
    }
}

/// A stateless plan over `ranks` rank threads: each runs [`run_range`]
/// over its owned range; the root merges the outcomes, and each rank's
/// statistics come from its owned range of the merged result.
fn stateless_compress(g: &CsrGraph, plan: &DistPlan, ranks: usize, seed: u64) -> DistResult {
    let start = Instant::now();
    let owned = ownership(g, plan, ranks);
    let outcomes: Vec<ShardOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            owned.iter().map(|own| scope.spawn(move || run_range(g, plan, own, seed))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let merged = union_outcomes(&outcomes);
    let (graph, vertex_mapping) = apply_outcome(g, &merged);
    let kept_in = |edges: &Range<EdgeId>| match &merged {
        ShardOutcome::Edges(deleted) => {
            let below = |bound: EdgeId| deleted.partition_point(|&e| e < bound);
            edges.len() - (below(edges.end) - below(edges.start))
        }
        ShardOutcome::Vertices(_) => {
            let mapping = vertex_mapping.as_deref().expect("vertex removals relabel");
            let both_survive = |e| {
                let (u, v) = g.edge_endpoints(e);
                mapping[u as usize].is_some() && mapping[v as usize].is_some()
            };
            edges.clone().filter(|&e| both_survive(e)).count()
        }
    };
    let stats = owned
        .iter()
        .enumerate()
        .map(|(rank, own)| RankStats {
            rank,
            owned_edges: own.edges.len(),
            kept_edges: kept_in(&own.edges),
            owned_vertices: own.vertices.len(),
            messages_sent: 1, // one gather send per rank
            supersteps: 1,
        })
        .collect();
    let degree_histogram = distributed_degree_histogram(&graph, ranks);
    DistResult {
        result: CompressionResult {
            graph,
            original_edges: g.num_edges(),
            original_vertices: g.num_vertices(),
            elapsed: start.elapsed(),
            vertex_mapping,
        },
        ranks: stats,
        degree_histogram,
    }
}

/// Computes the degree histogram with per-rank partial histograms merged at
/// the root (each rank owns a contiguous vertex range — the reduction the
/// paper performs with RMA accumulate).
pub fn distributed_degree_histogram(g: &CsrGraph, ranks: usize) -> Vec<(usize, usize)> {
    let parts = partition_vertices(g.num_vertices(), ranks);
    let (tx, rx) = channel::unbounded::<Vec<(usize, usize)>>();
    std::thread::scope(|scope| {
        for &(lo, hi) in &parts {
            let tx = tx.clone();
            scope.spawn(move || {
                let mut local: rustc_lite::Map = rustc_lite::Map::new();
                for v in lo..hi {
                    local.add(g.degree(v as VertexId));
                }
                tx.send(local.into_sorted()).expect("root outlives ranks");
            });
        }
    });
    drop(tx);
    let mut merged: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    for part in rx {
        for (d, c) in part {
            *merged.entry(d).or_insert(0) += c;
        }
    }
    merged.into_iter().collect()
}

// ---------------------------------------------------------------------------
// Federation building blocks: one daemon computes one shard of a request
// against its full graph replica; the coordinator merges the shards.
// ---------------------------------------------------------------------------

/// What one federation shard computed: edge deletions or vertex removals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardOutcome {
    /// Edge ids to delete, sorted ascending, deduplicated.
    Edges(Vec<EdgeId>),
    /// Vertex ids to remove, sorted ascending, deduplicated.
    Vertices(Vec<VertexId>),
}

/// The merge type of a federable scheme: what its shards return.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardKind {
    /// Shards return edge deletions; the merged graph keeps every edge no
    /// shard deleted.
    Edges,
    /// Shards return vertex removals; the merged graph relabels survivors.
    Vertices,
}

/// Classifies `scheme` for federation **without running it**:
/// `Ok(kind)` if independent `(shard, shards)` sub-runs against full
/// replicas reconstruct the shared-memory result, else exactly the typed
/// error [`shard_compress`] would return. The serving coordinator calls
/// this up front to pick federated vs coordinator-local execution.
pub fn federation_plan(
    g: &CsrGraph,
    scheme: &dyn CompressionScheme,
) -> Result<ShardKind, DistError> {
    Ok(match federable_plan(g, scheme)? {
        DistPlan::Vertex(_) => ShardKind::Vertices,
        DistPlan::EdgeKernel(_) | DistPlan::Triangle(_) => ShardKind::Edges,
    })
}

/// `scheme`'s plan if its shards are independent: every stateless plan.
/// The Edge-Once disciplines need the superstep flag exchange and must run
/// through [`distributed_compress`] instead.
fn federable_plan(g: &CsrGraph, scheme: &dyn CompressionScheme) -> Result<DistPlan, DistError> {
    match scheme.dist_plan(g).ok_or_else(|| unsupported(scheme))? {
        DistPlan::Triangle(cfg) if cfg.discipline != Discipline::Plain => {
            Err(DistError::Unsupported {
                scheme: cfg.label(),
                reason: "Edge-Once disciplines need the cross-shard flag exchange; \
                         run them through distributed_compress"
                    .to_string(),
            })
        }
        plan => Ok(plan),
    }
}

fn unsupported(scheme: &dyn CompressionScheme) -> DistError {
    DistError::Unsupported {
        scheme: scheme.name().to_string(),
        reason: "no sharded-execution plan (it rewrites the graph globally or reweights edges)"
            .to_string(),
    }
}

/// Computes shard `shard` of `shards` for any federable scheme: the same
/// per-range runner an in-process rank of [`distributed_compress`] runs.
/// Edge kernels and *Plain* Triangle Reduction yield
/// [`ShardOutcome::Edges`]; vertex kernels yield
/// [`ShardOutcome::Vertices`]. Stateful disciplines (Edge-Once,
/// Count-Triangles) need the cross-shard flag exchange of [`sharded`] and
/// are rejected — the coordinator runs those locally instead.
pub fn shard_compress(
    g: &CsrGraph,
    scheme: &dyn CompressionScheme,
    shard: usize,
    shards: usize,
    seed: u64,
) -> Result<ShardOutcome, DistError> {
    check_shard(shard, shards)?;
    let plan = federable_plan(g, scheme)?;
    Ok(run_range(g, &plan, &ownership(g, &plan, shards)[shard], seed))
}

/// Edge ids shard `shard` of `shards` deletes under `kernel`. Decisions are
/// pure in `(seed, edge id)`, so the union over all shards equals the
/// shared-memory deletion set exactly.
pub fn shard_edge_deletions(
    g: &CsrGraph,
    kernel: &dyn EdgeKernel,
    shard: usize,
    shards: usize,
    seed: u64,
) -> Result<Vec<EdgeId>, DistError> {
    check_shard(shard, shards)?;
    let own = &partition_edges(g, shards)[shard];
    Ok(edge_deletions(g, kernel, own.start..own.end, seed))
}

/// Merges shard outcomes into the final graph: union, sort, dedup, then
/// one [`apply_edge_deletions`] / [`apply_vertex_removals`]. The vertex
/// mapping is `Some` when the shards removed vertices.
pub fn merge_outcomes<'a>(
    g: &CsrGraph,
    outcomes: impl IntoIterator<Item = &'a ShardOutcome>,
) -> (CsrGraph, Option<Vec<Option<VertexId>>>) {
    apply_outcome(g, &union_outcomes(outcomes))
}

/// The sorted, deduplicated union of shard outcomes (all of one kind).
fn union_outcomes<'a>(outcomes: impl IntoIterator<Item = &'a ShardOutcome>) -> ShardOutcome {
    let mut edges: Vec<EdgeId> = Vec::new();
    let mut vertices: Option<Vec<VertexId>> = None;
    for outcome in outcomes {
        match outcome {
            ShardOutcome::Edges(d) => edges.extend_from_slice(d),
            ShardOutcome::Vertices(v) => vertices.get_or_insert_with(Vec::new).extend_from_slice(v),
        }
    }
    match vertices {
        Some(mut v) => {
            v.sort_unstable();
            v.dedup();
            ShardOutcome::Vertices(v)
        }
        None => {
            edges.sort_unstable();
            edges.dedup();
            ShardOutcome::Edges(edges)
        }
    }
}

fn apply_outcome(g: &CsrGraph, merged: &ShardOutcome) -> (CsrGraph, Option<Vec<Option<VertexId>>>) {
    match merged {
        ShardOutcome::Edges(deleted) => (apply_edge_deletions(g, deleted), None),
        ShardOutcome::Vertices(removed) => {
            let (graph, mapping) = apply_vertex_removals(g, removed);
            (graph, Some(mapping))
        }
    }
}

/// Materializes the merged result of edge-deleting shards.
pub fn apply_edge_deletions(g: &CsrGraph, deleted: &[EdgeId]) -> CsrGraph {
    let mut mask = vec![false; g.num_edges()];
    for &e in deleted {
        mask[e as usize] = true;
    }
    g.filter_edges(|e| !mask[e as usize])
}

/// Materializes the merged result of vertex-removing shards, returning the
/// relabelled graph and the old→new vertex mapping.
pub fn apply_vertex_removals(
    g: &CsrGraph,
    removed: &[VertexId],
) -> (CsrGraph, Vec<Option<VertexId>>) {
    let mut mask = vec![false; g.num_vertices()];
    for &v in removed {
        mask[v as usize] = true;
    }
    g.remove_vertices(&mask)
}

fn check_shard(shard: usize, shards: usize) -> Result<(), DistError> {
    if shards == 0 || shard >= shards {
        return Err(DistError::InvalidShard { shard, shards });
    }
    Ok(())
}

/// Tiny local histogram helper (keeps per-rank state allocation-light).
mod rustc_lite {
    pub struct Map {
        counts: Vec<usize>,
    }
    impl Map {
        pub fn new() -> Self {
            Self { counts: Vec::new() }
        }
        pub fn add(&mut self, degree: usize) {
            if degree >= self.counts.len() {
                self.counts.resize(degree + 1, 0);
            }
            self.counts[degree] += 1;
        }
        pub fn into_sorted(self) -> Vec<(usize, usize)> {
            self.counts.into_iter().enumerate().filter(|&(_, c)| c > 0).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_core::schemes::uniform_sample;
    use sg_core::{SchemeParams, SchemeRegistry};
    use sg_graph::generators;

    #[test]
    fn distributed_matches_shared_memory_exactly() {
        // Determinism in (seed, edge id) means rank count cannot change the
        // result — the core guarantee of the simulation.
        let g = generators::rmat_graph500(12, 8, 1);
        let shared = uniform_sample(&g, 0.4, 42);
        let uniform = sg_core::scheme::Uniform { p: 0.4 };
        for ranks in [1, 2, 7, 16] {
            let dist = distributed_compress(&g, &uniform, ranks, 42).expect("edge plan");
            assert_eq!(
                dist.result.graph.edge_slice(),
                shared.graph.edge_slice(),
                "ranks = {ranks}"
            );
        }
    }

    #[test]
    fn rank_stats_cover_all_edges() {
        let g = generators::erdos_renyi(1000, 5000, 2);
        let dist = distributed_compress(&g, &sg_core::scheme::Uniform { p: 0.3 }, 5, 3)
            .expect("edge plan");
        let owned: usize = dist.ranks.iter().map(|r| r.owned_edges).sum();
        let kept: usize = dist.ranks.iter().map(|r| r.kept_edges).sum();
        assert_eq!(owned, g.num_edges());
        assert_eq!(kept, dist.result.graph.num_edges());
        assert!(dist.edge_imbalance_pct() < 1.0, "contiguous shards stay balanced");
        assert_eq!(dist.max_supersteps(), 1);
    }

    #[test]
    fn histogram_matches_direct_computation() {
        let g = generators::barabasi_albert(800, 4, 4);
        let hist = distributed_degree_histogram(&g, 6);
        let direct = sg_graph::properties::DegreeDistribution::of(&g);
        assert_eq!(hist, direct.entries);
    }

    #[test]
    fn histogram_total_is_n() {
        let g = generators::rmat_graph500(11, 10, 5);
        let dist = distributed_compress(&g, &sg_core::scheme::Uniform { p: 0.7 }, 4, 6)
            .expect("edge plan");
        let total: usize = dist.degree_histogram.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, g.num_vertices());
    }

    #[test]
    fn registry_schemes_dispatch_through_their_plans() {
        let g = generators::planted_triangles(&generators::erdos_renyi(900, 2000, 9), 1500, 3);
        let registry = SchemeRegistry::with_defaults();
        let params = SchemeParams::from_pairs(&[("p", "0.4")]);
        // Edge plan.
        let uniform = registry.create("uniform", &params).expect("known");
        let dist = distributed_compress(&g, uniform.as_ref(), 5, 17).expect("edge kernel");
        assert_eq!(dist.result.graph.edge_slice(), uniform.apply(&g, 17).graph.edge_slice());
        // Triangle plan — the edge-kernel-only restriction is gone.
        let tr = registry.create("tr", &params).expect("known");
        let dist = distributed_compress(&g, tr.as_ref(), 5, 17).expect("triangle plan");
        assert_eq!(dist.result.graph.edge_slice(), tr.apply(&g, 17).graph.edge_slice());
        // Vertex plan.
        let lowdeg = registry.create("lowdeg", &SchemeParams::default()).expect("known");
        let dist = distributed_compress(&g, lowdeg.as_ref(), 5, 17).expect("vertex plan");
        let shared = lowdeg.apply(&g, 17);
        assert_eq!(dist.result.graph.edge_slice(), shared.graph.edge_slice());
        assert_eq!(dist.result.vertex_mapping, shared.vertex_mapping);
        // Global rewrites stay unsupported, with a typed error.
        let summary = registry.create("summary", &SchemeParams::default()).expect("known");
        let err = distributed_compress(&g, summary.as_ref(), 5, 17).unwrap_err();
        assert_eq!(err.code(), "dist-unsupported");
    }

    #[test]
    fn ranks_share_one_mapping_and_match_heap_results() {
        let g = generators::erdos_renyi(2000, 9000, 21);
        let dir = std::env::temp_dir().join("sg-dist-tests");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("shared.sgr");
        sg_store::save_sgr(&g, &path).expect("save");

        // The mapping really is zero-copy before the ranks start.
        let mapped = sg_store::MmapGraph::open(&path).expect("map");
        #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
        assert!(mapped.is_zero_copy());

        let registry = SchemeRegistry::with_defaults();
        let uniform = registry
            .create("uniform", &SchemeParams::from_pairs(&[("p", "0.35")]))
            .expect("known scheme");
        let shared = distributed_compress(&g, uniform.as_ref(), 6, 99).expect("heap run");
        let via_map = distributed_compress(&mapped, uniform.as_ref(), 6, 99).expect("mmap run");
        assert_eq!(
            shared.result.graph.edge_slice(),
            via_map.result.graph.edge_slice(),
            "mmap-served shards must be bit-identical to the heap run"
        );
        assert_eq!(shared.degree_histogram, via_map.degree_histogram);
    }

    #[test]
    fn single_rank_degenerates_gracefully() {
        let g = generators::path(10);
        let dist = distributed_compress(&g, &sg_core::scheme::Uniform { p: 0.0 }, 1, 7)
            .expect("edge plan");
        assert_eq!(dist.result.graph.num_edges(), 9);
        assert_eq!(dist.ranks.len(), 1);
    }

    #[test]
    fn shard_union_reconstructs_shared_memory_result() {
        let g = generators::planted_triangles(&generators::erdos_renyi(700, 1500, 5), 1000, 6);
        let registry = SchemeRegistry::with_defaults();
        let params = SchemeParams::from_pairs(&[("p", "0.5")]);
        for name in ["uniform", "tr"] {
            let scheme = registry.create(name, &params).expect("known");
            let shared = scheme.apply(&g, 23);
            let mut deleted: Vec<EdgeId> = Vec::new();
            for shard in 0..3 {
                match shard_compress(&g, scheme.as_ref(), shard, 3, 23).expect("shardable") {
                    ShardOutcome::Edges(d) => deleted.extend(d),
                    ShardOutcome::Vertices(_) => panic!("edge scheme returned vertices"),
                }
            }
            deleted.sort_unstable();
            deleted.dedup();
            let merged = apply_edge_deletions(&g, &deleted);
            assert_eq!(merged.edge_slice(), shared.graph.edge_slice(), "scheme {name}");
        }
        // Vertex scheme: removals merge across shards.
        let lowdeg = registry.create("lowdeg", &SchemeParams::default()).expect("known");
        let shared = lowdeg.apply(&g, 23);
        let mut removed: Vec<VertexId> = Vec::new();
        for shard in 0..3 {
            match shard_compress(&g, lowdeg.as_ref(), shard, 3, 23).expect("shardable") {
                ShardOutcome::Vertices(v) => removed.extend(v),
                ShardOutcome::Edges(_) => panic!("vertex scheme returned edges"),
            }
        }
        let (merged, mapping) = apply_vertex_removals(&g, &removed);
        assert_eq!(merged.edge_slice(), shared.graph.edge_slice());
        assert_eq!(Some(mapping), shared.vertex_mapping);
    }

    #[test]
    fn federation_plan_classifies_without_running() {
        let g = generators::planted_triangles(&generators::erdos_renyi(200, 400, 2), 200, 3);
        let registry = SchemeRegistry::with_defaults();
        let params = SchemeParams::from_pairs(&[("p", "0.5")]);
        let plan = |name: &str| {
            federation_plan(&g, registry.create(name, &params).expect("known").as_ref())
        };
        assert_eq!(plan("uniform").expect("edge kernel"), ShardKind::Edges);
        assert_eq!(plan("tr").expect("plain triangles"), ShardKind::Edges);
        assert_eq!(plan("lowdeg").expect("vertex kernel"), ShardKind::Vertices);
        assert_eq!(plan("tr-eo").unwrap_err().code(), "dist-unsupported");
        assert_eq!(plan("summary").unwrap_err().code(), "dist-unsupported");
    }

    #[test]
    fn stateful_disciplines_refuse_federation_shards() {
        let g = generators::planted_triangles(&generators::erdos_renyi(300, 600, 7), 400, 8);
        let registry = SchemeRegistry::with_defaults();
        let tr_eo =
            registry.create("tr-eo", &SchemeParams::from_pairs(&[("p", "0.5")])).expect("known");
        let err = shard_compress(&g, tr_eo.as_ref(), 0, 2, 9).unwrap_err();
        assert_eq!(err.code(), "dist-unsupported");
        // But the same scheme runs fine through the superstep protocol.
        assert!(distributed_compress(&g, tr_eo.as_ref(), 2, 9).is_ok());
    }

    #[test]
    fn shard_bounds_are_checked() {
        let g = generators::path(10);
        let registry = SchemeRegistry::with_defaults();
        let uniform =
            registry.create("uniform", &SchemeParams::from_pairs(&[("p", "0.5")])).expect("known");
        for (shard, shards) in [(2, 2), (0, 0), (5, 3)] {
            let err = shard_compress(&g, uniform.as_ref(), shard, shards, 1).unwrap_err();
            assert_eq!(err.code(), "dist-invalid-shard", "({shard}, {shards})");
        }
    }
}
