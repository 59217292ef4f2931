//! Sharded execution with shared-state reconciliation (§7.3 beyond edge
//! kernels): the Edge-Once / Count-Triangles disciplines of Triangle
//! Reduction. Stateless plans (edge and vertex kernels, Plain TR) need no
//! exchange and run through the crate's per-range runner instead.
//!
//! The paper's distributed engine partitions vertices across MPI ranks and
//! shares the Edge-Once `considered` flags through RMA windows. This module
//! simulates that substrate with OS threads and an explicit, *deterministic*
//! message protocol:
//!
//! * every rank owns a contiguous vertex range ([`partition_vertices`]) and
//!   with it the canonical edges whose smaller endpoint falls in the range
//!   (canonical edges are lexicographically sorted, so each rank's edges are
//!   a contiguous id range) and the triangles whose smallest vertex falls in
//!   the range (each triangle has exactly one owner);
//! * ranks communicate through per-`(src, dst)` outboxes; a receiver drains
//!   its inboxes **merged in source-rank order**, so the view every rank
//!   observes is a pure function of the input — results are bit-identical
//!   at any `ranks` × `SG_THREADS` combination;
//! * the disciplines run in *superstep rounds*: pending sampled triangles
//!   propose on their three edges, edge owners grant each edge to the
//!   smallest pending triangle in the sequential processing order, and a
//!   triangle commits only when it holds all three grants — at which point
//!   the flag state it observes on its edges is exactly the state the
//!   sequential pass would have shown it.
//!
//! Each round resolves at least the globally smallest pending triangle, so
//! the protocol terminates; committed triangles within one round are
//! edge-disjoint (each edge has a single winner), so their updates commute.

use crate::error::DistError;
use crate::{distributed_degree_histogram, DistResult, RankStats};
use sg_core::kernel::Triangle;
use sg_core::schemes::{ranked_triangle_edges, triangle_sampled, EdgeChoice, TrConfig};
use sg_core::{CompressionResult, DetRand};
use sg_graph::partition::partition_vertices;
use sg_graph::{CsrGraph, EdgeId, VertexId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

/// Per-`(src, dst)` outboxes with deterministic drain order.
///
/// `send` appends to the `(src, dst)` slot (uncontended: one writer per
/// slot); `drain` concatenates everything addressed to a rank **in source-
/// rank order** — the merge that keeps the protocol deterministic.
struct Exchange<M> {
    ranks: usize,
    slots: Vec<Mutex<Vec<M>>>,
}

impl<M> Exchange<M> {
    fn new(ranks: usize) -> Self {
        Self { ranks, slots: (0..ranks * ranks).map(|_| Mutex::new(Vec::new())).collect() }
    }

    fn send(&self, src: usize, dst: usize, msg: M) {
        self.slots[src * self.ranks + dst].lock().expect("no poisoned lock").push(msg);
    }

    fn drain(&self, dst: usize) -> Vec<M> {
        let mut out = Vec::new();
        for src in 0..self.ranks {
            out.append(&mut self.slots[src * self.ranks + dst].lock().expect("no poisoned lock"));
        }
        out
    }
}

/// Sequential processing-order key of a triangle: Count-Triangles orders by
/// the rarest incident edge first, Edge-Once by canonical `(u, v, w)`.
/// Unique per triangle, so edge grants have a single deterministic winner.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TriKey {
    count: u64,
    u: VertexId,
    v: VertexId,
    w: VertexId,
}

/// Round phase 1: a pending triangle asks the owner of one of its edges for
/// a grant.
struct Proposal {
    edge: EdgeId,
    key: TriKey,
    src: usize,
    tri: u32,
    slot: u8,
}

/// Round phase 2: the edge owner's answer — whether the triangle holds the
/// smallest key on this edge, and the edge's authoritative `considered`
/// flag.
struct Reply {
    tri: u32,
    slot: u8,
    won: bool,
    considered: bool,
}

/// Round phase 3: a committed triangle's flag updates, applied by the edge
/// owner in phase 4. `delete: false` marks the edge considered only.
struct Update {
    edge: EdgeId,
    delete: bool,
}

/// A sampled triangle awaiting its turn in the superstep protocol.
struct Pending {
    t: Triangle,
    key: TriKey,
    resolved: bool,
    won: [bool; 3],
    considered: [bool; 3],
}

/// One rank's partitioned state: its vertex range, the canonical edges it
/// owns, and the authoritative `considered`/deletion flags for those edges
/// (the paper's RMA window, sliced per rank).
pub struct ShardedContext<'g> {
    /// The shared read-only input graph.
    pub graph: &'g CsrGraph,
    /// This rank's id.
    pub rank: usize,
    /// Total rank count.
    pub ranks: usize,
    /// Owned vertex range `[lo, hi)`.
    pub vertices: (usize, usize),
    /// Owned canonical-edge range `[lo, hi)` (edges whose smaller endpoint
    /// this rank owns).
    pub edges: (usize, usize),
    /// Deterministic random source (same formulas as [`sg_core::SgContext`]).
    pub rand: DetRand,
    /// Messages this rank sent over the exchange.
    pub messages_sent: u64,
    /// Superstep rounds this rank executed.
    pub supersteps: u64,
    /// Edge-id boundaries of every rank's owned edge range (len `ranks+1`).
    edge_starts: Arc<Vec<usize>>,
    /// Authoritative `considered` flags for owned edges.
    considered: Vec<bool>,
    /// Authoritative deletion flags for owned edges.
    deleted: Vec<bool>,
}

impl<'g> ShardedContext<'g> {
    fn new(
        graph: &'g CsrGraph,
        rank: usize,
        ranks: usize,
        vertices: (usize, usize),
        edge_starts: Arc<Vec<usize>>,
        seed: u64,
    ) -> Self {
        let edges = (edge_starts[rank], edge_starts[rank + 1]);
        let owned = edges.1 - edges.0;
        Self {
            graph,
            rank,
            ranks,
            vertices,
            edges,
            rand: DetRand::new(seed),
            messages_sent: 0,
            supersteps: 0,
            edge_starts,
            considered: vec![false; owned],
            deleted: vec![false; owned],
        }
    }

    /// The rank owning canonical edge `e`.
    #[inline]
    pub fn owner_of(&self, e: EdgeId) -> usize {
        self.edge_starts.partition_point(|&s| s <= e as usize).saturating_sub(1).min(self.ranks - 1)
    }

    /// Authoritative `considered` flag of an *owned* edge.
    #[inline]
    fn edge_considered(&self, e: EdgeId) -> bool {
        self.considered[e as usize - self.edges.0]
    }

    /// Applies one flag update to an owned edge.
    #[inline]
    fn apply(&mut self, update: &Update) {
        let i = update.edge as usize - self.edges.0;
        self.considered[i] = true;
        if update.delete {
            self.deleted[i] = true;
        }
    }

    fn stats(&self) -> RankStats {
        let kept = self.deleted.iter().filter(|&&d| !d).count();
        RankStats {
            rank: self.rank,
            owned_edges: self.edges.1 - self.edges.0,
            kept_edges: kept,
            owned_vertices: self.vertices.1 - self.vertices.0,
            messages_sent: self.messages_sent,
            supersteps: self.supersteps,
        }
    }
}

/// Edge-id boundary of every rank's owned range: canonical edges are
/// lexicographically sorted, so the edges whose smaller endpoint lies in
/// rank `r`'s vertex range form the contiguous id range
/// `[starts[r], starts[r+1])`.
pub(crate) fn edge_rank_starts(g: &CsrGraph, parts: &[(usize, usize)]) -> Vec<usize> {
    let edges = g.edge_slice();
    let mut starts: Vec<usize> =
        parts.iter().map(|&(lo, _)| edges.partition_point(|&(u, _)| (u as usize) < lo)).collect();
    starts.push(g.num_edges());
    starts
}

/// Triangles owned by one rank (smallest vertex in the owned range) that
/// the TR sampling coin selects, in canonical enumeration order.
fn sampled_triangles(
    ctx: &ShardedContext<'_>,
    cfg: TrConfig,
    counts: Option<&[u64]>,
) -> Vec<Pending> {
    let mut pending = Vec::new();
    for u in ctx.vertices.0..ctx.vertices.1 {
        sg_algos::tc::for_triangles_at(ctx.graph, u as VertexId, &mut |t: Triangle| {
            if triangle_sampled(&t, cfg.p, ctx.rand) {
                let count = counts
                    .map(|c| t.edges().iter().map(|&e| c[e as usize]).min().expect("three edges"))
                    .unwrap_or(0);
                pending.push(Pending {
                    t,
                    key: TriKey { count, u: t.u, v: t.v, w: t.w },
                    resolved: false,
                    won: [false; 3],
                    considered: [false; 3],
                });
            }
        });
    }
    pending
}

/// Runs an Edge-Once discipline of Triangle Reduction (`cfg.discipline`
/// is `EdgeOnce`) over `ranks` sharded rank threads. Bit-identical to
/// `triangle_reduce(g, cfg, seed)` at any rank count.
pub(crate) fn sharded_triangle_compress(
    g: &CsrGraph,
    cfg: TrConfig,
    ranks: usize,
    seed: u64,
) -> Result<DistResult, DistError> {
    if ranks == 0 {
        return Err(DistError::InvalidRanks { ranks });
    }
    assert!((0.0..=1.0).contains(&cfg.p), "p must be in [0, 1]");
    assert!(cfg.x == 1 || cfg.x == 2, "x must be 1 or 2");
    let start = Instant::now();
    let parts = partition_vertices(g.num_vertices(), ranks);
    let edge_starts = Arc::new(edge_rank_starts(g, &parts));

    let barrier = Barrier::new(ranks);
    let pending_total = AtomicUsize::new(0);
    let proposals: Exchange<Proposal> = Exchange::new(ranks);
    let replies: Exchange<Reply> = Exchange::new(ranks);
    let updates: Exchange<Update> = Exchange::new(ranks);
    // Count-Triangles needs global per-edge triangle counts: every rank
    // contributes a partial histogram over its owned triangles; rank 0
    // merges them in rank order (sums commute) and republishes.
    let count_slots: Vec<Mutex<Option<Vec<u64>>>> = (0..ranks).map(|_| Mutex::new(None)).collect();
    let merged_counts: Mutex<Option<Arc<Vec<u64>>>> = Mutex::new(None);
    let outputs: Vec<Mutex<Option<RankStats>>> = (0..ranks).map(|_| Mutex::new(None)).collect();
    let deleted_slots: Vec<Mutex<Vec<bool>>> = (0..ranks).map(|_| Mutex::new(Vec::new())).collect();

    std::thread::scope(|scope| {
        for (rank, &part) in parts.iter().enumerate() {
            let edge_starts = Arc::clone(&edge_starts);
            let (barrier, pending_total) = (&barrier, &pending_total);
            let (proposals, replies, updates) = (&proposals, &replies, &updates);
            let (count_slots, merged_counts) = (&count_slots, &merged_counts);
            let (outputs, deleted_slots) = (&outputs, &deleted_slots);
            scope.spawn(move || {
                let mut ctx = ShardedContext::new(g, rank, ranks, part, edge_starts, seed);

                let counts: Option<Arc<Vec<u64>>> = if cfg.choice == EdgeChoice::FewestTriangles {
                    let mut partial = vec![0u64; g.num_edges()];
                    for u in ctx.vertices.0..ctx.vertices.1 {
                        sg_algos::tc::for_triangles_at(g, u as VertexId, &mut |t: Triangle| {
                            for e in t.edges() {
                                partial[e as usize] += 1;
                            }
                        });
                    }
                    *count_slots[rank].lock().expect("no poisoned lock") = Some(partial);
                    ctx.messages_sent += 1;
                    ctx.supersteps += 1;
                    barrier.wait();
                    if rank == 0 {
                        let mut total = vec![0u64; g.num_edges()];
                        for slot in count_slots.iter() {
                            let partial =
                                slot.lock().expect("no poisoned lock").take().expect("published");
                            for (t, p) in total.iter_mut().zip(&partial) {
                                *t += p;
                            }
                        }
                        *merged_counts.lock().expect("no poisoned lock") = Some(Arc::new(total));
                    }
                    barrier.wait();
                    Some(Arc::clone(
                        merged_counts.lock().expect("no poisoned lock").as_ref().expect("merged"),
                    ))
                } else {
                    None
                };

                run_rank_edge_once(
                    &mut ctx,
                    cfg,
                    counts.as_deref().map(|v| v.as_slice()),
                    proposals,
                    replies,
                    updates,
                    pending_total,
                    barrier,
                );

                *outputs[rank].lock().expect("no poisoned lock") = Some(ctx.stats());
                *deleted_slots[rank].lock().expect("no poisoned lock") =
                    std::mem::take(&mut ctx.deleted);
            });
        }
    });

    // Gather at the root: per-rank deletion flags concatenated in rank
    // order cover the canonical edge array exactly once.
    let mut deleted = Vec::with_capacity(g.num_edges());
    for slot in &deleted_slots {
        deleted.append(&mut slot.lock().expect("no poisoned lock"));
    }
    let mut stats: Vec<RankStats> = Vec::with_capacity(ranks);
    for slot in &outputs {
        stats.push(slot.lock().expect("no poisoned lock").take().expect("rank finished"));
    }
    let graph = g.filter_edges(|e| !deleted[e as usize]);
    let degree_histogram = distributed_degree_histogram(&graph, ranks);
    Ok(DistResult {
        result: CompressionResult {
            graph,
            original_edges: g.num_edges(),
            original_vertices: g.num_vertices(),
            elapsed: start.elapsed(),
            vertex_mapping: None,
        },
        ranks: stats,
        degree_histogram,
    })
}

/// Edge-Once / Count-Triangles: the superstep reservation protocol. Every
/// round, pending triangles propose on their three edges; owners grant each
/// edge to the smallest pending key; triangles holding all three grants
/// commit against the authoritative flags and resolve.
#[allow(clippy::too_many_arguments)]
fn run_rank_edge_once(
    ctx: &mut ShardedContext<'_>,
    cfg: TrConfig,
    counts: Option<&[u64]>,
    proposals: &Exchange<Proposal>,
    replies: &Exchange<Reply>,
    updates: &Exchange<Update>,
    pending_total: &AtomicUsize,
    barrier: &Barrier,
) {
    let mut pending = sampled_triangles(ctx, cfg, counts);
    pending_total.fetch_add(pending.len(), Ordering::SeqCst);
    barrier.wait();

    loop {
        if pending_total.load(Ordering::SeqCst) == 0 {
            break;
        }
        ctx.supersteps += 1;

        // Phase 1: unresolved triangles propose on their three edges.
        for (i, p) in pending.iter_mut().enumerate() {
            if p.resolved {
                continue;
            }
            p.won = [false; 3];
            for (slot, &e) in p.t.edges().iter().enumerate() {
                proposals.send(
                    ctx.rank,
                    ctx.owner_of(e),
                    Proposal {
                        edge: e,
                        key: p.key,
                        src: ctx.rank,
                        tri: i as u32,
                        slot: slot as u8,
                    },
                );
                ctx.messages_sent += 1;
            }
        }
        barrier.wait();

        // Phase 2: owners grant each edge to the smallest pending key and
        // report the authoritative `considered` flag.
        let inbox = proposals.drain(ctx.rank);
        let mut winner: HashMap<EdgeId, TriKey> = HashMap::new();
        for p in &inbox {
            winner
                .entry(p.edge)
                .and_modify(|k| {
                    if p.key < *k {
                        *k = p.key;
                    }
                })
                .or_insert(p.key);
        }
        for p in &inbox {
            replies.send(
                ctx.rank,
                p.src,
                Reply {
                    tri: p.tri,
                    slot: p.slot,
                    won: winner[&p.edge] == p.key,
                    considered: ctx.edge_considered(p.edge),
                },
            );
            ctx.messages_sent += 1;
        }
        barrier.wait();

        // Phase 3: triangles holding all three grants commit. Same-round
        // committers are edge-disjoint (one winner per edge), so the flag
        // snapshot from the replies is exact.
        for r in replies.drain(ctx.rank) {
            let p = &mut pending[r.tri as usize];
            p.won[r.slot as usize] = r.won;
            p.considered[r.slot as usize] = r.considered;
        }
        let mut resolved_now = 0usize;
        for p in pending.iter_mut() {
            if p.resolved || !(p.won[0] && p.won[1] && p.won[2]) {
                continue;
            }
            p.resolved = true;
            resolved_now += 1;
            let graph = ctx.graph;
            let ranked =
                ranked_triangle_edges(&p.t, cfg.choice, ctx.rand, |e| graph.edge_weight(e), counts);
            let edges = p.t.edges();
            let slot_of = |e: EdgeId| edges.iter().position(|&x| x == e).expect("triangle edge");
            if cfg.choice == EdgeChoice::FewestTriangles {
                // CT claim loop: delete the first x still-unconsidered
                // edges in rank order (consider-and-claim per edge).
                let mut deleted = 0usize;
                for &e in &ranked {
                    if deleted == cfg.x {
                        break;
                    }
                    if !p.considered[slot_of(e)] {
                        updates.send(ctx.rank, ctx.owner_of(e), Update { edge: e, delete: true });
                        ctx.messages_sent += 1;
                        deleted += 1;
                    }
                    // Already-considered edges stay considered (the
                    // sequential re-claim is a no-op); nothing to send.
                }
            } else {
                // Protective EO: proceed only when all three edges are
                // unconsidered, then claim all three and delete the first x.
                if p.considered.iter().any(|&c| c) {
                    continue; // skipped — resolved without updates
                }
                for &e in edges.iter() {
                    let delete = ranked.iter().take(cfg.x).any(|&d| d == e);
                    updates.send(ctx.rank, ctx.owner_of(e), Update { edge: e, delete });
                    ctx.messages_sent += 1;
                }
            }
        }
        if resolved_now > 0 {
            pending_total.fetch_sub(resolved_now, Ordering::SeqCst);
        }
        barrier.wait();

        // Phase 4: owners apply the committed updates.
        for update in updates.drain(ctx.rank) {
            ctx.apply(&update);
        }
        barrier.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_core::scheme::{LowDegree, TriangleReduction};
    use sg_graph::generators;

    fn triangle_rich() -> CsrGraph {
        generators::planted_triangles(&generators::erdos_renyi(700, 1500, 1), 1100, 2)
    }

    #[test]
    fn edge_rank_starts_cover_and_agree_with_ownership() {
        let g = triangle_rich();
        let parts = partition_vertices(g.num_vertices(), 5);
        let starts = edge_rank_starts(&g, &parts);
        assert_eq!(starts[0], 0);
        assert_eq!(*starts.last().expect("non-empty"), g.num_edges());
        for (rank, &(lo, hi)) in parts.iter().enumerate() {
            for e in starts[rank]..starts[rank + 1] {
                let (u, _) = g.edge_endpoints(e as EdgeId);
                assert!((u as usize) >= lo && (u as usize) < hi, "edge {e} not owned by {rank}");
            }
        }
    }

    #[test]
    fn plain_tr_matches_shared_memory_at_every_rank_count() {
        let g = triangle_rich();
        let shared = sg_core::schemes::triangle_reduce(&g, TrConfig::plain_1(0.6), 33);
        for ranks in [1, 2, 3, 8] {
            let scheme = TriangleReduction { cfg: TrConfig::plain_1(0.6) };
            let dist = crate::distributed_compress(&g, &scheme, ranks, 33).expect("plain shards");
            assert_eq!(
                dist.result.graph.edge_slice(),
                shared.graph.edge_slice(),
                "ranks = {ranks}"
            );
        }
    }

    #[test]
    fn edge_once_superstep_protocol_matches_sequential_pass() {
        let g = triangle_rich();
        for cfg in
            [TrConfig::edge_once_1(0.7), TrConfig::count_triangles(0.7), TrConfig::max_weight(0.7)]
        {
            let shared = sg_core::schemes::triangle_reduce(&g, cfg, 91);
            for ranks in [1, 2, 4, 7] {
                let dist = sharded_triangle_compress(&g, cfg, ranks, 91).expect("EO shards");
                assert_eq!(
                    dist.result.graph.edge_slice(),
                    shared.graph.edge_slice(),
                    "{} ranks = {ranks}",
                    cfg.label()
                );
                assert!(
                    dist.ranks.iter().all(|r| r.supersteps >= 1),
                    "EO runs at least one superstep"
                );
            }
        }
    }

    #[test]
    fn vertex_kernel_matches_engine_and_keeps_mapping() {
        let g = generators::barabasi_albert(900, 3, 7);
        let shared = sg_core::schemes::remove_low_degree(&g, 5);
        for ranks in [1, 2, 6] {
            let dist =
                crate::distributed_compress(&g, &LowDegree, ranks, 5).expect("vertex shards");
            assert_eq!(dist.result.graph.edge_slice(), shared.graph.edge_slice());
            assert_eq!(dist.result.vertex_mapping, shared.vertex_mapping);
            let kept: usize = dist.ranks.iter().map(|r| r.kept_edges).sum();
            assert_eq!(kept, dist.result.graph.num_edges());
        }
    }

    #[test]
    fn triangle_free_graph_terminates_without_supersteps() {
        let g = generators::cycle(64); // no triangles
        let dist = sharded_triangle_compress(&g, TrConfig::edge_once_1(1.0), 4, 3).expect("runs");
        assert_eq!(dist.result.graph.num_edges(), 64);
        assert!(dist.ranks.iter().all(|r| r.supersteps == 0));
    }

    #[test]
    fn zero_ranks_is_a_typed_error() {
        let g = generators::cycle(8);
        let err = sharded_triangle_compress(&g, TrConfig::plain_1(0.5), 0, 1).unwrap_err();
        assert_eq!(err.code(), "dist-invalid-ranks");
    }
}
