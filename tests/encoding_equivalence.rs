//! Raw vs encoded equivalence: a graph traversed through `.sgr` v2's
//! decode-on-the-fly adjacency (delta+varint sparse rows, bitmap dense
//! rows) must be indistinguishable — bit for bit — from the same graph in
//! raw CSR form, for every registered compression scheme, for pipelines,
//! and for the stage-2 algorithms, whether the encoded sections live on the
//! heap or borrow from an mmap, at any thread count.
//!
//! This is the acceptance gate of the encoded-adjacency subsystem: kernels
//! consume rows through the one `GraphView`/`NeighborCursor` API, decode
//! order is a pure function of the row index, and canonical edge ids are
//! defined by forward enumeration — so nothing downstream can tell the
//! representations apart. The suite also aims hostile sections at the
//! validators (truncated varints, gap overflow, malformed bitmaps, wrong
//! container versions) and requires clean rejections, never garbage graphs.

use slimgraph::algos::{bfs, cc, pagerank, tc};
use slimgraph::core::{SchemeParams, SchemeRegistry};
use slimgraph::graph::{
    generators, properties, CsrGraph, EdgeList, EncodedAdjacencyParts, EncodedCsr, Section,
};
use slimgraph::store::{
    load_sgr, read_sgr, save_sgr_with, write_sgr, Encoding, MmapEncoded, Sgr, Verify,
};
use std::path::PathBuf;
use std::sync::Mutex;

/// The worker-count override is process-global; tests in this binary run
/// concurrently, so every test serializes on this lock.
static KNOB: Mutex<()> = Mutex::new(());

/// Thread counts each raw-vs-encoded comparison runs under.
const THREAD_COUNTS: [usize; 2] = [1, 4];

fn with_threads(f: impl Fn(usize)) {
    let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    for &t in &THREAD_COUNTS {
        rayon::set_num_threads(t);
        f(t);
    }
    rayon::set_num_threads(0);
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("slimgraph-encoding-equivalence");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

/// Skewed degrees: hubs cross the bitmap threshold, leaves stay delta rows.
fn unweighted() -> CsrGraph {
    generators::barabasi_albert(1500, 4, 0x6106)
}

fn weighted() -> CsrGraph {
    generators::with_random_weights(&generators::erdos_renyi(1200, 6000, 0x6107), 0.5, 4.5, 11)
}

fn directed() -> CsrGraph {
    // Deterministic pseudo-random arcs; duplicates collapse in EdgeList.
    let n = 900u32;
    let mut x = 0x9e37_79b9u64;
    let mut pairs = Vec::new();
    for _ in 0..5000 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let u = (x >> 33) as u32 % n;
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let v = (x >> 33) as u32 % n;
        if u != v {
            pairs.push((u, v));
        }
    }
    CsrGraph::from_edge_list_directed(EdgeList::from_pairs(n as usize, pairs))
}

/// Writes `g` as a v2 file and returns (heap-decoded, mmap-backed) encoded
/// twins.
fn encoded_twins(g: &CsrGraph, name: &str) -> (EncodedCsr, EncodedCsr) {
    let path = tmp(name);
    save_sgr_with(g, &path, Encoding::Delta).expect("save v2");
    let heap = std::fs::read(&path)
        .and_then(|img| read_sgr(&img, Verify::Checksum))
        .and_then(Sgr::into_encoded)
        .expect("heap encoded load");
    let mapped = MmapEncoded::open(&path).expect("mmap encoded load");
    #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
    assert!(mapped.is_zero_copy(), "v2 mmap loader must borrow the byte sections");
    (heap, mapped.into_inner())
}

fn pr_bits<G: slimgraph::graph::GraphView>(g: &G) -> Vec<u64> {
    pagerank::pagerank_default(g).scores.iter().map(|x| x.to_bits()).collect()
}

fn weight_bits(g: &CsrGraph) -> Option<Vec<u32>> {
    g.weight_slice().map(|w| w.iter().map(|x| x.to_bits()).collect())
}

#[test]
fn kernels_bit_identical_raw_vs_encoded() {
    for (g, name) in [
        (unweighted(), "kernels-u.sgr"),
        (weighted(), "kernels-w.sgr"),
        (directed(), "kernels-d.sgr"),
    ] {
        let (heap, mapped) = encoded_twins(&g, name);
        let root = (0..g.num_vertices() as u32).max_by_key(|&v| g.degree(v)).unwrap_or(0);
        with_threads(|t| {
            for (label, e) in [("heap", &heap), ("mmap", &mapped)] {
                assert_eq!(pr_bits(&g), pr_bits(e), "PageRank {name}/{label} at {t} threads");

                // Parallel BFS parents race among equal-depth candidates,
                // so bit-identity is pinned on parallel depths plus the
                // sequential traversal (fixed iteration order).
                let br = bfs::bfs_parallel(&g, root);
                let be = bfs::bfs_parallel(e, root);
                assert_eq!(br.depth, be.depth, "BFS depths {name}/{label} at {t} threads");
                assert_eq!(br.reached, be.reached);
                let sr = bfs::bfs(&g, root);
                let se = bfs::bfs(e, root);
                assert_eq!(sr.parent, se.parent, "seq BFS parents {name}/{label} at {t} threads");

                let cr = cc::connected_components(&g);
                let ce = cc::connected_components(e);
                assert_eq!(cr.labels, ce.labels, "CC labels {name}/{label} at {t} threads");

                if !g.is_directed() {
                    assert_eq!(
                        tc::count_triangles(&g),
                        tc::count_triangles(e),
                        "triangle count {name}/{label} at {t} threads"
                    );
                }
                assert_eq!(
                    properties::degree_stats(&g),
                    properties::degree_stats(e),
                    "degree stats {name}/{label} at {t} threads"
                );
            }
        });
    }
}

#[test]
fn every_registry_scheme_and_pipeline_identical_after_v2_round_trip() {
    let registry = SchemeRegistry::with_defaults();
    for (g, name) in [(unweighted(), "schemes-u.sgr"), (weighted(), "schemes-w.sgr")] {
        let (heap, mapped) = encoded_twins(&g, name);
        // Decoding the v2 sections back to raw CSR must reproduce the exact
        // canonical graph (edge ids included) — on top of which every
        // scheme, being deterministic in (seed, element id), must behave
        // identically.
        let twins = [("heap", heap.to_csr()), ("mmap", mapped.to_csr())];
        for (label, back) in &twins {
            assert_eq!(g.edge_slice(), back.edge_slice(), "{name}/{label} edges");
            assert_eq!(weight_bits(&g), weight_bits(back), "{name}/{label} weights");
        }
        with_threads(|t| {
            for scheme_name in registry.names() {
                let scheme =
                    registry.create(scheme_name, &SchemeParams::new()).expect("known scheme");
                let want = scheme.apply(&g, 42);
                for (label, back) in &twins {
                    let got = scheme.apply(back, 42);
                    assert_eq!(
                        want.graph.edge_slice(),
                        got.graph.edge_slice(),
                        "scheme {scheme_name} diverged on {name}/{label} at {t} threads"
                    );
                    assert_eq!(
                        weight_bits(&want.graph),
                        weight_bits(&got.graph),
                        "scheme {scheme_name} weights diverged on {name}/{label} at {t} threads"
                    );
                }
            }
        });
    }
    let pipeline = SchemeRegistry::with_defaults()
        .parse_pipeline("spanner:k=4,lowdeg,uniform:p=0.6", &SchemeParams::new())
        .expect("pipeline parses");
    let g = unweighted();
    let (heap, _) = encoded_twins(&g, "pipeline.sgr");
    let back = heap.to_csr();
    with_threads(|t| {
        let a = pipeline.apply(&g, 7);
        let b = pipeline.apply(&back, 7);
        assert_eq!(
            a.result.graph.edge_slice(),
            b.result.graph.edge_slice(),
            "pipeline diverged after v2 round trip at {t} threads"
        );
    });
}

#[test]
fn v2_files_load_transparently_as_raw_graphs() {
    let g = weighted();
    let path = tmp("transparent.sgr");
    save_sgr_with(&g, &path, Encoding::Delta).expect("save v2");
    let back = load_sgr(&path).expect("v1-style entry point accepts v2");
    assert_eq!(g.edge_slice(), back.edge_slice());
    assert_eq!(g.csr_offsets(), back.csr_offsets());
    assert_eq!(weight_bits(&g), weight_bits(&back));
}

// --- hostile sections ------------------------------------------------------

/// One delta row of `degree` targets encoded as `blob`, the other `n - 1`
/// rows empty. `n` is large enough that a small degree stays delta-class.
fn one_row_parts(n: usize, blob: Vec<u8>, degree: u32) -> EncodedAdjacencyParts {
    let mut row_starts = vec![blob.len(); n + 1];
    row_starts[0] = 0;
    let mut degrees = vec![0u32; n];
    degrees[0] = degree;
    EncodedAdjacencyParts {
        row_starts: Section::from(row_starts),
        degrees: Section::from(degrees),
        blob: Section::from(blob),
    }
}

fn expect_rejected(parts: EncodedAdjacencyParts, n: usize, what: &str) {
    let err = EncodedCsr::from_parts(false, n, 1, parts, None, None)
        .err()
        .unwrap_or_else(|| panic!("{what} must be rejected"));
    assert!(!err.is_empty(), "{what} rejection must carry a message");
}

#[test]
fn hostile_rows_are_rejected_not_decoded() {
    // Truncated varint: a continuation byte with no tail.
    expect_rejected(one_row_parts(100, vec![0x80], 1), 100, "truncated varint");
    // Varint decodes past n (gap overflow): 1000 >= n = 100.
    expect_rejected(one_row_parts(100, vec![0xe8, 0x07], 1), 100, "gap overflow");
    // Zero gap after the first target: a duplicate neighbor.
    expect_rejected(one_row_parts(100, vec![5, 0], 2), 100, "duplicate target");
    // Trailing garbage after the declared degree.
    expect_rejected(one_row_parts(100, vec![5, 1, 1], 2), 100, "trailing row bytes");
    // Bitmap-class row (64 * degree > n) with the wrong byte length:
    // bitmap_row_bytes(128) = 16, so 24 blob bytes are oversized.
    expect_rejected(one_row_parts(128, vec![0u8; 24], 20), 128, "oversized bitmap");
    // Bitmap with a bit set at or past n (bit 100 of an n = 96 bitmap).
    let mut bm = vec![0u8; 16];
    bm[12] = 0x10; // bit 100
    bm[0] = 0x01; // bit 0
    expect_rejected(one_row_parts(96, bm, 2), 96, "bitmap bit past n");
}

#[test]
fn container_versions_reject_cleanly_both_ways() {
    let g = unweighted();
    let image = |encoding| {
        let mut buf = Vec::new();
        write_sgr(&g, &mut buf, encoding).expect("Vec<u8> writes are infallible");
        buf
    };
    let v1 = image(Encoding::Raw);
    let v2 = image(Encoding::Delta);
    let read_raw = |img: &[u8]| read_sgr(img, Verify::Checksum).map(Sgr::into_graph);
    let read_encoded = |img: &[u8]| read_sgr(img, Verify::Checksum).and_then(Sgr::into_encoded);

    // The v2-only entry point must reject a v1 image...
    let err = read_encoded(&v1).expect_err("v2 reader must reject v1");
    assert!(err.to_string().contains("version"), "got: {err}");
    // ...and an unknown future version must be rejected by every reader.
    let mut v3 = v2.clone();
    v3[8] = 3;
    assert!(read_raw(&v3).is_err(), "raw reader must reject version 3");
    assert!(read_encoded(&v3).is_err(), "encoded reader must reject version 3");

    // A flipped payload byte must fail the checksum, not decode quietly.
    // Inter-section padding is under 8 bytes and always shares its aligned
    // word with payload, so corrupting one full aligned word mid-file is
    // guaranteed to touch checksummed bytes.
    let mut corrupt = v2.clone();
    let word = (corrupt.len() / 2) & !7;
    for b in &mut corrupt[word..word + 8] {
        *b ^= 0xff;
    }
    assert!(read_raw(&corrupt).is_err(), "corrupt v2 payload must fail verification");
}
