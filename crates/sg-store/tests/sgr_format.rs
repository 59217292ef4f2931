//! `.sgr` container conformance: round-trips across every graph shape,
//! zero-copy guarantees of the mmap loader, and rejection of corrupt,
//! truncated, misaligned, and hostile files.

use sg_store::format::{self, SectionId};
use sg_store::{
    load_sgr, load_sgr_with, read_sgr, save_sgr, write_sgr, Encoding, MmapEncoded, MmapGraph, Sgr,
    Verify,
};

use sg_graph::{generators, CsrGraph, EdgeList};
use std::path::PathBuf;

/// An in-memory `.sgr` image of `g`.
fn image_with(g: &CsrGraph, encoding: Encoding) -> Vec<u8> {
    let mut buf = Vec::new();
    write_sgr(g, &mut buf, encoding).expect("Vec<u8> writes are infallible");
    buf
}

/// An in-memory v1 `.sgr` image of `g`.
fn image(g: &CsrGraph) -> Vec<u8> {
    image_with(g, Encoding::Raw)
}

fn load_image_with(img: &[u8], verify: Verify) -> std::io::Result<CsrGraph> {
    read_sgr(img, verify).map(Sgr::into_graph)
}

fn load_image(img: &[u8]) -> std::io::Result<CsrGraph> {
    load_image_with(img, Verify::Checksum)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("sg-store-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

/// Structural equality: flags, counts, canonical edges, weight bits, and
/// the adjacency views the algorithms consume.
fn assert_same_graph(a: &CsrGraph, b: &CsrGraph) {
    assert_eq!(a.is_directed(), b.is_directed());
    assert_eq!(a.is_weighted(), b.is_weighted());
    assert_eq!(a.num_vertices(), b.num_vertices());
    assert_eq!(a.num_edges(), b.num_edges());
    assert_eq!(a.edge_slice(), b.edge_slice());
    let bits =
        |g: &CsrGraph| g.weight_slice().map(|w| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
    assert_eq!(bits(a), bits(b), "weights must round-trip bit-identically");
    for v in 0..a.num_vertices() as u32 {
        assert_eq!(a.neighbors(v), b.neighbors(v));
        assert_eq!(a.neighbor_edge_ids(v), b.neighbor_edge_ids(v));
        assert_eq!(a.in_neighbors(v), b.in_neighbors(v));
    }
}

#[test]
fn roundtrip_unweighted_undirected() {
    let g = generators::erdos_renyi(500, 2000, 1);
    let h = load_image(&image(&g)).expect("load");
    assert_same_graph(&g, &h);
}

#[test]
fn roundtrip_weighted_undirected() {
    let g = generators::with_random_weights(&generators::barabasi_albert(300, 4, 2), 0.5, 9.5, 3);
    let h = load_image(&image(&g)).expect("load");
    assert_same_graph(&g, &h);
}

#[test]
fn roundtrip_directed_graphs() {
    let el = EdgeList::from_pairs(6, vec![(0, 1), (1, 2), (2, 0), (3, 1), (4, 5), (5, 4)]);
    let g = CsrGraph::from_edge_list_directed(el);
    let h = load_image(&image(&g)).expect("load");
    assert_same_graph(&g, &h);

    let wel = EdgeList::from_weighted(4, vec![(0u32, 1u32, 1.5f32), (1, 0, 2.5), (2, 3, 0.25)]);
    let gw = CsrGraph::from_edge_list_directed(wel);
    let hw = load_image(&image(&gw)).expect("load");
    assert_same_graph(&gw, &hw);
}

#[test]
fn roundtrip_empty_and_isolated() {
    let empty = CsrGraph::from_pairs(0, &[]);
    assert_same_graph(&empty, &load_image(&image(&empty)).expect("load empty"));
    let isolated = CsrGraph::from_pairs(10, &[(0, 1)]);
    assert_same_graph(&isolated, &load_image(&image(&isolated)).expect("load isolated"));
}

#[test]
fn file_roundtrip_reports_size() {
    let g = generators::erdos_renyi(100, 400, 4);
    let path = tmp("size.sgr");
    let written = save_sgr(&g, &path).expect("save");
    let on_disk = std::fs::metadata(&path).expect("stat").len();
    assert_eq!(written, on_disk);
    assert_eq!(on_disk % 8, 0, ".sgr files stay 8-byte aligned end to end");
    assert_same_graph(&g, &load_sgr(&path).expect("load"));
}

#[test]
fn mmap_loader_is_zero_copy_and_matches_heap() {
    let g = generators::with_random_weights(&generators::erdos_renyi(400, 1600, 5), 1.0, 2.0, 6);
    let path = tmp("zero-copy.sgr");
    save_sgr(&g, &path).expect("save");

    let heap = load_sgr(&path).expect("heap load");
    let mapped = MmapGraph::open(&path).expect("mmap load");
    assert_same_graph(&heap, &mapped);
    assert_same_graph(&g, &mapped);

    // The acceptance criterion: no CSR section was copied out of the file.
    #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
    {
        assert!(mapped.is_zero_copy(), "all sections must borrow from the mapping");
        assert!(!heap.is_fully_mapped(), "heap loader owns its sections");
    }

    // The mapping survives `into_inner`, clones, and the original's drop.
    let owned_view = mapped.into_inner();
    let cloned = owned_view.clone();
    drop(owned_view);
    assert_eq!(cloned.edge_slice(), g.edge_slice());
    assert_eq!(cloned.degree(0), g.degree(0));
}

#[test]
fn mmap_loader_handles_directed_graphs() {
    let el = EdgeList::from_pairs(50, (0..49u32).map(|i| (i, i + 1)));
    let g = CsrGraph::from_edge_list_directed(el);
    let path = tmp("directed.sgr");
    save_sgr(&g, &path).expect("save");
    let mapped = MmapGraph::open(&path).expect("mmap load");
    assert_same_graph(&g, &mapped);
    #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
    assert!(mapped.is_zero_copy());
}

// --- rejection tests ------------------------------------------------------

fn valid_image() -> Vec<u8> {
    image(&generators::erdos_renyi(64, 256, 9))
}

#[test]
fn rejects_bad_magic_version_flags() {
    let img = valid_image();

    let mut bad_magic = img.clone();
    bad_magic[0] ^= 0xFF;
    assert!(load_image(&bad_magic).is_err(), "magic");

    let mut bad_version = img.clone();
    bad_version[8] = 99;
    assert!(load_image(&bad_version).is_err(), "version");

    let mut bad_flags = img.clone();
    bad_flags[12] |= 0x80; // unknown flag bit
    assert!(load_image(&bad_flags).is_err(), "flags");
}

#[test]
fn rejects_truncation_everywhere() {
    let img = valid_image();
    assert!(load_image(&[]).is_err());
    assert!(load_image(&img[..20]).is_err(), "inside header");
    assert!(load_image(&img[..60]).is_err(), "inside table");
    assert!(load_image(&img[..img.len() - 8]).is_err(), "inside last section");
}

#[test]
fn rejects_checksum_mismatch() {
    let mut img = valid_image();
    // Flip one payload byte (first byte of the first section, which follows
    // the header + 4-entry table) without touching the stored checksum.
    let payload_start = format::HEADER_LEN + 4 * format::SECTION_ENTRY_LEN;
    img[payload_start] ^= 0x01;
    let err = load_image(&img).expect_err("corrupt payload");
    assert!(err.to_string().contains("checksum"), "got: {err}");
}

#[test]
fn rejects_misaligned_and_mislengthed_sections() {
    let img = valid_image();

    // Entry 0 (Offsets): shift its offset by 4 — alignment violation.
    let mut misaligned = img.clone();
    let off_field = format::HEADER_LEN + 8;
    let old = u64::from_le_bytes(misaligned[off_field..off_field + 8].try_into().unwrap());
    misaligned[off_field..off_field + 8].copy_from_slice(&(old + 4).to_le_bytes());
    let err = load_image(&misaligned).expect_err("misaligned section");
    assert!(err.to_string().contains("align"), "got: {err}");

    // Entry 0: wrong length for (n, m).
    let mut mislen = img.clone();
    let len_field = format::HEADER_LEN + 16;
    mislen[len_field..len_field + 8].copy_from_slice(&8u64.to_le_bytes());
    assert!(load_image(&mislen).is_err(), "wrong section length");

    // Entry 0: id not in canonical order.
    let mut bad_id = img;
    bad_id[format::HEADER_LEN] = SectionId::Targets as u8;
    assert!(load_image(&bad_id).is_err(), "section order");
}

#[test]
fn rejects_hostile_counts() {
    // Huge m whose section-size computation would wrap on a hostile header.
    let mut img = valid_image();
    img[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(load_image(&img).is_err(), "hostile m");

    let mut img_n = valid_image();
    img_n[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(load_image(&img_n).is_err(), "hostile n");
}

#[test]
fn trusted_mode_skips_only_the_checksum_pass() {
    let g = generators::erdos_renyi(64, 256, 21);
    for encoding in [Encoding::Raw, Encoding::Delta] {
        let mut img = image_with(&g, encoding);
        // Sanity: on an intact image, trusted and verified loads agree.
        let trusted = load_image_with(&img, Verify::Trusted).expect("trusted load");
        assert_same_graph(&g, &trusted);

        // Corrupt the stored *digest* only — the payload is still a perfectly
        // consistent CSR. Verified loads reject it; trusted loads (the
        // `--no-verify` path) accept it and decode the same graph.
        img[32..40].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = load_image(&img).expect_err("checksum mode still verifies");
        assert!(err.to_string().contains("checksum"), "got: {err}");
        let trusted = load_image_with(&img, Verify::Trusted).expect("trusted ignores digest");
        assert_same_graph(&g, &trusted);

        // Same behavior through the file and mmap loaders.
        let path = tmp(&format!("trusted-{encoding:?}.sgr"));
        std::fs::write(&path, &img).expect("write");
        assert!(load_sgr(&path).is_err());
        assert!(MmapGraph::open(&path).is_err());
        assert_same_graph(&g, &load_sgr_with(&path, Verify::Trusted).expect("trusted file load"));
        let mapped = MmapGraph::open_with(&path, Verify::Trusted).expect("trusted mmap load");
        assert_same_graph(&g, &mapped);

        // A v2 image keeps its encoded form through both sources.
        if encoding == Encoding::Delta {
            let err = read_sgr(&img, Verify::Checksum).expect_err("checksum mode still verifies");
            assert!(err.to_string().contains("checksum"), "got: {err}");
            let heap = read_sgr(&img, Verify::Trusted)
                .and_then(Sgr::into_encoded)
                .expect("trusted encoded load");
            assert_same_graph(&g, &heap.to_csr());
            let err = MmapEncoded::open(&path).expect_err("mmap checksum mode still verifies");
            assert!(err.to_string().contains("checksum"), "got: {err}");
            let mapped =
                MmapEncoded::open_with(&path, Verify::Trusted).expect("trusted encoded mmap load");
            assert_same_graph(&g, &mapped.to_csr());
        }
    }
}

#[test]
fn trusted_mode_still_rejects_structural_corruption() {
    // `--no-verify` is not "no validation": a payload that decodes into an
    // inconsistent CSR must still be rejected by from_parts, and header /
    // table damage by the toc parser.
    let g = generators::erdos_renyi(32, 100, 22);
    let mut img = image(&g);
    let toc = format::parse_toc(&img).expect("valid");
    let targets = toc.sections.iter().find(|s| s.id == SectionId::Targets).expect("present");
    let at = targets.off;
    img[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = load_image_with(&img, Verify::Trusted).expect_err("invalid CSR rejected");
    assert!(err.to_string().contains("invalid .sgr contents"), "got: {err}");
    let path = tmp("trusted-corrupt.sgr");
    std::fs::write(&path, &img).expect("write");
    assert!(MmapGraph::open_with(&path, Verify::Trusted).is_err());

    let mut bad_magic = image(&g);
    bad_magic[0] ^= 0xFF;
    assert!(load_image_with(&bad_magic, Verify::Trusted).is_err(), "magic still checked");
    assert!(load_image_with(&bad_magic[..20], Verify::Trusted).is_err(), "truncation");

    // The same for a v2 image: a degree that disagrees with its encoded row
    // is rejected by the encoded validator on every source and target.
    let mut img = image_with(&g, Encoding::Delta);
    let toc = format::parse_toc_v2(&img).expect("valid v2");
    let degrees = toc.sections.iter().find(|s| s.id == SectionId::Degrees).expect("present");
    let at = degrees.off;
    img[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = load_image_with(&img, Verify::Trusted).expect_err("invalid v2 rows rejected");
    assert!(err.to_string().contains("invalid .sgr v2 contents"), "got: {err}");
    let err = read_sgr(&img, Verify::Trusted)
        .and_then(Sgr::into_encoded)
        .expect_err("invalid v2 rows rejected");
    assert!(err.to_string().contains("invalid .sgr v2 contents"), "got: {err}");
    let path = tmp("trusted-corrupt-v2.sgr");
    std::fs::write(&path, &img).expect("write");
    assert!(MmapGraph::open_with(&path, Verify::Trusted).is_err());
    assert!(MmapEncoded::open_with(&path, Verify::Trusted).is_err());

    let mut bad_magic = image_with(&g, Encoding::Delta);
    bad_magic[0] ^= 0xFF;
    assert!(read_sgr(&bad_magic, Verify::Trusted).is_err(), "v2 magic still checked");
    assert!(read_sgr(&bad_magic[..20], Verify::Trusted).is_err(), "v2 truncation");
}

#[test]
fn rejects_semantically_corrupt_payload_with_valid_checksum() {
    // An attacker (or bit rot plus a recomputed digest) can present a file
    // whose checksum verifies but whose arrays are inconsistent; the
    // CsrGraph::from_parts validation layer must reject it.
    let g = generators::erdos_renyi(32, 100, 11);
    let mut img = image(&g);
    let toc = format::parse_toc(&img).expect("valid");
    // Point the first target at a vertex far out of range.
    let targets = toc.sections.iter().find(|s| s.id == SectionId::Targets).expect("present");
    let at = targets.off;
    img[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    // Recompute and store a *valid* checksum for the corrupted payload.
    let mut h = format::checksum_seed();
    for s in &toc.sections {
        h = format::checksum_update(h, &img[s.off..s.off + s.len]);
    }
    img[32..40].copy_from_slice(&h.to_le_bytes());
    let err = load_image(&img).expect_err("inconsistent CSR must be rejected");
    assert!(err.to_string().contains("invalid .sgr contents"), "got: {err}");
    // The mmap loader rejects it identically.
    let path = tmp("semantic.sgr");
    std::fs::write(&path, &img).expect("write");
    assert!(MmapGraph::open(&path).is_err());
}

#[test]
fn heap_and_mmap_agree_on_every_shape() {
    let shapes: Vec<CsrGraph> = vec![
        generators::erdos_renyi(128, 512, 1),
        generators::with_random_weights(&generators::erdos_renyi(128, 512, 2), 1.0, 4.0, 3),
        CsrGraph::from_edge_list_directed(EdgeList::from_pairs(32, (0..31u32).map(|i| (i, i + 1)))),
        CsrGraph::from_pairs(0, &[]),
        CsrGraph::from_pairs(5, &[(0, 4)]),
    ];
    for (i, g) in shapes.iter().enumerate() {
        let path = tmp(&format!("shape-{i}.sgr"));
        save_sgr(g, &path).expect("save");
        let heap = load_sgr(&path).expect("heap");
        let mapped = MmapGraph::open(&path).expect("mmap");
        assert_same_graph(&heap, &mapped);
        assert_same_graph(g, &mapped);
    }
}
