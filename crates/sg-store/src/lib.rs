//! # sg-store — zero-copy binary CSR container for Slim Graph
//!
//! Slim Graph's evaluation runs at billions-of-edges scale; rebuilding a CSR
//! from an edge list on every load caps inputs far below that. This crate
//! defines `.sgr`, an aligned, versioned, checksummed on-disk container
//! holding the *final* CSR arrays of a [`CsrGraph`] — offsets, targets,
//! slot→edge ids, canonical edges, optional weights, and the in-adjacency of
//! directed graphs — so loading is a validation pass, not a rebuild.
//!
//! One writer and one reader serve both container versions (v1 raw CSR,
//! v2 encoded adjacency, see `docs/SGR_V2.md`):
//!
//! * [`write_sgr`] / [`save_sgr_with`] write either version, picked by an
//!   [`Encoding`]; [`save_sgr`] writes v1.
//! * [`read_sgr`] decodes an in-memory image of either version into owned
//!   `Vec` sections, returning an [`Sgr`]; [`load_sgr`] / [`load_sgr_with`]
//!   read a file through it into a [`CsrGraph`]. Works everywhere, costs
//!   one copy.
//! * [`Mapped`] ([`MmapGraph`], [`MmapEncoded`]) is the zero-copy loader:
//!   it maps the file read-only (direct libc FFI on unix, see [`mmap`]) and
//!   hands the sections to the graph as *borrowed* [`sg_graph::Section`]s
//!   pointing straight into the mapping. No section is copied; the mapping
//!   is shared by every clone of the graph (and, via `sg-dist`, by every
//!   simulated rank) and unmapped when the last reference drops.
//!   Algorithms, schemes, and pipelines observe bit-identical data either
//!   way.
//!
//! File layout (details in [`format`]):
//!
//! ```text
//! ┌────────────────────────────────────────────┐
//! │ header: magic "SLIMSGR1" · version · flags │ 48 B
//! │         n · m · checksum · section count   │
//! ├────────────────────────────────────────────┤
//! │ section table: { id, offset, length } × k  │ 24 B each
//! ├────────────────────────────────────────────┤
//! │ offsets    u64 × (n+1)   ─ 8-byte aligned  │
//! │ targets    u32 × slots                     │
//! │ slot_edge  u32 × slots                     │
//! │ edges      2×u32 × m                       │
//! │ weights    f32 × m          (if weighted)  │
//! │ in_offsets/in_targets/in_slot_edge         │
//! │                             (if directed)  │
//! └────────────────────────────────────────────┘
//! ```
//!
//! Integrity: a word-wise FNV-1a checksum over all section payloads is
//! verified on every load (a read-only streaming pass — no copy; skippable
//! for trusted files via [`Verify::Trusted`], e.g. `slimgraph --no-verify`),
//! and [`CsrGraph::from_parts`] then validates every structural invariant
//! (offset monotonicity, sorted rows, canonical edge order, slot↔edge
//! consistency), so a corrupt or hostile file is rejected at load time
//! rather than crashing an algorithm later.
//!
//! Borrowing is gated on the facts that make it sound — little-endian
//! target, pointer-width match for the `u64` offset sections, 8-byte file
//! alignment (mmap bases are page-aligned) — and every section falls back
//! to an owned decode when a gate fails, so the loaders are correct on any
//! platform and merely fastest on 64-bit little-endian unix.

pub mod format;
pub mod mmap;

use format::{SectionId, SgrToc};
use mmap::Mmap;
use sg_graph::{CsrGraph, CsrParts, EncodedAdjacencyParts, EncodedCsr, Section};
use std::any::Any;
use std::borrow::Cow;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

// --- writer ---------------------------------------------------------------

/// Adjacency encoding selector for the `.sgr` writer (CLI `--encoding`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Encoding {
    /// v1 container: raw CSR sections.
    #[default]
    Raw,
    /// v2 container: delta+varint rows, bitmap rows for dense vertices.
    Delta,
    /// Whichever version yields the smaller file for this graph.
    Auto,
}

impl Encoding {
    /// Parses a CLI value (`raw` / `delta` / `auto`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "raw" => Some(Self::Raw),
            "delta" => Some(Self::Delta),
            "auto" => Some(Self::Auto),
            _ => None,
        }
    }
}

type Sections<'a> = Vec<(SectionId, Cow<'a, [u8]>)>;

fn raw_sections(g: &CsrGraph) -> Sections<'_> {
    let mut out = vec![
        (SectionId::Offsets, format::bytes_of_usizes(g.csr_offsets())),
        (SectionId::Targets, format::bytes_of_u32s(g.csr_targets())),
        (SectionId::SlotEdges, format::bytes_of_u32s(g.csr_slot_edges())),
        (SectionId::Edges, format::bytes_of_pairs(g.edge_slice())),
    ];
    if let Some(w) = g.weight_slice() {
        out.push((SectionId::Weights, format::bytes_of_f32s(w)));
    }
    if let (Some(o), Some(t), Some(s)) =
        (g.in_csr_offsets(), g.in_csr_targets(), g.in_csr_slot_edges())
    {
        out.push((SectionId::InOffsets, format::bytes_of_usizes(o)));
        out.push((SectionId::InTargets, format::bytes_of_u32s(t)));
        out.push((SectionId::InSlotEdges, format::bytes_of_u32s(s)));
    }
    out
}

fn encoded_sections(enc: &EncodedCsr) -> Sections<'_> {
    let mut out = Vec::new();
    if let Some(w) = enc.weight_slice() {
        out.push((SectionId::Weights, format::bytes_of_f32s(w)));
    }
    let adj = enc.out_adjacency();
    out.push((SectionId::Degrees, format::bytes_of_u32s(adj.degrees())));
    out.push((SectionId::RowIndex, format::bytes_of_usizes(adj.row_starts())));
    out.push((SectionId::AdjBlob, Cow::Borrowed(adj.blob())));
    if let Some(adj) = enc.in_adjacency() {
        out.push((SectionId::InDegrees, format::bytes_of_u32s(adj.degrees())));
        out.push((SectionId::InRowIndex, format::bytes_of_usizes(adj.row_starts())));
        out.push((SectionId::InAdjBlob, Cow::Borrowed(adj.blob())));
    }
    out
}

fn padding(len: usize) -> usize {
    (8 - len % 8) % 8
}

/// Serializes `g` as one `.sgr` container with the requested [`Encoding`];
/// returns bytes written. `Raw` writes v1 sections and `Delta` v2 sections;
/// `Auto` encodes once, compares total payload bytes, and writes the
/// smaller container.
pub fn write_sgr<W: Write>(g: &CsrGraph, w: &mut W, encoding: Encoding) -> io::Result<u64> {
    let encoded = (encoding != Encoding::Raw).then(|| EncodedCsr::from_graph(g));
    let payload = |s: &Sections<'_>| -> usize { s.iter().map(|(_, b)| b.len()).sum() };
    let (version, sections) = match &encoded {
        None => (format::SGR_VERSION, raw_sections(g)),
        Some(enc) => {
            let v2 = encoded_sections(enc);
            match (encoding == Encoding::Auto).then(|| raw_sections(g)) {
                Some(v1) if payload(&v1) <= payload(&v2) => (format::SGR_VERSION, v1),
                _ => (format::SGR_VERSION_V2, v2),
            }
        }
    };

    // Lay out sections (8-aligned) and fold the checksum in one pass.
    let table_end = format::HEADER_LEN + sections.len() * format::SECTION_ENTRY_LEN;
    let mut entries = Vec::with_capacity(sections.len());
    let mut checksum = format::checksum_seed();
    let mut off = table_end;
    for (id, bytes) in &sections {
        debug_assert_eq!(off % 8, 0);
        entries.push((*id as u32, off as u64, bytes.len() as u64));
        checksum = format::checksum_update(checksum, bytes);
        off += bytes.len() + padding(bytes.len());
    }

    let mut flags = 0u32;
    if g.is_directed() {
        flags |= format::FLAG_DIRECTED;
    }
    if g.is_weighted() {
        flags |= format::FLAG_WEIGHTED;
    }
    w.write_all(&format::SGR_MAGIC.to_le_bytes())?;
    w.write_all(&version.to_le_bytes())?;
    w.write_all(&flags.to_le_bytes())?;
    w.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(g.num_edges() as u64).to_le_bytes())?;
    w.write_all(&checksum.to_le_bytes())?;
    w.write_all(&(sections.len() as u32).to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?;
    for (id, off, len) in &entries {
        w.write_all(&id.to_le_bytes())?;
        w.write_all(&0u32.to_le_bytes())?;
        w.write_all(&off.to_le_bytes())?;
        w.write_all(&len.to_le_bytes())?;
    }
    for (_, bytes) in &sections {
        w.write_all(bytes)?;
        w.write_all(&[0u8; 8][..padding(bytes.len())])?;
    }
    Ok(off as u64)
}

/// Saves `g` as a v1 `.sgr` file; returns bytes written.
pub fn save_sgr(g: &CsrGraph, path: impl AsRef<Path>) -> io::Result<u64> {
    save_sgr_with(g, path, Encoding::Raw)
}

/// Saves `g` with the requested [`Encoding`]; returns bytes written.
pub fn save_sgr_with(g: &CsrGraph, path: impl AsRef<Path>, encoding: Encoding) -> io::Result<u64> {
    let mut w = BufWriter::new(File::create(path)?);
    let n = write_sgr(g, &mut w, encoding)?;
    w.flush()?;
    Ok(n)
}

// --- reader ---------------------------------------------------------------

/// How much integrity checking a load performs.
///
/// Both modes parse and structurally validate the header/section table and
/// run [`CsrGraph::from_parts`]'s full invariant validation (offset
/// monotonicity, sorted rows, canonical edge order, slot↔edge
/// consistency) — a corrupt or hostile file is rejected either way.
/// [`Verify::Trusted`] only skips the word-wise checksum pass over the
/// section payloads, the one remaining O(file) scan, for files the caller
/// just wrote or otherwise trusts end-to-end. On a large mapping that is
/// the difference between touching every page at open and faulting pages
/// in lazily as algorithms reach them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Verify {
    /// Verify the container checksum before assembling (the default).
    #[default]
    Checksum,
    /// Skip the checksum pass; structural validation still runs.
    Trusted,
}

/// A loaded `.sgr` container: v1 holds raw CSR sections, v2 the encoded
/// adjacency.
#[derive(Debug)]
pub enum Sgr {
    /// A v1 container.
    Raw(CsrGraph),
    /// A v2 container.
    Encoded(EncodedCsr),
}

impl Sgr {
    /// The raw graph; a v2 container decodes to the bit-identical raw CSR
    /// ([`EncodedCsr::to_csr`]).
    pub fn into_graph(self) -> CsrGraph {
        match self {
            Sgr::Raw(g) => g,
            Sgr::Encoded(enc) => enc.to_csr(),
        }
    }

    /// The encoded graph, whose rows kernels traverse without
    /// materializing raw CSR; a v1 container is rejected.
    pub fn into_encoded(self) -> io::Result<EncodedCsr> {
        match self {
            Sgr::Encoded(enc) => Ok(enc),
            Sgr::Raw(_) => Err(bad(format!(
                "unsupported .sgr version {} (the encoded form needs version {})",
                format::SGR_VERSION,
                format::SGR_VERSION_V2
            ))),
        }
    }
}

/// How a section travels from file bytes into a [`Section`]: borrowed
/// straight out of the anchored mapping when the type-level gates allow,
/// decoded into an owned `Vec` otherwise.
fn make_section<T, D>(
    bytes: &[u8],
    anchor: Option<&Arc<Mmap>>,
    borrowable: bool,
    decode: D,
) -> io::Result<Section<T>>
where
    T: Copy + Send + Sync + 'static,
    D: FnOnce(&[u8]) -> io::Result<Vec<T>>,
{
    if let Some(map) = anchor {
        let size = std::mem::size_of::<T>();
        if borrowable
            && bytes.len().is_multiple_of(size)
            && (bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<T>())
        {
            let count = bytes.len() / size;
            let keep = Arc::clone(map);
            let anchor: Arc<dyn Any + Send + Sync> = keep;
            // SAFETY: `bytes` lies inside the mapping owned by `anchor`
            // (read-only for its whole lifetime), the pointer is aligned and
            // spans exactly `count` elements (checked above), and `T` is
            // plain-old data whose on-disk width equals `size_of::<T>()`
            // (the `borrowable` gate).
            return Ok(unsafe {
                Section::from_raw_parts(anchor, bytes.as_ptr().cast::<T>(), count)
            });
        }
    }
    Ok(decode(bytes)?.into())
}

/// Assembles a [`CsrGraph`] from a parsed, checksum-verified v1 buffer.
/// With `anchor` set, sections borrow from the mapping wherever sound.
fn assemble(data: &[u8], toc: &SgrToc, anchor: Option<&Arc<Mmap>>) -> io::Result<CsrGraph> {
    let le = cfg!(target_endian = "little");
    let usize_ok = le && std::mem::size_of::<usize>() == 8;
    let pairs_ok = le && format::pair_layout_is_nominal();
    let sec = |id| toc.section(data, id);
    let u32_sec = |id| make_section(sec(id), anchor, le, |b| Ok(format::decode_u32s(b)));
    let usize_sec = |id| make_section(sec(id), anchor, usize_ok, format::decode_usizes);

    let parts = CsrParts {
        directed: toc.directed,
        num_vertices: toc.n,
        offsets: usize_sec(SectionId::Offsets)?,
        targets: u32_sec(SectionId::Targets)?,
        slot_edge: u32_sec(SectionId::SlotEdges)?,
        edges: make_section(sec(SectionId::Edges), anchor, pairs_ok, |b| {
            Ok(format::decode_pairs(b))
        })?,
        weights: toc
            .weighted
            .then(|| {
                make_section(sec(SectionId::Weights), anchor, le, |b| Ok(format::decode_f32s(b)))
            })
            .transpose()?,
        in_offsets: toc.directed.then(|| usize_sec(SectionId::InOffsets)).transpose()?,
        in_targets: toc.directed.then(|| u32_sec(SectionId::InTargets)).transpose()?,
        in_slot_edge: toc.directed.then(|| u32_sec(SectionId::InSlotEdges)).transpose()?,
    };
    CsrGraph::from_parts(parts).map_err(|e| bad(format!("invalid .sgr contents: {e}")))
}

/// Assembles an [`EncodedCsr`] from a parsed, checksum-verified v2 buffer.
/// With `anchor` set, sections borrow from the mapping wherever sound; the
/// blob sections (`u8`, alignment 1) always borrow when anchored.
fn assemble_encoded(
    data: &[u8],
    toc: &SgrToc,
    anchor: Option<&Arc<Mmap>>,
) -> io::Result<EncodedCsr> {
    let le = cfg!(target_endian = "little");
    let usize_ok = le && std::mem::size_of::<usize>() == 8;
    let sec = |id| toc.section(data, id);
    let adjacency = |degrees, row_index, blob| -> io::Result<EncodedAdjacencyParts> {
        Ok(EncodedAdjacencyParts {
            row_starts: make_section(sec(row_index), anchor, usize_ok, format::decode_usizes)?,
            degrees: make_section(sec(degrees), anchor, le, |b| Ok(format::decode_u32s(b)))?,
            blob: make_section(sec(blob), anchor, true, |b| Ok(b.to_vec()))?,
        })
    };
    let out = adjacency(SectionId::Degrees, SectionId::RowIndex, SectionId::AdjBlob)?;
    let in_ = toc
        .directed
        .then(|| adjacency(SectionId::InDegrees, SectionId::InRowIndex, SectionId::InAdjBlob))
        .transpose()?;
    let weights = toc
        .weighted
        .then(|| make_section(sec(SectionId::Weights), anchor, le, |b| Ok(format::decode_f32s(b))))
        .transpose()?;
    EncodedCsr::from_parts(toc.directed, toc.n, toc.m, out, in_, weights)
        .map_err(|e| bad(format!("invalid .sgr v2 contents: {e}")))
}

/// The reader core behind every loader: dispatches on the container
/// version, verifies the checksum unless trusted, and assembles the graph.
/// With `anchor` set, `data` is that mapping: the paging hints go to it and
/// sections borrow from it wherever sound.
fn read(data: &[u8], anchor: Option<&Arc<Mmap>>, verify: Verify) -> io::Result<Sgr> {
    let encoded = format::peek_version(data)? == format::SGR_VERSION_V2;
    let toc = if encoded { format::parse_toc_v2(data)? } else { format::parse_toc(data)? };
    if verify == Verify::Checksum {
        // The checksum pass streams the file front to back — tell the
        // kernel so read-ahead runs ahead of the scan; restore the default
        // policy afterwards (MADV_SEQUENTIAL is sticky, and the algorithms
        // served from this mapping access it randomly).
        if let Some(map) = anchor {
            map.advise_sequential();
        }
        let verified = format::verify_checksum(data, &toc);
        if let Some(map) = anchor {
            map.advise_normal();
        }
        verified?;
    }
    if let Some(map) = anchor {
        // Section windows are about to be validated (and then served to
        // algorithms): fault them in eagerly instead of page-by-page.
        // Best-effort hints; a kernel that ignores them changes nothing.
        for section in &toc.sections {
            map.advise_willneed(section.off, section.len);
        }
    }
    Ok(if encoded {
        Sgr::Encoded(assemble_encoded(data, &toc, anchor)?)
    } else {
        Sgr::Raw(assemble(data, &toc, anchor)?)
    })
}

/// Decodes an in-memory `.sgr` image of either version into owned
/// sections.
pub fn read_sgr(data: &[u8], verify: Verify) -> io::Result<Sgr> {
    read(data, None, verify)
}

/// Owned heap loader: reads `path` fully and decodes it. A v2 file decodes
/// to the bit-identical raw graph.
pub fn load_sgr(path: impl AsRef<Path>) -> io::Result<CsrGraph> {
    load_sgr_with(path, Verify::Checksum)
}

/// [`load_sgr`] with an explicit [`Verify`] mode.
pub fn load_sgr_with(path: impl AsRef<Path>, verify: Verify) -> io::Result<CsrGraph> {
    Ok(read_sgr(&std::fs::read(path)?, verify)?.into_graph())
}

/// A graph type [`Mapped`] can serve out of a loaded container.
pub trait FromSgr: Sized {
    /// Converts the loaded container, or rejects its version.
    fn from_sgr(sgr: Sgr) -> io::Result<Self>;
    /// True when every section borrows from the mapping.
    fn is_zero_copy(&self) -> bool;
}

impl FromSgr for CsrGraph {
    fn from_sgr(sgr: Sgr) -> io::Result<Self> {
        Ok(sgr.into_graph())
    }
    fn is_zero_copy(&self) -> bool {
        self.is_fully_mapped()
    }
}

impl FromSgr for EncodedCsr {
    fn from_sgr(sgr: Sgr) -> io::Result<Self> {
        sgr.into_encoded()
    }
    fn is_zero_copy(&self) -> bool {
        self.is_fully_mapped()
    }
}

/// A graph served zero-copy out of a read-only file mapping.
///
/// The sections borrow directly from the mapping (no full-file copy); the
/// mapping itself is reference-counted, so the graph — and any clone of
/// it, including [`Mapped::into_inner`]'s result — keeps it alive, and
/// multiple consumers (e.g. `sg-dist` rank threads) share one mapping.
///
/// Derefs to the graph, so it drops into any API taking `&CsrGraph` /
/// `&EncodedCsr`.
#[derive(Debug)]
pub struct Mapped<G> {
    graph: G,
}

/// A raw [`CsrGraph`] served out of a mapping. A v2 file decodes to the
/// bit-identical raw graph on the heap, after which the mapping is dropped.
pub type MmapGraph = Mapped<CsrGraph>;

/// An [`EncodedCsr`] served out of a v2 file mapping: the row index,
/// degrees, and encoded blob borrow directly from it, so resident memory is
/// the (compressed) file itself. Kernels traverse it through
/// [`sg_graph::GraphView`] — decode happens on the fly, per row.
pub type MmapEncoded = Mapped<EncodedCsr>;

impl<G: FromSgr> Mapped<G> {
    /// Maps `path` read-only, verifies checksum + structure, and builds the
    /// borrowed-section graph.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_with(path, Verify::Checksum)
    }

    /// [`Mapped::open`] with an explicit [`Verify`] mode.
    pub fn open_with(path: impl AsRef<Path>, verify: Verify) -> io::Result<Self> {
        let map = Arc::new(Mmap::map(&File::open(path)?)?);
        Ok(Self { graph: G::from_sgr(read(&map, Some(&map), verify)?)? })
    }

    /// Unwraps into the graph; the mapping stays alive behind the sections.
    pub fn into_inner(self) -> G {
        self.graph
    }

    /// True when every section borrows from the mapping (the zero-copy
    /// fast path — always taken on 64-bit little-endian unix).
    pub fn is_zero_copy(&self) -> bool {
        self.graph.is_zero_copy()
    }
}

impl<G> Deref for Mapped<G> {
    type Target = G;
    fn deref(&self) -> &G {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graph::generators;

    fn image(g: &CsrGraph, encoding: Encoding) -> Vec<u8> {
        let mut buf = Vec::new();
        write_sgr(g, &mut buf, encoding).expect("Vec<u8> writes are infallible");
        buf
    }

    fn load_image(img: &[u8]) -> io::Result<CsrGraph> {
        read_sgr(img, Verify::Checksum).map(Sgr::into_graph)
    }

    fn load_encoded_image(img: &[u8]) -> io::Result<EncodedCsr> {
        read_sgr(img, Verify::Checksum).and_then(Sgr::into_encoded)
    }

    #[test]
    fn bytes_roundtrip_preserves_structure() {
        let g = generators::erdos_renyi(200, 600, 7);
        let img = image(&g, Encoding::Raw);
        assert_eq!(img.len() % 8, 0, "file length stays 8-aligned");
        let h = load_image(&img).expect("load");
        assert_eq!(g.edge_slice(), h.edge_slice());
        assert_eq!(g.num_vertices(), h.num_vertices());
    }

    #[test]
    fn v2_bytes_roundtrip_is_bit_identical() {
        let g = generators::barabasi_albert(500, 6, 3);
        let img = image(&g, Encoding::Delta);
        assert_eq!(img.len() % 8, 0, "file length stays 8-aligned");
        // Transparent path: the generic loader decodes v2 to the raw graph.
        let h = load_image(&img).expect("load");
        assert_eq!(g.edge_slice(), h.edge_slice());
        assert_eq!(g.csr_offsets(), h.csr_offsets());
        assert_eq!(g.csr_targets(), h.csr_targets());
        assert_eq!(g.csr_slot_edges(), h.csr_slot_edges());
        // Encoded path: same structure through the cursor API.
        let enc = load_encoded_image(&img).expect("load encoded");
        assert_eq!(enc.num_edges(), g.num_edges());
        for v in 0..500u32 {
            let row: Vec<u32> = enc.cursor(v).collect();
            assert_eq!(row, g.neighbors(v), "row {v}");
        }
    }

    #[test]
    fn v2_directed_weighted_roundtrip() {
        let el = sg_graph::EdgeList::from_weighted(
            6,
            [(0, 1, 2.0), (1, 2, 0.5), (2, 0, 1.5), (4, 5, 3.0)],
        );
        let g = CsrGraph::from_edge_list_directed(el);
        let img = image(&g, Encoding::Delta);
        let h = load_image(&img).expect("load");
        assert_eq!(g.edge_slice(), h.edge_slice());
        assert_eq!(g.weight_slice(), h.weight_slice());
        assert_eq!(g.in_csr_targets(), h.in_csr_targets());
    }

    #[test]
    fn auto_encoding_picks_the_smaller_container() {
        // A social-style graph compresses well: auto must pick v2.
        let g = generators::barabasi_albert(2000, 8, 1);
        let auto = image(&g, Encoding::Auto);
        let raw = image(&g, Encoding::Raw);
        let delta = image(&g, Encoding::Delta);
        assert!(delta.len() < raw.len());
        assert_eq!(auto.len(), delta.len());
        assert_eq!(format::peek_version(&auto).expect("header"), format::SGR_VERSION_V2);
    }

    #[test]
    fn version_mismatch_is_rejected_both_ways() {
        let g = generators::erdos_renyi(50, 100, 1);
        let v1 = image(&g, Encoding::Raw);
        let v2 = image(&g, Encoding::Delta);
        let err = load_encoded_image(&v1).expect_err("v1 into v2 loader");
        assert!(err.to_string().contains("unsupported .sgr version"), "{err}");
        let err = format::parse_toc(&v2).expect_err("v2 into v1 parser");
        assert!(err.to_string().contains("unsupported .sgr version"), "{err}");
    }
}
