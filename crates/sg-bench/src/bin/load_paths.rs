//! Load-path benchmark: the cost of getting a graph from disk into an
//! algorithm-ready CSR across the three storage formats.
//!
//! * `text` — parse a whitespace edge list, canonicalize, rebuild CSR;
//! * `bin`  — decode the compact binary edge list, rebuild CSR;
//! * `sgr (heap)` — decode the `.sgr` CSR container into owned arrays
//!   (no CSR rebuild, one copy);
//! * `sgr (mmap)` — map the `.sgr` file read-only and borrow the CSR
//!   arrays in place (no rebuild, no copy; the reported time includes the
//!   checksum + structural-validation pass, the only O(file) work left).
//!
//! Run: `cargo run --release -p sg-bench --bin load_paths
//!       [-- --n N] [--k N] [--runs N] [--json]`

use sg_bench::{json_requested, median_time, ms, render_json, render_table, BenchRecord};
use sg_graph::{generators, io, CsrGraph};
use std::path::PathBuf;
use std::time::Duration;

fn main() {
    let mut n: usize = 200_000;
    let mut k: usize = 8;
    let mut runs: usize = 3;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut grab = |what: &str| -> usize {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("--{what} needs an integer value"))
        };
        match flag.as_str() {
            "--n" => n = grab("n"),
            "--k" => k = grab("k"),
            "--runs" => runs = grab("runs"),
            "--json" => {}
            other => panic!("unknown flag {other}"),
        }
    }
    let json = json_requested();
    let workload = format!("ba-n{n}-k{k}");

    let g = generators::barabasi_albert(n, k, 0x10AD);
    let dir = std::env::temp_dir().join("sg-bench-load-paths");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = |ext: &str| -> PathBuf { dir.join(format!("{workload}.{ext}")) };
    io::save_text(&g, path("txt")).expect("write text");
    io::save_binary(&g, path("bin")).expect("write bin");
    sg_store::save_sgr(&g, path("sgr")).expect("write sgr");

    type Loader = (&'static str, &'static str, fn(&PathBuf) -> CsrGraph);
    let loaders: [Loader; 4] = [
        ("load:text", "txt", |p| io::load_text(p).expect("text load")),
        ("load:bin", "bin", |p| io::load_binary(p).expect("bin load")),
        ("load:sgr-heap", "sgr", |p| sg_store::load_sgr(p).expect("sgr heap load")),
        ("load:sgr-mmap", "sgr", |p| {
            sg_store::MmapGraph::open(p).expect("sgr mmap load").into_inner()
        }),
    ];

    let mut rows = Vec::new();
    let mut records = Vec::new();
    let mut base: Option<Duration> = None;
    for (label, ext, load) in loaders {
        let p = path(ext);
        let loaded = load(&p);
        assert_eq!(loaded.num_edges(), g.num_edges(), "{label} must load the same graph");
        let t = median_time(runs, || {
            load(&p);
        });
        let baseline = *base.get_or_insert(t);
        let bytes = std::fs::metadata(&p).expect("stat").len();
        rows.push(vec![
            label.to_string(),
            bytes.to_string(),
            ms(t),
            format!("{:.1}x", baseline.as_secs_f64() / t.as_secs_f64().max(1e-12)),
        ]);
        records.push(BenchRecord {
            workload: workload.clone(),
            label: label.to_string(),
            params: vec![
                ("n".into(), n.to_string()),
                ("k".into(), k.to_string()),
                ("file_bytes".into(), bytes.to_string()),
            ],
            ratio: None,
            timings_ms: vec![("load".into(), t.as_secs_f64() * 1e3)],
        });
    }

    if json {
        println!("{}", render_json(&records));
        return;
    }
    println!("workload: {workload}, n = {}, m = {}\n", g.num_vertices(), g.num_edges());
    println!("{}", render_table(&["path", "file bytes", "median ms", "vs text"], &rows));
    println!("(sgr-mmap pays only checksum + validation; no edge-list rebuild, no copy)");
}
