//! The batch path: load a `.sgr` with checksum verification, run the
//! compression pipeline through `SgSession` with the stage cache off (as
//! the CLI does), save a delta-encoded `.sgr`, then run PageRank, CC and
//! BFS over the mmapped encoded original and the compressed file.
//!
//! Every workload runs this job on its own input (so each reports the
//! batch metrics); `batch-rmat` is the workload where it is the whole run.

use crate::report::{self, metric, Input, Report};
use crate::{probes, Env};
use sg_algos::{bfs, cc, pagerank};
use sg_core::{GraphCatalog, GraphHandle, SchemeRegistry, SessionRun, SgSession, StageCache};
use sg_graph::{generators, CsrGraph, GraphView, VertexId};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The pipeline every batch job runs.
pub const SPEC: &str = "lowdeg,uniform:p=0.5,spectral:p=0.5";
/// RMAT Graph500 scale and edge factor of `batch-rmat` (n = 2^20; about
/// 1.1e7 edges after deduplication, so the raw file is larger than the LLC).
const RMAT_SCALE: u32 = 20;
const RMAT_EDGE_FACTOR: usize = 11;
/// Set-ups per `batch-rmat` run; `setup_s` is their median.
const RMAT_SETUPS: usize = 2;
/// Minimum job repetitions per untraced `batch-rmat` run; the batch
/// metrics are their medians.
const RMAT_JOBS: usize = 2;
/// Timed approx-analytics passes per job (odd, so the median is a sample).
const APPROX_PASSES: usize = 5;
/// Untraced/traced compress pairs behind `batch-rmat`'s
/// `obs.trace_overhead_frac`.
const TRACE_PAIRS: usize = 3;

pub fn pr_config() -> pagerank::PageRankConfig {
    pagerank::PageRankConfig { max_iterations: 20, ..Default::default() }
}

/// A workload input on disk: the raw `.sgr` the job loads and the
/// delta-encoded copy the exact analytics mmap.
pub struct BatchInput {
    pub raw_path: String,
    pub enc_path: String,
    pub out_path: String,
    pub n: usize,
    pub m: usize,
    pub root: VertexId,
    pub seed: u64,
}

impl BatchInput {
    /// Writes `g` as `<name>.sgr` (raw) and `<name>.v2.sgr` (delta).
    pub fn write(env: &Env, name: &str, g: &CsrGraph, seed: u64) -> BatchInput {
        let raw_path = env.path(&format!("{name}.sgr"));
        let enc_path = env.path(&format!("{name}.v2.sgr"));
        sg_store::save_sgr(g, &raw_path).expect("write raw input");
        sg_store::save_sgr_with(g, &enc_path, sg_store::Encoding::Delta)
            .expect("write encoded input");
        // Flush now, so the kernel's delayed writeback of the inputs lands
        // in set-up and not in the measured window.
        for path in [&raw_path, &enc_path] {
            std::fs::File::open(path).and_then(|f| f.sync_all()).expect("sync input");
        }
        BatchInput {
            raw_path,
            enc_path,
            out_path: env.path(&format!("{name}.slim.v2.sgr")),
            n: g.num_vertices(),
            m: g.num_edges(),
            root: densest_vertex(g),
            seed,
        }
    }

    pub fn inputs(&self, name: &str) -> Vec<Input> {
        let size = |p: &str| std::fs::metadata(p).map_or(0, |m| m.len());
        vec![
            Input {
                name: format!("{name}.raw"),
                n: self.n,
                m: self.m,
                file_bytes: size(&self.raw_path),
            },
            Input {
                name: format!("{name}.delta"),
                n: self.n,
                m: self.m,
                file_bytes: size(&self.enc_path),
            },
        ]
    }
}

pub fn densest_vertex<G: GraphView>(g: &G) -> VertexId {
    (0..g.num_vertices() as VertexId).max_by_key(|&v| g.degree(v)).unwrap_or(0)
}

/// Bit-exact fingerprint of one PR + CC + BFS pass.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KernelDigest(u64, u64, u64);

pub struct Analytics {
    pub digest: KernelDigest,
    pub pr: Vec<f64>,
    pub times: [Duration; 3],
}

fn fnv<I: IntoIterator<Item = u64>>(items: I) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in items {
        h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// PR, CC and BFS over any view; BFS is compared on depths because
/// parallel parents race among equal-depth candidates.
pub fn analytics<G: GraphView + Sync>(g: &G, root: VertexId) -> Analytics {
    let t = Instant::now();
    let pr = {
        let _s = sg_obs::span!("bench.pagerank");
        pagerank::pagerank(g, pr_config()).scores
    };
    let t_pr = t.elapsed();
    let t = Instant::now();
    let labels = {
        let _s = sg_obs::span!("bench.cc");
        cc::connected_components(g).labels
    };
    let t_cc = t.elapsed();
    let t = Instant::now();
    let depth = {
        let _s = sg_obs::span!("bench.bfs");
        bfs::bfs_parallel(g, root).depth
    };
    let t_bfs = t.elapsed();
    let digest = KernelDigest(
        fnv(pr.iter().map(|x| x.to_bits())),
        fnv(labels.iter().map(|&x| u64::from(x))),
        fnv(depth.iter().map(|&x| u64::from(x))),
    );
    Analytics { digest, pr, times: [t_pr, t_cc, t_bfs] }
}

/// One execution of the batch job.
pub struct JobRun {
    pub compress: Duration,
    pub exact: Duration,
    /// Median of the timed approx-analytics passes.
    pub approx: Duration,
    pub digest: u64,
    pub out_bytes: u64,
    pub kl_bits: f64,
    pub edges_kept: Vec<usize>,
}

/// The job's compress step: load with checksum verification, run the
/// pipeline through a cache-off session (as the CLI does), save the result
/// delta-encoded. Returns its wall time, the run and the loaded input.
pub fn compress(input: &BatchInput) -> (Duration, SessionRun, GraphHandle) {
    let t = Instant::now();
    let g = {
        let _s = sg_obs::span!("bench.load_checksum");
        sg_store::load_sgr_with(&input.raw_path, sg_store::Verify::Checksum).expect("load input")
    };
    let catalog = Arc::new(GraphCatalog::new());
    let handle = catalog.insert("input", g, &input.raw_path).expect("fresh catalog");
    let session = SgSession::with_cache(
        catalog,
        Arc::new(SchemeRegistry::with_defaults()),
        Arc::new(StageCache::with_capacity(0)),
    );
    let spec = sg_core::PipelineSpec::parse(SPEC).expect("pipeline spec");
    let run = {
        let _s = sg_obs::span!("bench.pipeline");
        session.run(&handle, &spec, input.seed).expect("pipeline run")
    };
    {
        let _s = sg_obs::span!("bench.save_delta");
        sg_store::save_sgr_with(&run.graph, &input.out_path, sg_store::Encoding::Delta)
            .expect("save output");
    }
    (t.elapsed(), run, handle)
}

/// Runs the batch job once. `verify_original` additionally re-runs the
/// kernels over the raw original (untimed) and checks bit-identity with
/// the encoded pass; the compressed graph is always checked that way.
pub fn run_job(input: &BatchInput, verify_original: bool, report: &mut Report) -> JobRun {
    let _job = sg_obs::span!("bench.batch_job");
    let (compress, run, handle) = compress(input);
    report.attempted += 1;

    let raw_original = verify_original.then(|| analytics(handle.graph(), input.root));
    drop(handle);

    let t = Instant::now();
    let exact = {
        let _s = sg_obs::span!("bench.exact_analytics");
        let enc = {
            let _o = sg_obs::span!("bench.mmap_open");
            sg_store::MmapEncoded::open(&input.enc_path).expect("mmap original")
        };
        analytics(&*enc, input.root)
    };
    let exact_time = t.elapsed();
    report.attempted += 1;
    if let Some(raw) = raw_original {
        report.check(raw.digest == exact.digest, || {
            "PR/CC/BFS over the encoded original differ from the raw original".to_string()
        });
    }

    let mapping = run.vertex_mapping.clone();
    let new_root = match &mapping {
        Some(map) => map[input.root as usize].unwrap_or(0),
        None => input.root,
    };
    // The approx pass is short and varies more within a run than the
    // others, so each job times it APPROX_PASSES times and keeps the median.
    let raw_approx = analytics(run.graph.as_ref(), new_root);
    let mut approx_times = Vec::with_capacity(APPROX_PASSES);
    let mut approx = None;
    for _ in 0..APPROX_PASSES {
        let t = Instant::now();
        let pass = {
            let _s = sg_obs::span!("bench.approx_analytics");
            let enc = {
                let _o = sg_obs::span!("bench.mmap_open");
                sg_store::MmapEncoded::open(&input.out_path).expect("mmap output")
            };
            analytics(&*enc, new_root)
        };
        approx_times.push(t.elapsed());
        report.attempted += 1;
        report.check(raw_approx.digest == pass.digest, || {
            "PR/CC/BFS over the encoded compressed file differ from the raw compressed graph"
                .to_string()
        });
        approx = Some(pass);
    }
    let approx = approx.expect("at least one approx pass");
    approx_times.sort_unstable();
    let approx_time = approx_times[approx_times.len() / 2];

    // KL between the original ranks and the compressed ranks pulled back
    // through the vertex mapping (removed vertices rank 0).
    let q: Vec<f64> = match &mapping {
        Some(map) => map.iter().map(|m| m.map_or(0.0, |w| approx.pr[w as usize])).collect(),
        None => approx.pr.clone(),
    };
    let kl_bits = {
        let _s = sg_obs::span!("bench.kl");
        sg_metrics::kl_divergence(&exact.pr, &q)
    };
    JobRun {
        compress,
        exact: exact_time,
        approx: approx_time,
        digest: sg_serve::graph_digest(&run.graph),
        out_bytes: std::fs::metadata(&input.out_path).map_or(0, |m| m.len()),
        kl_bits,
        edges_kept: run.stages.iter().map(|s| s.report.output_edges).collect(),
    }
}

/// Repeats the job until `budget` is spent (at least `min_reps` times).
pub fn repeat_jobs(
    input: &BatchInput,
    min_reps: usize,
    budget: Duration,
    report: &mut Report,
) -> Vec<JobRun> {
    let started = Instant::now();
    let mut runs: Vec<JobRun> = Vec::new();
    while runs.len() < min_reps || started.elapsed() < budget {
        runs.push(run_job(input, runs.is_empty(), report));
    }
    runs
}

/// The batch end-to-end metrics of a set of job runs (medians). Checks
/// that every repetition produced the same output, and notes the times.
pub fn job_metrics(
    input: &BatchInput,
    runs: &[JobRun],
    report: &mut Report,
) -> Vec<report::Metric> {
    let first = runs.first().expect("at least one job run");
    for run in runs {
        report.check(first.digest == run.digest && first.out_bytes == run.out_bytes, || {
            format!(
                "batch output digest changed between repetitions: {:016x} vs {:016x}",
                first.digest, run.digest
            )
        });
    }
    let median = |f: fn(&JobRun) -> Duration| {
        report::median(&runs.iter().map(|r| f(r).as_secs_f64()).collect::<Vec<_>>())
    };
    let line = |f: fn(&JobRun) -> Duration| {
        let v: Vec<String> = runs.iter().map(|r| format!("{:.1}", report::ms(f(r)))).collect();
        if v.len() <= 4 {
            v.join(" ")
        } else {
            format!("{} runs, median {:.1}", v.len(), 1e3 * median(f))
        }
    };
    report.notes.push(format!(
        "batch job ms: compress [{}] exact [{}] approx [{}]",
        line(|r| r.compress),
        line(|r| r.exact),
        line(|r| r.approx)
    ));
    vec![
        metric("compress_s", median(|r| r.compress), "s"),
        metric("exact_analytics_s", median(|r| r.exact), "s"),
        // A ratio within one run: host drift moves both passes together.
        metric("approx_speedup_x", median(|r| r.exact) / median(|r| r.approx).max(1e-12), "x"),
        metric("stored_bytes_per_edge", first.out_bytes as f64 / input.m.max(1) as f64, "B/edge"),
        metric("pagerank_kl_bits", first.kl_bits, "bits"),
    ]
}

/// In-process sharding overhead of the `uniform:p=0.5` stage: two
/// `shard_compress` halves plus the merge and materialization, over one
/// local `run_stage`. Checks that both give the same graph.
pub fn shard_overhead(
    g: &CsrGraph,
    seed: u64,
    min_reps: usize,
    budget: Duration,
    report: &mut Report,
) -> f64 {
    let registry = SchemeRegistry::with_defaults();
    let scheme = registry
        .create("uniform", &sg_core::SchemeParams::from_pairs(&[("p", "0.5")]))
        .expect("uniform scheme");
    let (mut local, mut sharded) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while local.len() < min_reps || started.elapsed() < budget {
        let t = Instant::now();
        let (r, _) = sg_core::run_stage(scheme.as_ref(), g, seed, 0);
        local.push(report::ms(t.elapsed()));
        let t = Instant::now();
        let mut deleted = Vec::new();
        for shard in 0..2 {
            match sg_dist::shard_compress(g, scheme.as_ref(), shard, 2, seed).expect("shard") {
                sg_dist::ShardOutcome::Edges(ids) => deleted.extend(ids),
                sg_dist::ShardOutcome::Vertices(_) => unreachable!("uniform deletes edges"),
            }
        }
        deleted.sort_unstable();
        let merged = sg_dist::apply_edge_deletions(g, &deleted);
        sharded.push(report::ms(t.elapsed()));
        report.attempted += 1;
        report.check(sg_serve::graph_digest(&merged) == sg_serve::graph_digest(&r.graph), || {
            "sharded uniform stage differs from the local stage".to_string()
        });
    }
    report::median(&sharded) / report::median(&local).max(1e-9)
}

/// `batch-rmat`: the batch job on an RMAT Graph500 graph whose raw file
/// exceeds the LLC; no service layer.
pub fn run(env: &Env, trace: bool) -> Report {
    let mut report = Report::default();
    let setups = if trace { 1 } else { RMAT_SETUPS };
    let mut setup_times = Vec::new();
    let mut input = None;
    for _ in 0..setups {
        let t = Instant::now();
        let g = generators::rmat_graph500(RMAT_SCALE, RMAT_EDGE_FACTOR, env.derive(1));
        input = Some(BatchInput::write(env, "rmat", &g, env.derive(2)));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let input = input.expect("at least one set-up");
    report.inputs = input.inputs("rmat");
    report::reset_peak_rss();

    let budget = Duration::from_secs_f64(env.seconds);
    let runs = repeat_jobs(
        &input,
        if trace { 1 } else { RMAT_JOBS },
        if trace { Duration::ZERO } else { budget },
        &mut report,
    );
    let g = sg_store::load_sgr_with(&input.raw_path, sg_store::Verify::Trusted).expect("reload");
    let overhead =
        shard_overhead(&g, input.seed, if trace { 1 } else { 3 }, Duration::ZERO, &mut report);
    drop(g);

    // The request-like figures are over one operation type, the batch job
    // as a user runs it: compress, then analytics over the original and
    // over the compressed file. Longer operations average out short bursts
    // of host noise; the compressed-graph pass alone fits in the LLC and
    // swings with the neighbours' cache use.
    let mut jobs: Vec<f64> =
        runs.iter().map(|r| report::ms(r.compress + r.exact + r.approx)).collect();
    jobs.sort_by(f64::total_cmp);
    let busy_s = jobs.iter().sum::<f64>() / 1e3;
    let mut e2e = vec![metric("setup_s", report::median(&setup_times), "s")];
    e2e.extend(job_metrics(&input, &runs, &mut report));
    e2e.extend([
        metric("throughput_rps", jobs.len() as f64 / busy_s.max(1e-9), "1/s"),
        metric("p50_ms", report::percentile(&jobs, 50.0), "ms"),
        metric("p99_ms", report::percentile(&jobs, 99.0), "ms"),
        metric(
            "compress_p50_ms",
            1e3 * report::median(
                &runs.iter().map(|r| r.compress.as_secs_f64()).collect::<Vec<_>>(),
            ),
            "ms",
        ),
        // Like the served `analyze`: analytics over the original and over
        // the compressed graph.
        metric(
            "analyze_p50_ms",
            1e3 * report::median(
                &runs.iter().map(|r| (r.exact + r.approx).as_secs_f64()).collect::<Vec<_>>(),
            ),
            "ms",
        ),
        metric("fed_overhead_x", overhead, "x"),
        metric("peak_rss_mb", report::peak_rss_mb(), "MB"),
    ]);
    report.end_to_end = e2e;

    if trace {
        let serve_graph = input.out_path.clone();
        let digest = runs[0].digest;
        probes::traced_pass(&mut report, |report| {
            // Untraced and traced compress steps, interleaved, so host
            // drift moves both sides of the ratio alike.
            let (mut off, mut on) = (Vec::new(), Vec::new());
            for _ in 0..TRACE_PAIRS {
                for (traced, times) in [(false, &mut off), (true, &mut on)] {
                    sg_obs::trace::set_trace_enabled(traced);
                    let (t, run, _) = compress(&input);
                    times.push(report::ms(t));
                    report.attempted += 1;
                    report.check(sg_serve::graph_digest(&run.graph) == digest, || {
                        "batch output digest changed between repetitions".to_string()
                    });
                }
            }
            repeat_jobs(&input, 1, Duration::ZERO, report);
            (report::median(&on), report::median(&off))
        });
        probes::layer_probes(env, &input, &runs[0].edges_kept, &serve_graph, None, &mut report);
    }
    report
}
