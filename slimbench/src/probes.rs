//! The traced run's per-layer measurements. Each probe times one call into
//! a crate's public API (or one public wire op) from outside, inside a
//! `bench.probe` span, on the workload's own inputs; every workload reports
//! the same per-layer names.

use crate::batch::{self, BatchInput};
use crate::fleet::{self, call, compress_req, Daemon, Federation, Snapshot};
use crate::report::{self, metric, Report};
use crate::serving::{UPLOAD_CHUNK, UPLOAD_K, UPLOAD_N};
use crate::{spans, Env};
use sg_core::{DistPlan, SchemeParams, SchemeRegistry};
use sg_graph::prng::mix64;
use sg_graph::{CsrGraph, EncodedCsr, GraphView};
use sg_serve::{Client, Json};
use std::time::Instant;

/// Span names whose self time per instance the traced run reports
/// (`bench.probe` wraps probes of every size, so it is left to the table).
const SELF_SPANS: [&str; 18] = [
    "bench.request",
    "bench.upload",
    "bench.batch_job",
    "bench.load_checksum",
    "bench.pipeline",
    "bench.save_delta",
    "bench.exact_analytics",
    "bench.approx_analytics",
    "bench.mmap_open",
    "bench.pagerank",
    "bench.cc",
    "bench.bfs",
    "bench.kl",
    "serve.request",
    "session.run",
    "session.stage",
    "fed.run",
    "fed.shard",
];

const SERVE_OPS: [&str; 7] =
    ["ping", "compress_hit", "compress_miss", "analyze", "upload", "evict", "stats"];
const PROBE_SPEC: &str = "uniform:p=0.5";
const PROBE_SEED: u64 = 11;

/// Median wall time (ms) of `f`, repeated until 200 ms are spent (at
/// least once, at most 25 times); also returns the last result.
fn timed<T>(what: &str, mut f: impl FnMut() -> T) -> (f64, T) {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let _s = sg_obs::span!("bench.probe", what = what);
        let t = Instant::now();
        let out = std::hint::black_box(f());
        times.push(report::ms(t.elapsed()));
        if times.len() >= 25 || started.elapsed().as_millis() >= 200 {
            return (report::median(&times), out);
        }
    }
}

/// Turns tracing on and runs `window` (the workload's traced window), which
/// returns a (lower-is-better) headline figure traced and untraced; reports
/// `obs.trace_overhead_frac` from them. Tracing stays on for the probes.
pub fn traced_pass(report: &mut Report, window: impl FnOnce(&mut Report) -> (f64, f64)) {
    sg_obs::trace::reset();
    sg_obs::trace::set_trace_enabled(true);
    let (traced, untraced) = window(report);
    sg_obs::trace::set_trace_enabled(true);
    report.per_layer.push(metric(
        "obs.trace_overhead_frac",
        traced / untraced.max(1e-9) - 1.0,
        "frac",
    ));
}

/// Figures read from a daemon's `stats` and `metrics` ops. A `busy`
/// turn-away is a refused operation, so it is a check, not a figure.
pub fn daemon_metrics(snap: &Snapshot, report: &mut Report) {
    let busy = snap.counter("serve.busy_rejected");
    report.check(busy == 0.0, || format!("daemon refused {busy} requests as busy"));
    let (hits, misses) = (snap.cache("hits"), snap.cache("misses"));
    let mut out = vec![
        metric("core.cache_hit_ratio", hits / (hits + misses).max(1.0), "ratio"),
        metric("core.cache_evictions", snap.cache("evictions"), "count"),
        metric("serve.queue_wait_ms", snap.hist_mean("serve.queue_wait_ms"), "ms"),
    ];
    for op in ["compress", "analyze", "ping", "stats"] {
        out.push(metric(
            format!("serve.service_ms.{op}"),
            snap.hist_mean(&format!("serve.service_ms.{op}")),
            "ms",
        ));
    }
    report.per_layer.extend(out);
}

fn scan<G: GraphView>(g: &G) -> u64 {
    let mut acc = 0u64;
    for v in 0..g.num_vertices() as u32 {
        g.cursor(v).for_each(|u| acc = acc.wrapping_mul(31).wrapping_add(u64::from(u)));
    }
    acc
}

/// Every per-layer probe on `input` (storage, graph, core, kernels,
/// metrics) and on a probe fleet serving `serve_graph` (service and
/// federation). Daemon figures come from `workload` when given (the
/// serve-mix daemon), else from the probe fleet's standalone daemon. Ends
/// the traced run:
/// collects self times and checks that no span was dropped.
pub fn layer_probes(
    env: &Env,
    input: &BatchInput,
    edges_kept: &[usize],
    serve_graph: &str,
    workload: Option<&Snapshot>,
    report: &mut Report,
) {
    let mut m = Vec::new();
    // sg-store
    let (load_checksum, g) = timed("store.load_checksum", || {
        sg_store::load_sgr_with(&input.raw_path, sg_store::Verify::Checksum).expect("load")
    });
    let (load_trusted, _) = timed("store.load_trusted", || {
        sg_store::load_sgr_with(&input.raw_path, sg_store::Verify::Trusted)
            .expect("load")
            .num_edges()
    });
    let (mmap_open, _) = timed("store.mmap_open", || {
        sg_store::MmapEncoded::open_with(&input.enc_path, sg_store::Verify::Checksum)
            .expect("mmap")
            .num_edges()
    });
    let compressed = sg_store::load_sgr(&input.out_path).expect("load compressed output");
    let probe_out = env.path("probe.v2.sgr");
    let (save_delta, _) = timed("store.save_delta", || {
        sg_store::save_sgr_with(&compressed, &probe_out, sg_store::Encoding::Delta).expect("save")
    });
    let size = |p: &str| std::fs::metadata(p).map_or(0, |md| md.len()) as f64;
    m.extend([
        metric("store.load_checksum_ms", load_checksum, "ms"),
        metric("store.load_trusted_ms", load_trusted, "ms"),
        metric("store.mmap_open_ms", mmap_open, "ms"),
        metric("store.save_delta_ms", save_delta, "ms"),
        metric("store.file_bytes.raw", size(&input.raw_path), "bytes"),
        metric("store.file_bytes.delta", size(&input.enc_path), "bytes"),
    ]);

    // sg-graph
    let (encode, _) = timed("graph.encode", || EncodedCsr::from_graph(&g).num_edges());
    let enc = sg_store::MmapEncoded::open(&input.enc_path).expect("mmap original");
    let (scan_raw, sum_raw) = timed("graph.scan.raw", || scan(&g));
    let (scan_enc, sum_enc) = timed("graph.scan.encoded", || scan(&*enc));
    report.check(sum_raw == sum_enc, || "raw and encoded neighbor scans differ".to_string());
    let registry = SchemeRegistry::with_defaults();
    let uniform =
        registry.create("uniform", &SchemeParams::from_pairs(&[("p", "0.5")])).expect("uniform");
    let Some(DistPlan::EdgeKernel(kernel)) = uniform.dist_plan(&g) else {
        panic!("uniform sampling is an edge kernel");
    };
    let (decide, deleted) = timed("core.decide", || {
        sg_dist::shard_edge_deletions(&g, kernel.as_ref(), 0, 1, input.seed).expect("decide")
    });
    let (materialize, sampled) =
        timed("graph.materialize", || sg_dist::apply_edge_deletions(&g, &deleted));
    m.extend([
        metric("graph.encode_ms", encode, "ms"),
        metric("graph.scan_ms.raw", scan_raw, "ms"),
        metric("graph.scan_ms.encoded", scan_enc, "ms"),
        metric("graph.materialize_ms", materialize, "ms"),
    ]);

    // sg-core: each stage of the batch pipeline, in order, through run_stage.
    let spec = sg_core::PipelineSpec::parse(batch::SPEC)
        .and_then(|s| s.resolve(&registry, &SchemeParams::new()))
        .expect("pipeline spec");
    let mut current: Option<CsrGraph> = None;
    for (i, stage) in spec.stages.iter().enumerate() {
        let scheme = registry.create(&stage.name, &stage.params).expect("stage scheme");
        let (stage_ms, (r, _)) = timed("core.stage", || {
            sg_core::run_stage(scheme.as_ref(), current.as_ref().unwrap_or(&g), input.seed, i)
        });
        report.check(r.graph.num_edges() == edges_kept[i], || {
            format!(
                "stage {i} kept {} edges through run_stage, {} through the session",
                r.graph.num_edges(),
                edges_kept[i]
            )
        });
        m.push(metric(format!("core.stage_ms.{i}"), stage_ms, "ms"));
        current = Some(r.graph);
    }
    m.push(metric("core.decide_ms", decide, "ms"));
    for (i, kept) in edges_kept.iter().enumerate() {
        m.push(metric(format!("core.edges_kept.{i}"), *kept as f64, "count"));
    }

    // sg-algos
    let root = input.root;
    let raw = batch::analytics(&g, root);
    let encoded = batch::analytics(&*enc, root);
    report.check(raw.digest == encoded.digest, || "raw and encoded kernels differ".to_string());
    let comp_root = batch::densest_vertex(&compressed);
    let slim = batch::analytics(&compressed, comp_root);
    for (k, name) in ["pr", "cc", "bfs"].iter().enumerate() {
        m.push(metric(format!("algos.{name}_ms.raw"), report::ms(raw.times[k]), "ms"));
        m.push(metric(format!("algos.{name}_ms.encoded"), report::ms(encoded.times[k]), "ms"));
        m.push(metric(format!("algos.{name}_ms.compressed"), report::ms(slim.times[k]), "ms"));
    }
    for (k, name) in ["pr", "cc", "bfs"].iter().enumerate() {
        let ratio = encoded.times[k].as_secs_f64() / raw.times[k].as_secs_f64().max(1e-9);
        m.push(metric(format!("algos.encoded_over_raw.{name}"), ratio, "x"));
    }
    let serve_g = sg_store::load_sgr(serve_graph).expect("load serve graph");
    let (tc, _) = timed("algos.tc", || sg_algos::tc::count_triangles(&serve_g));
    m.push(metric("algos.tc_ms.serve", tc, "ms"));

    // sg-metrics: against the uniform-sampled graph (same vertex set).
    let pr_sampled = sg_algos::pagerank::pagerank(&sampled, batch::pr_config()).scores;
    let (kl, _) = timed("metrics.kl", || sg_metrics::kl_divergence(&raw.pr, &pr_sampled));
    let (crit, _) = timed("metrics.critical_edges", || {
        sg_metrics::critical_edge_preservation(&g, &sampled, root)
    });
    m.extend([metric("metrics.kl_ms", kl, "ms"), metric("metrics.critical_edges_ms", crit, "ms")]);
    drop((g, enc, compressed, sampled));
    report.per_layer.extend(m);

    service_probes(env, serve_graph, &serve_g, workload, report);
    finish_trace(report);
}

/// sg-serve and federation probes against a fresh fleet: one standalone
/// daemon and a coordinator with two workers, all holding `serve_graph`.
/// The standalone daemon's stage cache holds two `PROBE_SPEC` results, so
/// the fresh-seed probes evict and the fixed-seed probes hit.
fn service_probes(
    env: &Env,
    serve_graph: &str,
    serve_g: &CsrGraph,
    workload: Option<&Snapshot>,
    report: &mut Report,
) {
    let registry = SchemeRegistry::with_defaults();
    let uniform =
        registry.create("uniform", &SchemeParams::from_pairs(&[("p", "0.5")])).expect("uniform");
    let (sample, _) = sg_core::run_stage(uniform.as_ref(), serve_g, PROBE_SEED, 0);
    let entry_bytes = sg_core::graph_approx_bytes(&sample.graph) + 256;
    drop(sample);
    let solo = Daemon::spawn(2, entry_bytes * 5 / 2, None);
    let fed = Federation::spawn(0);
    fleet::load(&solo, "g", serve_graph);
    fleet::load(&fed.coordinator, "g", serve_graph);
    let upload = env.path("probe-upload.sgr");
    sg_store::save_sgr(
        &sg_graph::generators::barabasi_albert(UPLOAD_N, UPLOAD_K, env.derive(30)),
        &upload,
    )
    .expect("write upload");

    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); SERVE_OPS.len()];
    let mut bytes = vec![0usize; SERVE_OPS.len()];
    let mut recorded: Option<Json> = None;
    {
        let mut client = solo.connect();
        // Untimed warm-up, so every timed `compress_hit` is a cache hit.
        report.attempted += 1;
        let warm = call(&mut client, compress_req("compress", "g", PROBE_SPEC, PROBE_SEED), "w");
        report.check(warm.is_ok_and(|r| r.ok()), || "probe warm-up compress failed".to_string());
        let mut send = |k: usize, req: Json, n: usize, report: &mut Report| {
            report.attempted += 1;
            match call(&mut client, req, &format!("probe-{k}-{n}")) {
                Ok(r) if r.ok() => {
                    lat[k].push(r.ms);
                    bytes[k] = r.bytes;
                    Some(r.json)
                }
                other => {
                    let why = other.map_or_else(|e| e, |r| r.json.render());
                    report.check(false, || format!("probe {}: {why}", SERVE_OPS[k]));
                    None
                }
            }
        };
        for n in 0..5 {
            send(0, Client::request_for("ping"), n, report);
            recorded = send(1, compress_req("compress", "g", PROBE_SPEC, PROBE_SEED), n, report)
                .or(recorded);
            send(
                2,
                compress_req("compress", "g", PROBE_SPEC, mix64(env.seed ^ n as u64)),
                n,
                report,
            );
            if n < 3 {
                send(3, compress_req("analyze", "g", PROBE_SPEC, PROBE_SEED), n, report);
            }
            send(6, Client::request_for("stats"), n, report);
        }
        for n in 0..5 {
            report.attempted += 2;
            let t = Instant::now();
            let up = {
                let _s = sg_obs::span!("bench.upload");
                client.upload("probe-up", &upload, Some("sgr"), UPLOAD_CHUNK)
            };
            match up {
                Ok(json) if json.get("ok") == Some(&Json::Bool(true)) => {
                    lat[4].push(report::ms(t.elapsed()));
                    bytes[4] = json.render().len();
                }
                other => report.check(false, || format!("probe upload: {other:?}")),
            }
            match call(
                &mut client,
                Client::request_for("evict").with("graph", Json::str("probe-up")),
                &format!("probe-5-{n}"),
            ) {
                Ok(r) if r.ok() => {
                    lat[5].push(r.ms);
                    bytes[5] = r.bytes;
                }
                _ => report.check(false, || "probe evict failed".to_string()),
            }
        }
    }
    let mut m = Vec::new();
    for (k, op) in SERVE_OPS.iter().enumerate() {
        m.push(metric(format!("serve.op_p50_ms.{op}"), report::median(&lat[k]), "ms"));
        m.push(metric(format!("serve.response_bytes.{op}"), bytes[k] as f64, "bytes"));
    }
    let (digest, _) = timed("serve.digest", || sg_serve::graph_digest(serve_g));
    let recorded = recorded.unwrap_or_else(|| Json::obj().with("ok", Json::Bool(false)));
    let line = recorded.render();
    let (render, _) = timed("serve.json_render", || recorded.render().len());
    let (parse, _) = timed("serve.json_parse", || Json::parse(&line).is_ok());
    m.extend([
        metric("serve.digest_ms", digest, "ms"),
        metric("serve.json_render_ms", render, "ms"),
        metric("serve.json_parse_ms", parse, "ms"),
    ]);

    // Federation: a shard_run straight to one worker, the in-process shard
    // computation, and the coordinator's own fed.* figures.
    let mut coord = fed.coordinator.connect();
    for n in 0..5u64 {
        report.attempted += 1;
        let ok = call(
            &mut coord,
            compress_req("compress", "g", PROBE_SPEC, mix64(env.seed ^ 0xfed ^ n)),
            &format!("probe-fed-{n}"),
        )
        .map(|r| r.ok())
        .unwrap_or(false);
        report.check(ok, || "probe federated compress failed".to_string());
    }
    drop(coord);
    let mut worker = fed.workers[0].connect();
    let shard_run = || {
        compress_req("shard_run", "g", PROBE_SPEC, PROBE_SEED)
            .with("shard", Json::u64(0))
            .with("shards", Json::u64(2))
    };
    let mut runs = Vec::new();
    let mut shard_bytes = 0;
    for n in 0..5 {
        report.attempted += 1;
        match call(&mut worker, shard_run(), &format!("probe-shard-{n}")) {
            Ok(r) if r.ok() => {
                runs.push(r.ms);
                shard_bytes = r.bytes;
            }
            _ => report.check(false, || "probe shard_run failed".to_string()),
        }
    }
    drop(worker);
    let (shard_compress, _) = timed("dist.shard_compress", || {
        sg_dist::shard_compress(serve_g, uniform.as_ref(), 0, 2, PROBE_SEED).expect("shard")
    });
    let coord_snap = fed.coordinator.snapshot();
    m.extend([
        metric("fed.shard_run_ms", report::median(&runs), "ms"),
        metric("fed.shard_run_bytes", shard_bytes as f64, "bytes"),
        metric("dist.shard_compress_ms", shard_compress, "ms"),
        metric("fed.shard_ms", coord_snap.hist_mean("fed.shard_ms"), "ms"),
    ]);
    report.per_layer.extend(m);
    let solo_snap = solo.snapshot();
    daemon_metrics(workload.unwrap_or(&solo_snap), report);
    solo.shutdown();
    fed.shutdown();
}

/// Stops tracing, reports self time per span instance, and checks that the
/// span rings did not wrap.
fn finish_trace(report: &mut Report) {
    sg_obs::trace::set_trace_enabled(false);
    let dropped = sg_obs::trace::dropped_events();
    report.check(dropped == 0, || format!("trace dropped {dropped} events"));
    let rows = spans::self_times(sg_obs::trace::collect());
    for name in SELF_SPANS {
        let row = rows.iter().find(|r| r.name == name);
        report.check(row.is_some(), || format!("the traced run recorded no {name} span"));
        let self_ms = row.map_or(0.0, |r| r.self_ms / r.count as f64);
        report.per_layer.push(metric(format!("self_ms.{name}"), self_ms, "ms"));
    }
    report.self_times = rows;
}
