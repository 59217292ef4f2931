//! The two serving workloads: `serve-mix` (one daemon, a fixed request
//! mix from two closed-loop clients) and `federated` (identical requests
//! to a standalone daemon and to a coordinator with two workers).

use crate::batch::{self, BatchInput};
use crate::fleet::{self, call, compress_req, Daemon, Federation};
use crate::report::{self, metric, Report};
use crate::{probes, Env};
use sg_core::{GraphCatalog, PipelineSpec, SchemeRegistry, SgSession};
use sg_graph::generators;
use sg_graph::prng::mix64;
use sg_serve::{Client, Json};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop clients per serving workload.
const CLIENTS: usize = 2;
/// Timed requests per untraced run, so at least 10 samples lie beyond p99.
const MIN_REQUESTS: usize = 1000;
/// Requests in the traced run's serving windows, half of them traced; a
/// fixed count, so per-span figures follow the cost of each request. Keeps
/// every thread's span ring (16384 events) from wrapping.
const TRACED_REQUESTS: usize = 1200;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Time spent repeating the batch job, and the sharding-overhead pair, on
/// the small serving inputs (each takes milliseconds, so many repetitions
/// are needed for a steady median).
const SMALL_JOB_BUDGET: Duration = Duration::from_millis(3000);
const SMALL_SHARD_BUDGET: Duration = Duration::from_millis(1000);
/// Rounds the measured part of a serving run is split into.
const ROUNDS: u64 = 5;

/// Stops the closed loop once the run is long enough and has enough
/// samples, or has hit its request cap.
struct Stopper {
    started: Instant,
    seconds: f64,
    min: usize,
    max: usize,
    done: AtomicUsize,
}

impl Stopper {
    fn new(seconds: f64, min: usize, max: usize) -> Stopper {
        Stopper { started: Instant::now(), seconds, min, max, done: AtomicUsize::new(0) }
    }

    fn keep_going(&self) -> bool {
        let done = self.done.load(Ordering::Relaxed);
        done < self.max && (done < self.min || self.started.elapsed().as_secs_f64() < self.seconds)
    }

    fn add(&self, n: usize) {
        self.done.fetch_add(n, Ordering::Relaxed);
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientOut {
    samples: Vec<(&'static str, f64)>,
    attempted: u64,
    failures: Vec<String>,
    /// (graph, spec, seed) → checksums returned for it.
    sums: Vec<((String, String, u64), String)>,
}

impl ClientOut {
    /// Records one reply; a transport error or a non-ok reply is a failed
    /// operation. Returns the reply when it succeeded.
    fn record(
        &mut self,
        op: &'static str,
        reply: Result<fleet::Reply, String>,
    ) -> Option<fleet::Reply> {
        self.attempted += 1;
        match reply {
            Ok(r) if r.ok() => {
                self.samples.push((op, r.ms));
                Some(r)
            }
            Ok(r) => {
                self.failures.push(format!("{op}: {}", r.json.render()));
                None
            }
            Err(e) => {
                self.failures.push(format!("{op}: {e}"));
                None
            }
        }
    }

    fn checksum(&mut self, key: (&str, &str, u64), reply: &fleet::Reply) {
        let sum = reply.str("checksum").unwrap_or("").to_string();
        self.sums.push(((key.0.to_string(), key.1.to_string(), key.2), sum));
    }
}

/// Merged client results of one window.
struct Window {
    outs: Vec<ClientOut>,
    seconds: f64,
}

impl Window {
    fn latencies(&self, ops: &[&str]) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .outs
            .iter()
            .flat_map(|o| o.samples.iter())
            .filter(|(op, _)| ops.is_empty() || ops.contains(op))
            .map(|&(_, ms)| ms)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    fn requests(&self) -> usize {
        self.outs.iter().map(|o| o.samples.len()).sum()
    }

    /// Folds attempts and failures into the report, and checks that every
    /// (graph, spec, seed) got one checksum everywhere. Returns the agreed
    /// checksums.
    fn settle(&self, report: &mut Report) -> BTreeMap<(String, String, u64), String> {
        let mut agreed: BTreeMap<(String, String, u64), String> = BTreeMap::new();
        for out in &self.outs {
            report.attempted += out.attempted;
            for f in &out.failures {
                report.check(false, || format!("request failed: {f}"));
            }
            for (key, sum) in &out.sums {
                let seen = agreed.entry(key.clone()).or_insert_with(|| sum.clone());
                let same = seen == sum;
                report.check(same, || format!("checksum for {key:?} changed: {seen} vs {sum}"));
            }
        }
        agreed
    }

    fn op_p50(&self, op: &str) -> f64 {
        report::median(&self.latencies(&[op]))
    }

    /// Per-op count, p50 and p99 lines for the human report.
    fn breakdown(&self) -> Vec<String> {
        let mut ops: Vec<&str> =
            self.outs.iter().flat_map(|o| o.samples.iter().map(|s| s.0)).collect();
        ops.sort_unstable();
        ops.dedup();
        let mut lines =
            vec![format!("{:<18} {:>7} {:>10} {:>10}", "op", "count", "p50_ms", "p99_ms")];
        for op in ops {
            let v = self.latencies(&[op]);
            lines.push(format!(
                "{op:<18} {:>7} {:>10.3} {:>10.3}",
                v.len(),
                report::percentile(&v, 50.0),
                report::percentile(&v, 99.0)
            ));
        }
        lines
    }
}

fn shuffle<T>(items: &mut [T], mut state: u64) {
    for i in (1..items.len()).rev() {
        state = mix64(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

/// Checks agreed daemon checksums against in-process `SgSession` runs over
/// the same files.
fn verify_in_process(
    agreed: &BTreeMap<(String, String, u64), String>,
    graphs: &[(&str, &str)],
    report: &mut Report,
) {
    let catalog = Arc::new(GraphCatalog::new());
    for (name, path) in graphs {
        let g = sg_store::load_sgr(path).expect("reload input");
        catalog.insert(name, g, path).expect("fresh catalog");
    }
    let session = SgSession::new(catalog, Arc::new(SchemeRegistry::with_defaults()));
    for ((graph, spec, seed), sum) in agreed {
        let spec_parsed = PipelineSpec::parse(spec).expect("spec");
        let run = session.run_named(graph, &spec_parsed, *seed).expect("in-process run");
        let local = format!("{:016x}", sg_serve::graph_digest(&run.graph));
        report.check(&local == sum, || {
            format!("daemon checksum {sum} != in-process {local} for {graph}/{spec}/{seed}")
        });
    }
}

// ---------------------------------------------------------------- serve-mix

const SERVE_N: usize = 20_000;
const SERVE_K: usize = 8;
/// The uploaded graph is small: the upload op is a write next to the
/// reads, not a bulk transfer.
pub const UPLOAD_N: usize = 500;
pub const UPLOAD_K: usize = 2;
pub const UPLOAD_CHUNK: usize = 16 << 10;
/// Stage-cache budget: holds the hit chains plus a handful of misses, so
/// the misses evict.
const SERVE_CACHE_BYTES: usize = 24 << 20;
/// Three chains sharing a prefix, served at one fixed seed: the cache hits.
const HIT_SPECS: [&str; 3] =
    ["lowdeg,uniform:p=0.5", "lowdeg,uniform:p=0.3", "lowdeg,spectral:p=0.5"];
/// The fixed seed of the hit chains (the one `loadgen` uses).
const FIXED_SEED: u64 = 11;
const MISS_SPEC: &str = "uniform:p=0.5";

/// One slot of the per-client request cycle.
#[derive(Clone, Copy)]
enum Slot {
    Hit(usize),
    Miss,
    Analyze,
    Ping,
    Stats,
    /// upload → compress on it → evict it
    Write,
}

/// The fixed mix, 8 slots and 10 requests per cycle, in seeded order. No
/// request log exists to take shares from, so the read side copies
/// `loadgen`'s `MIX` (ping, three prefix-sharing compress chains at a fixed
/// seed, stats) and each request type that `loadgen` lacks (fresh-seed
/// miss, `analyze`, the upload → compress → evict write) gets one slot, the
/// weight of one `loadgen` slot. See the README for which metric each
/// share drives.
fn cycle(seed: u64) -> Vec<Slot> {
    let mut slots = vec![Slot::Ping, Slot::Hit(0), Slot::Hit(1), Slot::Hit(2), Slot::Stats];
    slots.extend([Slot::Miss, Slot::Analyze, Slot::Write]);
    shuffle(&mut slots, seed);
    slots
}

struct ServeSetup {
    daemon: Daemon,
    input: BatchInput,
    upload_path: String,
}

fn serve_setup(env: &Env) -> ServeSetup {
    let g = generators::barabasi_albert(SERVE_N, SERVE_K, env.derive(10));
    let input = BatchInput::write(env, "serve", &g, env.derive(11));
    let upload_path = env.path("upload.sgr");
    sg_store::save_sgr(
        &generators::barabasi_albert(UPLOAD_N, UPLOAD_K, env.derive(12)),
        &upload_path,
    )
    .expect("write upload input");
    let daemon = Daemon::spawn(2, SERVE_CACHE_BYTES, None);
    fleet::load(&daemon, "g", &input.raw_path);
    // Warm up: cache the hit chains, exercise every op once, then issue
    // misses until the stage cache is full and evicting.
    let mut client = daemon.connect();
    let mut warm = ClientOut::default();
    for spec in HIT_SPECS {
        warm.record(
            "warm",
            call(&mut client, compress_req("compress", "g", spec, FIXED_SEED), "warm"),
        );
    }
    run_slot(&mut client, &mut warm, Slot::Write, 0, 0, &upload_path, env.seed);
    run_slot(&mut client, &mut warm, Slot::Analyze, 0, 0, &upload_path, env.seed);
    for i in 0..400u64 {
        warm.record(
            "warm",
            call(
                &mut client,
                compress_req("compress", "g", MISS_SPEC, mix64(env.seed ^ 0xfeed ^ i)),
                "warm",
            ),
        );
        let stats = client.request(&Client::request_for("stats")).expect("stats");
        if stats.get("cache").and_then(|c| c.get("evictions")).and_then(Json::as_u64).unwrap_or(0)
            > 0
        {
            break;
        }
    }
    for spec in HIT_SPECS {
        warm.record(
            "warm",
            call(&mut client, compress_req("compress", "g", spec, FIXED_SEED), "warm"),
        );
    }
    assert!(warm.failures.is_empty(), "serve-mix warm-up failed: {:?}", warm.failures);
    ServeSetup { daemon, input, upload_path }
}

/// Issues one slot's request(s). Returns the number of timed requests.
fn run_slot(
    client: &mut Client,
    out: &mut ClientOut,
    slot: Slot,
    c: usize,
    n: u64,
    upload: &str,
    seed: u64,
) -> usize {
    let id = format!("c{c}-{n}");
    match slot {
        Slot::Hit(i) => {
            let spec = HIT_SPECS[i];
            if let Some(r) = out.record(
                "compress_hit",
                call(client, compress_req("compress", "g", spec, FIXED_SEED), &id),
            ) {
                out.checksum(("g", spec, FIXED_SEED), &r);
            }
            1
        }
        Slot::Miss => {
            let s = mix64(seed ^ ((c as u64) << 48) ^ n);
            if let Some(r) = out.record(
                "compress_miss",
                call(client, compress_req("compress", "g", MISS_SPEC, s), &id),
            ) {
                out.checksum(("g", MISS_SPEC, s), &r);
            }
            1
        }
        Slot::Analyze => {
            if let Some(r) = out.record(
                "analyze",
                call(client, compress_req("analyze", "g", MISS_SPEC, FIXED_SEED), &id),
            ) {
                out.checksum(("g", MISS_SPEC, FIXED_SEED), &r);
            }
            1
        }
        Slot::Ping => {
            out.record("ping", call(client, Client::request_for("ping"), &id));
            1
        }
        Slot::Stats => {
            out.record("stats", call(client, Client::request_for("stats"), &id));
            1
        }
        Slot::Write => {
            let name = format!("up-c{c}");
            let reply = {
                let _s = sg_obs::span!("bench.upload");
                let t = Instant::now();
                client.upload(&name, upload, Some("sgr"), UPLOAD_CHUNK).map(|json| fleet::Reply {
                    ms: t.elapsed().as_secs_f64() * 1e3,
                    bytes: json.render().len(),
                    json,
                })
            };
            if out.record("upload", reply).is_some() {
                if let Some(r) = out.record(
                    "compress_write",
                    call(
                        client,
                        compress_req("compress", &name, MISS_SPEC, FIXED_SEED),
                        &format!("{id}w"),
                    ),
                ) {
                    out.checksum(("upload", MISS_SPEC, FIXED_SEED), &r);
                }
                out.record(
                    "evict",
                    call(
                        client,
                        Client::request_for("evict").with("graph", Json::str(&name)),
                        &format!("{id}e"),
                    ),
                );
            }
            3
        }
    }
}

/// One closed-loop window. `round` keeps request ids and fresh seeds
/// distinct across the windows of one run.
fn serve_window(
    env: &Env,
    setup: &ServeSetup,
    round: u64,
    seconds: f64,
    min: usize,
    max: usize,
) -> Window {
    let stop = Stopper::new(seconds, min, max);
    let outs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut client = setup.daemon.connect();
                    let mut out = ClientOut::default();
                    let mut n = round << 32;
                    'run: for cycles in 0u64.. {
                        let order = mix64(env.seed ^ ((c as u64) << 32) ^ (round << 48) ^ cycles);
                        for slot in cycle(order) {
                            if !stop.keep_going() {
                                break 'run;
                            }
                            stop.add(run_slot(
                                &mut client,
                                &mut out,
                                slot,
                                c,
                                n,
                                &setup.upload_path,
                                env.seed,
                            ));
                            n += 1;
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect::<Vec<_>>()
    });
    Window { outs, seconds: stop.started.elapsed().as_secs_f64() }
}

pub fn run_serve_mix(env: &Env, trace: bool) -> Report {
    let mut report = Report::default();
    let mut setup_times = Vec::new();
    let mut setup: Option<ServeSetup> = None;
    for _ in 0..if trace { 1 } else { SETUPS } {
        if let Some(old) = setup.take() {
            old.daemon.shutdown();
        }
        let t = Instant::now();
        setup = Some(serve_setup(env));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up");
    report.inputs = setup.input.inputs("serve");
    report::reset_peak_rss();

    let seconds = if trace { env.seconds / 2.0 } else { env.seconds };
    let (jobs, overhead, window) = measure_rounds(
        &setup.input,
        seconds,
        if trace { 0 } else { MIN_REQUESTS },
        &mut report,
        |round, secs, min| serve_window(env, &setup, round, secs, min, usize::MAX),
    );
    let agreed = window.settle(&mut report);
    report.notes.extend(window.breakdown());
    verify_in_process(
        &agreed,
        &[("g", &setup.input.raw_path), ("upload", &setup.upload_path)],
        &mut report,
    );

    let all = window.latencies(&[]);
    let mut e2e = vec![metric("setup_s", report::median(&setup_times), "s")];
    e2e.extend(batch::job_metrics(&setup.input, &jobs, &mut report));
    e2e.extend([
        metric("throughput_rps", window.requests() as f64 / window.seconds, "1/s"),
        metric("p50_ms", report::percentile(&all, 50.0), "ms"),
        metric("p99_ms", report::percentile(&all, 99.0), "ms"),
        metric(
            "compress_p50_ms",
            report::median(&window.latencies(&["compress_hit", "compress_miss", "compress_write"])),
            "ms",
        ),
        metric("analyze_p50_ms", window.op_p50("analyze"), "ms"),
        metric("fed_overhead_x", overhead, "x"),
        metric("peak_rss_mb", report::peak_rss_mb(), "MB"),
    ]);
    report.end_to_end = e2e;

    if trace {
        probes::traced_pass(&mut report, |report| {
            batch::repeat_jobs(&setup.input, 1, Duration::ZERO, report);
            overhead_windows(report, TRACED_REQUESTS, &[], |round, n| {
                serve_window(env, &setup, round, 0.0, n, n)
            })
        });
        let snap = setup.daemon.snapshot();
        probes::layer_probes(
            env,
            &setup.input,
            &jobs[0].edges_kept,
            &setup.input.raw_path,
            Some(&snap),
            &mut report,
        );
    }
    setup.daemon.shutdown();
    report
}

/// The traced run's serving windows: `total` requests (pairs for
/// `federated`), half untraced and half traced, in interleaved windows of a
/// fixed size, so host drift and the window's length affect both sides
/// alike. Returns the traced and the untraced p50 of `ops`.
fn overhead_windows(
    report: &mut Report,
    total: usize,
    ops: &[&str],
    mut window: impl FnMut(u64, usize) -> Window,
) -> (f64, f64) {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for k in 0..2 {
        for traced in [false, true] {
            sg_obs::trace::set_trace_enabled(traced);
            let w = window(ROUNDS + 2 * k + u64::from(traced), total / 4);
            w.settle(report);
            if traced { &mut on } else { &mut off }.extend(w.latencies(ops));
        }
    }
    on.sort_by(f64::total_cmp);
    off.sort_by(f64::total_cmp);
    (report::percentile(&on, 50.0), report::percentile(&off, 50.0))
}

/// The measured part of a serving run, in `ROUNDS` rounds. Each round
/// runs a slice of the batch job and of the in-process sharding pair on
/// the small input, then a slice of the serving window, so every figure
/// samples the whole run rather than one burst of it. Returns the jobs,
/// the median sharding overhead and the merged window.
fn measure_rounds(
    input: &BatchInput,
    seconds: f64,
    min: usize,
    report: &mut Report,
    mut window: impl FnMut(u64, f64, usize) -> Window,
) -> (Vec<batch::JobRun>, f64, Window) {
    let g = sg_store::load_sgr(&input.raw_path).expect("reload input");
    let (mut jobs, mut overheads, mut parts) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        jobs.extend(batch::repeat_jobs(input, 1, SMALL_JOB_BUDGET / ROUNDS as u32, report));
        let budget = SMALL_SHARD_BUDGET / ROUNDS as u32;
        overheads.push(batch::shard_overhead(&g, input.seed, 1, budget, report));
        parts.push(window(round, seconds / ROUNDS as f64, min.div_ceil(ROUNDS as usize)));
    }
    let merged = Window {
        seconds: parts.iter().map(|w| w.seconds).sum(),
        outs: parts.into_iter().flat_map(|w| w.outs).collect(),
    };
    (jobs, report::median(&overheads), merged)
}

// ---------------------------------------------------------------- federated

const FED_N: usize = 8_000;
const FED_K: usize = 8;
const FED_PLANTED: usize = 3_000;
/// The three specs `fed_scale` runs, in equal shares (it runs each once).
const FED_SPECS: [&str; 3] = ["uniform:p=0.5", "tr:p=0.6", "lowdeg"];
/// Every twentieth pair is an `analyze`. This share is an assumption: the
/// federated traffic has no `analyze`, but every workload reports
/// `analyze_p50_ms`, and 1 in 20 gives about 50 samples per run while
/// keeping 95 % of the requests federated `compress`.
const ANALYZE_EVERY: u64 = 20;

struct FedSetup {
    standalone: Daemon,
    fed: Federation,
    input: BatchInput,
}

fn fed_setup(env: &Env) -> FedSetup {
    let base = generators::barabasi_albert(FED_N, FED_K, env.derive(20));
    let g = generators::planted_triangles(&base, FED_PLANTED, env.derive(21));
    let input = BatchInput::write(env, "fed", &g, env.derive(22));
    // No stage cache: every request is fresh-seeded, so caching would only
    // add insert cost.
    let standalone = Daemon::spawn(2, 0, None);
    let fed = Federation::spawn(0);
    fleet::load(&standalone, "g", &input.raw_path);
    fleet::load(&fed.coordinator, "g", &input.raw_path);
    // Warm-up moves the lazy worker-side replica loads out of the window.
    let mut out = ClientOut::default();
    for (i, spec) in FED_SPECS.iter().enumerate() {
        for daemon in [&standalone, &fed.coordinator] {
            let mut client = daemon.connect();
            out.record(
                "warm",
                call(&mut client, compress_req("compress", "g", spec, i as u64), "warm"),
            );
        }
    }
    assert!(out.failures.is_empty(), "federated warm-up failed: {:?}", out.failures);
    FedSetup { standalone, fed, input }
}

/// One window of request pairs; `round` as in [`serve_window`].
fn fed_window(
    env: &Env,
    setup: &FedSetup,
    round: u64,
    seconds: f64,
    min: usize,
    max: usize,
) -> Window {
    let stop = Stopper::new(seconds, min, max);
    let outs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut solo = setup.standalone.connect();
                    let mut coord = setup.fed.coordinator.connect();
                    let mut out = ClientOut::default();
                    for i in 0u64.. {
                        if !stop.keep_going() {
                            break;
                        }
                        let n = (round << 32) + i;
                        let seed = mix64(env.seed ^ ((c as u64) << 48) ^ n);
                        let analyze = i % ANALYZE_EVERY == ANALYZE_EVERY - 1;
                        let (op, spec) = if analyze {
                            ("analyze", FED_SPECS[0])
                        } else {
                            ("compress", FED_SPECS[(i % 3) as usize])
                        };
                        let (solo_op, fed_op) = if analyze {
                            ("solo_analyze", "fed_analyze")
                        } else {
                            ("solo_compress", "fed_compress")
                        };
                        let id = format!("c{c}-{n}");
                        let mut replies = [None, None];
                        // Alternate which daemon goes first.
                        for k in 0..2 {
                            let to_fed = (k + n as usize) % 2 == 1;
                            let (client, label) =
                                if to_fed { (&mut coord, fed_op) } else { (&mut solo, solo_op) };
                            let tag = if to_fed { "f" } else { "s" };
                            let reply = out.record(
                                label,
                                call(
                                    client,
                                    compress_req(op, "g", spec, seed),
                                    &format!("{id}{tag}"),
                                ),
                            );
                            replies[usize::from(to_fed)] = reply;
                        }
                        if let [Some(s), Some(f)] = &replies {
                            out.checksum(("g", spec, seed), s);
                            out.checksum(("g", spec, seed), f);
                            let mode = f
                                .json
                                .get("federation")
                                .and_then(|b| b.get("mode"))
                                .and_then(Json::as_str);
                            if mode != Some("federated") {
                                out.failures.push(format!(
                                    "{spec}: coordinator ran mode {mode:?}, not federated"
                                ));
                            }
                        }
                        stop.add(1);
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect::<Vec<_>>()
    });
    Window { outs, seconds: stop.started.elapsed().as_secs_f64() }
}

pub fn run_federated(env: &Env, trace: bool) -> Report {
    let mut report = Report::default();
    let mut setup_times = Vec::new();
    let mut setup: Option<FedSetup> = None;
    for _ in 0..if trace { 1 } else { SETUPS } {
        if let Some(old) = setup.take() {
            old.standalone.shutdown();
            old.fed.shutdown();
        }
        let t = Instant::now();
        setup = Some(fed_setup(env));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up");
    report.inputs = setup.input.inputs("fed");
    report::reset_peak_rss();

    let seconds = if trace { env.seconds / 2.0 } else { env.seconds };
    let (jobs, _, window) = measure_rounds(
        &setup.input,
        seconds,
        if trace { 0 } else { MIN_REQUESTS },
        &mut report,
        |round, secs, min| fed_window(env, &setup, round, secs, min, usize::MAX),
    );
    window.settle(&mut report);
    report.notes.extend(window.breakdown());

    let fed = window.latencies(&["fed_compress", "fed_analyze"]);
    let overhead = window.op_p50("fed_compress") / window.op_p50("solo_compress").max(1e-9);
    let mut e2e = vec![metric("setup_s", report::median(&setup_times), "s")];
    e2e.extend(batch::job_metrics(&setup.input, &jobs, &mut report));
    e2e.extend([
        metric("throughput_rps", window.requests() as f64 / window.seconds, "1/s"),
        metric("p50_ms", report::percentile(&fed, 50.0), "ms"),
        metric("p99_ms", report::percentile(&fed, 99.0), "ms"),
        metric("compress_p50_ms", window.op_p50("fed_compress"), "ms"),
        metric("analyze_p50_ms", window.op_p50("fed_analyze"), "ms"),
        metric("fed_overhead_x", overhead, "x"),
        metric("peak_rss_mb", report::peak_rss_mb(), "MB"),
    ]);
    report.end_to_end = e2e;

    if trace {
        probes::traced_pass(&mut report, |report| {
            batch::repeat_jobs(&setup.input, 1, Duration::ZERO, report);
            overhead_windows(
                report,
                TRACED_REQUESTS / 2,
                &["fed_compress", "fed_analyze"],
                |round, n| fed_window(env, &setup, round, 0.0, n, n),
            )
        });
        // The coordinator's stage cache is off, so the daemon figures come
        // from the probe fleet's standalone daemon.
        probes::layer_probes(
            env,
            &setup.input,
            &jobs[0].edges_kept,
            &setup.input.raw_path,
            None,
            &mut report,
        );
    }
    setup.standalone.shutdown();
    setup.fed.shutdown();
    report
}
