//! The serve loop: a fixed acceptor, a bounded worker pool, and one
//! shared [`SgSession`] answering protocol requests.
//!
//! PR 5's daemon spawned one thread per connection; under a connection
//! storm that meant unbounded threads. This layer is now front-line
//! shaped: the acceptor hands connections to `workers` session threads
//! through a bounded [`ConnQueue`]; when the queue is full new clients
//! get a stable `busy` error (with `retry_after_ms`) on a half-closed
//! socket instead of a thread. Per-connection *frame* deadlines (time
//! from a request's first byte to its newline) kill slow-loris writers,
//! a max-frame-size cap kills oversized requests, and write timeouts
//! kill clients that stop draining responses — while a connection that
//! is merely *idle* between requests is never disconnected.
//!
//! All workers share the session (catalog + registry + stage cache), so
//! a graph loaded by one client serves every client, and chain prefixes
//! cached by one request accelerate the next — with bit-identical
//! results, because pipelines are pure functions of `(graph, spec,
//! seed)`. On top sit three protections for non-loopback deployments:
//! token auth (constant-time compare, refused-at-bind without a token),
//! per-peer byte quotas on catalog and cache footprint, and chunked
//! digest-verified graph upload with disconnect reaping.

use crate::fed::{self, FedConfig};
use crate::json::Json;
use crate::net::{Listener, Stream, UNIX_PREFIX};
use crate::pool::ConnQueue;
use crate::proto::{
    error_response, ok_response, parse_request, Envelope, ErrorCode, ProtoError, Request,
    UploadPhase, PROTOCOL_VERSION,
};
use crate::slowlog::{SlowLog, SlowRecord, DEFAULT_SLOWLOG_CAPACITY, DEFAULT_SLOW_MS};
use crate::upload::UploadRegistry;
use crate::{b64, quota::QuotaBook};
use sg_algos::{cc, pagerank, tc};
use sg_core::{
    GraphCatalog, PipelineSpec, SchemeParams, SchemeRegistry, SessionRun, SgSession, StageCache,
    StageOutcome, StageReport,
};
use sg_graph::CsrGraph;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Socket-level read timeout: the granularity at which a blocked worker
/// re-checks the shutdown flag and the frame deadline. Distinct from —
/// and much smaller than — the configurable frame deadline
/// (`ServeConfig::read_timeout_ms`).
const DRAIN_POLL: Duration = Duration::from_millis(50);

/// How long a response write may block before the client is declared
/// dead (it stopped draining its receive buffer).
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Configuration of one daemon instance.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address: `host:port` (`127.0.0.1:0` = ephemeral port) or
    /// `unix:/path/to.sock`.
    pub listen: String,
    /// Byte budget of the shared stage cache.
    pub cache_bytes: usize,
    /// Emit one JSON event line per request to stdout (the transcript CI
    /// archives).
    pub transcript: bool,
    /// Session worker threads; also the max concurrently served
    /// connections.
    pub workers: usize,
    /// Accepted-but-unserved connections admitted beyond the workers;
    /// when full, new connections are rejected with `busy`.
    pub queue_depth: usize,
    /// Frame deadline: max milliseconds from a request's first byte to
    /// its terminating newline (slow-loris cutoff). Idle connections
    /// (no partial frame buffered) are exempt.
    pub read_timeout_ms: u64,
    /// Max bytes of one request line; longer frames are rejected with
    /// `frame-too-large` and the connection is dropped.
    pub max_frame_bytes: usize,
    /// Shared secret required on every non-`ping` request when set.
    /// Mandatory for non-loopback TCP binds.
    pub token: Option<String>,
    /// Per-peer catalog byte budget (0 = unlimited).
    pub catalog_quota_bytes: u64,
    /// Per-peer cache byte budget (0 = unlimited).
    pub cache_quota_bytes: u64,
    /// How long a disconnected client's partial upload survives for
    /// resumption (0 = reaped with the connection).
    pub upload_grace_ms: u64,
    /// Backoff hint carried by `busy` rejections.
    pub retry_after_ms: u64,
    /// Service-time threshold (ms) above which a request lands in the
    /// slow-request log; `0` logs every request.
    pub slow_ms: u64,
    /// Slow-request records retained (newest kept when full).
    pub slowlog_capacity: usize,
    /// When set, this daemon is a federation *coordinator*: federable
    /// single-stage `compress`/`analyze` requests fan out to the
    /// configured worker daemons as `shard_run` sub-requests (see
    /// [`crate::fed`]). `None` — the default — makes a plain
    /// standalone/worker daemon.
    pub federation: Option<FedConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".to_string(),
            cache_bytes: sg_core::cache::DEFAULT_CACHE_BYTES,
            transcript: true,
            workers: 4,
            queue_depth: 8,
            read_timeout_ms: 10_000,
            max_frame_bytes: 4 << 20,
            token: None,
            catalog_quota_bytes: 0,
            cache_quota_bytes: 0,
            upload_grace_ms: 60_000,
            retry_after_ms: 200,
            slow_ms: DEFAULT_SLOW_MS,
            slowlog_capacity: DEFAULT_SLOWLOG_CAPACITY,
            federation: None,
        }
    }
}

/// Content digest of a graph: FNV-1a over the vertex count, the canonical
/// edge list, and (when weighted) the raw weight bits. Two graphs digest
/// equally iff their serialized structure is byte-identical, so clients
/// can verify "the daemon computed exactly what a local run would" without
/// shipping the graph back.
pub fn graph_digest(g: &CsrGraph) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(g.num_vertices() as u64);
    for &(u, v) in g.edge_slice() {
        eat((u64::from(u)) << 32 | u64::from(v));
    }
    if let Some(weights) = g.weight_slice() {
        for &w in weights {
            eat(u64::from(w.to_bits()));
        }
    }
    h
}

/// Compares secrets without an early exit, so response timing does not
/// leak how long a matching prefix was.
fn token_eq(expected: &str, presented: &str) -> bool {
    let (a, b) = (expected.as_bytes(), presented.as_bytes());
    let mut diff = a.len() ^ b.len();
    for i in 0..a.len().max(b.len()) {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= usize::from(x ^ y);
    }
    diff == 0
}

/// Whether `listen` requires token auth: any TCP bind that is not
/// provably loopback (unix sockets are same-host by construction).
fn non_loopback(listen: &str) -> bool {
    if listen.starts_with(UNIX_PREFIX) {
        return false;
    }
    let host = listen.rsplit_once(':').map_or(listen, |(h, _)| h);
    let host = host.trim_start_matches('[').trim_end_matches(']');
    if host == "localhost" {
        return false;
    }
    match host.parse::<std::net::IpAddr>() {
        Ok(ip) => !ip.is_loopback(),
        Err(_) => true, // unresolvable hostname: assume reachable, require auth
    }
}

/// Per-daemon observability: a dedicated [`sg_obs::Registry`] (so
/// concurrent daemons in one process — the integration tests spawn
/// several — don't blend request metrics) plus pre-resolved handles for
/// every hot-path counter. Replaces the hand-rolled `PoolCounters` of
/// PR 6; the `stats` response reads the same numbers from here, and the
/// v2 `metrics` op exposes the whole registry (merged with the
/// process-global one carrying session/cache/pool-shim metrics).
struct ServeMetrics {
    registry: sg_obs::Registry,
    requests: Arc<sg_obs::Counter>,
    errors: Arc<sg_obs::Counter>,
    admitted: Arc<sg_obs::Counter>,
    busy_rejected: Arc<sg_obs::Counter>,
    timeouts: Arc<sg_obs::Counter>,
    frames_rejected: Arc<sg_obs::Counter>,
    auth_failures: Arc<sg_obs::Counter>,
    /// Requests whose service time met the slowlog threshold.
    slow_requests: Arc<sg_obs::Counter>,
    active: Arc<sg_obs::Gauge>,
    peak_active: Arc<sg_obs::Gauge>,
    /// Admission-to-worker-pickup wait per connection.
    queue_wait: Arc<sg_obs::Histogram>,
    /// Request parse+dispatch+render time, all ops pooled (per-op
    /// variants are registered on demand as `serve.service_ms.<op>`).
    service: Arc<sg_obs::Histogram>,
}

impl ServeMetrics {
    fn new() -> ServeMetrics {
        let registry = sg_obs::Registry::new();
        ServeMetrics {
            requests: registry.counter("serve.requests"),
            errors: registry.counter("serve.errors"),
            admitted: registry.counter("serve.admitted"),
            busy_rejected: registry.counter("serve.busy_rejected"),
            timeouts: registry.counter("serve.timeouts"),
            frames_rejected: registry.counter("serve.frames_rejected"),
            auth_failures: registry.counter("serve.auth_failures"),
            slow_requests: registry.counter("serve.slow_requests"),
            active: registry.gauge("serve.active"),
            peak_active: registry.gauge("serve.peak_active"),
            queue_wait: registry.histogram("serve.queue_wait_ms"),
            service: registry.histogram("serve.service_ms"),
            registry,
        }
    }

    /// Records one served request in the pooled and per-op service-time
    /// histograms.
    fn observe_service(&self, op: &str, elapsed: Duration) {
        self.service.observe(elapsed);
        self.registry.histogram(&format!("serve.service_ms.{op}")).observe(elapsed);
    }
}

/// Shared daemon state.
struct ServeState {
    session: SgSession,
    uploads: UploadRegistry,
    quotas: QuotaBook,
    started: Instant,
    next_conn: AtomicU64,
    /// Source of server-generated trace ids (requests whose envelope
    /// carried no client `"id"`).
    next_trace: AtomicU64,
    metrics: ServeMetrics,
    slowlog: SlowLog,
    shutdown: AtomicBool,
    addr: String,
    transcript: bool,
    token: Option<String>,
    read_timeout: Duration,
    max_frame_bytes: usize,
    retry_after_ms: u64,
    workers: usize,
    fed: Option<FedConfig>,
}

impl ServeState {
    /// Wakes the accept loop after the shutdown flag flips (a blocked
    /// `accept` only returns on a connection).
    fn wake_acceptor(&self) {
        let _ = Stream::connect(&self.addr);
    }

    fn log_event(&self, op: &str, ok: bool, elapsed: Duration, detail: &str) {
        if !self.transcript {
            return;
        }
        let mut event = Json::obj()
            .with("event", Json::str("request"))
            .with("op", Json::str(op))
            .with("ok", Json::Bool(ok))
            .with("ms", Json::f64(elapsed.as_secs_f64() * 1e3));
        if !detail.is_empty() {
            event = event.with("detail", Json::str(detail));
        }
        println!("{}", event.render());
    }
}

/// Identity of one connection: the quota peer plus the upload-ownership
/// conn id.
struct ConnCtx {
    conn_id: u64,
    peer: String,
}

/// A bound (but not yet running) daemon. Binding and running are split so
/// callers can learn the resolved ephemeral address before blocking.
pub struct Server {
    listener: Listener,
    queue: ConnQueue,
    state: Arc<ServeState>,
}

impl Server {
    /// Binds the configured address and prepares the shared session.
    /// Non-loopback TCP binds are refused unless a token is configured.
    pub fn bind(cfg: &ServeConfig) -> std::io::Result<Server> {
        if non_loopback(&cfg.listen) && cfg.token.is_none() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("refusing non-loopback bind {} without a token (set --token)", cfg.listen),
            ));
        }
        if cfg.federation.as_ref().is_some_and(|f| f.workers.is_empty()) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "coordinator mode needs at least one worker address (set --worker-addr)",
            ));
        }
        let listener = Listener::bind(&cfg.listen)?;
        let addr = listener.local_addr()?;
        let session = SgSession::with_cache(
            Arc::new(GraphCatalog::new()),
            Arc::new(SchemeRegistry::with_defaults()),
            Arc::new(StageCache::with_capacity(cfg.cache_bytes)),
        );
        let uploads = UploadRegistry::new(Duration::from_millis(cfg.upload_grace_ms))?;
        Ok(Server {
            listener,
            queue: ConnQueue::new(cfg.queue_depth),
            state: Arc::new(ServeState {
                session,
                uploads,
                quotas: QuotaBook::new(cfg.catalog_quota_bytes, cfg.cache_quota_bytes),
                started: Instant::now(),
                next_conn: AtomicU64::new(1),
                next_trace: AtomicU64::new(1),
                metrics: ServeMetrics::new(),
                slowlog: SlowLog::new(cfg.slow_ms, cfg.slowlog_capacity),
                shutdown: AtomicBool::new(false),
                addr,
                transcript: cfg.transcript,
                token: cfg.token.clone(),
                read_timeout: Duration::from_millis(cfg.read_timeout_ms.max(1)),
                max_frame_bytes: cfg.max_frame_bytes.max(1024),
                retry_after_ms: cfg.retry_after_ms,
                workers: cfg.workers.max(1),
                fed: cfg.federation.clone(),
            }),
        })
    }

    /// The connectable address (the resolved port for `…:0` binds).
    pub fn local_addr(&self) -> &str {
        &self.state.addr
    }

    /// Runs the acceptor + worker pool until a `shutdown` request
    /// arrives. All threads are joined before this returns, so no
    /// request is abandoned mid-flight.
    pub fn run(self) -> std::io::Result<()> {
        let state = &self.state;
        let queue = &self.queue;
        std::thread::scope(|scope| {
            for _ in 0..state.workers {
                scope.spawn(move || worker_loop(state, queue));
            }
            let result = loop {
                let conn = match self.listener.accept() {
                    Ok(conn) => conn,
                    Err(e) => {
                        if state.shutdown.load(Ordering::SeqCst) {
                            break Ok(());
                        }
                        break Err(e);
                    }
                };
                if state.shutdown.load(Ordering::SeqCst) {
                    break Ok(()); // the wake-up connection, or a late client
                }
                match queue.try_push(conn) {
                    Ok(()) => {}
                    Err(conn) => {
                        state.metrics.busy_rejected.inc();
                        // A rejection write can block on a hostile client;
                        // a short scoped thread keeps the acceptor hot and
                        // is itself bounded by the write timeout.
                        scope.spawn(move || reject_busy(state, conn));
                    }
                }
            };
            // Unblock every worker; queued-but-unserved connections are
            // dropped (their clients see EOF).
            queue.close();
            result
        })
    }
}

/// Writes the `busy` rejection and half-closes, so the response line
/// survives even if the peer was still writing its request.
fn reject_busy(state: &ServeState, stream: Stream) {
    let mut stream = stream;
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_read_timeout(Some(DRAIN_POLL));
    let response = error_response(PROTOCOL_VERSION, None, &ProtoError::busy(state.retry_after_ms));
    let _ = stream
        .write_all(response.render().as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .and_then(|()| stream.flush());
    let _ = stream.shutdown_write();
    // Brief drain: absorb bytes the client already sent so the close does
    // not RST the in-flight response out of its receive buffer.
    let mut sink = [0u8; 4096];
    for _ in 0..4 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// One session worker: serve queued connections until shutdown.
fn worker_loop(state: &ServeState, queue: &ConnQueue) {
    while let Some((conn, waited)) = queue.pop() {
        if state.shutdown.load(Ordering::SeqCst) {
            continue; // drain mode: drop without serving
        }
        let conn_id = state.next_conn.fetch_add(1, Ordering::Relaxed);
        state.metrics.admitted.inc();
        state.metrics.queue_wait.observe(waited);
        state.metrics.active.add(1);
        state.metrics.peak_active.max_of(state.metrics.active.get());
        handle_connection(state, conn_id, conn, waited);
        state.metrics.active.sub(1);
        // Partial uploads owned by this connection are orphaned (resumable
        // within the grace period) or reaped, and expired orphans from
        // other connections go with them.
        state.uploads.disconnect(conn_id);
        state.uploads.reap();
    }
}

/// What the framing loop produced.
enum Frame {
    /// One complete request line (newline stripped).
    Line(String),
    /// Clean end of stream (or peer vanished).
    Gone,
    /// The daemon is shutting down.
    Shutdown,
    /// The frame deadline expired with a partial request buffered.
    TimedOut,
    /// The buffered frame exceeded the size cap.
    TooLarge,
}

/// Accumulates bytes until a newline. The *socket* timeout is
/// [`DRAIN_POLL`] (shutdown-flag granularity); the *frame* deadline is
/// `state.read_timeout`, measured from the first buffered byte of the
/// current frame — an idle connection with an empty buffer has no
/// deadline, so slow-but-legal clients are never cut.
fn next_frame(state: &ServeState, stream: &mut Stream, buf: &mut Vec<u8>) -> Frame {
    let mut frame_started = (!buf.is_empty()).then(Instant::now);
    loop {
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            if pos > state.max_frame_bytes {
                return Frame::TooLarge;
            }
            let line: Vec<u8> = buf.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&line[..line.len() - 1]);
            return Frame::Line(text.trim_end_matches('\r').to_string());
        }
        if buf.len() > state.max_frame_bytes {
            return Frame::TooLarge;
        }
        if state.shutdown.load(Ordering::SeqCst) {
            return Frame::Shutdown;
        }
        if let Some(started) = frame_started {
            if started.elapsed() >= state.read_timeout {
                return Frame::TimedOut;
            }
        }
        let mut chunk = [0u8; 16 * 1024];
        match stream.read(&mut chunk) {
            Ok(0) => return Frame::Gone,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                frame_started.get_or_insert_with(Instant::now);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return Frame::Gone,
        }
    }
}

fn handle_connection(state: &ServeState, conn_id: u64, stream: Stream, queue_wait: Duration) {
    let _ = stream.set_read_timeout(Some(DRAIN_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let ctx = ConnCtx { conn_id, peer: stream.peer_id() };
    let Ok(mut writer) = stream.try_clone() else { return };
    let mut reader = stream;
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let line = match next_frame(state, &mut reader, &mut buf) {
            Frame::Line(line) => line,
            Frame::Gone | Frame::Shutdown => return,
            Frame::TimedOut => {
                state.metrics.timeouts.inc();
                let err = ProtoError::new(
                    ErrorCode::Timeout,
                    format!(
                        "request frame incomplete after {} ms (deadline is measured from the \
                         frame's first byte)",
                        state.read_timeout.as_millis()
                    ),
                );
                farewell(&mut writer, &error_response(PROTOCOL_VERSION, None, &err));
                return;
            }
            Frame::TooLarge => {
                state.metrics.frames_rejected.inc();
                let err = ProtoError::new(
                    ErrorCode::FrameTooLarge,
                    format!("request frame exceeds {} bytes", state.max_frame_bytes),
                );
                farewell(&mut writer, &error_response(PROTOCOL_VERSION, None, &err));
                return;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        // A busy client sending back-to-back requests may never hit the
        // poll branch, so re-check the flag per request: once any client
        // asked for shutdown, no connection serves further work.
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        state.metrics.requests.inc();
        state.quotas.bump_requests(&ctx.peer);
        let started = Instant::now();
        let mut req_span = sg_obs::span!("serve.request");
        let (response, meta) = respond(state, &ctx, line.trim());
        let elapsed = started.elapsed();
        let ok = response.get("ok").and_then(Json::as_bool).unwrap_or(false);
        if !ok {
            state.metrics.errors.inc();
        }
        state.metrics.observe_service(&meta.op, elapsed);
        if req_span.is_recording() {
            req_span.arg("op", meta.op.as_str());
            req_span.arg("trace", meta.trace_id.as_str());
            req_span.arg("ok", if ok { "true" } else { "false" });
            if let Some(graph) = &meta.graph {
                req_span.arg("graph", graph.as_str());
            }
            // Cache flags, when the op reports them: how much of the
            // pipeline was served from the stage cache.
            for key in ["stages_cached", "stages_executed"] {
                if let Some(v) = response.get(key).and_then(Json::as_u64) {
                    req_span.arg(key, v.to_string());
                }
            }
        }
        drop(req_span);
        let service_ms = elapsed.as_secs_f64() * 1e3;
        if state.slowlog.qualifies(service_ms) {
            state.metrics.slow_requests.inc();
            state.slowlog.record(SlowRecord {
                seq: 0, // assigned at insert
                op: meta.op.clone(),
                trace_id: meta.trace_id.clone(),
                peer: ctx.peer.clone(),
                graph: meta.graph.clone(),
                ok,
                queue_wait_ms: queue_wait.as_secs_f64() * 1e3,
                service_ms,
                stages_executed: response.get("stages_executed").and_then(Json::as_u64),
                stages_cached: response.get("stages_cached").and_then(Json::as_u64),
                uptime_ms: state.started.elapsed().as_millis() as u64,
            });
        }
        let (op, shutdown) = (meta.op, meta.shutdown);
        state.log_event(&op, ok, elapsed, "");
        let written = writer
            .write_all(response.render().as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush());
        if shutdown {
            state.shutdown.store(true, Ordering::SeqCst);
            state.wake_acceptor();
            return;
        }
        if written.is_err() {
            return;
        }
    }
}

/// Writes one final response and half-closes, for connections being
/// dropped for cause. The half-close (FIN, not RST) plus a brief drain
/// of whatever the client is still sending keeps the error line
/// deliverable: closing with unread bytes pending would RST the
/// response out of the peer's receive buffer.
fn farewell(writer: &mut Stream, response: &Json) {
    let _ = writer
        .write_all(response.render().as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush());
    let _ = writer.shutdown_write();
    let mut sink = [0u8; 4096];
    for _ in 0..8 {
        match writer.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// What [`respond`] learned about a request besides its response: the
/// op name (transcript + per-op histograms), the graph it targeted (the
/// request span's `graph` arg), the trace id correlating its spans and
/// slowlog record, and whether it was a shutdown.
struct RespondMeta {
    op: String,
    graph: Option<String>,
    trace_id: String,
    shutdown: bool,
}

/// The graph a request targets, when it names one.
fn request_graph(request: &Request) -> Option<&str> {
    match request {
        Request::Load { name, .. } | Request::Upload { name, .. } => Some(name),
        Request::Compress { graph, .. }
        | Request::Analyze { graph, .. }
        | Request::ShardRun { graph, .. } => Some(graph),
        Request::Stats { graph } | Request::Evict { graph, .. } => graph.as_deref(),
        Request::Ping
        | Request::Metrics
        | Request::Slowlog
        | Request::Federation
        | Request::Shutdown => None,
    }
}

/// The request's trace id: the client-supplied envelope `"id"` (string
/// form) when present, else a fresh server-generated `srv-N`. Purely
/// observational — it tags spans and the slowlog, never the result.
fn trace_id_for(state: &ServeState, id: Option<&Json>) -> String {
    match id {
        Some(Json::Str(s)) if !s.is_empty() => s.clone(),
        Some(Json::Str(_)) | None => {
            format!("srv-{}", state.next_trace.fetch_add(1, Ordering::Relaxed))
        }
        Some(other) => other.render(),
    }
}

/// Parses + authenticates + dispatches one request line.
fn respond(state: &ServeState, ctx: &ConnCtx, line: &str) -> (Json, RespondMeta) {
    let envelope = match parse_request(line) {
        Ok(envelope) => envelope,
        Err(err) => {
            let meta = RespondMeta {
                op: "invalid".to_string(),
                graph: None,
                trace_id: trace_id_for(state, None),
                shutdown: false,
            };
            return (error_response(PROTOCOL_VERSION, None, &err), meta);
        }
    };
    let Envelope { request, id, version, token } = envelope;
    let mut meta = RespondMeta {
        op: op_name(&request).to_string(),
        graph: request_graph(&request).map(str::to_string),
        trace_id: trace_id_for(state, id.as_ref()),
        shutdown: false,
    };
    // From here to the end of dispatch, every span this worker thread
    // opens — session.run, session.stage, anything deeper — carries the
    // request's trace id.
    let _trace_ctx = sg_obs::trace::set_trace_id(&meta.trace_id);
    // Everything except the liveness probe requires the shared secret
    // when one is configured.
    if let Some(expected) = &state.token {
        let presented_ok = token.as_deref().is_some_and(|t| token_eq(expected, t));
        if !presented_ok && !matches!(request, Request::Ping) {
            state.metrics.auth_failures.inc();
            let err = ProtoError::new(
                ErrorCode::AuthRequired,
                "this daemon requires a token (send \"token\" in the request envelope)",
            );
            return (error_response(version, id.as_ref(), &err), meta);
        }
    }
    meta.shutdown = matches!(request, Request::Shutdown);
    let response = match dispatch(state, ctx, request, version, id.as_ref()) {
        Ok(ok) => ok,
        Err(err) => error_response(version, id.as_ref(), &err),
    };
    (response, meta)
}

fn op_name(request: &Request) -> &'static str {
    match request {
        Request::Ping => "ping",
        Request::Load { .. } => "load",
        Request::Upload { .. } => "upload",
        Request::Compress { .. } => "compress",
        Request::Analyze { .. } => "analyze",
        Request::ShardRun { .. } => "shard_run",
        Request::Federation => "federation",
        Request::Stats { .. } => "stats",
        Request::Metrics => "metrics",
        Request::Slowlog => "slowlog",
        Request::Evict { .. } => "evict",
        Request::Shutdown => "shutdown",
    }
}

/// Describes a freshly registered graph (shared by `load` and committed
/// `upload` responses).
fn registered_response(
    version: u64,
    id: Option<&Json>,
    handle: &sg_core::GraphHandle,
    loaded: bool,
) -> Json {
    ok_response(version, id)
        .with("name", Json::str(handle.name()))
        .with("graph_id", Json::u64(handle.id().0))
        .with("source", Json::str(handle.source()))
        .with("vertices", Json::u64(handle.graph().num_vertices() as u64))
        .with("edges", Json::u64(handle.graph().num_edges() as u64))
        .with("loaded", Json::Bool(loaded))
}

/// Registers `graph` in the catalog under the peer's catalog quota;
/// rolls the registration back if the peer's budget is blown.
fn insert_with_quota(
    state: &ServeState,
    peer: &str,
    name: &str,
    graph: CsrGraph,
    source: &str,
) -> Result<sg_core::GraphHandle, ProtoError> {
    let bytes = sg_core::graph_approx_bytes(&graph) as u64;
    let handle = state
        .session
        .catalog()
        .insert(name, graph, source)
        .map_err(|e| ProtoError::new(ErrorCode::BadRequest, e))?;
    if let Err(err) = state.quotas.charge_catalog(peer, name, bytes) {
        state.session.catalog().remove(name);
        return Err(err);
    }
    Ok(handle)
}

fn dispatch(
    state: &ServeState,
    ctx: &ConnCtx,
    request: Request,
    version: u64,
    id: Option<&Json>,
) -> Result<Json, ProtoError> {
    match request {
        Request::Ping => Ok(ok_response(version, id).with("pong", Json::Bool(true))),
        Request::Load { name, path, format, no_verify } => {
            let fresh = state.session.catalog().get(&name).is_none();
            let (handle, loaded) = state
                .session
                .catalog()
                .open(&name, &path, format.as_deref(), no_verify)
                .map_err(|e| ProtoError::new(ErrorCode::Io, e))?;
            if loaded && fresh {
                let bytes = handle.approx_bytes() as u64;
                if let Err(err) = state.quotas.charge_catalog(&ctx.peer, &name, bytes) {
                    state.session.evict(&name);
                    return Err(err);
                }
            }
            Ok(registered_response(version, id, &handle, loaded))
        }
        Request::Upload { name, phase } => dispatch_upload(state, ctx, &name, phase, version, id),
        Request::Compress { graph, spec, seed, output, output_format } => {
            let (run, federation) = run_or_federate(state, ctx, &graph, &spec, seed)?;
            let mut response = run_response(ok_response(version, id), &run);
            if let Some(path) = output {
                sg_core::catalog::save_graph(&run.graph, &path, output_format.as_deref())
                    .map_err(|e| ProtoError::new(ErrorCode::Io, e))?;
                response = response.with("output", Json::str(path));
            }
            if let Some(block) = federation {
                response = response.with("federation", block);
            }
            Ok(response)
        }
        Request::Analyze { graph, spec, seed } => {
            let handle =
                state.session.catalog().get(&graph).ok_or_else(|| unknown_graph(&graph))?;
            let (run, federation) = run_or_federate(state, ctx, &graph, &spec, seed)?;
            let original = handle.graph();
            let compressed = run.graph.as_ref();
            let mut metrics = Json::obj()
                .with(
                    "components",
                    Json::Arr(vec![
                        Json::u64(cc::connected_components(original).num_components as u64),
                        Json::u64(cc::connected_components(compressed).num_components as u64),
                    ]),
                )
                .with(
                    "triangles",
                    Json::Arr(vec![
                        Json::u64(tc::count_triangles(original)),
                        Json::u64(tc::count_triangles(compressed)),
                    ]),
                );
            if compressed.num_vertices() == original.num_vertices() {
                let pr0 = pagerank::pagerank_default(original).scores;
                let pr1 = pagerank::pagerank_default(compressed).scores;
                metrics =
                    metrics.with("pagerank_kl", Json::f64(sg_metrics::kl_divergence(&pr0, &pr1)));
                let root = (0..original.num_vertices() as u32)
                    .max_by_key(|&v| original.degree(v))
                    .unwrap_or(0);
                metrics = metrics.with(
                    "bfs_critical_kept",
                    Json::f64(sg_metrics::critical_edge_preservation(original, compressed, root)),
                );
            } else {
                metrics =
                    metrics.with("pagerank_kl", Json::Null).with("bfs_critical_kept", Json::Null);
            }
            let mut response =
                run_response(ok_response(version, id), &run).with("metrics", metrics);
            if let Some(block) = federation {
                response = response.with("federation", block);
            }
            Ok(response)
        }
        Request::ShardRun { graph, spec, seed, shard, shards } => {
            dispatch_shard_run(state, &graph, &spec, seed, shard, shards, version, id)
        }
        Request::Federation => Ok(federation_status(state, version, id)),
        Request::Stats { graph: Some(name) } => {
            let handle = state.session.catalog().get(&name).ok_or_else(|| unknown_graph(&name))?;
            let g = handle.graph();
            let stats = sg_graph::properties::degree_stats(g);
            Ok(ok_response(version, id)
                .with("name", Json::str(handle.name()))
                .with("graph_id", Json::u64(handle.id().0))
                .with("source", Json::str(handle.source()))
                .with("vertices", Json::u64(g.num_vertices() as u64))
                .with("edges", Json::u64(g.num_edges() as u64))
                .with("weighted", Json::Bool(g.is_weighted()))
                .with("bytes", Json::u64(handle.approx_bytes() as u64))
                .with(
                    "degrees",
                    Json::obj()
                        .with("min", Json::u64(stats.min as u64))
                        .with("mean", Json::f64(stats.mean))
                        .with("max", Json::u64(stats.max as u64)),
                )
                .with("components", Json::u64(cc::connected_components(g).num_components as u64)))
        }
        Request::Stats { graph: None } => {
            let cache = state.session.cache().stats();
            let graphs: Vec<Json> = state
                .session
                .catalog()
                .list()
                .into_iter()
                .map(|h| {
                    Json::obj()
                        .with("name", Json::str(h.name()))
                        .with("graph_id", Json::u64(h.id().0))
                        .with("source", Json::str(h.source()))
                        .with("vertices", Json::u64(h.graph().num_vertices() as u64))
                        .with("edges", Json::u64(h.graph().num_edges() as u64))
                        .with("bytes", Json::u64(h.approx_bytes() as u64))
                })
                .collect();
            let m = &state.metrics;
            let server = Json::obj()
                .with("build", Json::str(env!("CARGO_PKG_VERSION")))
                .with("protocol_version", Json::u64(PROTOCOL_VERSION))
                .with("workers", Json::u64(state.workers as u64))
                .with("active", Json::u64(m.active.get().max(0) as u64))
                .with("peak_active", Json::u64(m.peak_active.get().max(0) as u64))
                .with("admitted", Json::u64(m.admitted.get()))
                .with("busy_rejected", Json::u64(m.busy_rejected.get()))
                .with("timeouts", Json::u64(m.timeouts.get()))
                .with("frames_rejected", Json::u64(m.frames_rejected.get()))
                .with("auth_failures", Json::u64(m.auth_failures.get()));
            let uploads: Vec<Json> = state
                .uploads
                .snapshot()
                .into_iter()
                .map(|u| {
                    Json::obj()
                        .with("name", Json::str(u.name))
                        .with("peer", Json::str(u.peer))
                        .with("received", Json::u64(u.received))
                        .with("total_bytes", Json::u64(u.total_bytes))
                        .with("orphaned", Json::Bool(u.orphaned))
                })
                .collect();
            Ok(ok_response(version, id)
                .with("graphs", Json::Arr(graphs))
                .with("catalog_bytes", Json::u64(state.session.catalog().total_bytes() as u64))
                .with(
                    "cache",
                    Json::obj()
                        .with("entries", Json::u64(cache.entries as u64))
                        .with("bytes", Json::u64(cache.bytes as u64))
                        .with("hits", Json::u64(cache.hits))
                        .with("misses", Json::u64(cache.misses))
                        .with("evictions", Json::u64(cache.evictions)),
                )
                .with("server", server)
                .with("clients", Json::Arr(state.quotas.snapshot()))
                .with("uploads", Json::Arr(uploads))
                .with("requests", Json::u64(state.metrics.requests.get()))
                .with("uptime_ms", Json::u64(state.started.elapsed().as_millis() as u64)))
        }
        Request::Metrics => {
            // One snapshot covering both registries: this daemon's own
            // (request/queue/pool-front metrics) merged with the
            // process-global one (session stages, StageCache, the rayon
            // shim's chunk gauges). In-process embedders running several
            // daemons share the global half; the serve.* half is always
            // exclusively this daemon's.
            let snapshot = state.metrics.registry.snapshot().merged(sg_obs::global_snapshot());
            let cache = state.session.cache().stats();
            Ok(ok_response(version, id)
                .with("metrics", snapshot_json(&snapshot))
                .with(
                    "cache",
                    Json::obj()
                        .with("entries", Json::u64(cache.entries as u64))
                        .with("bytes", Json::u64(cache.bytes as u64))
                        .with("hits", Json::u64(cache.hits))
                        .with("misses", Json::u64(cache.misses))
                        .with("evictions", Json::u64(cache.evictions)),
                )
                .with(
                    "server",
                    Json::obj()
                        .with("build", Json::str(env!("CARGO_PKG_VERSION")))
                        .with("protocol_version", Json::u64(PROTOCOL_VERSION))
                        .with("workers", Json::u64(state.workers as u64)),
                )
                .with("uptime_ms", Json::u64(state.started.elapsed().as_millis() as u64)))
        }
        Request::Slowlog => {
            let (records, total) = state.slowlog.snapshot();
            let entries: Vec<Json> = records.iter().map(SlowRecord::to_json).collect();
            Ok(ok_response(version, id)
                .with("slow_ms", Json::u64(state.slowlog.slow_ms()))
                .with("capacity", Json::u64(state.slowlog.capacity() as u64))
                .with("recorded", Json::u64(total))
                .with("returned", Json::u64(entries.len() as u64))
                .with("slowlog", Json::Arr(entries)))
        }
        Request::Evict { graph, cache } => {
            let mut response = ok_response(version, id);
            if let Some(name) = graph {
                let (handle, purged) =
                    state.session.evict(&name).ok_or_else(|| unknown_graph(&name))?;
                state.quotas.release_graph(&name);
                response = response
                    .with("evicted", Json::str(handle.name()))
                    .with("cache_entries_dropped", Json::u64(purged as u64));
            }
            if cache {
                let dropped = state.session.cache().clear();
                state.quotas.reset_cache();
                response = response.with("cache_cleared", Json::u64(dropped as u64));
            }
            Ok(response)
        }
        Request::Shutdown => Ok(ok_response(version, id).with("shutting_down", Json::Bool(true))),
    }
}

fn dispatch_upload(
    state: &ServeState,
    ctx: &ConnCtx,
    name: &str,
    phase: UploadPhase,
    version: u64,
    id: Option<&Json>,
) -> Result<Json, ProtoError> {
    match phase {
        UploadPhase::Begin { total_bytes, digest, format } => {
            if state.session.catalog().get(name).is_some() {
                return Err(ProtoError::new(
                    ErrorCode::BadRequest,
                    format!("graph '{name}' is already loaded (evict it to replace)"),
                ));
            }
            // Early headroom check on the declared *file* size; the
            // binding check happens at commit against the loaded graph's
            // real footprint.
            state.quotas.check_catalog_headroom(&ctx.peer, total_bytes)?;
            let offset = state.uploads.begin(
                ctx.conn_id,
                &ctx.peer,
                name,
                total_bytes,
                &digest,
                format.as_deref(),
            )?;
            Ok(ok_response(version, id)
                .with("name", Json::str(name))
                .with("offset", Json::u64(offset))
                .with("resumed", Json::Bool(offset > 0)))
        }
        UploadPhase::Chunk { offset, data } => {
            let bytes = b64::decode(&data)
                .map_err(|e| ProtoError::new(ErrorCode::BadRequest, format!("chunk data: {e}")))?;
            let received = state.uploads.chunk(ctx.conn_id, name, offset, &bytes)?;
            Ok(ok_response(version, id)
                .with("name", Json::str(name))
                .with("received", Json::u64(received)))
        }
        UploadPhase::Commit => {
            let finished = state.uploads.commit(ctx.conn_id, name)?;
            let spool = finished.path.to_string_lossy().into_owned();
            // The declared format applies to the uploaded bytes; with
            // none given, infer from the catalog name's extension (the
            // spool path carries no meaningful one).
            let format = match &finished.format {
                Some(f) => Some(f.clone()),
                None => match sg_core::GraphFormat::resolve(name, None) {
                    Ok(sg_core::GraphFormat::Bin) => Some("bin".to_string()),
                    Ok(sg_core::GraphFormat::Sgr) => Some("sgr".to_string()),
                    _ => Some("text".to_string()),
                },
            };
            let loaded = sg_core::catalog::load_graph(&spool, format.as_deref(), false);
            state.uploads.discard_spool(&finished);
            // The client proved the file loadable when it computed the
            // declared digest, so a spool that fails to load here means
            // the transfer corrupted it.
            let graph = loaded.map_err(|e| {
                ProtoError::new(
                    ErrorCode::DigestMismatch,
                    format!(
                        "uploaded bytes do not load ({e}) — transfer corrupted, upload dropped"
                    ),
                )
            })?;
            let actual = format!("{:016x}", graph_digest(&graph));
            if actual != finished.digest {
                return Err(ProtoError::new(
                    ErrorCode::DigestMismatch,
                    format!(
                        "uploaded graph digests to {actual}, client declared {} — transfer \
                         corrupted, upload dropped",
                        finished.digest
                    ),
                ));
            }
            let source = format!("upload:{}", finished.peer);
            let handle = insert_with_quota(state, &finished.peer, name, graph, &source)?;
            Ok(registered_response(version, id, &handle, true)
                .with("checksum", Json::str(actual))
                .with("uploaded_bytes", Json::u64(finished.total_bytes)))
        }
        UploadPhase::Abort => {
            state.uploads.abort(ctx.conn_id, name)?;
            Ok(ok_response(version, id)
                .with("name", Json::str(name))
                .with("aborted", Json::Bool(true)))
        }
    }
}

/// Renders a registry snapshot as the `metrics` response body: flat
/// name→value objects for counters and gauges, and per-histogram objects
/// with cumulative (Prometheus-style `le`) buckets. The final bucket's
/// bound is the string `"+Inf"`; every earlier `le` is milliseconds.
/// Also the format of the CLI's `--metrics-out` dump.
pub fn snapshot_json(snapshot: &sg_obs::Snapshot) -> Json {
    let mut counters = Json::obj();
    for (name, value) in &snapshot.counters {
        counters = counters.with(name, Json::u64(*value));
    }
    let mut gauges = Json::obj();
    for (name, value) in &snapshot.gauges {
        gauges = gauges.with(name, Json::f64(*value as f64));
    }
    let mut histograms = Json::obj();
    for hist in &snapshot.histograms {
        let buckets: Vec<Json> = hist
            .cumulative
            .iter()
            .enumerate()
            .map(|(i, &count)| {
                let le = match hist.bounds_ms.get(i) {
                    Some(bound) => Json::f64(*bound),
                    None => Json::str("+Inf"),
                };
                Json::obj().with("le", le).with("count", Json::u64(count))
            })
            .collect();
        histograms = histograms.with(
            &hist.name,
            Json::obj()
                .with("count", Json::u64(hist.count()))
                .with("sum_ms", Json::f64(hist.sum_ms))
                .with("buckets", Json::Arr(buckets)),
        );
    }
    Json::obj().with("counters", counters).with("gauges", gauges).with("histograms", histograms)
}

fn unknown_graph(name: &str) -> ProtoError {
    ProtoError::new(ErrorCode::UnknownGraph, format!("no graph loaded as '{name}'"))
}

fn run_pipeline(
    state: &ServeState,
    ctx: &ConnCtx,
    graph: &str,
    spec: &str,
    seed: u64,
) -> Result<SessionRun, ProtoError> {
    let spec = PipelineSpec::parse(spec).map_err(|e| ProtoError::new(ErrorCode::BadSpec, e))?;
    // Cache quota: peers whose executed stages have already filled their
    // cache byte budget are refused further pipeline work until they (or
    // anyone) clear the cache with `evict cache:true`.
    state.quotas.check_cache(&ctx.peer)?;
    let run = state.session.run_named(graph, &spec, seed).map_err(|e| {
        if e.contains("no graph loaded") {
            ProtoError::new(ErrorCode::UnknownGraph, e)
        } else {
            ProtoError::new(ErrorCode::BadSpec, e)
        }
    })?;
    // Charge what this run newly materialized: executed (non-cached)
    // stage outputs. Approximate by design — cache evictions are not
    // refunded — and documented as such in PROTOCOL.md.
    let executed_bytes: u64 = run
        .stages
        .iter()
        .filter(|s| !s.cached)
        .filter_map(|s| s.graph.as_ref())
        .map(|g| sg_core::graph_approx_bytes(g) as u64)
        .sum();
    state.quotas.charge_cache(&ctx.peer, executed_bytes);
    Ok(run)
}

/// How a coordinator decided to serve one compress/analyze request.
enum FedOutcome {
    /// Served by the worker fleet; carries the synthesized run and the
    /// `federation` response block.
    Run(Box<SessionRun>, Json),
    /// Not federable; carries the reason for the `federation` block of
    /// the coordinator-local run.
    Local(String),
}

/// Runs a compress/analyze request locally or — on a coordinator, when
/// the plan is federable — across the worker fleet. The second element
/// is the response's `federation` block: `None` on a plain daemon,
/// `{"mode":"federated",…}` or `{"mode":"local","reason":…}` on a
/// coordinator.
fn run_or_federate(
    state: &ServeState,
    ctx: &ConnCtx,
    graph: &str,
    spec: &str,
    seed: u64,
) -> Result<(SessionRun, Option<Json>), ProtoError> {
    let Some(cfg) = &state.fed else {
        return Ok((run_pipeline(state, ctx, graph, spec, seed)?, None));
    };
    match federated_run(state, cfg, graph, spec, seed)? {
        FedOutcome::Run(run, block) => Ok((*run, Some(block))),
        FedOutcome::Local(reason) => {
            state.metrics.registry.counter("fed.local_fallbacks").inc();
            let run = run_pipeline(state, ctx, graph, spec, seed)?;
            Ok((run, Some(fed::local_block(&reason))))
        }
    }
}

/// The coordinator path: classify the spec, fan `shard_run` requests out
/// to the workers, verify replica digests, and merge the shard outcomes
/// into a [`SessionRun`] shaped exactly like a local one (so
/// [`run_response`] emits the same contract fields, `checksum`
/// included). Returns [`FedOutcome::Local`] for plans that need
/// cross-shard state (multi-stage chains, Edge-Once disciplines, global
/// rewrites) — those run on the coordinator itself.
fn federated_run(
    state: &ServeState,
    cfg: &FedConfig,
    graph: &str,
    spec: &str,
    seed: u64,
) -> Result<FedOutcome, ProtoError> {
    let parsed = PipelineSpec::parse(spec).map_err(|e| ProtoError::new(ErrorCode::BadSpec, e))?;
    let resolved = parsed
        .resolve(state.session.registry(), &SchemeParams::from_pairs(&[]))
        .map_err(|e| ProtoError::new(ErrorCode::BadSpec, e))?;
    if resolved.stages.len() != 1 {
        return Ok(FedOutcome::Local(format!(
            "only single-stage specs federate; this chain has {} stages",
            resolved.stages.len()
        )));
    }
    let handle = state.session.catalog().get(graph).ok_or_else(|| unknown_graph(graph))?;
    let stage = &resolved.stages[0];
    let scheme = state
        .session
        .registry()
        .create(&stage.name, &stage.params)
        .map_err(|e| ProtoError::new(ErrorCode::BadSpec, e))?;
    if let Err(e) = sg_dist::federation_plan(handle.graph(), scheme.as_ref()) {
        return Ok(FedOutcome::Local(e.to_string()));
    }
    state.metrics.registry.counter("fed.requests").inc();
    let input = handle.graph();
    let local_checksum = format!("{:016x}", graph_digest(input));
    let trace_id = sg_obs::trace::current_trace_id().map(|id| id.to_string()).unwrap_or_default();
    let started = Instant::now();
    let _span = sg_obs::span!("fed.run", graph = graph, shards = cfg.workers.len());
    let reports = fed::fan_out(&fed::FanOut {
        cfg,
        registry: &state.metrics.registry,
        graph,
        source: handle.source(),
        local_checksum: &local_checksum,
        spec: &resolved.render(),
        seed,
        trace_id: &trace_id,
    })?;
    let (merged, mapping) = sg_dist::merge_outcomes(input, reports.iter().map(|r| &r.ids));
    let block = fed::federation_block(&reports);
    let merged = Arc::new(merged);
    // Synthesize the one-stage run a local execution would have produced
    // (pipelines are pure in `(graph, spec, seed)` and
    // `Pipeline::stage_seed(seed, 0) == seed`, so the merged graph IS the
    // local stage output — dist_equivalence pins that bit-identity).
    let run = SessionRun {
        graph: Arc::clone(&merged),
        vertex_mapping: mapping.map(Arc::new),
        original_vertices: input.num_vertices(),
        original_edges: input.num_edges(),
        stages: vec![StageOutcome {
            report: StageReport {
                name: scheme.name().to_string(),
                label: scheme.label(),
                input_vertices: input.num_vertices(),
                input_edges: input.num_edges(),
                output_vertices: merged.num_vertices(),
                output_edges: merged.num_edges(),
                elapsed: started.elapsed(),
            },
            cached: false,
            graph: Some(merged),
        }],
    };
    Ok(FedOutcome::Run(Box::new(run), block))
}

/// The worker side of federation: compute one shard of a single-stage
/// spec against the local replica and return the deletion/removal id
/// list plus the replica's digest (the coordinator refuses to merge
/// shards whose digests disagree with its own copy).
#[allow(clippy::too_many_arguments)]
fn dispatch_shard_run(
    state: &ServeState,
    graph: &str,
    spec: &str,
    seed: u64,
    shard: usize,
    shards: usize,
    version: u64,
    id: Option<&Json>,
) -> Result<Json, ProtoError> {
    let handle = state.session.catalog().get(graph).ok_or_else(|| unknown_graph(graph))?;
    let parsed = PipelineSpec::parse(spec).map_err(|e| ProtoError::new(ErrorCode::BadSpec, e))?;
    let resolved = parsed
        .resolve(state.session.registry(), &SchemeParams::from_pairs(&[]))
        .map_err(|e| ProtoError::new(ErrorCode::BadSpec, e))?;
    if resolved.stages.len() != 1 {
        return Err(ProtoError::new(
            ErrorCode::BadSpec,
            format!("shard_run takes a single-stage spec, got {} stages", resolved.stages.len()),
        ));
    }
    let stage = &resolved.stages[0];
    let scheme = state
        .session
        .registry()
        .create(&stage.name, &stage.params)
        .map_err(|e| ProtoError::new(ErrorCode::BadSpec, e))?;
    let g = handle.graph();
    let started = Instant::now();
    let outcome =
        sg_dist::shard_compress(g, scheme.as_ref(), shard, shards, seed).map_err(|e| match e {
            sg_dist::DistError::InvalidShard { .. } | sg_dist::DistError::InvalidRanks { .. } => {
                ProtoError::new(ErrorCode::BadRequest, e.to_string())
            }
            other => ProtoError::new(ErrorCode::BadSpec, other.to_string()),
        })?;
    let (kind, ids): (&str, Vec<Json>) = match outcome {
        sg_dist::ShardOutcome::Edges(edges) => {
            ("edges", edges.into_iter().map(|e| Json::u64(e as u64)).collect())
        }
        sg_dist::ShardOutcome::Vertices(vertices) => {
            ("vertices", vertices.into_iter().map(|v| Json::u64(u64::from(v))).collect())
        }
    };
    Ok(ok_response(version, id)
        .with("graph", Json::str(graph))
        .with("kind", Json::str(kind))
        .with("count", Json::u64(ids.len() as u64))
        .with("ids", Json::Arr(ids))
        .with("shard", Json::u64(shard as u64))
        .with("shards", Json::u64(shards as u64))
        .with("checksum", Json::str(format!("{:016x}", graph_digest(g))))
        .with("ms", Json::f64(started.elapsed().as_secs_f64() * 1e3)))
}

/// The `federation` status op: topology + live worker reachability on a
/// coordinator, `{"mode":"standalone"}` elsewhere.
fn federation_status(state: &ServeState, version: u64, id: Option<&Json>) -> Json {
    let Some(cfg) = &state.fed else {
        return ok_response(version, id)
            .with("federation", Json::obj().with("mode", Json::str("standalone")));
    };
    let probe_timeout = Duration::from_millis(cfg.timeout_ms.clamp(1, 2_000));
    let workers: Vec<Json> = cfg
        .workers
        .iter()
        .map(|addr| {
            Json::obj().with("addr", Json::str(addr.clone())).with(
                "reachable",
                Json::Bool(fed::probe_worker(addr, probe_timeout, cfg.token.as_deref())),
            )
        })
        .collect();
    ok_response(version, id).with(
        "federation",
        Json::obj()
            .with("mode", Json::str("coordinator"))
            .with("shards", Json::u64(cfg.workers.len() as u64))
            .with("retries", Json::u64(cfg.retries as u64))
            .with("timeout_ms", Json::u64(cfg.timeout_ms))
            .with("workers", Json::Arr(workers)),
    )
}

/// Appends the shared compress/analyze result fields: output shape,
/// compression ratio, content digest, per-stage reports with cache flags,
/// and `BenchRecord`-style timings.
fn run_response(envelope: Json, run: &SessionRun) -> Json {
    let stages: Vec<Json> = run
        .stages
        .iter()
        .map(|s| {
            Json::obj()
                .with("name", Json::str(s.report.name.clone()))
                .with("label", Json::str(s.report.label.clone()))
                .with("input_edges", Json::u64(s.report.input_edges as u64))
                .with("output_edges", Json::u64(s.report.output_edges as u64))
                .with("ms", Json::f64(s.report.elapsed.as_secs_f64() * 1e3))
                .with("cached", Json::Bool(s.cached))
        })
        .collect();
    envelope
        .with("vertices", Json::u64(run.graph.num_vertices() as u64))
        .with("edges", Json::u64(run.graph.num_edges() as u64))
        .with("original_vertices", Json::u64(run.original_vertices as u64))
        .with("original_edges", Json::u64(run.original_edges as u64))
        .with("ratio", Json::f64(run.compression_ratio()))
        .with("checksum", Json::str(format!("{:016x}", graph_digest(&run.graph))))
        .with("total_ms", Json::f64(run.elapsed().as_secs_f64() * 1e3))
        .with("stages_executed", Json::u64(run.stages_executed() as u64))
        .with("stages_cached", Json::u64(run.stages_cached() as u64))
        .with("stages", Json::Arr(stages))
        // Non-contractual (PROTOCOL.md): execution diagnostics for humans
        // and dashboards. Tests and clients must not assert on this block;
        // its shape may change in any release without a version bump.
        .with(
            "diagnostics",
            Json::obj()
                .with("stages_total", Json::u64(run.stages.len() as u64))
                .with("stages_executed", Json::u64(run.stages_executed() as u64)),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_detection() {
        for addr in ["127.0.0.1:0", "localhost:9000", "[::1]:80", "unix:/tmp/x.sock"] {
            assert!(!non_loopback(addr), "{addr} is loopback");
        }
        for addr in ["0.0.0.0:9000", "192.168.1.4:9000", "[::]:80", "example.com:9000"] {
            assert!(non_loopback(addr), "{addr} is not loopback");
        }
    }

    #[test]
    fn token_compare_is_exact() {
        assert!(token_eq("sesame", "sesame"));
        assert!(!token_eq("sesame", "sesamE"));
        assert!(!token_eq("sesame", "sesam"));
        assert!(!token_eq("sesame", ""));
        assert!(!token_eq("", "sesame"));
        assert!(token_eq("", ""));
    }

    #[test]
    fn non_loopback_bind_requires_token() {
        let cfg = ServeConfig { listen: "0.0.0.0:0".to_string(), ..ServeConfig::default() };
        let err = match Server::bind(&cfg) {
            Err(err) => err,
            Ok(_) => panic!("tokenless non-loopback bind must be refused"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        let cfg = ServeConfig { token: Some("secret".to_string()), ..cfg };
        let server = Server::bind(&cfg).expect("token unlocks the bind");
        drop(server);
    }
}
