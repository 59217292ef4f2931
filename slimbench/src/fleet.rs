//! In-process daemons on `127.0.0.1:0` and the timed request helper every
//! client uses.

use sg_serve::{Client, FedConfig, Json, ServeConfig, Server};
use std::time::Instant;

pub struct Daemon {
    pub addr: String,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    pub fn spawn(workers: usize, cache_bytes: usize, federation: Option<FedConfig>) -> Daemon {
        let cfg = ServeConfig {
            listen: "127.0.0.1:0".into(),
            transcript: false,
            workers,
            queue_depth: 2 * workers,
            cache_bytes,
            federation,
            ..Default::default()
        };
        let server = Server::bind(&cfg).expect("bind an ephemeral loopback port");
        let addr = server.local_addr().to_string();
        Daemon { addr, handle: std::thread::spawn(move || server.run()) }
    }

    pub fn connect(&self) -> Client {
        Client::connect(&self.addr).expect("connect to in-process daemon")
    }

    /// Stops the daemon and waits for its thread.
    pub fn shutdown(self) {
        let mut client = self.connect();
        let _ = client.request(&Client::request_for("shutdown"));
        drop(client);
        self.handle.join().expect("daemon thread").expect("daemon exit");
    }

    /// `stats` and `metrics` responses, from a fresh connection (callers
    /// close their own connections first so a worker is free).
    pub fn snapshot(&self) -> Snapshot {
        let mut client = self.connect();
        let stats = client.request(&Client::request_for("stats")).expect("stats");
        let metrics = client.request(&Client::request_for("metrics")).expect("metrics");
        Snapshot { stats, metrics }
    }
}

/// A coordinator with two worker daemons.
pub struct Federation {
    pub coordinator: Daemon,
    pub workers: Vec<Daemon>,
}

impl Federation {
    pub fn spawn(cache_bytes: usize) -> Federation {
        let workers: Vec<Daemon> = (0..2).map(|_| Daemon::spawn(2, cache_bytes, None)).collect();
        let cfg = FedConfig {
            workers: workers.iter().map(|w| w.addr.clone()).collect(),
            ..FedConfig::default()
        };
        Federation { coordinator: Daemon::spawn(2, cache_bytes, Some(cfg)), workers }
    }

    pub fn shutdown(self) {
        self.coordinator.shutdown();
        for w in self.workers {
            w.shutdown();
        }
    }
}

pub struct Snapshot {
    pub stats: Json,
    pub metrics: Json,
}

impl Snapshot {
    pub fn counter(&self, name: &str) -> f64 {
        self.metrics
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    /// Mean of a daemon latency histogram (`sum_ms / count`).
    pub fn hist_mean(&self, name: &str) -> f64 {
        let h =
            self.metrics.get("metrics").and_then(|m| m.get("histograms")).and_then(|h| h.get(name));
        let count = h.and_then(|h| h.get("count")).and_then(Json::as_f64).unwrap_or(0.0);
        let sum = h.and_then(|h| h.get("sum_ms")).and_then(Json::as_f64).unwrap_or(0.0);
        if count > 0.0 {
            sum / count
        } else {
            0.0
        }
    }

    pub fn cache(&self, field: &str) -> f64 {
        self.stats.get("cache").and_then(|c| c.get(field)).and_then(Json::as_f64).unwrap_or(0.0)
    }
}

/// One answered request.
pub struct Reply {
    pub ms: f64,
    pub bytes: usize,
    pub json: Json,
}

impl Reply {
    pub fn ok(&self) -> bool {
        self.json.get("ok") == Some(&Json::Bool(true))
    }

    pub fn str(&self, key: &str) -> Option<&str> {
        self.json.get(key).and_then(Json::as_str)
    }
}

pub fn compress_req(op: &str, graph: &str, spec: &str, seed: u64) -> Json {
    Client::request_for(op)
        .with("graph", Json::str(graph))
        .with("spec", Json::str(spec))
        .with("seed", Json::u64(seed))
}

/// Sends `request` with envelope id `id` and times it client-side. The id
/// doubles as the trace id, so with tracing on the daemon's spans for this
/// request nest under the client's `bench.request` span.
pub fn call(client: &mut Client, request: Json, id: &str) -> Result<Reply, String> {
    let line = request.with("id", Json::str(id)).render();
    let _trace = sg_obs::trace::trace_enabled().then(|| sg_obs::trace::set_trace_id(id));
    let span = sg_obs::span!("bench.request");
    let started = Instant::now();
    let response = client.request_line(&line)?;
    let ms = started.elapsed().as_secs_f64() * 1e3;
    drop(span);
    let json = Json::parse(&response).map_err(|e| format!("bad response JSON: {e}"))?;
    Ok(Reply { ms, bytes: response.len(), json })
}

/// Loads `path` into `daemon`'s catalog as `name`.
pub fn load(daemon: &Daemon, name: &str, path: &str) {
    let mut client = daemon.connect();
    let response = client
        .request(
            &Client::request_for("load")
                .with("name", Json::str(name))
                .with("path", Json::str(path)),
        )
        .expect("load request");
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "load failed: {}", response.render());
}
