//! Fault-injection suite (ISSUE 7): hostile raw-socket clients —
//! truncated frames, oversized frames, garbage JSON, wrong-typed JSON,
//! mid-upload disconnects, slow-loris byte-at-a-time writes, out-of-domain
//! scheme parameters — against a
//! live daemon. The daemon must answer stable error codes, reap the
//! offender within its deadline, and keep serving healthy clients
//! **bit-identically** afterward, at `SG_THREADS` ∈ {1, 4}.

use slimgraph::core::{PipelineSpec, SchemeRegistry};
use slimgraph::graph::generators;
use slimgraph::serve::{graph_digest, Client, Json, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The worker-count override is process-global; tests serialize on it.
static KNOB: Mutex<()> = Mutex::new(());

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("slimgraph-serve-fault-tests");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name).to_string_lossy().into_owned()
}

fn spawn(cfg: ServeConfig) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();
    (addr, std::thread::spawn(move || server.run()))
}

fn fault_config() -> ServeConfig {
    ServeConfig {
        listen: "127.0.0.1:0".into(),
        transcript: false,
        read_timeout_ms: 400,
        max_frame_bytes: 0, // clamped to the 1 KiB floor by the server
        upload_grace_ms: 0, // partial uploads die with their connection
        ..Default::default()
    }
}

fn ok(response: &Json) -> &Json {
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "request failed: {}",
        response.render()
    );
    response
}

fn error_code(response: &Json) -> String {
    response
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .map(str::to_string)
        .unwrap_or_default()
}

/// Reads everything until EOF (or timeout) and returns the first line.
fn read_first_line(stream: &mut TcpStream) -> String {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut collected = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                collected.extend_from_slice(&chunk[..n]);
                if collected.contains(&b'\n') {
                    break;
                }
            }
        }
    }
    String::from_utf8_lossy(&collected).lines().next().unwrap_or_default().to_string()
}

fn raw_roundtrip(addr: &str, payload: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(payload).expect("send");
    read_first_line(&mut stream)
}

/// The core storm: every hostile client in sequence, then a healthy
/// client proving the daemon still answers bit-identical results.
fn fault_storm(threads: usize) {
    rayon::set_num_threads(threads);
    let g = generators::planted_triangles(&generators::barabasi_albert(400, 4, 71), 300, 72);
    let path = tmp(&format!("faults-{threads}.sgr"));
    slimgraph::store::save_sgr(&g, &path).expect("save input");
    let (addr, daemon) = spawn(fault_config());

    // Baseline healthy request before the storm.
    let spec = "spanner:k=4,uniform:p=0.5";
    let reference = {
        let pipeline = PipelineSpec::parse(spec)
            .expect("spec")
            .build(&SchemeRegistry::with_defaults())
            .expect("builds");
        format!("{:016x}", graph_digest(&pipeline.apply(&g, 5).result.graph))
    };
    let mut healthy = Client::connect(&addr).expect("connect");
    ok(&healthy
        .request(
            &Client::request_for("load")
                .with("name", Json::str("g"))
                .with("path", Json::str(&path)),
        )
        .expect("load"));

    // 1. Truncated frame: bytes then silent disconnect — no response is
    //    owed, the daemon must simply survive.
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.write_all(b"{\"op\":\"pi").expect("partial frame");
        drop(stream); // vanish mid-frame
    }

    // 2. Garbage JSON → stable bad-request.
    let response = Json::parse(&raw_roundtrip(&addr, b"%%% not json %%%\n")).expect("error JSON");
    assert_eq!(error_code(&response), "bad-request");

    // 3. Valid JSON, wrong types → stable bad-request (and for the seed,
    //    the message names the field).
    let response = Json::parse(&raw_roundtrip(
        &addr,
        b"{\"op\":\"compress\",\"graph\":42,\"spec\":\"uniform:p=0.5\"}\n",
    ))
    .expect("error JSON");
    assert_eq!(error_code(&response), "bad-request");
    let response = Json::parse(&raw_roundtrip(&addr, b"{\"op\":[1,2,3]}\n")).expect("error JSON");
    assert_eq!(error_code(&response), "bad-request");

    // 4. Oversized frame → frame-too-large, connection dropped.
    let mut big = vec![b'x'; 4096]; // over the 1 KiB floor
    big.push(b'\n');
    let response = Json::parse(&raw_roundtrip(&addr, &big)).expect("error JSON");
    assert_eq!(error_code(&response), "frame-too-large");

    // Oversized also without a newline (the cap must not wait for one).
    let response = Json::parse(&raw_roundtrip(&addr, &vec![b'y'; 4096])).expect("error JSON");
    assert_eq!(error_code(&response), "frame-too-large");

    // 5. Slow loris: a byte every 40 ms never finishes a frame; the
    //    400 ms frame deadline must cut it with a `timeout` error.
    {
        let started = Instant::now();
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_millis(10))).expect("timeout");
        let mut line = None;
        for _ in 0..100 {
            if stream.write_all(b"{").is_err() {
                break; // server already closed on us
            }
            let mut chunk = [0u8; 1024];
            match stream.read(&mut chunk) {
                Ok(n) if n > 0 => {
                    line = Some(String::from_utf8_lossy(&chunk[..n]).to_string());
                    break;
                }
                _ => {}
            }
            std::thread::sleep(Duration::from_millis(40));
        }
        let line = line.expect("loris got a final response");
        let response = Json::parse(line.lines().next().expect("line")).expect("error JSON");
        assert_eq!(error_code(&response), "timeout");
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "loris reaped within the deadline (took {:?})",
            started.elapsed()
        );
    }

    // 6. Mid-upload disconnect: with zero grace the partial upload is
    //    reaped with its connection.
    {
        let mut uploader = Client::connect(&addr).expect("connect");
        ok(&uploader
            .request(
                &Client::request_for("upload")
                    .with("name", Json::str("partial"))
                    .with("phase", Json::str("begin"))
                    .with("total_bytes", Json::u64(1000))
                    .with("digest", Json::str("0000000000000000")),
            )
            .expect("begin"));
        drop(uploader); // vanish mid-upload
    }
    // Reap happens on the worker that served the connection; poll stats
    // briefly until the slot is gone.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = healthy.request(&Client::request_for("stats")).expect("stats");
        let pending = ok(&stats).get("uploads").and_then(Json::as_arr).expect("uploads").len();
        if pending == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "partial upload not reaped: {}", stats.render());
        std::thread::sleep(Duration::from_millis(50));
    }

    // 7. Parameter values outside a scheme's domain (each would trip a
    //    kernel assert) → stable bad-spec, answered on the same connection.
    for bad in [
        "uniform:p=2",
        "uniform:p=NaN",
        "spanner:k=0",
        "spectral:p=-1",
        "collapse:p=2",
        "summary:epsilon=NaN",
    ] {
        let response = healthy
            .request(
                &Client::request_for("compress")
                    .with("graph", Json::str("g"))
                    .with("spec", Json::str(bad))
                    .with("seed", Json::u64(5)),
            )
            .unwrap_or_else(|e| panic!("{bad} left unanswered: {e}"));
        assert_eq!(error_code(&response), "bad-spec", "{bad}: {}", response.render());
    }
    ok(&healthy.request(&Client::request_for("ping")).expect("ping after bad specs"));

    // After the storm: the healthy client's compress is bit-identical to
    // the direct run, on the same connection that watched it all.
    let response = healthy
        .request(
            &Client::request_for("compress")
                .with("graph", Json::str("g"))
                .with("spec", Json::str(spec))
                .with("seed", Json::u64(5)),
        )
        .expect("compress");
    assert_eq!(
        ok(&response).get("checksum").and_then(Json::as_str),
        Some(reference.as_str()),
        "post-storm output must byte-match the direct run"
    );

    // The daemon never panicked: shutdown still round-trips and the serve
    // loop exits cleanly (a leaked/poisoned worker would hang the join).
    ok(&healthy.request(&Client::request_for("shutdown")).expect("shutdown"));
    daemon.join().expect("daemon thread").expect("clean exit");
}

#[test]
fn fault_storm_at_1_thread() {
    let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    fault_storm(1);
    rayon::set_num_threads(0);
}

#[test]
fn fault_storm_at_4_threads() {
    let _guard = KNOB.lock().unwrap_or_else(|e| e.into_inner());
    fault_storm(4);
    rayon::set_num_threads(0);
}

/// Satellite: the frame deadline must not cut clients that are merely
/// *idle* between requests — only mid-frame stalls are slow-loris.
#[test]
fn slow_but_legal_client_is_not_disconnected() {
    let cfg = ServeConfig {
        listen: "127.0.0.1:0".into(),
        transcript: false,
        read_timeout_ms: 200,
        ..Default::default()
    };
    let (addr, daemon) = spawn(cfg);
    let mut client = Client::connect(&addr).expect("connect");
    ok(&client.request(&Client::request_for("ping")).expect("first ping"));
    // Idle for 4x the frame deadline: no partial frame is buffered, so
    // no deadline applies.
    std::thread::sleep(Duration::from_millis(800));
    ok(&client.request(&Client::request_for("ping")).expect("ping after long idle"));
    // A frame written slowly but *within* the deadline is also legal.
    let frame = b"{\"op\":\"ping\"}\n";
    let (head, tail) = frame.split_at(5);
    let mut raw = TcpStream::connect(&addr).expect("connect");
    raw.write_all(head).expect("head");
    std::thread::sleep(Duration::from_millis(100)); // under the 200ms deadline
    raw.write_all(tail).expect("tail");
    let response = Json::parse(&read_first_line(&mut raw)).expect("response JSON");
    assert_eq!(response.get("pong").and_then(Json::as_bool), Some(true), "{}", response.render());
    ok(&client.request(&Client::request_for("shutdown")).expect("shutdown"));
    daemon.join().expect("daemon thread").expect("clean exit");
}

/// Stable code for a request that is valid JSON but declares a protocol
/// version outside the supported window — and v1 requests still served.
#[test]
fn version_window_is_enforced_but_v1_is_served() {
    let (addr, daemon) = spawn(fault_config());
    let mut client = Client::connect(&addr).expect("connect");
    let response = client
        .request(&Json::obj().with("v", Json::u64(99)).with("op", Json::str("ping")))
        .expect("answered");
    assert_eq!(error_code(&response), "version");
    // A v1 client: response echoes v:1 and upload is invisible.
    let response = client
        .request(&Json::obj().with("v", Json::u64(1)).with("op", Json::str("ping")))
        .expect("answered");
    assert_eq!(ok(&response).get("v").and_then(Json::as_u64), Some(1), "v1 echoed");
    let response = client
        .request(
            &Json::obj()
                .with("v", Json::u64(1))
                .with("op", Json::str("upload"))
                .with("name", Json::str("g"))
                .with("phase", Json::str("commit")),
        )
        .expect("answered");
    assert_eq!(error_code(&response), "unknown-op", "upload needs v2");
    ok(&client.request(&Client::request_for("shutdown")).expect("shutdown"));
    daemon.join().expect("daemon thread").expect("clean exit");
}
