//! End-to-end service test over real loopback sockets: concurrent clients
//! submit the same experiment, exactly one job runs, and every served
//! artifact is byte-identical to a direct (serial) sweep-engine run.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ringsim_serve::{ServeConfig, Server};
use ringsim_sweep::{run_experiment, SweepConfig};
use serde::Value;

/// Small enough to finish in seconds, large enough to exercise every
/// sweep point (fig3 is analytic-model backed).
const REFS: u64 = 2_000;

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ringsim-serve-e2e-{tag}-{}", std::process::id()))
}

/// Minimal raw-socket HTTP/1.1 client: one request, reads to EOF
/// (the server always closes), returns `(status, body_bytes)`.
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response must have a header/body separator");
    let head = std::str::from_utf8(&raw[..header_end]).expect("ASCII headers");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line in {head:?}"));
    (status, raw[header_end + 4..].to_vec())
}

fn json(body: &[u8]) -> Value {
    serde_json::parse_value(std::str::from_utf8(body).expect("UTF-8 JSON body"))
        .expect("valid JSON body")
}

fn str_of<'v>(v: &'v Value, key: &str) -> &'v str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("expected string `{key}`, got {other:?}"),
    }
}

fn u64_of(v: &Value, key: &str) -> u64 {
    match v.get(key) {
        Some(Value::UInt(n)) => *n,
        Some(Value::Int(n)) if *n >= 0 => *n as u64,
        other => panic!("expected integer `{key}`, got {other:?}"),
    }
}

fn bool_of(v: &Value, key: &str) -> bool {
    match v.get(key) {
        Some(Value::Bool(b)) => *b,
        other => panic!("expected bool `{key}`, got {other:?}"),
    }
}

/// Polls `GET /runs/:id` until the job is done (or failed/panicking).
fn wait_done(addr: &str, id: &str) -> Value {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = http(addr, "GET", &format!("/runs/{id}"), "");
        assert_eq!(status, 200, "status poll failed: {}", String::from_utf8_lossy(&body));
        let v = json(&body);
        match str_of(&v, "state") {
            "done" => return v,
            "failed" => panic!("job failed: {v:?}"),
            _ => assert!(Instant::now() < deadline, "job did not finish in time: {v:?}"),
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn concurrent_clients_dedupe_onto_one_byte_identical_run() {
    // Reference: a direct serial run of the same submission.
    let ref_dir = tmp("reference");
    let _ = std::fs::remove_dir_all(&ref_dir);
    let exp = ringsim_bench::experiments::find("fig3").expect("fig3 registered");
    let report = run_experiment(exp, &SweepConfig::new(REFS).jobs(1).out_dir(&ref_dir));
    assert!(!report.artifacts.is_empty());

    // Service under test, on an ephemeral port.
    let out_dir = tmp("service");
    let _ = std::fs::remove_dir_all(&out_dir);
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        out_dir: out_dir.clone(),
        workers: 2,
        queue_cap: 8,
        sweep_jobs: 2,
        default_refs: REFS,
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    let (status, body) = http(&addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));
    let (status, body) = http(&addr, "GET", "/experiments", "");
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&body).contains("fig3"));

    // N concurrent clients race the same submission (while also hammering
    // the status endpoint): exactly one creates the job, the rest dedupe
    // onto the same deterministic id.
    let submission = format!("{{\"experiment\": \"fig3\", \"refs\": {REFS}}}");
    let clients: Vec<_> = (0..8)
        .map(|_| {
            let (addr, submission) = (addr.clone(), submission.clone());
            std::thread::spawn(move || {
                let (status, body) = http(&addr, "POST", "/runs", &submission);
                assert!(status == 200 || status == 202, "unexpected submit status {status}");
                let v = json(&body);
                let id = str_of(&v, "id").to_owned();
                // Interleave status reads with the other submitters.
                let (st, _) = http(&addr, "GET", &format!("/runs/{id}"), "");
                assert_eq!(st, 200);
                (id, bool_of(&v, "deduped"))
            })
        })
        .collect();
    let results: Vec<(String, bool)> =
        clients.into_iter().map(|c| c.join().expect("client thread")).collect();
    let first_id = results[0].0.clone();
    assert!(results.iter().all(|(id, _)| *id == first_id), "ids diverged: {results:?}");
    assert_eq!(
        results.iter().filter(|(_, deduped)| !deduped).count(),
        1,
        "exactly one submission may create the job: {results:?}"
    );

    // The job completes; the cold run computed every point.
    let status_doc = wait_done(&addr, &first_id);
    let cache = status_doc.get("cache").expect("cache counts");
    assert_eq!(u64_of(cache, "hits"), 0, "cold run must not hit the cache");
    assert!(u64_of(cache, "misses") > 0);
    let points = status_doc.get("points").expect("points progress");
    assert_eq!(u64_of(points, "total"), u64_of(points, "completed"));

    // Every artifact the direct run produced is served byte-exactly.
    let artifact_names: Vec<String> = match status_doc.get("artifacts") {
        Some(Value::Array(items)) => items
            .iter()
            .map(|v| match v {
                Value::Str(s) => s.clone(),
                other => panic!("artifact names must be strings, got {other:?}"),
            })
            .collect(),
        other => panic!("expected artifact array, got {other:?}"),
    };
    assert!(!artifact_names.is_empty());
    for artifact in &report.artifacts {
        let file = artifact.path.file_name().unwrap().to_string_lossy().into_owned();
        assert!(artifact_names.contains(&file), "service is missing artifact {file}");
        let (status, served) =
            http(&addr, "GET", &format!("/runs/{first_id}/artifacts/{file}"), "");
        assert_eq!(status, 200);
        let direct = std::fs::read(&artifact.path).expect("reference artifact");
        assert_eq!(served, direct, "served bytes of {file} differ from the direct run");
    }

    // Re-submitting the identical request is a warm dedupe.
    let (status, body) = http(&addr, "POST", "/runs", &submission);
    assert_eq!(status, 200);
    assert!(bool_of(&json(&body), "deduped"));

    // Unknown artifacts and runs are clean 404s; bad submissions are 400s.
    let (status, _) = http(&addr, "GET", &format!("/runs/{first_id}/artifacts/../secret"), "");
    assert_eq!(status, 404);
    let (status, _) = http(&addr, "GET", "/runs/ffffffffffffffff", "");
    assert_eq!(status, 404);
    let (status, _) = http(&addr, "POST", "/runs", "{\"experiment\": \"nope\"}");
    assert_eq!(status, 400);

    // A bad `network` spelling surfaces the simulator registry's typed
    // error, candidates included, straight over the wire.
    let (status, body) =
        http(&addr, "POST", "/runs", "{\"experiment\": \"fig3\", \"network\": \"bu\"}");
    assert_eq!(status, 400);
    let msg = String::from_utf8_lossy(&body).into_owned();
    assert!(
        msg.contains("bus50-mesi") && msg.contains("bus50-dragon"),
        "ambiguous-prefix error must list every candidate: {msg}"
    );

    // /metrics reflects the traffic this test generated.
    let (status, body) = http(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let metrics = json(&body);
    assert_eq!(u64_of(metrics.get("jobs").expect("job counts"), "done"), 1);
    let http_stats = match metrics.get("http") {
        Some(Value::Array(items)) => items,
        other => panic!("expected http stats array, got {other:?}"),
    };
    let routes: Vec<&str> = http_stats.iter().map(|s| str_of(s, "route")).collect();
    assert!(routes.contains(&"POST /runs"), "missing POST /runs in {routes:?}");
    assert!(routes.contains(&"GET /runs/:id"), "missing GET /runs/:id in {routes:?}");

    // A submission can pin the network; the ack echoes the canonical
    // registry spelling (aliases included: `sci` resolves to `sci500`),
    // and the SCI-backed experiment runs to completion.
    let sci_submission =
        format!("{{\"experiment\": \"sci_vs_fullmap\", \"refs\": {REFS}, \"network\": \"sci\"}}");
    let (status, body) = http(&addr, "POST", "/runs", &sci_submission);
    assert_eq!(status, 202, "new submission must create a job: {status}");
    let v = json(&body);
    assert_eq!(str_of(&v, "network"), "sci500");
    let sci_id = str_of(&v, "id").to_owned();
    assert_ne!(sci_id, first_id);
    wait_done(&addr, &sci_id);

    // Malformed wire input maps to a 400, not a dropped connection.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(b"junk\r\n\r\n").unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    assert!(raw.starts_with(b"HTTP/1.1 400"), "got {:?}", String::from_utf8_lossy(&raw));

    // Graceful shutdown: join() drains and stops accepting. (The
    // 503-while-draining contract is locked by the router unit tests —
    // over the wire it would race the accept loop's exit, because a
    // drained pool lets the listener close immediately.)
    server.join();
    assert!(TcpStream::connect(&addr).is_err(), "listener must be closed after a completed drain");

    // A fresh server over the same out dir re-runs the identical
    // submission against the warm sweep cache: zero points recomputed,
    // and artifacts still match the direct run byte-for-byte.
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        out_dir: out_dir.clone(),
        workers: 1,
        queue_cap: 8,
        sweep_jobs: 1,
        default_refs: REFS,
        ..ServeConfig::default()
    })
    .expect("rebind loopback");
    let addr = server.local_addr().to_string();
    let (status, body) = http(&addr, "POST", "/runs", &submission);
    assert_eq!(status, 202, "fresh server has no job registry entry yet");
    let warm_id = str_of(&json(&body), "id").to_owned();
    assert_eq!(warm_id, first_id, "run ids must be stable across restarts");
    let warm = wait_done(&addr, &warm_id);
    let cache = warm.get("cache").expect("cache counts");
    assert_eq!(u64_of(cache, "misses"), 0, "warm resubmission must not recompute: {warm:?}");
    assert!(u64_of(cache, "hits") > 0);
    for artifact in &report.artifacts {
        let file = artifact.path.file_name().unwrap().to_string_lossy().into_owned();
        let (status, served) = http(&addr, "GET", &format!("/runs/{warm_id}/artifacts/{file}"), "");
        assert_eq!(status, 200);
        assert_eq!(served, std::fs::read(&artifact.path).unwrap());
    }
    server.join();

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn two_servers_in_one_process_report_only_their_own_runs() {
    let bind = |tag: &str| {
        let out_dir = tmp(tag);
        let _ = std::fs::remove_dir_all(&out_dir);
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            out_dir: out_dir.clone(),
            workers: 1,
            queue_cap: 4,
            sweep_jobs: 2,
            default_refs: REFS,
            ..ServeConfig::default()
        })
        .expect("bind loopback");
        (server, out_dir)
    };
    let servers = [bind("metrics-a"), bind("metrics-b")];
    let submission = format!("{{\"experiment\": \"topology_sweep\", \"refs\": {REFS}}}");
    let ids: Vec<String> = servers
        .iter()
        .map(|(server, _)| {
            let (status, body) =
                http(&server.local_addr().to_string(), "POST", "/runs", &submission);
            assert_eq!(status, 202);
            str_of(&json(&body), "id").to_owned()
        })
        .collect();
    for ((server, out_dir), id) in servers.into_iter().zip(&ids) {
        let addr = server.local_addr().to_string();
        let done = wait_done(&addr, id);
        let computed = u64_of(done.get("cache").expect("cache counts"), "misses");
        assert_eq!(computed, 4, "topology_sweep computes one point per topology cold");
        let (status, body) = http(&addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        let metrics = json(&body);
        let summary = metrics.get("summary").expect("simulator summary");
        assert_eq!(u64_of(summary, "runs"), computed, "each server folds only its own runs");
        assert!(metrics.get("warnings").is_none(), "/metrics has no warnings field");
        server.join();
        let _ = std::fs::remove_dir_all(&out_dir);
    }
}

/// The accept loop blocks in `accept`, so a join with no client traffic
/// must wake it itself; a watchdog turns a hang into a failure.
#[test]
fn join_returns_on_an_idle_server() {
    let out_dir = tmp("idle-join");
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        out_dir: out_dir.clone(),
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.join();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(30)).expect("Server::join on an idle server hung");
    let _ = std::fs::remove_dir_all(&out_dir);
}
