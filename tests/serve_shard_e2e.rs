//! End-to-end test of the multi-process sweep coordinator: a service
//! configured with `--shards 4` spawns real `ringsim serve-worker`
//! processes (the actual CLI binary, via `CARGO_BIN_EXE_ringsim`), and the
//! folded artifacts are byte-identical to a direct in-process run — the
//! cache-as-merge-substrate contract, one level above `--jobs` invariance.
//!
//! The same run also locks the SSE surface over real sockets: the event
//! stream replays monotonically non-decreasing progress and ends with a
//! terminal `done` event that matches `GET /runs/:id`, and `POST
//! /runs/:id/pin` drops the retention marker.
//!
//! A second run points the workers at an executable that exits non-zero at
//! once: the fold, the one recovery path, computes the whole sweep itself,
//! and its progress events count against the sweep size. In both runs no
//! `progress` event counts more points done than submitted.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ringsim::serve::{ServeConfig, Server};
use ringsim::sweep::{run_experiment, Artifact, SweepConfig};
use ringsim_bench::experiments;
use ringsim_bench::loadtest::request;
use serde::Value;

const REFS: u64 = 2_000;

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ringsim-shard-e2e-{tag}-{}", std::process::id()))
}

/// One request through the load tester's client, returning
/// `(status, body_bytes)`.
fn http(addr: &str, method: &str, path: &str, body: &str) -> (u16, Vec<u8>) {
    let resp = request(addr, Duration::from_secs(60), method, path, Some(body)).expect("request");
    (resp.status, resp.body)
}

fn json(body: &[u8]) -> Value {
    serde_json::parse_value(std::str::from_utf8(body).expect("UTF-8 body")).expect("valid JSON")
}

fn wait_done(addr: &str, id: &str) -> Value {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let (status, body) = http(addr, "GET", &format!("/runs/{id}"), "");
        assert_eq!(status, 200, "poll failed: {}", String::from_utf8_lossy(&body));
        let v = json(&body);
        match v.get("state").and_then(Value::as_str).expect("state") {
            "done" => return v,
            "failed" => panic!("job failed: {v:?}"),
            _ => assert!(Instant::now() < deadline, "job did not finish: {v:?}"),
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Reads the full SSE stream of a run (the server closes it after the
/// terminal event) and returns the decoded `(event, data)` frames.
fn read_stream(addr: &str, id: &str) -> Vec<(String, String)> {
    let resp = request(addr, Duration::from_secs(120), "GET", &format!("/runs/{id}/events"), None)
        .expect("stream request");
    let head = resp.head.to_ascii_lowercase();
    assert_eq!(resp.status, 200, "stream status: {}", resp.head);
    assert!(head.contains("content-type: text/event-stream"), "stream content type: {head}");
    assert!(head.contains("transfer-encoding: chunked"), "stream must be chunked: {head}");
    // The client undid the chunked framing; split SSE frames on blank lines.
    String::from_utf8(resp.body)
        .expect("UTF-8 stream")
        .split("\n\n")
        .filter(|frame| !frame.trim().is_empty() && !frame.starts_with(':'))
        .map(|frame| {
            let mut event = String::new();
            let mut data = String::new();
            for line in frame.lines() {
                if let Some(v) = line.strip_prefix("event: ") {
                    event = v.to_owned();
                } else if let Some(v) = line.strip_prefix("data: ") {
                    data = v.to_owned();
                }
            }
            (event, data)
        })
        .collect()
}

/// Every `progress` event of a run's stream, as `(completed, total)`, in
/// stream order. Each one must count no more points done than submitted.
fn progress_of(frames: &[(String, String)]) -> Vec<(u64, u64)> {
    frames
        .iter()
        .filter(|(event, _)| event == "progress")
        .map(|(_, data)| {
            let v = serde_json::parse_value(data).expect("progress data is JSON");
            let count = |key: &str| v.get(key).and_then(Value::as_u64).expect(key);
            let (completed, total) = (count("completed"), count("total"));
            assert!(completed <= total, "progress {completed} of {total} points: {data}");
            (completed, total)
        })
        .collect()
}

/// Byte-identity of every artifact against the direct run, through the
/// artifact route.
fn assert_artifacts_match(addr: &str, id: &str, artifacts: &[Artifact]) {
    for artifact in artifacts {
        let file = artifact.path.file_name().unwrap().to_string_lossy().into_owned();
        let (status, served) = http(addr, "GET", &format!("/runs/{id}/artifacts/{file}"), "");
        assert_eq!(status, 200, "artifact {file}");
        let direct = std::fs::read(&artifact.path).expect("reference artifact");
        assert_eq!(served, direct, "artifact {file} differs between sharded and direct runs");
    }
}

#[test]
fn four_shard_workers_fold_to_byte_identical_artifacts() {
    // Reference: a direct, serial, in-process run of the same submission.
    let ref_dir = tmp("reference");
    let _ = std::fs::remove_dir_all(&ref_dir);
    let exp = experiments::find("fig3").expect("fig3 registered");
    let report = run_experiment(exp, &SweepConfig::new(REFS).jobs(1).out_dir(&ref_dir));
    assert!(!report.artifacts.is_empty());

    // Service under test: every run fans out across 4 worker processes of
    // the real CLI binary.
    let out_dir = tmp("service");
    let _ = std::fs::remove_dir_all(&out_dir);
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        out_dir: out_dir.clone(),
        workers: 1,
        queue_cap: 4,
        sweep_jobs: 2,
        default_refs: REFS,
        shards: 4,
        worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_ringsim"))),
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    let submission = format!("{{\"experiment\": \"fig3\", \"refs\": {REFS}}}");
    let (status, body) = http(&addr, "POST", "/runs", &submission);
    assert_eq!(status, 202, "submit: {}", String::from_utf8_lossy(&body));
    let id = json(&body).get("id").and_then(Value::as_str).expect("id").to_owned();

    let status_doc = wait_done(&addr, &id);
    let points = status_doc.get("points").expect("points progress");
    let total = points.get("total").and_then(Value::as_u64).expect("total");
    assert!(total > 0);
    assert_eq!(
        total,
        points.get("completed").and_then(Value::as_u64).expect("completed"),
        "sharded progress must sum to the sweep size"
    );
    // Cold sharded run: each point is computed exactly once across the
    // workers (misses == total, no duplicated compute), and nothing was
    // pre-warmed. The fold's own cache hits are bookkeeping, not work, and
    // are deliberately not counted.
    let cache = status_doc.get("cache").expect("cache counts");
    assert_eq!(
        cache.get("misses").and_then(Value::as_u64).expect("misses"),
        total,
        "duplicated compute: {status_doc:?}"
    );
    assert_eq!(
        cache.get("hits").and_then(Value::as_u64).expect("hits"),
        0,
        "cold run must not report hits: {status_doc:?}"
    );

    // Workers render nothing, so they leave no scratch directories.
    assert!(!out_dir.join("runs").join(&id).join("shards").exists());

    assert_artifacts_match(&addr, &id, &report.artifacts);

    // The SSE stream (late subscriber: the run is already done) replays the
    // whole history — monotone progress, then a terminal event that agrees
    // with the status document.
    let frames = read_stream(&addr, &id);
    assert!(frames.len() >= 2, "stream too short: {frames:?}");
    for (event, _) in &frames[..frames.len() - 1] {
        assert_ne!(event.as_str(), "done", "terminal event must be last");
    }
    let progress = progress_of(&frames);
    let mut last_completed = 0;
    for &(completed, _) in &progress {
        assert!(
            completed > last_completed,
            "progress must be strictly increasing: {completed} after {last_completed}"
        );
        last_completed = completed;
    }
    assert_eq!(progress.len() as u64, total, "one progress event per point");
    let (last_event, last_data) = frames.last().unwrap();
    assert_eq!(last_event.as_str(), "done");
    let terminal = serde_json::parse_value(last_data).expect("terminal data is JSON");
    assert_eq!(terminal.get("points").and_then(Value::as_u64).expect("points"), total);
    assert_eq!(
        terminal.get("hits").and_then(Value::as_u64).expect("hits"),
        cache.get("hits").and_then(Value::as_u64).expect("hits")
    );
    assert_eq!(
        terminal.get("misses").and_then(Value::as_u64).expect("misses"),
        cache.get("misses").and_then(Value::as_u64).expect("misses")
    );

    // Pinning drops the retention marker.
    let (status, body) = http(&addr, "POST", &format!("/runs/{id}/pin"), "");
    assert_eq!(status, 200, "pin: {}", String::from_utf8_lossy(&body));
    assert!(out_dir.join("runs").join(&id).join(".pinned").is_file());

    // /metrics advertises the worker-pool shape and the (idle) GC counters.
    let (status, body) = http(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let metrics = json(&body);
    let pool = metrics.get("pool").expect("pool stats");
    assert_eq!(pool.get("shards").and_then(Value::as_u64).expect("shards"), 4);
    assert_eq!(pool.get("workers").and_then(Value::as_u64).expect("workers"), 1);
    let gc = metrics.get("gc").expect("gc stats");
    assert_eq!(gc.get("deleted_runs").and_then(Value::as_u64).expect("deleted_runs"), 0);

    server.join();
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn failing_workers_leave_the_whole_sweep_to_the_fold() {
    let ref_dir = tmp("fault-reference");
    let _ = std::fs::remove_dir_all(&ref_dir);
    let exp = experiments::find("fig3").expect("fig3 registered");
    let report = run_experiment(exp, &SweepConfig::new(REFS).jobs(1).out_dir(&ref_dir));

    // Every worker "process" exits non-zero before caching anything.
    let out_dir = tmp("fault-service");
    let _ = std::fs::remove_dir_all(&out_dir);
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        out_dir: out_dir.clone(),
        workers: 1,
        queue_cap: 4,
        sweep_jobs: 2,
        default_refs: REFS,
        shards: 2,
        worker_exe: Some(PathBuf::from("/bin/false")),
        ..ServeConfig::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    let submission = format!("{{\"experiment\": \"fig3\", \"refs\": {REFS}}}");
    let (status, body) = http(&addr, "POST", "/runs", &submission);
    assert_eq!(status, 202, "submit: {}", String::from_utf8_lossy(&body));
    let id = json(&body).get("id").and_then(Value::as_str).expect("id").to_owned();

    let status_doc = wait_done(&addr, &id);
    let points = status_doc.get("points").expect("points progress");
    let total = points.get("total").and_then(Value::as_u64).expect("total");
    assert_eq!(total, report.meta.points as u64);
    assert_eq!(points.get("completed").and_then(Value::as_u64).expect("completed"), total);
    let cache = status_doc.get("cache").expect("cache counts");
    assert_eq!(
        cache.get("misses").and_then(Value::as_u64).expect("misses"),
        total,
        "the fold computes every point: {status_doc:?}"
    );
    assert_eq!(cache.get("hits").and_then(Value::as_u64).expect("hits"), 0);
    assert_artifacts_match(&addr, &id, &report.artifacts);

    // With no worker announcing its stripe, the fold's own `map` call sets
    // the total its progress events count against.
    let progress = progress_of(&read_stream(&addr, &id));
    assert_eq!(progress.len() as u64, total, "one progress event per fold-computed point");
    assert!(progress.iter().all(|&(_, t)| t == total), "fold progress totals: {progress:?}");

    server.join();
    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&out_dir);
}
