//! `serve-inproc` and `serve-sharded`: one closed-loop client against a
//! `ringsim serve` process, driven only over HTTP. Each request is a
//! `POST /runs` whose SSE stream the client holds open until the terminal
//! event; the next request goes out only after it.

use std::fs;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ringsim_bench::experiments;
use ringsim_obs::LatencyHistogram;
use ringsim_sweep::{run_experiment, SweepConfig};
use serde::{Deserialize, Value};

use crate::metrics::WorkloadResult;
use crate::spans::Tracer;
use crate::stats::{median, percentile, tail_percentile};
use crate::{elapsed_ns, peak_rss_mb, usage, Run, SETUPS};

/// The experiment every request submits.
const EXPERIMENT: &str = "topology_sweep";
/// Base per-processor budget; request `i` adds a seed-derived offset so no
/// two requests of a run dedupe onto one job.
const BASE_REFS: u64 = 20_000;
/// Nominal seconds per request on the calibration machine (see
/// `Run::ops`). Requests per run stay between enough for ten samples
/// beyond p75 and fewer than would put ten beyond p90.
const REQUEST_S: f64 = 0.2;
const MIN_RUNS: usize = 40;
const MAX_RUNS: usize = 99;
/// Runs whose artifacts are checked against an in-process run.
const VERIFIED: usize = 2;
const IO_TIMEOUT: Duration = Duration::from_secs(60);
/// How often the server's worker processes are sampled for their peak RSS.
const RSS_SAMPLE_EVERY: Duration = Duration::from_millis(10);

/// The routes the client uses, with the metric-name suffix each reports
/// its `/metrics` mean latency under.
pub const ROUTES: [(&str, &str); 5] = [
    ("GET /healthz", "healthz"),
    ("POST /runs", "post_runs"),
    ("GET /runs/:id", "get_run"),
    ("GET /runs/:id/events", "get_events"),
    ("GET /runs/:id/artifacts/:file", "get_artifact"),
];

/// A buffered HTTP response.
struct Response {
    status: u16,
    body: Vec<u8>,
}

impl Response {
    fn json(&self) -> Option<Value> {
        serde_json::parse_value(std::str::from_utf8(&self.body).ok()?).ok()
    }
}

fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn send(
    stream: &mut TcpStream,
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<()> {
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes())
}

/// One request on its own connection (the server closes after each
/// response), read to EOF.
fn request(addr: &str, method: &str, path: &str, body: &str) -> io::Result<Response> {
    let mut stream = connect(addr)?;
    send(&mut stream, addr, method, path, body)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response");
    let split = find(&raw, b"\r\n\r\n").ok_or_else(bad)?;
    let head = String::from_utf8_lossy(&raw[..split]).to_ascii_lowercase();
    let status = head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(bad)?;
    let mut body = raw[split + 4..].to_vec();
    if head.contains("transfer-encoding: chunked") {
        let mut decoder = Chunks::default();
        body = decoder.feed(&body);
    }
    Ok(Response { status, body })
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Incremental decoder for a chunked body arriving in pieces.
#[derive(Default)]
struct Chunks {
    pending: Vec<u8>,
}

impl Chunks {
    /// Feeds raw bytes, returning the payload of every chunk now complete.
    fn feed(&mut self, bytes: &[u8]) -> Vec<u8> {
        self.pending.extend_from_slice(bytes);
        let mut out = Vec::new();
        while let Some(eol) = find(&self.pending, b"\r\n") {
            let size = std::str::from_utf8(&self.pending[..eol])
                .ok()
                .and_then(|s| usize::from_str_radix(s.trim(), 16).ok());
            let Some(size) = size else { break };
            let end = eol + 2 + size + 2;
            if size == 0 || self.pending.len() < end {
                break;
            }
            out.extend_from_slice(&self.pending[eol + 2..eol + 2 + size]);
            self.pending.drain(..end);
        }
        out
    }
}

/// Client-side timestamps of one run's lifecycle.
struct RunTimes {
    sent: Instant,
    acked: Instant,
    running: Option<Instant>,
    first_progress: Option<Instant>,
    last_progress: Option<Instant>,
    terminal: Instant,
    events: u64,
    ok: bool,
}

/// Submits one run and follows its SSE stream to the terminal event.
fn submit_and_follow(addr: &str, refs: u64) -> Result<(String, RunTimes), String> {
    let sent = Instant::now();
    let body = format!("{{\"experiment\": \"{EXPERIMENT}\", \"refs\": {refs}}}");
    let ack = request(addr, "POST", "/runs", &body).map_err(|e| format!("POST /runs: {e}"))?;
    let acked = Instant::now();
    if ack.status != 202 {
        return Err(format!("POST /runs answered {} for refs {refs}", ack.status));
    }
    let id = match ack.json().as_ref().and_then(|v| v.get("id")) {
        Some(Value::Str(id)) => id.clone(),
        _ => return Err("POST /runs ack has no id".to_owned()),
    };
    let mut times = RunTimes {
        sent,
        acked,
        running: None,
        first_progress: None,
        last_progress: None,
        terminal: acked,
        events: 0,
        ok: false,
    };
    follow(addr, &id, &mut times).map_err(|e| format!("run {id} events: {e}"))?;
    Ok((id, times))
}

/// Reads `GET /runs/:id/events` frame by frame, stamping each event as its
/// frame completes, until `done` or `failed`.
fn follow(addr: &str, id: &str, times: &mut RunTimes) -> io::Result<()> {
    let mut stream = connect(addr)?;
    send(&mut stream, addr, "GET", &format!("/runs/{id}/events"), "")?;
    let mut raw = Vec::new();
    let mut in_body = false;
    let mut chunks = Chunks::default();
    let mut text = String::new();
    let mut buf = [0u8; 4096];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "stream ended early"));
        }
        let now = Instant::now();
        let payload = if in_body {
            chunks.feed(&buf[..n])
        } else {
            raw.extend_from_slice(&buf[..n]);
            let Some(split) = find(&raw, b"\r\n\r\n") else { continue };
            in_body = true;
            chunks.feed(&raw[split + 4..])
        };
        text.push_str(&String::from_utf8_lossy(&payload));
        while let Some(end) = text.find("\n\n") {
            let frame: String = text.drain(..end + 2).collect();
            let Some(event) = frame.lines().find_map(|l| l.strip_prefix("event: ")) else {
                continue; // keepalive comment
            };
            times.events += 1;
            match event {
                "state" if frame.contains("\"running\"") => times.running = Some(now),
                "progress" => {
                    times.first_progress.get_or_insert(now);
                    times.last_progress = Some(now);
                }
                "done" | "failed" => {
                    times.terminal = now;
                    times.ok = event == "done";
                    return Ok(());
                }
                _ => {}
            }
        }
    }
}

/// A running `ringsim serve` process. Dropping it kills and reaps the
/// process; [`Server::shutdown`] stops it the orderly way.
struct Server {
    child: Child,
    addr: String,
    stderr: Option<JoinHandle<Vec<String>>>,
}

impl Server {
    /// Spawns the server on a free port and waits until `/healthz` answers.
    fn start(ctx: &Run, dir: &Path, flags: &[&str]) -> Result<Self, String> {
        let mut child = Command::new(&ctx.ringsim)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1", "--gc-interval-secs", "0"])
            .arg("--out")
            .arg(dir)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", ctx.ringsim.display()))?;
        // The server prints its bound address; the rest of its log is
        // drained so the pipe never fills.
        let pipe = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let stderr = std::thread::spawn(move || {
            let mut tail = Vec::new();
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                if let Some(addr) = line.split("listening on http://").nth(1) {
                    let _ = tx.send(addr.trim().to_owned());
                }
                tail.push(line);
                if tail.len() > 20 {
                    tail.remove(0);
                }
            }
            tail
        });
        let mut server = Self { child, addr: String::new(), stderr: Some(stderr) };
        server.addr = rx
            .recv_timeout(IO_TIMEOUT)
            .map_err(|_| format!("server did not report its address: {:?}", server.log()))?;
        let deadline = Instant::now() + IO_TIMEOUT;
        loop {
            match request(&server.addr, "GET", "/healthz", "") {
                Ok(r) if r.status == 200 => return Ok(server),
                _ if Instant::now() > deadline => return Err("server never became healthy".into()),
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Stops the server with `POST /shutdown` and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let _ = request(&self.addr, "POST", "/shutdown", "");
        let deadline = Instant::now() + IO_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => return Err("server did not exit after POST /shutdown".into()),
            }
        }
    }

    /// The last lines the server logged (after it has exited).
    fn log(&mut self) -> Vec<String> {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.stderr.take().map(|h| h.join().unwrap_or_default()).unwrap_or_default()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// Watches the server's child processes (the `serve-worker` shards, spawned
/// per run) and keeps the largest `VmHWM` any of them reached. A worker's
/// own peak is visible only while it lives, so this samples every
/// [`RSS_SAMPLE_EVERY`].
struct WorkerRss {
    stop: Arc<AtomicBool>,
    sampler: JoinHandle<f64>,
}

impl WorkerRss {
    fn start(server: u32) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let sampler = std::thread::spawn(move || {
            let mut peak = 0.0_f64;
            while !flag.load(Ordering::Relaxed) {
                for pid in children(server) {
                    peak = peak.max(peak_rss_mb(Some(pid)));
                }
                std::thread::sleep(RSS_SAMPLE_EVERY);
            }
            peak
        });
        Self { stop, sampler }
    }

    /// Stops sampling; the largest worker `VmHWM` seen, in MB (0 when the
    /// server spawned none).
    fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.sampler.join().unwrap_or(0.0)
    }
}

/// Live processes whose parent is `parent`, from `/proc/<pid>/stat`. Only
/// pids above the parent's are read, since its children start after it.
fn children(parent: u32) -> Vec<u32> {
    let Ok(proc_dir) = fs::read_dir("/proc") else { return Vec::new() };
    let ppid = |pid: u32| {
        let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
        // The fields after the parenthesised command are state, then ppid.
        stat.rsplit_once(')')?.1.split_whitespace().nth(1)?.parse::<u32>().ok()
    };
    proc_dir
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| pid > parent && ppid(pid) == Some(parent))
        .collect()
}

pub fn run(ctx: &Run) -> WorkloadResult {
    let mut res = WorkloadResult::new(&ctx.workload, ctx.seed, ctx.traced);
    let jobs = ctx.jobs.to_string();
    let flags = if ctx.workload == "serve-sharded" {
        vec!["--shards", "2", "--sweep-jobs", "1"]
    } else {
        vec!["--sweep-jobs", jobs.as_str()]
    };
    res.threads = ctx.jobs;
    res.connections = 1;
    let mut tracer = Tracer::new(ctx.traced);

    // Set-up: spawn to the first healthy `/healthz`, several times; the
    // last server carries the measured load.
    let mut setups = Vec::new();
    let mut server = None;
    for rep in 0..SETUPS {
        let dir = ctx.tmp.join(format!("serve-{rep}"));
        let start = Instant::now();
        match Server::start(ctx, &dir, &flags) {
            Ok(s) => {
                setups.push(elapsed_ns(start) as f64 / 1e9);
                res.check(None);
                if rep + 1 < SETUPS {
                    res.fail_if(s.shutdown().err());
                } else {
                    server = Some(s);
                }
            }
            Err(e) => res.check(Some(e)),
        }
    }
    res.e2e("setup_s", setups);
    let Some(server) = server else { return res };

    // The closed loop; a traced run traces every other request.
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut events = Vec::new();
    let mut verify = Vec::new();
    let workers = WorkerRss::start(server.pid());
    let requests = ctx.ops(REQUEST_S, MIN_RUNS).min(MAX_RUNS);
    // The server's counters include the shard workers it has reaped.
    let usage_before = usage::Usage::read(Some(server.pid()));
    for i in 0..requests as u64 {
        let refs = BASE_REFS + (ctx.seed.wrapping_mul(7919).wrapping_add(i) % 1000);
        match submit_and_follow(&server.addr, refs) {
            Ok((id, t)) => {
                let wall = t.terminal.duration_since(t.sent).as_secs_f64();
                walls.push(wall);
                events.push(t.events as f64);
                let trace_this = ctx.traced && i % 2 == 1;
                if trace_this {
                    traced_walls.push(wall);
                    let run = t.running.unwrap_or(t.acked);
                    let first = t.first_progress.unwrap_or(run);
                    let last = t.last_progress.unwrap_or(first);
                    tracer.record_phases(
                        "serve.run",
                        &id,
                        &[
                            "serve.ack",
                            "serve.queue",
                            "serve.first_point",
                            "serve.compute",
                            "serve.finish",
                        ],
                        &[t.sent, t.acked, run, first, last, t.terminal],
                    );
                } else {
                    untraced_walls.push(wall);
                }
                res.check((!t.ok).then(|| format!("run {id} (refs {refs}) failed")));
                if verify.len() < VERIFIED && t.ok {
                    verify.push((id, refs));
                }
            }
            Err(e) => res.check(Some(e)),
        }
    }
    let usage_after = usage::Usage::read(Some(server.pid()));
    let worker_rss_mb = workers.finish();

    // Correctness: served artifacts byte-for-byte against in-process runs,
    // outside the timed loop.
    for (id, refs) in &verify {
        let err = tracer
            .span("serve.verify", id, 1, |t| check_artifacts(ctx, &server.addr, id, *refs, t));
        res.check(err);
    }

    if tail_percentile(walls.len()) != Some(75.0) {
        res.fail_if(Some(format!("{} runs completed: too few to report a p75", walls.len())));
    }
    if ctx.traced {
        res.layer(
            "trace_overhead_pct",
            100.0 * (median(&traced_walls) / median(&untraced_walls) - 1.0),
        );
        usage::record(&mut res, usage_before, usage_after, requests);
        res.detail("serve.run_p75_s", percentile(&walls, 75.0));
        for (span, metric) in [
            ("serve.ack", "serve.ack_ms"),
            ("serve.queue", "serve.queue_ms"),
            ("serve.first_point", "serve.first_point_ms"),
            ("serve.compute", "serve.compute_ms"),
            ("serve.finish", "serve.finish_ms"),
            ("serve.artifact_get", "serve.artifact_get_ms"),
        ] {
            res.detail(metric, tracer.ns_per_item(span, |_| true) / 1e6);
        }
        res.detail("serve.events_per_run", median(&events));
        match route_means(&server.addr) {
            Ok(means) => {
                for (metric, ms) in means {
                    res.detail(&format!("serve.route_mean_ms.{metric}"), ms);
                }
            }
            Err(e) => res.check(Some(e)),
        }
        ctx.write_trace(&tracer);
    }
    res.e2e_fastest("wall_s", walls);
    // The server's own peak plus its largest shard worker's, so memory of
    // the sharded compute path counts too.
    res.e2e("peak_rss_mb", vec![peak_rss_mb(Some(server.pid())) + worker_rss_mb]);
    res.check(server.shutdown().err());
    res
}

/// Fetches every artifact of run `id` and compares it with the same
/// experiment run in-process at the same budget.
fn check_artifacts(ctx: &Run, addr: &str, id: &str, refs: u64, t: &mut Tracer) -> Option<String> {
    let status = match request(addr, "GET", &format!("/runs/{id}"), "") {
        Ok(r) if r.status == 200 => r,
        Ok(r) => return Some(format!("GET /runs/{id} answered {}", r.status)),
        Err(e) => return Some(format!("GET /runs/{id}: {e}")),
    };
    let files: Vec<String> = status
        .json()
        .as_ref()
        .and_then(|v| v.get("artifacts"))
        .and_then(Vec::<String>::from_value)
        .unwrap_or_default();
    if files.is_empty() {
        return Some(format!("run {id} lists no artifacts"));
    }
    let dir = ctx.tmp.join(format!("verify-{id}"));
    let exp = experiments::find(EXPERIMENT).expect("registered experiment");
    run_experiment(exp, &SweepConfig::new(refs).jobs(ctx.jobs).out_dir(&dir).cache(false));
    let mut err = None;
    for file in &files {
        let path = format!("/runs/{id}/artifacts/{file}");
        let served = t.span("serve.artifact_get", id, 1, |_| request(addr, "GET", &path, ""));
        let local = fs::read(dir.join(file));
        err = err.or(match (served, local) {
            (Ok(r), Ok(bytes)) if r.status == 200 && r.body == bytes => None,
            (Ok(r), Ok(_)) if r.status == 200 => {
                Some(format!("{path}: bytes differ from an in-process run"))
            }
            (Ok(r), _) => Some(format!("{path} answered {}", r.status)),
            (Err(e), _) => Some(format!("{path}: {e}")),
        });
    }
    let _ = fs::remove_dir_all(&dir);
    err
}

/// Per-route mean request latency in ms, from the server's `/metrics`
/// (its histograms keep an exact sum, while their percentiles resolve only
/// to power-of-two bucket edges).
fn route_means(addr: &str) -> Result<Vec<(&'static str, f64)>, String> {
    let doc = request(addr, "GET", "/metrics", "")
        .ok()
        .and_then(|r| r.json())
        .ok_or("GET /metrics did not return JSON")?;
    let Some(Value::Array(routes)) = doc.get("http") else {
        return Err("/metrics has no http table".into());
    };
    ROUTES
        .iter()
        .map(|(route, metric)| {
            let hist = routes
                .iter()
                .find(|r| r.get("route") == Some(&Value::Str((*route).to_owned())))
                .and_then(|r| r.get("latency"))
                .and_then(LatencyHistogram::from_value)
                .ok_or_else(|| format!("/metrics lacks route `{route}`"))?;
            Ok((*metric, hist.mean() / 1e6))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_counts_keep_p75_the_reportable_tail() {
        assert_eq!(tail_percentile(MIN_RUNS), Some(75.0));
        assert_eq!(tail_percentile(MAX_RUNS), Some(75.0));
    }

    #[test]
    fn children_lists_a_spawned_process() {
        let mut child = Command::new("sleep").arg("5").spawn().expect("sleep runs");
        let found = children(std::process::id());
        let _ = child.kill();
        let _ = child.wait();
        assert!(found.contains(&child.id()), "{found:?}");
        assert!(children(u32::MAX).is_empty());
    }

    #[test]
    fn chunk_decoder_reassembles_split_chunks() {
        let mut c = Chunks::default();
        assert_eq!(c.feed(b"5\r\nhel"), b"");
        assert_eq!(c.feed(b"lo\r\n6\r\n world\r\n"), b"hello world");
        assert_eq!(c.feed(b"0\r\n\r\n"), b"");
    }
}
