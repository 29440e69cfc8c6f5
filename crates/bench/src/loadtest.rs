//! Load-test harness for the `ringsim serve` HTTP service.
//!
//! Drives many concurrent clients against a running service with a mixed
//! workload — submissions (including a deliberate dedupe storm where every
//! client posts the identical body), status polls, live SSE streams with
//! mid-stream disconnects, artifact fetches, and metrics scrapes — and
//! reports per-operation latency histograms plus error counts.
//!
//! The harness is its own minimal blocking HTTP/1.1 client over std
//! `TcpStream` (the workspace is offline; and the service speaks
//! one-request-per-connection `Connection: close`, which makes a correct
//! client tiny: write the request, read to EOF). It lives in
//! `ringsim-bench` rather than `ringsim-serve` because serve depends on
//! bench for the experiment registry — the dependency only works this way
//! around — and because a load generator that shares zero code with the
//! server it tests is a feature, not an accident. [`request`] is also
//! the client of the service's end-to-end tests.
//!
//! CI gates on the [`Report`]: any 5xx response, any dropped (I/O-failed)
//! connection, or a p99 above a generous bound fails the job. 429
//! (queue-full backpressure) and 404 (artifact not yet written) are
//! expected under load and tracked separately, not failures.

use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ringsim_obs::LatencyHistogram;
use serde::Serialize;

/// What one load-test run should do.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Service address (`host:port`).
    pub addr: String,
    /// Concurrent client threads.
    pub clients: usize,
    /// Mixed-workload operations per client (after the storm phase).
    pub requests_per_client: usize,
    /// Identical submissions per client in the opening dedupe storm.
    pub storm_submits: usize,
    /// Experiment names the mixed phase samples from.
    pub experiments: Vec<String>,
    /// Per-processor reference budget sent with every submission (keep it
    /// tiny — the harness measures the service, not the simulator).
    pub refs: u64,
    /// Per-connection read/write timeout.
    pub timeout: Duration,
    /// Bytes after which a stream client deliberately disconnects
    /// mid-stream (exercises the server's disconnect path).
    pub stream_disconnect_bytes: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8080".to_owned(),
            clients: 50,
            requests_per_client: 20,
            storm_submits: 2,
            experiments: vec!["fig3".to_owned()],
            refs: 50,
            timeout: Duration::from_secs(10),
            stream_disconnect_bytes: 16 * 1024,
        }
    }
}

/// Outcome classes one operation can land in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// 2xx/3xx, or a stream that delivered data.
    Ok,
    /// 404 — expected for artifacts that are not written yet.
    NotFound,
    /// 429 — queue-full backpressure (expected under load).
    Backpressure,
    /// Any other 4xx (a harness bug, but not a server failure).
    ClientError,
    /// 5xx — a server failure; the CI gate fails on any of these.
    ServerError,
    /// The connection failed at the transport layer (refused, reset,
    /// timeout); the CI gate fails on any of these.
    Dropped,
}

/// Aggregated results for one operation kind.
#[derive(Debug, Default)]
struct OpStats {
    latency: LatencyHistogram,
    ok: u64,
    not_found: u64,
    backpressure: u64,
    client_errors: u64,
    server_errors: u64,
    dropped: u64,
}

impl OpStats {
    fn record(&mut self, outcome: Outcome, elapsed: Duration) {
        self.latency.record(elapsed.as_secs_f64() * 1e9);
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::NotFound => self.not_found += 1,
            Outcome::Backpressure => self.backpressure += 1,
            Outcome::ClientError => self.client_errors += 1,
            Outcome::ServerError => self.server_errors += 1,
            Outcome::Dropped => self.dropped += 1,
        }
    }
}

/// One operation's row in the final [`Report`].
#[derive(Debug, Clone, Serialize)]
pub struct OpReport {
    /// Operation label (`submit`, `poll`, `stream`, ...).
    pub op: String,
    /// Operations attempted.
    pub count: u64,
    /// 2xx/3xx outcomes.
    pub ok: u64,
    /// 404 outcomes (artifact races; expected).
    pub not_found: u64,
    /// 429 outcomes (backpressure; expected).
    pub backpressure: u64,
    /// Other 4xx outcomes.
    pub client_errors: u64,
    /// 5xx outcomes (gate: must be zero).
    pub server_errors: u64,
    /// Transport failures (gate: must be zero).
    pub dropped: u64,
    /// Median latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile latency in milliseconds.
    pub p99_ms: f64,
    /// Worst observed latency in milliseconds.
    pub max_ms: f64,
}

/// The whole run's result (serialised to JSON for the CI artifact).
#[derive(Debug, Clone, Serialize)]
pub struct Report {
    /// Client threads that ran.
    pub clients: u64,
    /// Total operations across all clients and phases.
    pub total_ops: u64,
    /// Total 5xx responses (gate: zero).
    pub server_errors: u64,
    /// Total transport failures (gate: zero).
    pub dropped: u64,
    /// Wall time of the whole run in milliseconds.
    pub wall_ms: u64,
    /// Distinct run ids observed in submission acks.
    pub runs_seen: u64,
    /// Per-operation breakdown, sorted by label.
    pub ops: Vec<OpReport>,
}

impl Report {
    /// Applies the CI gates: zero 5xx, zero dropped connections, and every
    /// operation's p99 under `p99_bound`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated gate.
    pub fn gate(&self, p99_bound: Duration) -> Result<(), String> {
        if self.server_errors > 0 {
            return Err(format!("{} server (5xx) errors", self.server_errors));
        }
        if self.dropped > 0 {
            return Err(format!("{} dropped connections", self.dropped));
        }
        let bound_ms = p99_bound.as_secs_f64() * 1e3;
        for op in &self.ops {
            if op.p99_ms > bound_ms {
                return Err(format!(
                    "{} p99 {:.1} ms exceeds the {bound_ms:.0} ms bound",
                    op.op, op.p99_ms
                ));
            }
        }
        Ok(())
    }
}

/// Deterministic per-client pseudo-random stream (splitmix64); the load
/// pattern is reproducible from the client index alone.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x1234_5678))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A parsed (enough) HTTP response.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Status line and headers, without the blank line that ends them.
    pub head: String,
    /// The body bytes, de-chunked when the server used chunked encoding.
    pub body: Vec<u8>,
}

/// One blocking request against the service. The server closes after every
/// response, so the body is simply everything after the header block.
///
/// # Errors
///
/// Connection and I/O failures, and a response without a status line.
pub fn request(
    addr: &str,
    timeout: Duration,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<HttpResponse> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    let mut stream = stream;
    let payload = body.unwrap_or("");
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len()
    );
    stream.write_all(req.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response"))
}

/// Splits a raw `Connection: close` response into status + body, decoding
/// chunked transfer encoding when the server used it.
fn parse_response(raw: &[u8]) -> Option<HttpResponse> {
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = String::from_utf8_lossy(&raw[..split]).into_owned();
    let status: u16 = head.split_whitespace().nth(1)?.parse().ok()?;
    let body = &raw[split + 4..];
    let chunked = head.to_ascii_lowercase().contains("transfer-encoding: chunked");
    let body = if chunked { decode_chunked(body) } else { body.to_vec() };
    Some(HttpResponse { status, head, body })
}

/// Decodes chunked transfer encoding (tolerantly: a truncated tail — the
/// norm when a stream client disconnected mid-run — keeps what arrived).
fn decode_chunked(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(eol) = rest.windows(2).position(|w| w == b"\r\n") {
        let size_line = String::from_utf8_lossy(&rest[..eol]);
        let Ok(size) = usize::from_str_radix(size_line.trim(), 16) else { break };
        let after = &rest[eol + 2..];
        if size == 0 || after.len() < size {
            out.extend_from_slice(&after[..size.min(after.len())]);
            break;
        }
        out.extend_from_slice(&after[..size]);
        rest = after[size..].strip_prefix(b"\r\n").unwrap_or(&after[size..]);
    }
    out
}

fn classify(status: u16) -> Outcome {
    match status {
        200..=399 => Outcome::Ok,
        404 => Outcome::NotFound,
        429 => Outcome::Backpressure,
        400..=499 => Outcome::ClientError,
        _ => Outcome::ServerError,
    }
}

/// Pulls the `"id"` out of a submission ack without a full JSON parse.
fn extract_id(body: &str) -> Option<String> {
    let idx = body.find("\"id\"")?;
    let rest = &body[idx + 4..];
    let open = rest.find('"')?;
    let rest = &rest[open + 1..];
    let close = rest.find('"')?;
    Some(rest[..close].to_owned())
}

/// Shared mutable state the client threads fold results into.
struct Board {
    stats: Mutex<BTreeMap<String, OpStats>>,
    run_ids: Mutex<Vec<String>>,
    total_ops: AtomicU64,
}

impl Board {
    fn record(&self, op: &str, outcome: Outcome, elapsed: Duration) {
        self.total_ops.fetch_add(1, Ordering::Relaxed);
        let mut map = self.stats.lock().expect("stats lock");
        map.entry(op.to_owned()).or_default().record(outcome, elapsed);
    }

    fn saw_run(&self, id: String) {
        let mut ids = self.run_ids.lock().expect("run ids lock");
        if !ids.contains(&id) {
            ids.push(id);
        }
    }

    fn pick_run(&self, rng: &mut Rng) -> Option<String> {
        let ids = self.run_ids.lock().expect("run ids lock");
        if ids.is_empty() {
            return None;
        }
        let idx = rng.below(ids.len() as u64) as usize;
        Some(ids[idx].clone())
    }
}

/// Submits one run and records the ack (plus any learned run id).
fn do_submit(cfg: &LoadConfig, board: &Board, experiment: &str) {
    let body = format!("{{\"experiment\": \"{experiment}\", \"refs\": {}}}", cfg.refs);
    let start = Instant::now();
    match request(&cfg.addr, cfg.timeout, "POST", "/runs", Some(&body)) {
        Ok(resp) => {
            if classify(resp.status) == Outcome::Ok {
                if let Some(id) = extract_id(&String::from_utf8_lossy(&resp.body)) {
                    board.saw_run(id);
                }
            }
            board.record("submit", classify(resp.status), start.elapsed());
        }
        Err(_) => board.record("submit", Outcome::Dropped, start.elapsed()),
    }
}

/// One GET against a path, recorded under `op`.
fn do_get(cfg: &LoadConfig, board: &Board, op: &str, path: &str) {
    let start = Instant::now();
    match request(&cfg.addr, cfg.timeout, "GET", path, None) {
        Ok(resp) => board.record(op, classify(resp.status), start.elapsed()),
        Err(_) => board.record(op, Outcome::Dropped, start.elapsed()),
    }
}

/// Opens an SSE stream and reads until the terminal event, the disconnect
/// budget, or the read timeout — then drops the connection. Receiving the
/// headers plus any data counts as `Ok`: a mid-stream disconnect is the
/// *client's* choice and must not be scored against the server.
fn do_stream(cfg: &LoadConfig, board: &Board, id: &str) {
    let start = Instant::now();
    let outcome = stream_once(cfg, id);
    board.record("stream", outcome, start.elapsed());
}

fn stream_once(cfg: &LoadConfig, id: &str) -> Outcome {
    let inner = || -> std::io::Result<Outcome> {
        let mut stream = TcpStream::connect(&cfg.addr)?;
        stream.set_read_timeout(Some(cfg.timeout))?;
        stream.set_write_timeout(Some(cfg.timeout))?;
        let req = format!(
            "GET /runs/{id}/events HTTP/1.1\r\nHost: {}\r\nAccept: text/event-stream\r\nConnection: close\r\n\r\n",
            cfg.addr
        );
        stream.write_all(req.as_bytes())?;
        let mut buf = Vec::new();
        let mut chunk = [0u8; 2048];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    buf.extend_from_slice(&chunk[..n]);
                    let text = String::from_utf8_lossy(&buf);
                    if text.contains("event: done") || text.contains("event: failed") {
                        break;
                    }
                    if buf.len() >= cfg.stream_disconnect_bytes {
                        return Ok(Outcome::Ok); // deliberate mid-stream drop
                    }
                }
                // A timed-out long-lived stream still proved the route works.
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::TimedOut => break,
                Err(e) => return Err(e),
            }
        }
        let resp = parse_response(&buf).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed stream")
        })?;
        Ok(classify(resp.status))
    };
    inner().unwrap_or(Outcome::Dropped)
}

/// One client's whole life: the dedupe storm, then the mixed phase.
fn client_loop(cfg: &LoadConfig, board: &Board, client: usize) {
    let mut rng = Rng::new(client as u64 + 1);
    // Dedupe storm: every client posts the identical body concurrently —
    // all of them must collapse onto one run id without a 5xx.
    for _ in 0..cfg.storm_submits {
        do_submit(cfg, board, &cfg.experiments[0]);
    }
    for _ in 0..cfg.requests_per_client {
        match rng.below(12) {
            0..=2 => {
                let exp_idx = rng.below(cfg.experiments.len() as u64) as usize;
                do_submit(cfg, board, &cfg.experiments[exp_idx]);
            }
            3..=6 => match board.pick_run(&mut rng) {
                Some(id) => do_get(cfg, board, "poll", &format!("/runs/{id}")),
                None => do_submit(cfg, board, &cfg.experiments[0]),
            },
            7 | 8 => match board.pick_run(&mut rng) {
                Some(id) => do_stream(cfg, board, &id),
                None => do_get(cfg, board, "healthz", "/healthz"),
            },
            9 => match board.pick_run(&mut rng) {
                Some(id) => {
                    // Artifact fetch: 404 until the run finishes is expected.
                    let file = format!("{}.json", cfg.experiments[0]);
                    do_get(cfg, board, "artifact", &format!("/runs/{id}/artifacts/{file}"));
                }
                None => do_get(cfg, board, "healthz", "/healthz"),
            },
            10 => do_get(cfg, board, "metrics", "/metrics"),
            _ => do_get(cfg, board, "healthz", "/healthz"),
        }
    }
}

/// Runs the full load test against an already-listening service and
/// returns the report. Panics only on harness-internal lock poisoning.
#[must_use]
pub fn run_loadtest(cfg: &LoadConfig) -> Report {
    let board = Board {
        stats: Mutex::new(BTreeMap::new()),
        run_ids: Mutex::new(Vec::new()),
        total_ops: AtomicU64::new(0),
    };
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..cfg.clients {
            let board = &board;
            scope.spawn(move || client_loop(cfg, board, client));
        }
    });
    let wall = start.elapsed();
    let stats = board.stats.into_inner().expect("stats lock");
    let mut server_errors = 0;
    let mut dropped = 0;
    let ops: Vec<OpReport> = stats
        .into_iter()
        .map(|(op, s)| {
            server_errors += s.server_errors;
            dropped += s.dropped;
            OpReport {
                op,
                count: s.latency.count(),
                ok: s.ok,
                not_found: s.not_found,
                backpressure: s.backpressure,
                client_errors: s.client_errors,
                server_errors: s.server_errors,
                dropped: s.dropped,
                p50_ms: s.latency.p50() / 1e6,
                p99_ms: s.latency.p99() / 1e6,
                max_ms: s.latency.max().unwrap_or(0.0) / 1e6,
            }
        })
        .collect();
    Report {
        clients: cfg.clients as u64,
        total_ops: board.total_ops.load(Ordering::Relaxed),
        server_errors,
        dropped,
        wall_ms: u64::try_from(wall.as_millis()).unwrap_or(u64::MAX),
        runs_seen: board.run_ids.into_inner().expect("run ids lock").len() as u64,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_decoding_reassembles_and_tolerates_truncation() {
        let body = b"5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n";
        assert_eq!(decode_chunked(body), b"hello world");
        // Truncated mid-chunk: keep what arrived.
        assert_eq!(decode_chunked(b"5\r\nhel"), b"hel");
        // Chunk data is bytes: a split multi-byte character survives.
        assert_eq!(decode_chunked(b"1\r\n\xc3\r\n1\r\n\xa9\r\n0\r\n\r\n"), "\u{e9}".as_bytes());
    }

    #[test]
    fn response_parsing_handles_plain_and_chunked() {
        let plain = b"HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\n\r\nmissing";
        let r = parse_response(plain).unwrap();
        assert_eq!((r.status, r.body.as_slice()), (404, b"missing".as_slice()));
        assert_eq!(r.head, "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain");
        let chunked =
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\ndata\r\n0\r\n\r\n";
        let r = parse_response(chunked).unwrap();
        assert_eq!((r.status, r.body.as_slice()), (200, b"data".as_slice()));
    }

    #[test]
    fn ack_id_extraction_finds_the_run_id() {
        let body = "{\"id\": \"abcdef0123456789\", \"deduped\": false}";
        assert_eq!(extract_id(body).as_deref(), Some("abcdef0123456789"));
        assert_eq!(extract_id("{}"), None);
    }

    #[test]
    fn outcome_classification_matches_the_gates() {
        assert_eq!(classify(202), Outcome::Ok);
        assert_eq!(classify(404), Outcome::NotFound);
        assert_eq!(classify(429), Outcome::Backpressure);
        assert_eq!(classify(400), Outcome::ClientError);
        assert_eq!(classify(500), Outcome::ServerError);
        assert_eq!(classify(503), Outcome::ServerError);
    }

    #[test]
    fn gate_rejects_5xx_dropped_and_slow_p99() {
        let mut report = Report {
            clients: 1,
            total_ops: 1,
            server_errors: 0,
            dropped: 0,
            wall_ms: 1,
            runs_seen: 1,
            ops: vec![OpReport {
                op: "poll".to_owned(),
                count: 1,
                ok: 1,
                not_found: 0,
                backpressure: 0,
                client_errors: 0,
                server_errors: 0,
                dropped: 0,
                p50_ms: 1.0,
                p99_ms: 2.0,
                max_ms: 3.0,
            }],
        };
        assert!(report.gate(Duration::from_secs(1)).is_ok());
        report.ops[0].p99_ms = 5000.0;
        assert!(report.gate(Duration::from_secs(1)).is_err());
        report.ops[0].p99_ms = 2.0;
        report.server_errors = 1;
        assert!(report.gate(Duration::from_secs(1)).is_err());
        report.server_errors = 0;
        report.dropped = 1;
        assert!(report.gate(Duration::from_secs(1)).is_err());
    }
}
