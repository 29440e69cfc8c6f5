//! Long-running HTTP experiment service: `ringsim serve`.
//!
//! The service fronts the [`ringsim_bench`] experiment registry with a
//! small asynchronous job queue over the deterministic sweep engine
//! ([`ringsim_sweep`]):
//!
//! * `GET  /healthz` — liveness (`ok`, or `draining` during shutdown);
//! * `GET  /experiments` — the registry as `[{name, description}]`;
//! * `POST /runs` — submit `{"experiment": "<name>", "refs": <n>?}`;
//!   returns 202 with a deterministic run id (or 200 when an identical
//!   submission already exists — see below), 429 + `Retry-After` when the
//!   bounded queue is full, 503 while draining;
//! * `GET  /runs/:id` — job status with per-point progress and sweep-cache
//!   hit/miss counts;
//! * `GET  /runs/:id/events` — live Server-Sent Events stream of the run
//!   (history replayed, then followed until the terminal event);
//! * `GET  /runs/:id/artifacts/:file` — byte-exact artifact serving;
//! * `POST /runs/:id/pin` — exempt a run from artifact retention ([`gc`]);
//! * `GET  /metrics` — the simulator metrics summary of this server's
//!   in-process runs, per-route request latency histograms, and job
//!   counts;
//! * `POST /shutdown` — programmatic drain (same path as SIGINT).
//!
//! **Dedupe by construction.** A run id is a pure function of the
//! submission — the sweep-point key scheme applied to `(experiment,
//! refs)` — so identical submissions collapse onto one job and one output
//! directory `<out>/runs/<id>`. Because that directory keeps its
//! `.cache/`, re-submitting after a restart re-runs the sweep against a
//! warm cache: zero points recomputed, byte-identical artifacts.
//!
//! **Graceful shutdown.** SIGINT/SIGTERM (or `POST /shutdown`) flips the
//! service into draining: new submissions get 503, in-flight jobs run to
//! completion, status/artifact reads keep working, and the process exits 0
//! once the pool is drained.
//!
//! The HTTP layer is a hand-rolled, hardened HTTP/1.1 subset over std
//! `TcpListener` (see [`http`]) — the build environment is offline and the
//! workspace vendors its external dependencies, so no network crates.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod gc;
pub mod http;
pub mod jobs;
pub mod router;
mod signal;
pub mod worker;

use std::collections::BTreeMap;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ringsim_obs::{LatencyHistogram, MetricsSink};

use crate::jobs::JobPool;
use crate::router::Reply;

/// How the service runs: bind address, storage root, queue shape,
/// execution mode (in-process pool vs shard-worker processes), retention.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`host:port`; port `0` picks a free one).
    pub addr: String,
    /// Root directory for job outputs (`<out>/runs/<id>/`).
    pub out_dir: PathBuf,
    /// Job-worker threads (concurrent experiment runs).
    pub workers: usize,
    /// Maximum queued (not yet running) jobs before 429.
    pub queue_cap: usize,
    /// Sweep-engine threads per job (`0` = engine default).
    pub sweep_jobs: usize,
    /// Per-processor reference budget when a submission omits `refs`.
    pub default_refs: u64,
    /// Per-connection read/write timeout.
    pub request_timeout: Duration,
    /// Shard-worker processes per run; `0`/`1` keeps the in-process pool,
    /// `N >= 2` executes each run as N `serve-worker` processes merging
    /// through the run's shared cache (see [`jobs`] and [`worker`]).
    pub shards: usize,
    /// Executable to spawn as `serve-worker` (`None` = this executable;
    /// tests point it at the `ringsim` binary explicitly).
    pub worker_exe: Option<PathBuf>,
    /// Peer-wait deadline shard workers use before computing a dead peer's
    /// points themselves.
    pub shard_wait: Duration,
    /// Retention: total size budget for `<out>/runs` (`0` = unlimited).
    pub gc_max_bytes: u64,
    /// Retention: runs older than this expire (zero = never).
    pub gc_max_age: Duration,
    /// Retention: runs younger than this are never deleted.
    pub gc_min_age: Duration,
    /// How often the retention sweeper runs (zero disables it).
    pub gc_interval: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8080".to_owned(),
            out_dir: PathBuf::from("serve-data"),
            workers: 2,
            queue_cap: 16,
            sweep_jobs: 0,
            default_refs: ringsim_bench::EXPERIMENT_REFS,
            request_timeout: Duration::from_secs(10),
            shards: 0,
            worker_exe: None,
            shard_wait: Duration::from_secs(600),
            gc_max_bytes: 0,
            gc_max_age: Duration::ZERO,
            gc_min_age: Duration::from_secs(60),
            gc_interval: Duration::from_secs(30),
        }
    }
}

impl ServeConfig {
    /// The retention policy this config describes.
    #[must_use]
    pub fn gc_policy(&self) -> gc::GcPolicy {
        gc::GcPolicy {
            max_total_bytes: self.gc_max_bytes,
            max_age: self.gc_max_age,
            min_age: self.gc_min_age,
        }
    }
}

/// Shared server state: config, job pool, and self-observation.
pub struct ServerState {
    /// The config the server was built with.
    pub cfg: ServeConfig,
    /// The bounded job pool.
    pub pool: JobPool,
    /// Where this server's in-process runs fold their simulator metrics
    /// (summary only: `/metrics` exports no timelines).
    pub(crate) metrics: Arc<MetricsSink>,
    started: Instant,
    draining: Mutex<bool>,
    /// Notified when `draining` flips, so the GC sweeper stops at once.
    drain_wake: Condvar,
    http: Mutex<BTreeMap<&'static str, LatencyHistogram>>,
    gc_sweeps: AtomicU64,
    gc_deleted_runs: AtomicU64,
    gc_reclaimed_bytes: AtomicU64,
}

impl ServerState {
    /// Builds the state and spawns the pool's workers.
    #[must_use]
    pub fn new(cfg: ServeConfig) -> Self {
        let metrics = Arc::new(MetricsSink::new(false));
        let pool = JobPool::new(&cfg, Arc::clone(&metrics));
        // Pre-register every dispatchable route so `/metrics` reports a
        // (possibly zero-count) histogram per route from the first scrape —
        // a route that has never been hit is visible, not missing.
        let mut http = BTreeMap::new();
        for route in router::ROUTES {
            http.insert(*route, LatencyHistogram::default());
        }
        Self {
            cfg,
            pool,
            metrics,
            started: Instant::now(),
            draining: Mutex::new(false),
            drain_wake: Condvar::new(),
            http: Mutex::new(http),
            gc_sweeps: AtomicU64::new(0),
            gc_deleted_runs: AtomicU64::new(0),
            gc_reclaimed_bytes: AtomicU64::new(0),
        }
    }

    /// Flips into draining: the pool rejects new jobs, workers exit once
    /// the queue is empty, and the GC sweeper stops.
    pub fn request_shutdown(&self) {
        *self.draining.lock().expect("drain lock") = true;
        self.pool.shutdown();
        self.drain_wake.notify_all();
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn draining(&self) -> bool {
        *self.draining.lock().expect("drain lock")
    }

    /// Milliseconds since the state was built.
    #[must_use]
    pub fn uptime_ms(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    /// Folds one request's wall time into the per-route latency digest.
    pub(crate) fn record_http(&self, route: &'static str, dur: Duration) {
        let mut map = self.http.lock().expect("http metrics lock");
        map.entry(route).or_default().record(dur.as_secs_f64() * 1e9);
    }

    /// Per-route latency digests, sorted by route label.
    pub(crate) fn http_stats(&self) -> Vec<(String, LatencyHistogram)> {
        let map = self.http.lock().expect("http metrics lock");
        map.iter().map(|(route, h)| ((*route).to_owned(), h.clone())).collect()
    }

    /// Folds one retention sweep's outcome into the GC counters.
    pub(crate) fn record_gc(&self, outcome: gc::SweepOutcome) {
        self.gc_sweeps.fetch_add(1, Ordering::Relaxed);
        self.gc_deleted_runs.fetch_add(outcome.deleted_runs, Ordering::Relaxed);
        self.gc_reclaimed_bytes.fetch_add(outcome.reclaimed_bytes, Ordering::Relaxed);
    }

    /// `(sweeps, deleted_runs, reclaimed_bytes)` since boot.
    pub(crate) fn gc_counters(&self) -> (u64, u64, u64) {
        (
            self.gc_sweeps.load(Ordering::Relaxed),
            self.gc_deleted_runs.load(Ordering::Relaxed),
            self.gc_reclaimed_bytes.load(Ordering::Relaxed),
        )
    }
}

/// A bound, accepting server. Dropping it leaks the accept thread; call
/// [`Server::join`] for an orderly stop.
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    sweeper: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `cfg.addr` and spawns the job workers and the accept loop.
    /// The server's state owns the metrics sink its in-process runs fold
    /// into, so two servers in one process each report only their own
    /// runs on `/metrics`.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration I/O errors.
    pub fn bind(cfg: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState::new(cfg));
        let accept_state = Arc::clone(&state);
        let accept = std::thread::Builder::new()
            .name("http-accept".to_owned())
            .spawn(move || accept_loop(&listener, &accept_state))?;
        let sweeper = if state.cfg.gc_interval.is_zero() || state.cfg.gc_policy().disabled() {
            None
        } else {
            let gc_state = Arc::clone(&state);
            Some(
                std::thread::Builder::new()
                    .name("gc-sweeper".to_owned())
                    .spawn(move || gc_loop(&gc_state))?,
            )
        };
        Ok(Self { state, addr, accept: Some(accept), sweeper })
    }

    /// The bound address (resolves port `0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (tests and embedders).
    #[must_use]
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Requests a drain without blocking (same as `POST /shutdown`).
    pub fn request_shutdown(&self) {
        self.state.request_shutdown();
    }

    /// Whether a drain has been requested.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.state.draining()
    }

    /// Drains and joins: rejects new jobs, finishes queued/running ones,
    /// then stops accepting and joins every service thread.
    pub fn join(mut self) {
        self.state.request_shutdown();
        self.state.pool.join();
        if let Some(h) = self.accept.take() {
            // The accept loop blocks in `accept`; one self-connect wakes it
            // to see the drain. Refused means a client's connection already
            // woke it and the listener has closed. On any other connect
            // error the thread cannot be woken, so it is left, as on drop.
            match TcpStream::connect(wake_addr(self.addr)) {
                Err(e) if e.kind() != io::ErrorKind::ConnectionRefused => {}
                _ => {
                    let _ = h.join();
                }
            }
        }
        if let Some(h) = self.sweeper.take() {
            let _ = h.join();
        }
    }
}

/// Where to connect to reach a listener bound at `addr`: an unspecified
/// bind address (`0.0.0.0`, `::`) is reached through loopback.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

/// Retention sweeper: every `gc_interval`, scan `<out>/runs`, delete what
/// the policy marks evictable, and fold the outcome into `/metrics`.
/// Sleeps on the drain condvar, so a drain wakes it at once.
fn gc_loop(state: &Arc<ServerState>) {
    let runs_root = state.cfg.out_dir.join("runs");
    let policy = state.cfg.gc_policy();
    let interval = state.cfg.gc_interval;
    loop {
        let draining = state.draining.lock().expect("drain lock");
        let (draining, _) = state
            .drain_wake
            .wait_timeout_while(draining, interval, |draining| !*draining)
            .expect("drain lock");
        if *draining {
            return;
        }
        drop(draining);
        let outcome = gc::sweep_once(
            &runs_root,
            &policy,
            |id| state.pool.is_active(id),
            |id| state.pool.forget(id),
        );
        state.record_gc(outcome);
    }
}

/// Accept loop: blocks in `accept` and serves each connection on its own
/// thread. Returns after the first accept that finds the service draining
/// and drained; [`Server::join`] makes that accept with a self-connect.
fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_state = Arc::clone(state);
                let _ = std::thread::Builder::new()
                    .name("http-conn".to_owned())
                    .spawn(move || handle_connection(&conn_state, stream));
                if state.draining() && state.pool.drained() {
                    return;
                }
            }
            // Back off on errors such as descriptor exhaustion rather than
            // spin on them.
            Err(_) => std::thread::sleep(Duration::from_millis(15)),
        }
    }
}

/// Serves one connection: one request, one response, close. Transport
/// failures are dropped silently; parse failures get the mapped 400/413.
fn handle_connection(state: &ServerState, stream: TcpStream) {
    let timeout = state.cfg.request_timeout;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = io::BufReader::new(read_half);
    let mut writer = stream;
    let start = Instant::now();
    match http::read_request(&mut reader) {
        Ok(Some(req)) => match router::dispatch(state, &req) {
            (route, Reply::Full(resp)) => {
                state.record_http(route, start.elapsed());
                let _ = resp.write_to(&mut writer);
            }
            (route, Reply::Events(cursor)) => {
                state.record_http(route, start.elapsed());
                stream_events(&mut writer, cursor);
            }
        },
        Ok(None) => {}
        Err(e) => {
            if let Some(resp) = e.response() {
                state.record_http("(rejected)", start.elapsed());
                let _ = resp.write_to(&mut writer);
            }
        }
    }
}

/// Streams a job's event log as Server-Sent Events over chunked transfer
/// encoding, replaying history first, then following live until the
/// terminal (`done`/`failed`) event. Blocks on the cursor's condvar with a
/// 1 s timeout; idle gaps emit `: keepalive` comment frames so proxies and
/// dead-peer detection see traffic. A client disconnect surfaces as a write
/// error and silently ends the stream — never the job.
fn stream_events(writer: &mut TcpStream, mut cursor: jobs::EventCursor) {
    if http::write_stream_headers(writer, "text/event-stream").is_err() {
        return;
    }
    loop {
        let batch = cursor.poll(Duration::from_secs(1));
        if batch.is_empty() {
            if http::write_chunk(writer, b": keepalive\n\n").is_err() {
                return;
            }
            continue;
        }
        for ev in batch {
            let frame = format!("event: {}\ndata: {}\n\n", ev.event, ev.data);
            if http::write_chunk(writer, frame.as_bytes()).is_err() {
                return;
            }
            if ev.terminal() {
                let _ = http::finish_chunks(writer);
                return;
            }
        }
    }
}

/// Runs the service until SIGINT/SIGTERM or `POST /shutdown`, then drains
/// and returns (the CLI exits 0 on a clean drain).
///
/// # Errors
///
/// Propagates bind I/O errors.
pub fn run(cfg: ServeConfig) -> io::Result<()> {
    signal::install();
    let server = Server::bind(cfg)?;
    eprintln!("ringsim serve: listening on http://{}", server.local_addr());
    while !signal::triggered() && !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("ringsim serve: draining (in-flight jobs run to completion)");
    server.join();
    eprintln!("ringsim serve: drained cleanly");
    Ok(())
}
