//! The bounded asynchronous job pool behind `POST /runs`.
//!
//! Each job runs one registry experiment through the sweep engine
//! ([`ringsim_sweep::run_experiment`]) inside a dedicated per-run output
//! directory `<out_root>/runs/<id>`. Because the run id is a **pure
//! function of the submission** — the sweep-point key scheme
//! ([`SweepPoint::seed`]) applied to `(experiment, refs)` — identical
//! submissions dedupe onto the same job *and* the same directory, so a
//! re-submission after a restart lands on a warm `<dir>/.cache` and
//! re-executes zero points.
//!
//! The queue is bounded: submissions beyond [`JobPool`]'s capacity are
//! rejected with [`SubmitOutcome::QueueFull`] (the HTTP layer maps this to
//! 429). During drain ([`JobPool::shutdown`]) new submissions are rejected
//! with [`SubmitOutcome::Draining`] (503) while workers finish every job
//! already accepted — nothing accepted is ever lost mid-write.

use std::collections::{HashMap, VecDeque};
use std::io::BufRead as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ringsim_obs::MetricsSink;
use ringsim_sweep::{
    run_experiment, Experiment, Progress, ProgressFn, Shard, SweepConfig, SweepPoint,
};
use serde::{Serialize, Value};

use crate::worker::WireEvent;
use crate::ServeConfig;

/// Lifecycle state of a job. Serialises as its lower-case name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing the sweep.
    Running,
    /// Finished; artifacts are servable.
    Done,
    /// The experiment panicked; see the status `error` field.
    Failed,
}

impl JobState {
    /// The wire form (`"queued"`, `"running"`, `"done"`, `"failed"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

impl Serialize for JobState {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_owned())
    }
}

/// Per-point progress counters of a job.
#[derive(Debug, Clone, Serialize)]
pub struct PointsProgress {
    /// Points submitted so far across the experiment's `map` calls.
    pub total: u64,
    /// Points finished (computed or cache-served).
    pub completed: u64,
}

/// Sweep-cache hit/miss counters of a job.
#[derive(Debug, Clone, Serialize)]
pub struct CacheCounts {
    /// Points served from the per-point cache.
    pub hits: u64,
    /// Points actually (re)computed.
    pub misses: u64,
}

/// A serialisable snapshot of one job (the `GET /runs/:id` body).
#[derive(Debug, Clone, Serialize)]
pub struct JobStatus {
    /// Deterministic run id.
    pub id: String,
    /// Experiment registry name.
    pub experiment: String,
    /// Per-processor reference budget.
    pub refs: u64,
    /// Lifecycle state.
    pub state: JobState,
    /// Per-point progress.
    pub points: PointsProgress,
    /// Sweep-cache counters (zero misses ⇒ the run was fully warm).
    pub cache: CacheCounts,
    /// Artifact file names servable under `/runs/:id/artifacts/:file`.
    pub artifacts: Vec<String>,
    /// Failure message, if [`JobState::Failed`].
    pub error: Option<String>,
}

/// Aggregate job counts (the `/metrics` digest).
#[derive(Debug, Clone, Default, Serialize)]
pub struct JobCounts {
    /// Jobs waiting for a worker.
    pub queued: u64,
    /// Jobs currently executing.
    pub running: u64,
    /// Jobs finished successfully.
    pub done: u64,
    /// Jobs that failed.
    pub failed: u64,
}

/// What [`JobPool::submit`] decided.
#[derive(Debug, Clone)]
pub enum SubmitOutcome {
    /// A new job was enqueued.
    Created(JobStatus),
    /// An identical submission already exists; its status is returned.
    Deduped(JobStatus),
    /// The bounded queue is full — retry later (429).
    QueueFull,
    /// The pool is draining for shutdown — no new work (503).
    Draining,
}

/// Mutable (lock-guarded) portion of a job.
#[derive(Debug)]
struct JobStateData {
    state: JobState,
    artifacts: Vec<String>,
    error: Option<String>,
}

/// One server-sent event in a job's live stream (`GET /runs/:id/events`).
/// Kinds: `state` (lifecycle transition), `progress` (one point finished),
/// `done` / `failed` (terminal — the stream closes after one of these).
#[derive(Debug, Clone)]
pub struct SseEvent {
    /// SSE `event:` field.
    pub event: &'static str,
    /// SSE `data:` field — a single-line JSON document.
    pub data: String,
}

impl SseEvent {
    /// Whether this event ends the stream.
    #[must_use]
    pub fn terminal(&self) -> bool {
        matches!(self.event, "done" | "failed")
    }
}

/// One job: identity plus live progress counters and the event log every
/// SSE subscriber replays (late subscribers see the full history, so a
/// stream over a finished job is the whole run followed by the terminal
/// event).
struct JobInner {
    id: String,
    exp: &'static dyn Experiment,
    refs: u64,
    total: AtomicU64,
    completed: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    state: Mutex<JobStateData>,
    events: Mutex<Vec<SseEvent>>,
    events_cv: Condvar,
}

impl JobInner {
    fn new(id: String, exp: &'static dyn Experiment, refs: u64) -> Self {
        let job = Self {
            id,
            exp,
            refs,
            total: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            state: Mutex::new(JobStateData {
                state: JobState::Queued,
                artifacts: Vec::new(),
                error: None,
            }),
            events: Mutex::new(Vec::new()),
            events_cv: Condvar::new(),
        };
        job.push_state_event(JobState::Queued);
        job
    }

    fn push_event(&self, event: &'static str, data: String) {
        self.events.lock().expect("events lock").push(SseEvent { event, data });
        self.events_cv.notify_all();
    }

    fn push_state_event(&self, state: JobState) {
        #[derive(Serialize)]
        struct Data {
            state: String,
        }
        self.push_event("state", render_event(&Data { state: state.as_str().to_owned() }));
    }

    /// Records one finished point (counter bump + `progress` event).
    fn point_done(&self, label: &str, cached: bool) {
        let counter = if cached { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        let completed = self.completed.fetch_add(1, Ordering::Relaxed) + 1;
        #[derive(Serialize)]
        struct Data {
            completed: u64,
            total: u64,
            label: String,
            cached: bool,
        }
        self.push_event(
            "progress",
            render_event(&Data {
                completed,
                total: self.total.load(Ordering::Relaxed),
                label: label.to_owned(),
                cached,
            }),
        );
    }

    /// Pushes the terminal event matching the job's final status.
    fn push_terminal_event(&self) {
        let status = self.status();
        match status.state {
            JobState::Done => {
                #[derive(Serialize)]
                struct Data {
                    state: String,
                    points: u64,
                    hits: u64,
                    misses: u64,
                    artifacts: u64,
                }
                self.push_event(
                    "done",
                    render_event(&Data {
                        state: "done".to_owned(),
                        points: status.points.total,
                        hits: status.cache.hits,
                        misses: status.cache.misses,
                        artifacts: status.artifacts.len() as u64,
                    }),
                );
            }
            JobState::Failed => {
                #[derive(Serialize)]
                struct Data {
                    state: String,
                    error: String,
                }
                self.push_event(
                    "failed",
                    render_event(&Data {
                        state: "failed".to_owned(),
                        error: status.error.clone().unwrap_or_else(|| "unknown".to_owned()),
                    }),
                );
            }
            JobState::Queued | JobState::Running => {}
        }
    }

    fn status(&self) -> JobStatus {
        let st = self.state.lock().expect("job state lock");
        JobStatus {
            id: self.id.clone(),
            experiment: self.exp.name().to_owned(),
            refs: self.refs,
            state: st.state,
            points: PointsProgress {
                total: self.total.load(Ordering::Relaxed),
                completed: self.completed.load(Ordering::Relaxed),
            },
            cache: CacheCounts {
                hits: self.hits.load(Ordering::Relaxed),
                misses: self.misses.load(Ordering::Relaxed),
            },
            artifacts: st.artifacts.clone(),
            error: st.error.clone(),
        }
    }
}

/// Renders an event's `data:` JSON (compact — SSE data must be one line).
fn render_event<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("event serialisation is infallible")
}

/// A subscriber's position in one job's event log. [`EventCursor::poll`]
/// drains everything appended since the last call, blocking briefly when
/// the log is caught up — the SSE handler turns empty polls into heartbeat
/// comments.
pub struct EventCursor {
    job: Arc<JobInner>,
    next: usize,
}

impl EventCursor {
    /// Events appended since the last poll; blocks up to `wait` when none
    /// are pending (an empty return after `wait` means "still caught up").
    pub fn poll(&mut self, wait: Duration) -> Vec<SseEvent> {
        let mut log = self.job.events.lock().expect("events lock");
        if self.next >= log.len() {
            let (guard, _timeout) =
                self.job.events_cv.wait_timeout(log, wait).expect("events condvar");
            log = guard;
        }
        let batch: Vec<SseEvent> = log[self.next.min(log.len())..].to_vec();
        self.next = log.len();
        batch
    }
}

/// Shared pool state (behind an `Arc` for the worker threads).
struct PoolShared {
    jobs: Mutex<HashMap<String, Arc<JobInner>>>,
    queue: Mutex<VecDeque<Arc<JobInner>>>,
    available: Condvar,
    queue_cap: usize,
    draining: AtomicBool,
    running: AtomicU64,
    out_root: PathBuf,
    /// Worker threads per sweep (`0` = the engine default).
    sweep_jobs: usize,
    /// Shard-worker processes per run (`0`/`1` = in-process execution).
    shards: usize,
    /// Executable spawned as `serve-worker` (`None` = this executable).
    worker_exe: Option<PathBuf>,
    /// Where in-process points fold their simulator metrics.
    metrics: Arc<MetricsSink>,
}

/// Bounded worker pool executing experiment runs.
pub struct JobPool {
    shared: Arc<PoolShared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl JobPool {
    /// Spawns `cfg.workers` job-worker threads. `cfg.queue_cap` bounds how
    /// many jobs may wait (running jobs excluded); `cfg.sweep_jobs` is the
    /// sweep engine's per-job thread budget (`0` = engine default); with
    /// `cfg.shards >= 2` each job runs as that many `serve-worker`
    /// processes instead of in-process. Points computed in this process
    /// fold their simulator metrics into `metrics`.
    #[must_use]
    pub fn new(cfg: &ServeConfig, metrics: Arc<MetricsSink>) -> Self {
        let shared = Arc::new(PoolShared {
            jobs: Mutex::new(HashMap::new()),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            queue_cap: cfg.queue_cap,
            draining: AtomicBool::new(false),
            running: AtomicU64::new(0),
            out_root: cfg.out_dir.clone(),
            sweep_jobs: cfg.sweep_jobs,
            shards: cfg.shards,
            worker_exe: cfg.worker_exe.clone(),
            metrics,
        });
        let handles = (0..cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("job-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn job worker")
            })
            .collect();
        Self { shared, workers: Mutex::new(handles) }
    }

    /// Deterministic run id for a submission: the sweep-point key scheme
    /// (FNV-1a + SplitMix64, see [`SweepPoint::seed`]) over
    /// `(experiment, refs)`, rendered as 16 hex digits. Identical
    /// submissions therefore share a job, an output directory, and its
    /// point cache.
    #[must_use]
    pub fn run_id(experiment: &str, refs: u64) -> String {
        format!("{:016x}", SweepPoint::new().detail(format!("refs={refs}")).seed(experiment))
    }

    /// Where a run's artifacts live.
    #[must_use]
    pub fn job_dir(&self, id: &str) -> PathBuf {
        self.shared.out_root.join("runs").join(id)
    }

    /// Submits `(experiment, refs)`: dedupes onto an existing non-failed
    /// job, else enqueues a new one (subject to queue capacity and drain
    /// state). A failed job is re-enqueued by an identical submission.
    pub fn submit(&self, exp: &'static dyn Experiment, refs: u64) -> SubmitOutcome {
        if self.shared.draining.load(Ordering::SeqCst) {
            return SubmitOutcome::Draining;
        }
        let id = Self::run_id(exp.name(), refs);
        let mut jobs = self.shared.jobs.lock().expect("jobs lock");
        if let Some(existing) = jobs.get(&id) {
            let failed = existing.state.lock().expect("job state lock").state == JobState::Failed;
            if !failed {
                return SubmitOutcome::Deduped(existing.status());
            }
        }
        let mut queue = self.shared.queue.lock().expect("queue lock");
        if queue.len() >= self.shared.queue_cap {
            return SubmitOutcome::QueueFull;
        }
        let job = Arc::new(JobInner::new(id.clone(), exp, refs));
        jobs.insert(id, Arc::clone(&job));
        queue.push_back(Arc::clone(&job));
        self.shared.available.notify_one();
        SubmitOutcome::Created(job.status())
    }

    /// Status snapshot of a job, if it exists.
    #[must_use]
    pub fn status(&self, id: &str) -> Option<JobStatus> {
        self.shared.jobs.lock().expect("jobs lock").get(id).map(|j| j.status())
    }

    /// A subscriber cursor over a job's event log, replaying from the
    /// beginning (late subscribers see the full history).
    #[must_use]
    pub fn events(&self, id: &str) -> Option<EventCursor> {
        let job = self.shared.jobs.lock().expect("jobs lock").get(id).map(Arc::clone)?;
        Some(EventCursor { job, next: 0 })
    }

    /// Jobs waiting for a worker right now (the `/metrics` queue depth).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.shared.queue.lock().expect("queue lock").len()
    }

    /// Whether a run is queued or running (the GC must never touch it).
    #[must_use]
    pub fn is_active(&self, id: &str) -> bool {
        self.shared.jobs.lock().expect("jobs lock").get(id).is_some_and(|j| {
            matches!(
                j.state.lock().expect("job state lock").state,
                JobState::Queued | JobState::Running
            )
        })
    }

    /// Forgets a finished job (GC deleted its directory): the id maps to
    /// 404 afterwards and an identical resubmission re-runs from scratch.
    /// Refuses (returns `false`) while the job is queued or running.
    pub fn forget(&self, id: &str) -> bool {
        let mut jobs = self.shared.jobs.lock().expect("jobs lock");
        let Some(job) = jobs.get(id) else { return false };
        let active = matches!(
            job.state.lock().expect("job state lock").state,
            JobState::Queued | JobState::Running
        );
        if active {
            return false;
        }
        jobs.remove(id);
        true
    }

    /// Aggregate per-state counts.
    #[must_use]
    pub fn counts(&self) -> JobCounts {
        let jobs = self.shared.jobs.lock().expect("jobs lock");
        let mut c = JobCounts::default();
        for j in jobs.values() {
            match j.state.lock().expect("job state lock").state {
                JobState::Queued => c.queued += 1,
                JobState::Running => c.running += 1,
                JobState::Done => c.done += 1,
                JobState::Failed => c.failed += 1,
            }
        }
        c
    }

    /// Starts draining: rejects new submissions and wakes idle workers so
    /// they can exit once the queue is empty. Idempotent.
    pub fn shutdown(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
    }

    /// Whether nothing is queued or running (safe to stop serving).
    #[must_use]
    pub fn drained(&self) -> bool {
        self.shared.running.load(Ordering::SeqCst) == 0
            && self.shared.queue.lock().expect("queue lock").is_empty()
    }

    /// Joins the worker threads (call after [`JobPool::shutdown`]).
    pub fn join(&self) {
        let handles: Vec<_> = self.workers.lock().expect("workers lock").drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Worker body: pop → run → repeat; exit when draining and the queue is
/// empty. Jobs already accepted are always finished (drain semantics).
fn worker_loop(pool: &PoolShared) {
    loop {
        let job = {
            let mut q = pool.queue.lock().expect("queue lock");
            loop {
                if let Some(j) = q.pop_front() {
                    // Running before the queue lock drops, so `drained()`
                    // can never observe "empty queue, nothing running"
                    // while this job is in hand-off.
                    pool.running.fetch_add(1, Ordering::SeqCst);
                    break j;
                }
                if pool.draining.load(Ordering::SeqCst) {
                    return;
                }
                q = pool.available.wait(q).expect("queue condvar");
            }
        };
        run_job(pool, &job);
        pool.running.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Executes one job, feeding its live counters (and event log) from the
/// engine's progress callback. With `shards >= 2` the sweep itself runs in
/// shard-worker processes; the in-process part is then only the fold.
fn run_job(pool: &PoolShared, job: &Arc<JobInner>) {
    job.state.lock().expect("job state lock").state = JobState::Running;
    job.push_state_event(JobState::Running);
    let dir = pool.out_root.join("runs").join(&job.id);
    if pool.shards >= 2 {
        run_shard_workers(pool, job, &dir);
    }
    fold_and_finish(pool, job, &dir, pool.shards >= 2);
}

/// Runs the sweep's points in `pool.shards` `serve-worker` processes, each
/// caching its stripe in the `<run>` directory. Worker stdout is the wire
/// protocol (see [`crate::worker`]): each worker announces only the points
/// its shard owns, so the coordinator's per-point counters sum to exactly
/// the sweep size across all workers. A worker that dies, fails or never
/// starts is only logged: the fold computes whatever the cache lacks.
fn run_shard_workers(pool: &PoolShared, job: &Arc<JobInner>, dir: &std::path::Path) {
    let exe = pool
        .worker_exe
        .clone()
        .or_else(|| std::env::current_exe().ok())
        .unwrap_or_else(|| PathBuf::from("ringsim"));
    let shards = pool.shards;
    std::thread::scope(|scope| {
        for index in 0..shards {
            let exe = &exe;
            scope.spawn(move || {
                if let Err(e) = spawn_and_track_worker(exe, pool, job, dir, index, shards) {
                    eprintln!("serve: shard {index}/{shards} of run {} failed: {e}", job.id);
                }
            });
        }
    });
}

/// Spawns one shard worker, streams its stdout protocol into the job's
/// counters, and waits for exit. `Err` on spawn failure, abnormal exit, or
/// a `failed` protocol line.
fn spawn_and_track_worker(
    exe: &std::path::Path,
    pool: &PoolShared,
    job: &Arc<JobInner>,
    dir: &std::path::Path,
    index: usize,
    shards: usize,
) -> Result<(), String> {
    let shard = Shard::new(index, shards).expect("index < shards by construction");
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("serve-worker")
        .arg("--experiment")
        .arg(job.exp.name())
        .arg("--refs")
        .arg(job.refs.to_string())
        .arg("--cache-dir")
        .arg(dir)
        .arg("--shard")
        .arg(shard.to_string())
        .arg("--jobs")
        .arg(pool.sweep_jobs.to_string())
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit());
    let mut child = cmd.spawn().map_err(|e| format!("spawning {}: {e}", exe.display()))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut failure: Option<String> = None;
    for line in std::io::BufReader::new(stdout).lines() {
        let Ok(line) = line else { break };
        match WireEvent::parse(&line) {
            Some(WireEvent::MapStarted { points }) => {
                job.total.fetch_add(points, Ordering::Relaxed);
            }
            Some(WireEvent::PointDone { label, cached }) => {
                job.point_done(&label, cached);
            }
            Some(WireEvent::Failed { error }) => failure = Some(error),
            // Per-worker totals are diagnostic; the fold meta is
            // authoritative for the job's final counters.
            Some(WireEvent::Done { .. }) | None => {}
        }
    }
    let status = child.wait().map_err(|e| format!("waiting for worker: {e}"))?;
    match failure {
        Some(error) => Err(error),
        None if !status.success() => Err(format!("worker exited with {status}")),
        None => Ok(()),
    }
}

/// Runs the experiment in-process against `<dir>/.cache` and finalises the
/// job. For a single-pool job this *is* the run; after shard workers it is
/// the fold, the only merge and the only recovery path: the points the
/// workers cached replay as hits, whatever a worker left out (it died,
/// failed or never started) and every later `map` call are computed here
/// as misses, and the artifacts are rendered by exactly one process, which
/// is what makes them byte-identical to the single-pool path.
fn fold_and_finish(pool: &PoolShared, job: &Arc<JobInner>, dir: &std::path::Path, folded: bool) {
    let progress: ProgressFn = {
        let job = Arc::clone(job);
        Arc::new(move |ev| match ev {
            Progress::MapStarted { points } => {
                if !folded {
                    job.total.fetch_add(*points as u64, Ordering::Relaxed);
                }
            }
            Progress::PointDone { cached, label } => {
                // After shard workers, hits replay points a worker already
                // announced; only the points the fold computes are news.
                if !folded || !*cached {
                    job.point_done(label, *cached);
                }
            }
        })
    };
    let mut cfg = SweepConfig::new(job.refs)
        .out_dir(dir)
        .cache(true)
        .on_progress(progress)
        .metrics(Arc::clone(&pool.metrics));
    if pool.sweep_jobs > 0 {
        cfg = cfg.jobs(pool.sweep_jobs);
    }
    let exp = job.exp;
    match catch_unwind(AssertUnwindSafe(|| run_experiment(exp, &cfg))) {
        Ok(report) => {
            // The meta twin is authoritative for totals; the hit/miss split
            // of a sharded run keeps the counters the workers and the fold's
            // own computes fed (the fold's replay hits say nothing about how
            // points were computed).
            job.total.store(report.meta.points as u64, Ordering::Relaxed);
            job.completed.store(report.meta.points as u64, Ordering::Relaxed);
            if !folded {
                job.hits.store(report.meta.cache_hits, Ordering::Relaxed);
                job.misses.store(report.meta.cache_misses, Ordering::Relaxed);
            }
            let mut st = job.state.lock().expect("job state lock");
            st.artifacts = report
                .artifacts
                .iter()
                .filter_map(|a| a.path.file_name().map(|f| f.to_string_lossy().into_owned()))
                .collect();
            st.state = JobState::Done;
        }
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "experiment panicked".to_owned());
            let mut st = job.state.lock().expect("job state lock");
            st.error = Some(msg);
            st.state = JobState::Failed;
        }
    }
    job.push_terminal_event();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ringsim-serve-jobs-{tag}-{}", std::process::id()))
    }

    fn pool_cfg(out_dir: PathBuf, queue_cap: usize) -> ServeConfig {
        ServeConfig { out_dir, workers: 1, queue_cap, sweep_jobs: 1, ..ServeConfig::default() }
    }

    #[test]
    fn run_ids_are_deterministic_and_axis_separated() {
        let a = JobPool::run_id("fig3", 10_000);
        assert_eq!(a, JobPool::run_id("fig3", 10_000));
        assert_eq!(a.len(), 16);
        assert_ne!(a, JobPool::run_id("fig3", 10_001));
        assert_ne!(a, JobPool::run_id("fig4", 10_000));
    }

    #[test]
    fn zero_capacity_queue_rejects_submissions() {
        let dir = tmp("cap0");
        let pool = JobPool::new(&pool_cfg(dir.clone(), 0), Arc::default());
        let exp = ringsim_bench::experiments::find("fig3").unwrap();
        assert!(matches!(pool.submit(exp, 123), SubmitOutcome::QueueFull));
        pool.shutdown();
        pool.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn draining_pool_rejects_submissions() {
        let dir = tmp("drain");
        let pool = JobPool::new(&pool_cfg(dir.clone(), 4), Arc::default());
        pool.shutdown();
        let exp = ringsim_bench::experiments::find("fig3").unwrap();
        assert!(matches!(pool.submit(exp, 123), SubmitOutcome::Draining));
        pool.join();
        assert!(pool.drained());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
