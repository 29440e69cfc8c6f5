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
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use ringsim_obs::MetricsSink;
use ringsim_sweep::{
    run_experiment, Experiment, Progress, ProgressFn, Shard, SweepConfig, SweepPoint,
};
use serde::{Serialize, Value};

use crate::worker::WireEvent;
use crate::{lock, panic_message, ServeConfig};

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

/// Everything about a job that changes while it runs, behind the job's one
/// lock: a status snapshot and the event log always agree.
struct JobData {
    state: JobState,
    artifacts: Vec<String>,
    error: Option<String>,
    total: u64,
    completed: u64,
    hits: u64,
    misses: u64,
    /// Points this process's own run has submitted across its `map`
    /// calls (after shard workers: the fold's).
    mapped: u64,
    /// The log every SSE subscriber replays (late subscribers see the full
    /// history, so a stream over a finished job is the whole run followed
    /// by the terminal event).
    events: Vec<SseEvent>,
}

impl JobData {
    fn push_event(&mut self, event: &'static str, data: String) {
        self.events.push(SseEvent { event, data });
    }

    fn set_state(&mut self, state: JobState) {
        #[derive(Serialize)]
        struct Data {
            state: String,
        }
        self.state = state;
        self.push_event("state", render_event(&Data { state: state.as_str().to_owned() }));
    }

    /// Records one finished point (counter bump + `progress` event).
    fn point_done(&mut self, label: &str, cached: bool) {
        *if cached { &mut self.hits } else { &mut self.misses } += 1;
        self.completed += 1;
        #[derive(Serialize)]
        struct Data {
            completed: u64,
            total: u64,
            label: String,
            cached: bool,
        }
        let data =
            Data { completed: self.completed, total: self.total, label: label.to_owned(), cached };
        self.push_event("progress", render_event(&data));
    }

    /// Pushes the terminal event matching the job's final state.
    fn push_terminal_event(&mut self) {
        match self.state {
            JobState::Done => {
                #[derive(Serialize)]
                struct Data {
                    state: String,
                    points: u64,
                    hits: u64,
                    misses: u64,
                    artifacts: u64,
                }
                let data = Data {
                    state: "done".to_owned(),
                    points: self.total,
                    hits: self.hits,
                    misses: self.misses,
                    artifacts: self.artifacts.len() as u64,
                };
                self.push_event("done", render_event(&data));
            }
            JobState::Failed => {
                #[derive(Serialize)]
                struct Data {
                    state: String,
                    error: String,
                }
                let data = Data {
                    state: "failed".to_owned(),
                    error: self.error.clone().unwrap_or_else(|| "unknown".to_owned()),
                };
                self.push_event("failed", render_event(&data));
            }
            JobState::Queued | JobState::Running => {}
        }
    }
}

/// One job: its identity, plus one lock over everything that changes and
/// one condvar that SSE subscribers wait on.
struct JobInner {
    id: String,
    exp: &'static dyn Experiment,
    refs: u64,
    data: Mutex<JobData>,
    changed: Condvar,
}

impl JobInner {
    fn new(id: String, exp: &'static dyn Experiment, refs: u64) -> Self {
        let mut data = JobData {
            state: JobState::Queued,
            artifacts: Vec::new(),
            error: None,
            total: 0,
            completed: 0,
            hits: 0,
            misses: 0,
            mapped: 0,
            events: Vec::new(),
        };
        data.set_state(JobState::Queued);
        Self { id, exp, refs, data: Mutex::new(data), changed: Condvar::new() }
    }

    /// Applies `f` under the job's lock, then wakes its subscribers.
    fn update(&self, f: impl FnOnce(&mut JobData)) {
        f(&mut lock(&self.data));
        self.changed.notify_all();
    }

    fn state(&self) -> JobState {
        lock(&self.data).state
    }

    fn status(&self) -> JobStatus {
        let d = lock(&self.data);
        JobStatus {
            id: self.id.clone(),
            experiment: self.exp.name().to_owned(),
            refs: self.refs,
            state: d.state,
            points: PointsProgress { total: d.total, completed: d.completed },
            cache: CacheCounts { hits: d.hits, misses: d.misses },
            artifacts: d.artifacts.clone(),
            error: d.error.clone(),
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
        let next = self.next;
        let (d, _timeout) = self
            .job
            .changed
            .wait_timeout_while(lock(&self.job.data), wait, |d| d.events.len() <= next)
            .unwrap_or_else(PoisonError::into_inner);
        let batch = d.events[next..].to_vec();
        self.next = d.events.len();
        batch
    }
}

/// Everything about the pool that changes, behind its one lock.
struct PoolState {
    jobs: HashMap<String, Arc<JobInner>>,
    queue: VecDeque<Arc<JobInner>>,
    /// Jobs a worker has taken off the queue and not finished.
    running: usize,
    /// Set once by [`JobPool::shutdown`]: no new jobs, and idle workers,
    /// the retention sweeper and `run()` stop.
    draining: bool,
    /// The job-worker threads, taken by [`JobPool::join`].
    workers: Vec<JoinHandle<()>>,
}

/// Shared pool state (behind an `Arc` for the worker threads): the fixed
/// config, plus one lock and one condvar notified on every submission and
/// on the drain.
struct PoolShared {
    state: Mutex<PoolState>,
    changed: Condvar,
    queue_cap: usize,
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
            state: Mutex::new(PoolState {
                jobs: HashMap::new(),
                queue: VecDeque::new(),
                running: 0,
                draining: false,
                workers: Vec::new(),
            }),
            changed: Condvar::new(),
            queue_cap: cfg.queue_cap,
            out_root: cfg.out_dir.clone(),
            sweep_jobs: cfg.sweep_jobs,
            shards: cfg.shards,
            worker_exe: cfg.worker_exe.clone(),
            metrics,
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("job-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn job worker")
            })
            .collect();
        lock(&shared.state).workers = workers;
        Self { shared }
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
        let id = Self::run_id(exp.name(), refs);
        let mut st = lock(&self.shared.state);
        if st.draining {
            return SubmitOutcome::Draining;
        }
        if let Some(existing) = st.jobs.get(&id) {
            let status = existing.status();
            if status.state != JobState::Failed {
                return SubmitOutcome::Deduped(status);
            }
        }
        if st.queue.len() >= self.shared.queue_cap {
            return SubmitOutcome::QueueFull;
        }
        let job = Arc::new(JobInner::new(id.clone(), exp, refs));
        st.jobs.insert(id, Arc::clone(&job));
        st.queue.push_back(Arc::clone(&job));
        drop(st);
        self.shared.changed.notify_all();
        SubmitOutcome::Created(job.status())
    }

    /// The job registered under `id`, if any.
    fn job(&self, id: &str) -> Option<Arc<JobInner>> {
        lock(&self.shared.state).jobs.get(id).map(Arc::clone)
    }

    /// Status snapshot of a job, if it exists.
    #[must_use]
    pub fn status(&self, id: &str) -> Option<JobStatus> {
        self.job(id).map(|j| j.status())
    }

    /// A subscriber cursor over a job's event log, replaying from the
    /// beginning (late subscribers see the full history).
    #[must_use]
    pub fn events(&self, id: &str) -> Option<EventCursor> {
        Some(EventCursor { job: self.job(id)?, next: 0 })
    }

    /// Jobs waiting for a worker right now (the `/metrics` queue depth).
    #[must_use]
    pub fn depth(&self) -> usize {
        lock(&self.shared.state).queue.len()
    }

    /// Whether a run is queued or running (the GC must never touch it).
    #[must_use]
    pub fn is_active(&self, id: &str) -> bool {
        self.job(id).is_some_and(|j| matches!(j.state(), JobState::Queued | JobState::Running))
    }

    /// Forgets a finished job (GC deleted its directory): the id maps to
    /// 404 afterwards and an identical resubmission re-runs from scratch.
    /// Refuses (returns `false`) while the job is queued or running.
    pub fn forget(&self, id: &str) -> bool {
        let mut st = lock(&self.shared.state);
        let Some(job) = st.jobs.get(id) else { return false };
        if matches!(job.state(), JobState::Queued | JobState::Running) {
            return false;
        }
        st.jobs.remove(id);
        true
    }

    /// Aggregate per-state counts.
    #[must_use]
    pub fn counts(&self) -> JobCounts {
        let st = lock(&self.shared.state);
        let mut c = JobCounts::default();
        for j in st.jobs.values() {
            match j.state() {
                JobState::Queued => c.queued += 1,
                JobState::Running => c.running += 1,
                JobState::Done => c.done += 1,
                JobState::Failed => c.failed += 1,
            }
        }
        c
    }

    /// Starts draining: rejects new submissions and wakes idle workers so
    /// they can exit once the queue is empty, and everything waiting in
    /// [`JobPool::wait_for_drain`]. Idempotent.
    pub fn shutdown(&self) {
        lock(&self.shared.state).draining = true;
        self.shared.changed.notify_all();
    }

    /// Whether [`JobPool::shutdown`] has been called.
    #[must_use]
    pub fn draining(&self) -> bool {
        lock(&self.shared.state).draining
    }

    /// Blocks until the pool is draining or `timeout` has passed; returns
    /// whether it is draining.
    pub fn wait_for_drain(&self, timeout: Duration) -> bool {
        let st = lock(&self.shared.state);
        let (st, _timeout) = self
            .shared
            .changed
            .wait_timeout_while(st, timeout, |st| !st.draining)
            .unwrap_or_else(PoisonError::into_inner);
        st.draining
    }

    /// Whether nothing is queued or running (safe to stop serving).
    #[must_use]
    pub fn drained(&self) -> bool {
        let st = lock(&self.shared.state);
        st.running == 0 && st.queue.is_empty()
    }

    /// Joins the worker threads (call after [`JobPool::shutdown`]).
    pub fn join(&self) {
        let workers = std::mem::take(&mut lock(&self.shared.state).workers);
        for h in workers {
            let _ = h.join();
        }
    }
}

/// Worker body: pop → run → repeat; exit when draining and the queue is
/// empty. Jobs already accepted are always finished (drain semantics).
fn worker_loop(pool: &PoolShared) {
    let mut st = lock(&pool.state);
    loop {
        if let Some(job) = st.queue.pop_front() {
            st.running += 1;
            drop(st);
            run_job(pool, &job);
            st = lock(&pool.state);
            st.running -= 1;
        } else if st.draining {
            return;
        } else {
            st = pool.changed.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Executes one job, feeding its live counters (and event log) from the
/// engine's progress callback. With `shards >= 2` the sweep itself runs in
/// shard-worker processes; the in-process part is then only the fold.
fn run_job(pool: &PoolShared, job: &Arc<JobInner>) {
    job.update(|d| d.set_state(JobState::Running));
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
fn run_shard_workers(pool: &PoolShared, job: &Arc<JobInner>, dir: &Path) {
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
    exe: &Path,
    pool: &PoolShared,
    job: &Arc<JobInner>,
    dir: &Path,
    index: usize,
    shards: usize,
) -> Result<(), String> {
    let shard = Shard::new(index, shards)?;
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
    let stdout = child.stdout.take().ok_or("worker stdout is not piped")?;
    let mut failure: Option<String> = None;
    for line in std::io::BufReader::new(stdout).lines() {
        let Ok(line) = line else { break };
        match WireEvent::parse(&line) {
            Some(WireEvent::MapStarted { points }) => job.update(|d| d.total += points),
            Some(WireEvent::PointDone { label, cached }) => {
                job.update(|d| d.point_done(&label, cached));
            }
            Some(WireEvent::Failed { error }) => failure = Some(error),
            None => {}
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
fn fold_and_finish(pool: &PoolShared, job: &Arc<JobInner>, dir: &Path, folded: bool) {
    let progress: ProgressFn = {
        let job = Arc::clone(job);
        Arc::new(move |ev| match ev {
            // `total` may already hold the workers' announced stripes of
            // the first `map` call, which this run submits again in full.
            Progress::MapStarted { points } => job.update(|d| {
                d.mapped += *points as u64;
                d.total = d.total.max(d.mapped);
            }),
            // After shard workers, hits replay points a worker already
            // announced; only the points the fold computes are news.
            Progress::PointDone { cached, label } => {
                if !folded || !*cached {
                    job.update(|d| d.point_done(label, *cached));
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
    let outcome = catch_unwind(AssertUnwindSafe(|| run_experiment(exp, &cfg)));
    job.update(|d| {
        match outcome {
            Ok(report) => {
                // The meta twin is authoritative for totals: a worker may
                // cache a point it never announced, or announce one whose
                // cache write was lost and the fold computes again.
                d.total = report.meta.points as u64;
                d.completed = d.total;
                d.artifacts = report
                    .artifacts
                    .iter()
                    .filter_map(|a| a.path.file_name().map(|f| f.to_string_lossy().into_owned()))
                    .collect();
                d.state = JobState::Done;
            }
            Err(panic) => {
                d.error = Some(panic_message(&*panic));
                d.state = JobState::Failed;
            }
        }
        d.push_terminal_event();
    });
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
