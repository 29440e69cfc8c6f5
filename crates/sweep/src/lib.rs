//! Deterministic parallel sweep engine and the unified `Experiment` API.
//!
//! Every paper artifact (tables, figures, validation runs) is produced by a
//! type implementing [`Experiment`]. An experiment receives a [`SweepCtx`]
//! and fans its sweep points out through [`SweepCtx::map`], which runs them
//! on up to `--jobs N` threads of the workspace's one ordered pool,
//! [`ringsim_types::par`], while guaranteeing the **determinism contract**:
//!
//! * each point's RNG seed is a pure function of
//!   `(experiment, bench, procs, protocol, cycle, detail)` — see
//!   [`SweepPoint::seed`] — never of thread ids or schedule order;
//! * results are re-assembled in submission order before anything is
//!   written, so `results/*.json` and `results/*.dat` artifacts are
//!   **byte-identical** for any `--jobs` value;
//! * wall-clock measurements (which *are* schedule-dependent) are kept out
//!   of the artifacts and written to a `results/<name>.meta.json` twin
//!   instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod point;
mod shard;

pub use point::SweepPoint;
pub use shard::Shard;

use std::fmt;
use std::fs;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ringsim_obs::MetricsSink;
use ringsim_types::par;
use serde::{Deserialize, Serialize};

/// A progress event emitted while [`SweepCtx::map`] runs points, so a
/// long-running front end (the HTTP service's job queue, a TUI) can report
/// per-point progress without waiting for the whole sweep to finish.
#[derive(Debug, Clone)]
pub enum Progress {
    /// A `map` call began with this many points.
    MapStarted {
        /// Number of points submitted to this `map` call.
        points: usize,
    },
    /// One point finished (computed or served from the per-point cache).
    PointDone {
        /// Canonical point label.
        label: String,
        /// Whether the result came from the per-point cache.
        cached: bool,
    },
}

/// Progress callback. Invoked from worker threads, possibly concurrently,
/// so implementations must be cheap and thread-safe. Observational only:
/// it runs outside the work closure and cannot affect results.
pub type ProgressFn = Arc<dyn Fn(&Progress) + Send + Sync>;

/// How the engine runs an experiment: thread budget, per-processor
/// reference budget, and where artifacts land.
#[derive(Clone)]
pub struct SweepConfig {
    /// Maximum worker threads for [`SweepCtx::map`]; `1` forces the serial
    /// path.
    pub jobs: usize,
    /// Per-processor synthetic-reference budget handed to experiments.
    pub refs_per_proc: u64,
    /// Directory artifacts and meta twins are written into.
    pub out_dir: PathBuf,
    /// Whether [`SweepCtx::map`] consults the per-point result cache under
    /// `<out_dir>/.cache/` (see the `cache` module docs).
    pub use_cache: bool,
    /// Optional per-point progress callback (see [`Progress`]).
    pub progress: Option<ProgressFn>,
    /// Where computed points fold their simulator metrics (`None`: no
    /// metrics). Handed to every work closure through [`PointCtx`].
    pub metrics: Option<Arc<MetricsSink>>,
    /// Forces the runtime coherence sanitizer on for every simulator run
    /// (handed to the work closure through [`PointCtx`]).
    pub sanitize: bool,
}

impl fmt::Debug for SweepConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepConfig")
            .field("jobs", &self.jobs)
            .field("refs_per_proc", &self.refs_per_proc)
            .field("out_dir", &self.out_dir)
            .field("use_cache", &self.use_cache)
            .field("progress", &self.progress.is_some())
            .field("metrics", &self.metrics.is_some())
            .field("sanitize", &self.sanitize)
            .finish()
    }
}

impl SweepConfig {
    /// A config with `jobs` = available parallelism, the default reference
    /// budget, `results/` as the output directory, and caching on.
    #[must_use]
    pub fn new(refs_per_proc: u64) -> Self {
        Self {
            jobs: par::default_jobs(),
            refs_per_proc,
            out_dir: PathBuf::from("results"),
            use_cache: true,
            progress: None,
            metrics: None,
            sanitize: false,
        }
    }

    /// Overrides the thread budget (clamped to at least 1).
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Overrides the output directory.
    #[must_use]
    pub fn out_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.out_dir = dir.into();
        self
    }

    /// Turns the per-point result cache on or off (`--no-cache`).
    #[must_use]
    pub fn cache(mut self, on: bool) -> Self {
        self.use_cache = on;
        self
    }

    /// Installs a per-point progress callback (see [`Progress`]).
    #[must_use]
    pub fn on_progress(mut self, f: ProgressFn) -> Self {
        self.progress = Some(f);
        self
    }

    /// Folds the metrics of every computed point into `sink`. A point
    /// served from the cache runs nothing and folds nothing.
    #[must_use]
    pub fn metrics(mut self, sink: Arc<MetricsSink>) -> Self {
        self.metrics = Some(sink);
        self
    }

    /// Forces the runtime coherence sanitizer on for every computed point.
    #[must_use]
    pub fn sanitize(mut self, on: bool) -> Self {
        self.sanitize = on;
        self
    }
}

/// Per-point context handed to the work closure of [`SweepCtx::map`].
#[derive(Debug, Clone)]
pub struct PointCtx {
    /// Name of the owning experiment.
    pub experiment: String,
    /// Canonical point label (see [`SweepPoint::label`]).
    pub label: String,
    /// Stable per-point RNG seed (see [`SweepPoint::seed`]).
    pub seed: u64,
    /// Per-processor reference budget for this run.
    pub refs_per_proc: u64,
    /// Index of this point in the submitted slice.
    pub index: usize,
    /// Where this point's simulator runs fold their metrics, if anywhere
    /// ([`SweepConfig::metrics`]).
    pub metrics: Option<Arc<MetricsSink>>,
    /// Whether this point's simulator runs force the coherence sanitizer
    /// on ([`SweepConfig::sanitize`]).
    pub sanitize: bool,
}

impl PointCtx {
    /// The context of the point `point`, submitted at `index`, of
    /// `experiment`'s sweep under `cfg`.
    fn new(experiment: &str, cfg: &SweepConfig, index: usize, point: &SweepPoint) -> Self {
        Self {
            experiment: experiment.to_owned(),
            label: point.label(),
            seed: point.seed(experiment),
            refs_per_proc: cfg.refs_per_proc,
            index,
            metrics: cfg.metrics.clone(),
            sanitize: cfg.sanitize,
        }
    }
}

/// Wall-time record for one completed sweep point; lands in the meta twin,
/// never in artifacts.
#[derive(Debug, Clone, Serialize)]
pub struct PointStat {
    /// Canonical point label.
    pub label: String,
    /// The seed the point ran with.
    pub seed: u64,
    /// Wall time of the point's work closure in milliseconds.
    pub wall_ms: f64,
    /// Whether the result came from the per-point cache.
    pub cached: bool,
}

/// What kind of file an [`Artifact`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ArtifactKind {
    /// Pretty-printed JSON (`.json`).
    Json,
    /// Gnuplot-ready whitespace table (`.dat`).
    Dat,
}

/// One file an experiment produced.
#[derive(Debug, Clone, Serialize)]
pub struct Artifact {
    /// Stem the experiment chose (`fig3`, `table2`, ...).
    pub name: String,
    /// File format.
    pub kind: ArtifactKind,
    /// Where it was written.
    pub path: PathBuf,
}

/// A named, self-describing paper experiment.
///
/// Implementations compute their sweep through [`SweepCtx::map`] (so points
/// parallelise), then print any human-readable table serially and write
/// artifacts via [`SweepCtx::write_json`] / [`SweepCtx::write_dat`].
pub trait Experiment: Sync {
    /// Stable registry name (`table1`, `fig4`, `ring_access`, ...).
    fn name(&self) -> &'static str;
    /// One-line description shown by `--list`.
    fn description(&self) -> &'static str;
    /// Runs the experiment, returning the artifacts it wrote (typically
    /// `ctx.artifacts()`).
    fn run(&self, ctx: &SweepCtx) -> Vec<Artifact>;
}

/// The engine-side context an [`Experiment`] runs against: owns the config,
/// accumulates point statistics across `map` calls, and records artifacts.
pub struct SweepCtx {
    experiment: &'static str,
    cfg: SweepConfig,
    /// Set by [`run_shard`]: `map` runs only this stripe, then ends the run.
    shard: Option<Shard>,
    stats: Mutex<Vec<PointStat>>,
    artifacts: Mutex<Vec<Artifact>>,
    /// Ordinal of the next [`SweepCtx::map`] call, part of the cache key
    /// (two calls may reuse labels but run different work).
    map_calls: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

impl SweepCtx {
    /// Builds a context for `experiment` and ensures the output directory
    /// exists.
    #[must_use]
    pub fn new(experiment: &'static str, cfg: SweepConfig) -> Self {
        let _ = fs::create_dir_all(&cfg.out_dir);
        Self {
            experiment,
            cfg,
            shard: None,
            stats: Mutex::new(Vec::new()),
            artifacts: Mutex::new(Vec::new()),
            map_calls: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
        }
    }

    /// The owning experiment's registry name.
    #[must_use]
    pub fn experiment(&self) -> &'static str {
        self.experiment
    }

    /// The thread budget this context runs with.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.cfg.jobs
    }

    /// Per-processor reference budget experiments should size their
    /// workloads by.
    #[must_use]
    pub fn refs_per_proc(&self) -> u64 {
        self.cfg.refs_per_proc
    }

    /// The directory artifacts are written into.
    #[must_use]
    pub fn out_dir(&self) -> &Path {
        &self.cfg.out_dir
    }

    /// Runs `work` over `points` on up to [`jobs`](Self::jobs) threads and
    /// returns the results **in submission order**.
    ///
    /// `key` names each point; from it the engine derives the stable seed
    /// exposed as [`PointCtx::seed`]. The closure must not print or write
    /// files — compute rows here, render them serially afterwards.
    ///
    /// When the per-point cache is on (the default), each point's result is
    /// looked up under `<out_dir>/.cache/<experiment>/` first and only
    /// computed on a miss — which is why results must round-trip through
    /// serde (`Serialize + Deserialize`). Hit/miss counts land in the meta
    /// twin via [`RunMeta`].
    ///
    /// Under [`run_shard`], `map` runs only the points the [`Shard`] owns,
    /// publishing each into the cache and announcing it to the progress
    /// callback (so across all shards the per-point events sum to exactly
    /// the sweep size), and then ends the run instead of returning: the
    /// worker never needs its peers' values, because the coordinator's
    /// fold renders the artifacts. A shard worker therefore only ever
    /// reaches an experiment's first `map` call; the fold computes any
    /// later call in-process.
    pub fn map<P, R>(
        &self,
        points: &[P],
        key: impl Fn(&P) -> SweepPoint + Sync,
        work: impl Fn(&PointCtx, &P) -> R + Sync,
    ) -> Vec<R>
    where
        P: Sync,
        R: Send + Serialize + Deserialize,
    {
        let map_call = self.map_calls.fetch_add(1, Ordering::Relaxed);
        let progress = self.cfg.progress.as_ref();
        let owned: Vec<usize> =
            (0..points.len()).filter(|&i| self.shard.is_none_or(|s| s.owns(i))).collect();
        if let Some(p) = progress {
            p(&Progress::MapStarted { points: owned.len() });
        }
        // `PointCtx::index` is the index into `points`, whatever the shard.
        let (results, stats): (Vec<R>, Vec<PointStat>) =
            par::map_indexed(self.cfg.jobs, owned.len(), |k| {
                let i = owned[k];
                let pctx = PointCtx::new(self.experiment, &self.cfg, i, &key(&points[i]));
                let entry = self.cfg.use_cache.then(|| {
                    cache::entry_path(
                        &self.cfg.out_dir,
                        self.experiment,
                        map_call,
                        self.cfg.refs_per_proc,
                        &pctx.label,
                        pctx.seed,
                    )
                });
                let start = Instant::now();
                let hit = entry.as_deref().and_then(cache::read::<R>);
                let cached = hit.is_some();
                let r = hit.unwrap_or_else(|| {
                    let r = work(&pctx, &points[i]);
                    if let Some(entry) = &entry {
                        cache::write(entry, &r);
                    }
                    r
                });
                if let Some(p) = progress {
                    p(&Progress::PointDone { label: pctx.label.clone(), cached });
                }
                let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                (r, PointStat { label: pctx.label, seed: pctx.seed, wall_ms, cached })
            })
            .into_iter()
            .unzip();
        for s in &stats {
            let counter = if s.cached { &self.cache_hits } else { &self.cache_misses };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        self.stats.lock().expect("stats lock").extend(stats);
        if self.shard.is_some() {
            // No panic message: `run_shard` catches this payload.
            resume_unwind(Box::new(StripeDone));
        }
        results
    }

    /// Returns the value `key` names, computing it at most once per out
    /// dir.
    ///
    /// The result is stored under `<out_dir>/.cache/shared/` (see the
    /// `cache` module docs), so any later call with the same key — from
    /// another point, another `map` call or another experiment run against
    /// the same out dir — deserialises it instead of calling `compute`.
    /// `compute` must be a pure function of `key`. The cache rules are
    /// [`map`](Self::map)'s: off when the per-point cache is off
    /// (`compute` then runs on every call and nothing is written), always
    /// on under [`run_shard`], so shard workers and the fold share values
    /// through the run directory. A corrupt entry is a miss and is
    /// rewritten. Lookups are not sweep points and leave
    /// [`cache_counts`](Self::cache_counts) alone.
    ///
    /// Two threads missing the same key at once both compute it; they
    /// write identical bytes and the rename is atomic, so either wins.
    pub fn shared<R: Serialize + Deserialize>(&self, key: &str, compute: impl FnOnce() -> R) -> R {
        if !self.cfg.use_cache {
            return compute();
        }
        let entry = cache::shared_path(&self.cfg.out_dir, key);
        if let Some(r) = cache::read(&entry) {
            return r;
        }
        let r = compute();
        cache::write(&entry, &r);
        r
    }

    /// `(hits, misses)` of the per-point cache across this context's `map`
    /// calls so far.
    #[must_use]
    pub fn cache_counts(&self) -> (u64, u64) {
        (self.cache_hits.load(Ordering::Relaxed), self.cache_misses.load(Ordering::Relaxed))
    }

    /// Writes `value` as pretty JSON into `<out_dir>/<name>.json` and
    /// records the artifact.
    ///
    /// # Panics
    ///
    /// Panics if serialisation or the write fails (experiments want a loud
    /// failure).
    pub fn write_json<T: Serialize>(&self, name: &str, value: &T) {
        let path = self.cfg.out_dir.join(format!("{name}.json"));
        let data = serde_json::to_string_pretty(value).expect("serialisable result");
        fs::write(&path, data).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
        self.record(name, ArtifactKind::Json, path);
    }

    /// Writes a gnuplot-ready data file into `<out_dir>/<name>.dat` (a `#`
    /// header line, then whitespace-separated columns) and records the
    /// artifact.
    ///
    /// # Panics
    ///
    /// Panics if the write fails.
    pub fn write_dat(&self, name: &str, header: &str, rows: &[Vec<f64>]) {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(rows.len() * 32 + header.len() + 3);
        out.push_str("# ");
        out.push_str(header);
        out.push('\n');
        for row in rows {
            for (i, v) in row.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                let _ = write!(out, "{v:.6}");
            }
            out.push('\n');
        }
        let path = self.cfg.out_dir.join(format!("{name}.dat"));
        fs::write(&path, out).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
        self.record(name, ArtifactKind::Dat, path);
    }

    /// The artifacts recorded so far (the conventional `Experiment::run`
    /// return value).
    #[must_use]
    pub fn artifacts(&self) -> Vec<Artifact> {
        self.artifacts.lock().expect("artifact lock").clone()
    }

    fn record(&self, name: &str, kind: ArtifactKind, path: PathBuf) {
        self.artifacts.lock().expect("artifact lock").push(Artifact {
            name: name.to_owned(),
            kind,
            path,
        });
    }

    fn take_stats(&self) -> Vec<PointStat> {
        std::mem::take(&mut self.stats.lock().expect("stats lock"))
    }
}

/// The meta twin written next to an experiment's artifacts: run shape plus
/// all schedule-dependent timings, kept out of the artifacts themselves.
#[derive(Debug, Clone, Serialize)]
pub struct RunMeta {
    /// Experiment registry name.
    pub experiment: String,
    /// Thread budget the run used.
    pub jobs: usize,
    /// Per-processor reference budget the run used.
    pub refs_per_proc: u64,
    /// Number of sweep points executed.
    pub points: usize,
    /// Points whose results were reused from the per-point cache.
    pub cache_hits: u64,
    /// Points that were actually (re)computed.
    pub cache_misses: u64,
    /// End-to-end wall time of `Experiment::run` in milliseconds.
    pub total_wall_ms: f64,
    /// Sweep points completed per wall-clock second.
    pub points_per_sec: f64,
    /// Artifact stems the run produced.
    pub artifacts: Vec<String>,
    /// Per-point labels, seeds and wall times.
    pub point_stats: Vec<PointStat>,
}

/// Outcome of [`run_experiment`]: the artifacts plus the meta twin.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Artifacts the experiment wrote.
    pub artifacts: Vec<Artifact>,
    /// The meta twin (also written to `<out_dir>/<name>.meta.json`).
    pub meta: RunMeta,
}

/// The unwind payload with which [`SweepCtx::map`] ends a shard worker's
/// run once its stripe is cached; private, so only [`run_shard`] catches it.
struct StripeDone;

/// What one shard worker did ([`run_shard`]): its stripe of the
/// experiment's first `map` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardReport {
    /// Points of the stripe (served plus computed).
    pub points: u64,
    /// Stripe points served from the cache.
    pub hits: u64,
    /// Stripe points computed and cached.
    pub misses: u64,
}

/// Runs `shard`'s stripe of `exp` under `cfg`: the experiment runs until
/// [`SweepCtx::map`] has computed and cached the points the shard owns,
/// then stops. The cache is always on (it is what the coordinator's fold
/// reads), under `cfg.out_dir`, which for a shard worker is the run
/// directory.
///
/// Writes no meta twin, and no artifact as long as the experiment calls
/// `map` before it renders anything, which every registered experiment
/// does (`crates/bench/tests/shard_stops_before_render.rs`).
///
/// # Panics
///
/// Re-raises, unchanged, any panic of the experiment's own.
pub fn run_shard(exp: &dyn Experiment, cfg: &SweepConfig, shard: Shard) -> ShardReport {
    let mut ctx = SweepCtx::new(exp.name(), cfg.clone().cache(true));
    ctx.shard = Some(shard);
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| exp.run(&ctx))) {
        if !payload.is::<StripeDone>() {
            resume_unwind(payload);
        }
    }
    let (hits, misses) = ctx.cache_counts();
    ShardReport { points: hits + misses, hits, misses }
}

/// Runs `exp` under `cfg`, writes the `<name>.meta.json` twin, and returns
/// the report.
///
/// # Panics
///
/// Panics if the meta twin cannot be written.
pub fn run_experiment(exp: &dyn Experiment, cfg: &SweepConfig) -> RunReport {
    let ctx = SweepCtx::new(exp.name(), cfg.clone());
    let start = Instant::now();
    let artifacts = exp.run(&ctx);
    let total_wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let point_stats = ctx.take_stats();
    let (cache_hits, cache_misses) = ctx.cache_counts();
    let meta = RunMeta {
        experiment: exp.name().to_owned(),
        jobs: cfg.jobs,
        refs_per_proc: cfg.refs_per_proc,
        points: point_stats.len(),
        cache_hits,
        cache_misses,
        total_wall_ms,
        points_per_sec: if total_wall_ms > 0.0 {
            point_stats.len() as f64 / (total_wall_ms / 1e3)
        } else {
            0.0
        },
        artifacts: artifacts.iter().map(|a| a.name.clone()).collect(),
        point_stats,
    };
    let path = cfg.out_dir.join(format!("{}.meta.json", exp.name()));
    let data = serde_json::to_string_pretty(&meta).expect("serialisable meta");
    fs::write(&path, data).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    RunReport { artifacts, meta }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    struct Doubler;

    impl Experiment for Doubler {
        fn name(&self) -> &'static str {
            "doubler"
        }
        fn description(&self) -> &'static str {
            "doubles numbers"
        }
        fn run(&self, ctx: &SweepCtx) -> Vec<Artifact> {
            let points: Vec<u64> = (0..10).collect();
            let doubled =
                ctx.map(&points, |p| SweepPoint::new().detail(p.to_string()), |_c, p| p * 2);
            ctx.write_json("doubler", &doubled);
            ctx.artifacts()
        }
    }

    #[test]
    fn harness_writes_artifact_and_meta_twin() {
        let dir = std::env::temp_dir().join(format!("ringsim-sweep-test-{}", std::process::id()));
        let cfg = SweepConfig::new(0).jobs(4).out_dir(&dir);
        let report = run_experiment(&Doubler, &cfg);
        assert_eq!(report.artifacts.len(), 1);
        assert_eq!(report.meta.points, 10);
        assert!(dir.join("doubler.json").is_file());
        assert!(dir.join("doubler.meta.json").is_file());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn point_seeds_do_not_depend_on_jobs() {
        let dir = std::env::temp_dir().join(format!("ringsim-sweep-seeds-{}", std::process::id()));
        let points: Vec<u64> = (0..32).collect();
        let seeds = |jobs| {
            let ctx =
                SweepCtx::new("seeds", SweepConfig::new(0).jobs(jobs).out_dir(&dir).cache(false));
            ctx.map(&points, |p| SweepPoint::new().detail(p.to_string()), |c, _| c.seed)
        };
        assert_eq!(seeds(1), seeds(7));
        let _ = std::fs::remove_dir_all(&dir);
    }

    struct FailsAtThree;

    impl Experiment for FailsAtThree {
        fn name(&self) -> &'static str {
            "fails_at_three"
        }
        fn description(&self) -> &'static str {
            "panics at one point"
        }
        fn run(&self, ctx: &SweepCtx) -> Vec<Artifact> {
            let points: Vec<u64> = (0..8).collect();
            ctx.map(
                &points,
                |p| SweepPoint::new().detail(p.to_string()),
                |_c, p| {
                    assert_ne!(*p, 3, "point {p} failed");
                    *p
                },
            );
            ctx.artifacts()
        }
    }

    #[test]
    fn a_failing_point_keeps_its_message() {
        let dir = std::env::temp_dir().join(format!("ringsim-sweep-fail-{}", std::process::id()));
        let cfg = SweepConfig::new(0).jobs(2).out_dir(&dir).cache(false);
        let run = std::panic::AssertUnwindSafe(|| run_experiment(&FailsAtThree, &cfg));
        let payload =
            std::panic::catch_unwind(run).expect_err("the point's panic reaches the caller");
        let msg = payload.downcast_ref::<String>().map_or_else(
            || payload.downcast_ref::<&str>().copied().unwrap_or_default(),
            String::as_str,
        );
        assert!(msg.contains("point 3 failed"), "lost the message: {msg:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_run_is_all_hits_with_identical_artifacts() {
        let dir = std::env::temp_dir().join(format!("ringsim-cache-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = SweepConfig::new(0).jobs(2).out_dir(&dir);

        let cold = run_experiment(&Doubler, &cfg);
        assert_eq!((cold.meta.cache_hits, cold.meta.cache_misses), (0, 10));
        assert!(cold.meta.point_stats.iter().all(|s| !s.cached));
        let cold_bytes = std::fs::read(dir.join("doubler.json")).unwrap();

        // Warm, with a different jobs count: zero points re-run, identical
        // artifact bytes.
        let warm = run_experiment(&Doubler, &cfg.clone().jobs(7));
        assert_eq!((warm.meta.cache_hits, warm.meta.cache_misses), (10, 0));
        assert!(warm.meta.point_stats.iter().all(|s| s.cached));
        assert_eq!(std::fs::read(dir.join("doubler.json")).unwrap(), cold_bytes);

        // `--no-cache` recomputes (and still matches).
        let fresh = run_experiment(&Doubler, &cfg.clone().cache(false));
        assert_eq!((fresh.meta.cache_hits, fresh.meta.cache_misses), (0, 10));
        assert_eq!(std::fs::read(dir.join("doubler.json")).unwrap(), cold_bytes);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn progress_callback_counts_points_and_cache_hits() {
        let dir =
            std::env::temp_dir().join(format!("ringsim-sweep-progress-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let total = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(AtomicUsize::new(0));
        let cached = Arc::new(AtomicUsize::new(0));
        let observer: ProgressFn = {
            let (total, done, cached) = (total.clone(), done.clone(), cached.clone());
            Arc::new(move |ev| match ev {
                Progress::MapStarted { points } => {
                    total.fetch_add(*points, Ordering::Relaxed);
                }
                Progress::PointDone { cached: c, label } => {
                    assert!(!label.is_empty());
                    done.fetch_add(1, Ordering::Relaxed);
                    if *c {
                        cached.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        };
        let cfg = SweepConfig::new(0).jobs(4).out_dir(&dir).on_progress(observer);
        run_experiment(&Doubler, &cfg);
        assert_eq!((total.load(Ordering::Relaxed), done.load(Ordering::Relaxed)), (10, 10));
        assert_eq!(cached.load(Ordering::Relaxed), 0);
        // Warm run: every point reports as a cache hit.
        run_experiment(&Doubler, &cfg);
        assert_eq!((total.load(Ordering::Relaxed), done.load(Ordering::Relaxed)), (20, 20));
        assert_eq!(cached.load(Ordering::Relaxed), 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every point needs one value from [`SweepCtx::shared`]; `computed`
    /// counts how often its closure runs.
    struct SharedUser {
        name: &'static str,
        computed: AtomicUsize,
    }

    impl SharedUser {
        fn new(name: &'static str) -> Self {
            Self { name, computed: AtomicUsize::new(0) }
        }
        fn computed(&self) -> usize {
            self.computed.load(Ordering::Relaxed)
        }
    }

    impl Experiment for SharedUser {
        fn name(&self) -> &'static str {
            self.name
        }
        fn description(&self) -> &'static str {
            "reads one shared value in every point"
        }
        fn run(&self, ctx: &SweepCtx) -> Vec<Artifact> {
            let points: Vec<u64> = (0..6).collect();
            let rows = ctx.map(
                &points,
                |p| SweepPoint::new().detail(p.to_string()),
                |_c, p| {
                    let base: Vec<u64> = ctx.shared("base", || {
                        self.computed.fetch_add(1, Ordering::Relaxed);
                        vec![3, 100]
                    });
                    base[0] * p + base[1]
                },
            );
            ctx.write_json(self.name, &rows);
            ctx.artifacts()
        }
    }

    fn shared_entries(dir: &Path) -> Vec<PathBuf> {
        std::fs::read_dir(dir.join(".cache").join("shared"))
            .map(|d| d.flatten().map(|e| e.path()).collect())
            .unwrap_or_default()
    }

    #[test]
    fn shared_value_is_computed_once_per_cache_root() {
        let dir = std::env::temp_dir().join(format!("ringsim-shared-once-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = SweepConfig::new(0).jobs(1).out_dir(&dir);
        let (a, b) = (SharedUser::new("shared_a"), SharedUser::new("shared_b"));
        run_experiment(&a, &cfg);
        run_experiment(&b, &cfg);
        assert_eq!((a.computed(), b.computed()), (1, 0), "the second experiment reads the entry");
        assert_eq!(shared_entries(&dir).len(), 1);
        assert_eq!(
            std::fs::read(dir.join("shared_a.json")).unwrap(),
            std::fs::read(dir.join("shared_b.json")).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_value_without_cache_is_computed_every_time_and_never_written() {
        let dir = std::env::temp_dir().join(format!("ringsim-shared-off-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = SweepConfig::new(0).jobs(2).out_dir(&dir).cache(false);
        let exp = SharedUser::new("shared_off");
        run_experiment(&exp, &cfg);
        run_experiment(&exp, &cfg);
        assert_eq!(exp.computed(), 12, "one call per point per run");
        assert!(!dir.join(".cache").join("shared").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_shared_entry_is_a_miss_and_is_rewritten() {
        let dir = std::env::temp_dir().join(format!("ringsim-shared-trunc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = SweepConfig::new(0).jobs(1).out_dir(&dir);
        let first = SharedUser::new("shared_first");
        run_experiment(&first, &cfg);
        let [entry] = shared_entries(&dir).try_into().expect("one shared entry");
        let good = std::fs::read(&entry).unwrap();
        std::fs::write(&entry, &good[..good.len() / 2]).unwrap();

        let second = SharedUser::new("shared_second");
        run_experiment(&second, &cfg);
        assert_eq!(second.computed(), 1, "the truncated entry was recomputed");
        assert_eq!(std::fs::read(&entry).unwrap(), good, "and rewritten whole");
        assert_eq!(
            std::fs::read(dir.join("shared_first.json")).unwrap(),
            std::fs::read(dir.join("shared_second.json")).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_lookups_leave_meta_counts_alone() {
        let dir = std::env::temp_dir().join(format!("ringsim-shared-meta-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = SweepConfig::new(0).jobs(2).out_dir(&dir);
        let exp = SharedUser::new("shared_meta");
        let cold = run_experiment(&exp, &cfg);
        assert_eq!((cold.meta.points, cold.meta.cache_hits, cold.meta.cache_misses), (6, 0, 6));
        let warm = run_experiment(&exp, &cfg);
        assert_eq!((warm.meta.points, warm.meta.cache_hits, warm.meta.cache_misses), (6, 6, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_entries_fall_back_to_recompute() {
        let dir =
            std::env::temp_dir().join(format!("ringsim-cache-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = SweepConfig::new(0).jobs(1).out_dir(&dir);
        let cold = run_experiment(&Doubler, &cfg);
        let cold_bytes = std::fs::read(dir.join("doubler.json")).unwrap();
        // Truncate every entry; the warm run must notice and recompute.
        let entries = dir.join(".cache").join("doubler");
        for entry in std::fs::read_dir(&entries).unwrap() {
            std::fs::write(entry.unwrap().path(), "{").unwrap();
        }
        let warm = run_experiment(&Doubler, &cfg);
        assert_eq!((warm.meta.cache_hits, warm.meta.cache_misses), (0, 10));
        assert_eq!(std::fs::read(dir.join("doubler.json")).unwrap(), cold_bytes);
        assert_eq!(cold.meta.points, warm.meta.points);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
