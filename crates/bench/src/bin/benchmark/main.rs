//! The repository benchmark: five workloads over the simulators, the sweep
//! engine and the HTTP service, each run in a child process of its own.
//!
//! ```text
//! benchmark [--workload a,b] [--seed N] [--seconds N] [--trace 0|1|PATH]
//!           [--out PATH] [--bless]
//! benchmark compare A.json B.json
//! ```
//!
//! Run it from the repository root. The last line of standard output is a
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics, or with `--trace` the per-layer ones. The full
//! result, layer detail included, goes to `--out` (default
//! `.bench/result.json`). See README.md.

#![forbid(unsafe_code)]

mod compare;
mod experiments;
mod metrics;
mod serve;
mod sims;
mod spans;
mod stats;
mod usage;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use serde::{Serialize, Value};

use crate::metrics::{Metric, ResultFile, WorkloadResult, MANIFEST_PATH, RESULT_SCHEMA, WORKLOADS};

/// Seed the pinned digests hold at.
pub const DEFAULT_SEED: u64 = 1;
/// Default measuring time per workload (`run_seconds` in BENCHMARK.json).
pub const DEFAULT_SECONDS: u64 = 10;
/// Set-ups timed per run; the median is reported. Many, since a set-up
/// takes milliseconds and the first `/healthz` after a server starts waits
/// out its 0–15 ms accept poll. Over ten seeds, the median of 51 spawns of
/// `ringsim experiments --list` spread 0.11 where that of 15 spread
/// 0.25–0.38.
pub const SETUPS: usize = 51;
/// Where results, traces and scratch directories go, under the
/// repository root.
const WORK_DIR: &str = ".bench";
/// The pinned digests, relative to the repository root (for `--bless`).
const EXPECTED_PATH: &str = "crates/bench/src/bin/benchmark/expected.json";
const EXPECTED: &str = include_str!("expected.json");
/// A workload child that runs longer than this is killed and failed.
const CHILD_DEADLINE: Duration = Duration::from_secs(170);

const HELP: &str = "\
USAGE:
  benchmark [OPTIONS]           run workloads (default: all five)
  benchmark compare A.json B.json

OPTIONS:
  --workload a,b    workloads to run (sim-ring, sim-nonring, experiments,
                    serve-inproc, serve-sharded)
  --seed N          workload seed (default 1, the seed the pins hold at)
  --seconds N       measuring time per workload (default 10)
  --trace 0|1|PATH  1 or PATH: a traced run reporting per-layer metrics and
                    writing a Chrome trace (default PATH .bench/trace.json)
  --out PATH        result file (default .bench/result.json)
  --bless           rewrite expected.json with the digests observed at
                    the default seed (a change to the benchmark)
  --help            this text
";

#[derive(Debug, Clone)]
struct Options {
    workloads: Vec<String>,
    seed: u64,
    seconds: u64,
    trace: Option<PathBuf>,
    out: PathBuf,
    bless: bool,
    /// Set in a workload child: where it writes its result.
    child_result: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: WORKLOADS.iter().map(|w| w.0.to_owned()).collect(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        out: Path::new(WORK_DIR).join("result.json"),
        bless: false,
        child_result: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                o.workloads = v.split(',').map(str::to_owned).collect();
                if let Some(bad) = o.workloads.iter().find(|w| !WORKLOADS.iter().any(|k| k.0 == *w))
                {
                    return Err(format!("unknown workload `{bad}`"));
                }
            }
            "--seed" => o.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|_| "--seconds needs an integer")?;
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => None,
                    "1" => Some(Path::new(WORK_DIR).join("trace.json")),
                    path => Some(PathBuf::from(path)),
                };
            }
            "--out" => o.out = PathBuf::from(value()?),
            "--bless" => o.bless = true,
            "--child-result" => o.child_result = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }
    Ok(o)
}

/// What a workload child runs with.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub bless: bool,
    /// Sweep threads: the machine's cores, at most two.
    pub jobs: usize,
    pub ringsim: PathBuf,
    /// Scratch directory, removed when the run ends.
    pub tmp: PathBuf,
    trace_out: Option<PathBuf>,
    pins: BTreeMap<String, String>,
}

impl Run {
    /// Fails the run once when the digests it recorded differ from the
    /// pins (in either direction); `--bless` skips the check.
    pub fn check_pins(&self, res: &mut WorkloadResult) {
        if self.bless {
            return;
        }
        let keys = self.pins.keys().chain(res.digests.keys());
        let wrong: BTreeSet<&String> =
            keys.filter(|k| self.pins.get(*k) != res.digests.get(*k)).collect();
        if !wrong.is_empty() {
            let msg = format!("digests differ from expected.json (or are unpinned): {wrong:?}");
            res.fail_if(Some(msg));
        }
    }

    /// How many timed operations a run does: `--seconds` worth at
    /// `nominal_s` seconds each on the 2-core calibration machine, at least
    /// `min`, doubled in a traced run (which alternates untraced and traced
    /// ones). A fixed count rather than a deadline, so every commit and
    /// every machine measures the same work.
    pub fn ops(&self, nominal_s: f64, min: usize) -> usize {
        let n = ((self.seconds as f64 / nominal_s).round() as usize).max(min);
        if self.traced {
            2 * n
        } else {
            n
        }
    }

    /// Writes the run's spans as a Chrome trace.
    pub fn write_trace(&self, tracer: &spans::Tracer) {
        if let Some(path) = &self.trace_out {
            fs::write(path, tracer.chrome_json()).expect("writing the trace");
        }
    }
}

pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Peak resident set (`VmHWM`) of this process, or of `pid`, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = pid.map_or_else(|| "/proc/self/status".to_owned(), |p| format!("/proc/{p}/status"));
    fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_owned();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a 64 of `bytes` as 16 hex digits (the artifact pin format).
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let h = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{h:016x}")
}

/// The commit checked out here, read from `.git` without leaving the
/// repository; `unknown` outside a git checkout.
fn git_head() -> String {
    let read = |p: &str| fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else { return "unknown".to_owned() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_owned() };
    read(reference)
        .map(|s| s.trim().to_owned())
        .or_else(|| {
            let packed = read("packed-refs")?;
            let line = packed.lines().find(|l| l.ends_with(&format!(" {reference}")))?;
            line.split_whitespace().next().map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The directory's own manifest, relative to the repository root.
const OWN_MANIFEST: &str = "crates/bench/src/bin/benchmark/Cargo.toml";

/// Whether this binary was built from [`OWN_MANIFEST`] (package
/// `ringsim-benchmark`) rather than as the `benchmark` bin of the
/// workspace's `ringsim-bench`. Either way `ringsim` is built in the same
/// workspace, so one release profile and one target directory cover
/// everything measured.
fn standalone() -> bool {
    env!("CARGO_PKG_NAME") != "ringsim-bench"
}

/// Where `cargo build --release` puts the `ringsim` binary.
fn ringsim_path() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || {
            if standalone() {
                Path::new(OWN_MANIFEST).with_file_name("target")
            } else {
                PathBuf::from("target")
            }
        },
        PathBuf::from,
    );
    target.join("release").join("ringsim")
}

/// Builds `ringsim` with cargo (a no-op when it is current), so the service
/// and CLI workloads test the checked-out sources.
fn ensure_ringsim() -> Result<(), String> {
    let exe = ringsim_path();
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let mut cmd = Command::new(cargo);
    cmd.args(["build", "--release", "--quiet"]);
    if standalone() {
        cmd.args(["--manifest-path", OWN_MANIFEST]);
    }
    let built = cmd.args(["-p", "ringsim", "--bin", "ringsim"]).stdout(Stdio::null()).status();
    match built {
        Ok(s) if s.success() && exe.is_file() => Ok(()),
        Ok(s) if s.success() => {
            Err(format!("{} is missing after cargo build --release", exe.display()))
        }
        Ok(s) => {
            Err(format!("cargo build --release failed ({s}); {} is not usable", exe.display()))
        }
        Err(e) => Err(format!("cannot run cargo to build {}: {e}", exe.display())),
    }
}

/// The `[profile.release]` table of a manifest and its sub-tables, as
/// trimmed lines without blanks and comments.
fn release_profile(manifest: &str) -> Vec<&str> {
    let mut inside = false;
    manifest
        .lines()
        .map(str::trim)
        .filter(|line| {
            if line.starts_with('[') {
                inside = line.starts_with("[profile.release");
            }
            inside && !line.is_empty() && !line.starts_with('#')
        })
        .collect()
}

/// A standalone build compiles everything it measures with the directory's
/// own copy of the workspace's release profile. Refuses to run when the
/// copy has drifted, so a profile change at the root cannot go unmeasured.
fn check_profile() -> Result<(), String> {
    if !standalone() {
        return Ok(());
    }
    let read = |p: &str| fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
    let (root, own) = (read("Cargo.toml")?, read(OWN_MANIFEST)?);
    if release_profile(&root) == release_profile(&own) {
        Ok(())
    } else {
        Err(format!(
            "the release profile in {OWN_MANIFEST} differs from the one in Cargo.toml; \
             copy the workspace's [profile.release] there"
        ))
    }
}

/// Serialises a `serde::Value` tree.
struct Json(Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

fn metrics_json(metrics: &BTreeMap<String, Metric>) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|(name, m)| {
                let v = vec![
                    ("value".to_owned(), Value::Float(m.value)),
                    ("unit".to_owned(), Value::Str(m.unit.clone())),
                ];
                (name.clone(), Value::Object(v))
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("compare") {
        return compare_cmd(&args[1..]);
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if !Path::new("Cargo.toml").is_file() || !Path::new(EXPECTED_PATH).is_file() {
        eprintln!("error: run the benchmark from the repository root");
        return ExitCode::from(2);
    }
    if let Err(e) = check_profile() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    match opts.child_result.clone() {
        Some(result) => child(&opts, &result),
        None => parent(&opts),
    }
}

fn compare_cmd(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: benchmark compare A.json B.json");
        return ExitCode::from(2);
    };
    let load = |p: &String| -> Result<ResultFile, String> {
        let text = fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{p}: not a benchmark result ({e})"))
    };
    let bounds = fs::read_to_string(MANIFEST_PATH)
        .map_err(|e| format!("reading {MANIFEST_PATH} (run from the repository root): {e}"))
        .and_then(|text| metrics::manifest_bounds(&text));
    match (load(a), load(b), bounds) {
        (Ok(ra), Ok(rb), Ok(bounds)) => {
            let (table, worse) = compare::compare(&ra, &rb, &bounds);
            print!("{table}");
            if worse {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload in this process and writes its result for the parent.
fn child(opts: &Options, result: &Path) -> ExitCode {
    let workload = opts.workloads[0].clone();
    let tmp = result.with_extension("tmp");
    fs::create_dir_all(&tmp).expect("creating the scratch directory");
    let pins: BTreeMap<String, BTreeMap<String, String>> =
        serde_json::from_str(EXPECTED).expect("expected.json parses");
    let run = Run {
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.trace.is_some(),
        bless: opts.bless,
        jobs: nproc().min(2),
        ringsim: ringsim_path(),
        tmp: tmp.clone(),
        trace_out: opts.trace.clone(),
        pins: pins.get(&workload).cloned().unwrap_or_default(),
        workload,
    };
    let mut res = match run.workload.as_str() {
        "sim-ring" | "sim-nonring" => sims::run(&run),
        "experiments" => experiments::run(&run),
        _ => serve::run(&run),
    };
    res.check_complete();
    let _ = fs::remove_dir_all(&tmp);
    let json = serde_json::to_string_pretty(&res).expect("results serialise");
    fs::write(result, json).expect("writing the workload result");
    ExitCode::SUCCESS
}

/// Spawns one child per workload, then reports, writes the result file and
/// prints the summary line.
fn parent(opts: &Options) -> ExitCode {
    let scratch = Path::new(WORK_DIR).join(format!("run-{}", std::process::id()));
    if let Err(e) = fs::create_dir_all(&scratch) {
        eprintln!("error: creating {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    // Every time, not only before the workloads that run it, so the one
    // build a fresh checkout needs happens in its first run.
    if let Err(e) = ensure_ringsim() {
        eprintln!("error: {e}");
        let _ = fs::remove_dir_all(&scratch);
        return ExitCode::FAILURE;
    }
    let mut results = Vec::new();
    let mut traces = Vec::new();
    for workload in &opts.workloads {
        let result = scratch.join(format!("{workload}.json"));
        let trace = opts.trace.as_ref().map(|_| scratch.join(format!("{workload}.trace.json")));
        let res = spawn_child(opts, workload, &result, trace.as_deref());
        if let Some(t) = trace {
            traces.push((workload.clone(), t));
        }
        results.push(res);
    }
    if let Some(path) = &opts.trace {
        merge_traces(&traces, path);
    }
    let _ = fs::remove_dir_all(&scratch);

    if opts.bless {
        bless(&results);
    }
    let file = ResultFile {
        schema: RESULT_SCHEMA.to_owned(),
        git_head: git_head(),
        nproc: nproc(),
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.trace.is_some(),
        workloads: results,
    };
    report(&file, &opts.out)
}

fn spawn_child(
    opts: &Options,
    workload: &str,
    result: &Path,
    trace: Option<&Path>,
) -> WorkloadResult {
    let failed = |msg: String| {
        let mut r = WorkloadResult::new(workload, opts.seed, opts.trace.is_some());
        r.check(Some(msg));
        r
    };
    let log = result.with_extension("log");
    let Ok(log_file) = fs::File::create(&log) else {
        return failed(format!("creating {}", log.display()));
    };
    let exe = std::env::current_exe().expect("the benchmark's own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .arg("--child-result")
        .arg(result)
        // One malloc arena: with one per thread, which thread ran which
        // sweep point moved the two-thread workloads' peak RSS by a third
        // from run to run.
        .env("MALLOC_ARENA_MAX", "1")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log_file);
    if let Some(t) = trace {
        cmd.arg("--trace").arg(t);
    }
    if opts.bless {
        cmd.arg("--bless");
    }
    eprintln!("benchmark: {workload} (seed {}, {} s)", opts.seed, opts.seconds);
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => return failed(format!("spawning the {workload} child: {e}")),
    };
    let deadline = Instant::now() + CHILD_DEADLINE;
    let status = loop {
        match child.try_wait() {
            Ok(Some(s)) => break Ok(s),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!(
                    "{workload} ran past {} s and was killed",
                    CHILD_DEADLINE.as_secs()
                ));
            }
            Err(e) => break Err(format!("waiting for the {workload} child: {e}")),
        }
    };
    let parsed = fs::read_to_string(result)
        .ok()
        .and_then(|s| serde_json::from_str::<WorkloadResult>(&s).ok());
    match (status, parsed) {
        (Ok(s), Some(r)) if s.success() => r,
        (status, _) => {
            let tail: Vec<String> = fs::read_to_string(&log)
                .unwrap_or_default()
                .lines()
                .rev()
                .take(20)
                .map(str::to_owned)
                .collect();
            for line in tail.iter().rev() {
                eprintln!("  {workload}| {line}");
            }
            let why = match status {
                Ok(s) => format!("{workload} child exited with {s} and no result"),
                Err(e) => e,
            };
            failed(why)
        }
    }
}

/// Merges the per-workload Chrome traces into one, a process per workload.
fn merge_traces(traces: &[(String, PathBuf)], out: &Path) {
    let mut events = Vec::new();
    for (pid, (workload, path)) in traces.iter().enumerate() {
        let pid = Value::UInt(pid as u64 + 1);
        events.push(Value::Object(vec![
            ("name".into(), Value::Str("process_name".into())),
            ("ph".into(), Value::Str("M".into())),
            ("pid".into(), pid.clone()),
            ("args".into(), Value::Object(vec![("name".into(), Value::Str(workload.clone()))])),
        ]));
        let doc = fs::read_to_string(path).ok().and_then(|s| serde_json::parse_value(&s).ok());
        if let Some(Value::Array(evs)) = doc.as_ref().and_then(|d| d.get("traceEvents")) {
            for ev in evs {
                let Value::Object(fields) = ev else { continue };
                let fields = fields
                    .iter()
                    .map(|(k, v)| (k.clone(), if k == "pid" { pid.clone() } else { v.clone() }))
                    .collect();
                events.push(Value::Object(fields));
            }
        }
    }
    let doc = Value::Object(vec![
        ("displayTimeUnit".into(), Value::Str("ns".into())),
        ("traceEvents".into(), Value::Array(events)),
    ]);
    if let Some(dir) = out.parent() {
        let _ = fs::create_dir_all(dir);
    }
    let json = serde_json::to_string(&Json(doc)).expect("trace serialises");
    match fs::write(out, json) {
        Ok(()) => eprintln!("benchmark: trace written to {}", out.display()),
        Err(e) => eprintln!("error: writing {}: {e}", out.display()),
    }
}

/// Rewrites expected.json with the digests the run observed.
fn bless(results: &[WorkloadResult]) {
    let mut pins: BTreeMap<String, BTreeMap<String, String>> =
        serde_json::from_str(EXPECTED).expect("expected.json parses");
    for r in results.iter().filter(|r| !r.digests.is_empty()) {
        if r.seed_used && r.seed != DEFAULT_SEED {
            eprintln!("benchmark: not blessing {} at seed {}", r.workload, r.seed);
            continue;
        }
        pins.insert(r.workload.clone(), r.digests.clone());
    }
    let json = serde_json::to_string_pretty(&pins).expect("pins serialise") + "\n";
    match fs::write(EXPECTED_PATH, json) {
        Ok(()) => eprintln!("benchmark: blessed {EXPECTED_PATH}"),
        Err(e) => eprintln!("error: writing {EXPECTED_PATH}: {e}"),
    }
}

/// Prints the metric table and the summary line, and writes the result
/// file. Exits non-zero when any check failed.
fn report(file: &ResultFile, out: &Path) -> ExitCode {
    for r in &file.workloads {
        let seed = if r.seed_used { r.seed.to_string() } else { format!("{} (unused)", r.seed) };
        println!(
            "== {}: seed {seed}, threads {}, connections {}, {} attempted, {} failed",
            r.workload, r.threads, r.connections, r.attempted, r.failed
        );
        let metrics: Vec<_> = if file.traced {
            r.per_layer.iter().chain(&r.layer_detail).collect()
        } else {
            r.end_to_end.iter().collect()
        };
        for (name, m) in metrics {
            println!("   {name:<40} {:>16.6} {}", m.value, m.unit);
        }
        for f in &r.failures {
            println!("   FAILED: {f}");
        }
    }
    if let Some(dir) = out.parent() {
        let _ = fs::create_dir_all(dir);
    }
    let json = serde_json::to_string_pretty(file).expect("results serialise");
    if let Err(e) = fs::write(out, json + "\n") {
        eprintln!("error: writing {}: {e}", out.display());
    }
    let attempted: u64 = file.workloads.iter().map(|r| r.attempted).sum();
    let failed: u64 = file.workloads.iter().map(|r| r.failed).sum();
    let pick =
        |r: &WorkloadResult| metrics_json(if file.traced { &r.per_layer } else { &r.end_to_end });
    let metrics = match file.workloads.as_slice() {
        [one] => pick(one),
        many => Value::Object(many.iter().map(|r| (r.workload.clone(), pick(r))).collect()),
    };
    let correct = failed == 0 && attempted > 0;
    let line = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", serde_json::to_string(&Json(line)).expect("summary serialises"));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A file of the repository, for tests: found above the package directory
/// (cargo runs tests there, in either build).
#[cfg(test)]
pub fn repo_file(name: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .find(|d| d.join(MANIFEST_PATH).is_file())
        .expect("the repository root is above the package");
    fs::read_to_string(root.join(name)).unwrap_or_else(|e| panic!("reading {name}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parse_reads_the_run_flags() {
        let o = parse(&args(&["--workload", "sim-ring", "--seed", "7", "--seconds", "3"])).unwrap();
        assert_eq!((o.workloads, o.seed, o.seconds), (vec!["sim-ring".to_owned()], 7, 3));
        assert!(o.trace.is_none());
        assert!(parse(&args(&["--trace", "0"])).unwrap().trace.is_none());
        assert!(parse(&args(&["--trace", "1"])).unwrap().trace.is_some());
        let o = parse(&args(&["--trace", "t.json"])).unwrap();
        assert_eq!(o.trace, Some(PathBuf::from("t.json")));
        assert!(parse(&args(&["--workload", "nope"])).is_err());
        assert!(parse(&args(&["--seed"])).is_err());
        assert!(parse(&args(&["--bogus"])).is_err());
    }

    #[test]
    fn pins_parse_and_cover_the_pinned_workloads() {
        let pins: BTreeMap<String, BTreeMap<String, String>> =
            serde_json::from_str(EXPECTED).expect("expected.json parses");
        for w in ["sim-ring", "sim-nonring", "experiments"] {
            assert!(pins.get(w).is_some_and(|p| !p.is_empty()), "no pins for {w}");
        }
    }

    #[test]
    fn release_profile_reads_the_table_and_its_sub_tables() {
        let manifest = "[package]\nname = \"x\"\n\n[profile.release]\n# why\ndebug = true\n\n\
                        [profile.release.package.foo]\nopt-level = 1\n[profile.bench]\nlto = true\n";
        assert_eq!(
            release_profile(manifest),
            ["[profile.release]", "debug = true", "[profile.release.package.foo]", "opt-level = 1"]
        );
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }

    #[test]
    fn own_release_profile_mirrors_the_workspace_root() {
        let own = repo_file(OWN_MANIFEST);
        let root = repo_file("Cargo.toml");
        assert!(!release_profile(&own).is_empty());
        assert_eq!(release_profile(&own), release_profile(&root));
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a_hex(b"a"), "af63dc4c8601ec8c");
    }
}
