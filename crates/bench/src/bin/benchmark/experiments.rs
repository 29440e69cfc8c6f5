//! `experiments`: every registered experiment through `run_experiment`,
//! cold (fresh output directory, empty point cache) and warm (re-run on the
//! last cold directory, every point a cache hit).

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use ringsim_analytic::{BusModel, RingModel};
use ringsim_bench::{benchmark_input, experiments::ALL, paper_table2};
use ringsim_bus::BusConfig;
use ringsim_proto::ProtocolKind;
use ringsim_ring::RingConfig;
use ringsim_sweep::{run_experiment, SweepConfig};
use ringsim_trace::Benchmark;

use crate::metrics::WorkloadResult;
use crate::spans::Tracer;
use crate::stats::median;
use crate::{elapsed_ns, fnv1a_hex, peak_rss_mb, usage, Run, SETUPS};

/// Per-processor reference budget of every run. Fixed, since the artifact
/// pins depend on it.
pub const REFS: u64 = 10_000;
/// Nominal seconds per cold run on the calibration machine (see
/// `Run::ops`), and the fewest cold runs per run.
const COLD_S: f64 = 2.5;
const MIN_COLD: usize = 2;
/// Warm re-runs per run.
const WARM: usize = 5;

/// Registry names, in run order.
pub fn names() -> Vec<&'static str> {
    ALL.iter().map(|e| e.name()).collect()
}

/// One `experiments all` pass into `dir`: total seconds, per-experiment
/// seconds, and the summed (points, cache hits, cache misses).
fn run_all(ctx: &Run, dir: &Path, tracer: &mut Tracer, req: &str) -> (f64, Vec<f64>, [u64; 3]) {
    let cfg = SweepConfig::new(REFS).jobs(ctx.jobs).out_dir(dir);
    let mut per_exp = Vec::new();
    let mut counts = [0; 3];
    let start = Instant::now();
    tracer.span("sweep.run", req, ALL.len() as u64, |t| {
        for exp in ALL {
            let begin = Instant::now();
            let meta = t.span("sweep.exp", exp.name(), 1, |_| run_experiment(exp, &cfg).meta);
            per_exp.push(elapsed_ns(begin) as f64 / 1e9);
            counts[0] += meta.points as u64;
            counts[1] += meta.cache_hits;
            counts[2] += meta.cache_misses;
        }
    });
    (elapsed_ns(start) as f64 / 1e9, per_exp, counts)
}

/// Every artifact in `dir` (meta twins and the cache excluded), by file
/// name.
fn artifacts(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(dir).expect("run directory is readable").flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let path = entry.path();
        if path.is_file() && !name.ends_with(".meta.json") {
            out.insert(name, fs::read(&path).expect("artifact is readable"));
        }
    }
    out
}

fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| {
            let p = e.path();
            if p.is_dir() {
                dir_bytes(&p)
            } else {
                e.metadata().map_or(0, |m| m.len())
            }
        })
        .sum()
}

/// Compares `got` with `want` file by file; one failure per differing run.
fn same_artifacts(
    what: &str,
    got: &BTreeMap<String, Vec<u8>>,
    want: &BTreeMap<String, Vec<u8>>,
) -> Option<String> {
    let differing: BTreeSet<&String> =
        want.keys().chain(got.keys()).filter(|k| got.get(*k) != want.get(*k)).collect();
    (!differing.is_empty()).then(|| format!("{what}: artifacts differ: {differing:?}"))
}

pub fn run(ctx: &Run) -> WorkloadResult {
    let mut res = WorkloadResult::new(&ctx.workload, ctx.seed, ctx.traced);
    res.seed_used = false;
    res.threads = ctx.jobs;
    let mut tracer = Tracer::new(ctx.traced);

    // Set-up: the CLI's start-up, `ringsim experiments --list` to exit.
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        let status = Command::new(&ctx.ringsim)
            .args(["experiments", "--list"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status();
        setups.push(elapsed_ns(start) as f64 / 1e9);
        res.check(match status {
            Ok(s) if s.success() => None,
            Ok(s) => Some(format!("ringsim experiments --list exited with {s}")),
            Err(e) => Some(format!("running {}: {e}", ctx.ringsim.display())),
        });
    }
    res.e2e("setup_s", setups);

    // Cold runs, each in a fresh directory; a traced run traces every
    // other one to price the tracing.
    let mut cold = Vec::new();
    let mut traced_cold = Vec::new();
    let mut per_exp: Vec<Vec<f64>> = vec![Vec::new(); ALL.len()];
    let mut fastest_exp = vec![f64::INFINITY; ALL.len()];
    let mut first: Option<BTreeMap<String, Vec<u8>>> = None;
    let mut cold_counts = [0; 3];
    let mut dir = ctx.tmp.join("cold-0");
    let colds = ctx.ops(COLD_S, MIN_COLD);
    let usage_before = usage::Usage::read(None);
    for i in 0..colds {
        if i > 0 {
            fs::remove_dir_all(&dir).expect("removing the previous cold run");
        }
        dir = ctx.tmp.join(format!("cold-{i}"));
        let trace_this = ctx.traced && i % 2 == 1;
        tracer.set_enabled(trace_this);
        let (wall, exps, counts) = run_all(ctx, &dir, &mut tracer, &format!("cold-{i}"));
        tracer.set_enabled(ctx.traced);
        if trace_this { &mut traced_cold } else { &mut cold }.push(wall);
        for ((acc, fastest), s) in per_exp.iter_mut().zip(&mut fastest_exp).zip(exps) {
            acc.push(s);
            if !trace_this {
                *fastest = fastest.min(s);
            }
        }
        cold_counts = counts;
        res.attempted += ALL.len() as u64;
        let got = artifacts(&dir);
        match &first {
            None => {
                for (name, bytes) in &got {
                    res.digests.insert(name.clone(), fnv1a_hex(bytes));
                }
                ctx.check_pins(&mut res);
                first = Some(got);
            }
            Some(want) => res.fail_if(same_artifacts(&format!("cold run {i}"), &got, want)),
        }
    }
    let usage_after = usage::Usage::read(None);
    let want = first.expect("at least one cold run");

    // Warm re-runs on the last cold directory: every point from the cache.
    let mut warm = Vec::new();
    let mut warm_counts = [0; 3];
    for w in 0..WARM {
        let (wall, _, counts) = run_all(ctx, &dir, &mut tracer, &format!("warm-{w}"));
        warm.push(wall);
        warm_counts = counts;
        res.attempted += ALL.len() as u64;
        res.fail_if(same_artifacts(&format!("warm run {w}"), &artifacts(&dir), &want));
    }

    let wall = median(&cold);
    res.e2e_value("wall_s", fastest_exp.iter().sum(), cold);
    if ctx.traced {
        res.layer("trace_overhead_pct", 100.0 * (median(&traced_cold) / wall - 1.0));
        usage::record(&mut res, usage_before, usage_after, colds);
        for (name, secs) in names().into_iter().zip(&per_exp) {
            res.detail(&format!("sweep.exp_s.{name}"), median(secs));
        }
        res.detail("sweep.warm_wall_s", median(&warm));
        res.detail("sweep.points", cold_counts[0] as f64);
        res.detail("sweep.cache_misses", cold_counts[2] as f64);
        res.detail("sweep.cache_hits", warm_counts[1] as f64);
        let warm_total = (warm_counts[1] + warm_counts[2]).max(1);
        res.detail("sweep.hit_ratio", warm_counts[1] as f64 / warm_total as f64);
        res.detail("sweep.cache_bytes", dir_bytes(&dir.join(".cache")) as f64);
        res.detail("sweep.artifact_bytes", want.values().map(|b| b.len() as f64).sum());
        res.detail("analytic.validate_err_pct", validate_err_pct(&want));
        model_layers(&mut tracer, &mut res);
        ctx.write_trace(&tracer);
    }
    let _ = fs::remove_dir_all(&dir);
    res.e2e("peak_rss_mb", vec![peak_rss_mb(None)]);
    res
}

/// Mean |sim − model| / sim of processor utilisation over `validate.json`.
fn validate_err_pct(artifacts: &BTreeMap<String, Vec<u8>>) -> f64 {
    let text = String::from_utf8_lossy(&artifacts["validate.json"]);
    let doc = serde_json::parse_value(&text).expect("validate.json parses");
    let serde::Value::Array(rows) = doc else { panic!("validate.json is an array") };
    let num = |row: &serde::Value, k: &str| match row.get(k) {
        Some(serde::Value::Float(f)) => *f,
        _ => panic!("validate row lacks `{k}`"),
    };
    let errs: Vec<f64> = rows
        .iter()
        .map(|r| {
            (num(r, "sim_proc_util") - num(r, "model_proc_util")).abs() / num(r, "sim_proc_util")
        })
        .collect();
    100.0 * errs.iter().sum::<f64>() / errs.len() as f64
}

/// The characterisation and analytic-model layers alone, on Table 2's
/// twelve configurations at [`REFS`].
fn model_layers(tracer: &mut Tracer, res: &mut WorkloadResult) {
    let paper = paper_table2();
    let mut errs = Vec::new();
    let mut inputs = Vec::new();
    for (bench, procs) in Benchmark::paper_configs() {
        let label = format!("{}-{procs}p", bench.name());
        let (ch, input) = tracer.span("trace.characterize", &label, 1, |_| {
            benchmark_input(bench, procs, REFS).expect("paper config")
        });
        let row = paper.iter().find(|r| r.bench == bench.name() && r.procs == procs);
        let paper_mr = row.expect("Table 2 row").total_miss_rate;
        errs.push((ch.events.total_miss_rate() - paper_mr).abs() / paper_mr);
        inputs.push((label, procs, input));
    }
    res.detail("trace.table2_err_pct", 100.0 * errs.iter().sum::<f64>() / errs.len() as f64);
    let (char_ns, _) = tracer.total("trace.characterize", |_| true);
    res.detail("trace.characterize_s", char_ns as f64 / 1e9);

    let mut evals = 0;
    for (label, procs, input) in &inputs {
        evals += tracer.span("analytic.eval", label, 1, |_| {
            let ring = RingConfig::standard_500mhz(*procs);
            let mut n = 0;
            for protocol in [ProtocolKind::Snooping, ProtocolKind::Directory] {
                n += black_box(RingModel::new(ring, protocol).sweep(input, 1, 20)).len();
            }
            n + black_box(BusModel::new(BusConfig::bus_50mhz(*procs)).sweep(input, 1, 20)).len()
        });
    }
    let (eval_ns, _) = tracer.total("analytic.eval", |_| true);
    res.detail("analytic.eval_us", eval_ns as f64 / 1e3);
    res.detail("analytic.evals", evals as f64);
}
