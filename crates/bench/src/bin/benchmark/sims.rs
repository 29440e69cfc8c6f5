//! `sim-ring` and `sim-nonring`: whole `Simulator::run` passes over a fixed
//! set of points, plus (traced) the trace, cache and obs layers driven
//! alone on the same reference streams.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use ringsim_bench::perf::{report_digest, Scenario};
use ringsim_cache::{AccessClass, Cache, CacheConfig, LineState};
use ringsim_core::{RunOptions, SimKind, SimReport, SimSpec, Simulator};
use ringsim_obs::ObsConfig;
use ringsim_proto::ProtocolKind;
use ringsim_trace::{Benchmark, RefInterpreter, Workload, WorkloadSpec, BLOCK_BYTES};

use crate::metrics::WorkloadResult;
use crate::spans::Tracer;
use crate::stats::median;
use crate::{elapsed_ns, peak_rss_mb, usage, Run, SETUPS};

/// Backend labels the per-kind metrics are keyed by.
pub const KINDS: [&str; 6] =
    ["ring500-snooping", "ring500-directory", "bus50", "sci500", "hier", "hier-deflect"];

/// The benchmark configurations both workloads run (hier keys by
/// processor count only: it ignores the workload spec).
const CONFIGS: [(Benchmark, usize); 3] =
    [(Benchmark::Mp3d, 32), (Benchmark::Water, 32), (Benchmark::Fft, 64)];

/// Measured references per processor (each spec adds its own warm-up).
const RING_REFS: u64 = 5_000;
const NONRING_REFS: u64 = 20_000;

/// Nominal seconds per pass on the calibration machine (see `Run::ops`).
const RING_PASS_S: f64 = 2.0;
const NONRING_PASS_S: f64 = 1.4;

/// Fewest timed passes per run, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// References generated per chunk when the trace and cache layers run
/// alone (bounds the buffer, not the work).
const CHUNK: usize = 1 << 16;

/// One simulator run of a workload: a spec through one backend.
struct Point {
    label: String,
    kind: &'static str,
    sim: SimKind,
    protocol: ProtocolKind,
    spec: WorkloadSpec,
}

impl Point {
    /// References the run processes (warm-up included): the per-reference
    /// denominator. The hierarchy backends count their nominal budget.
    fn processed_refs(&self) -> u64 {
        let per_proc = if self.sim.is_hier() {
            self.spec.data_refs_per_proc
        } else {
            self.spec.data_refs_per_proc + self.spec.warmup_refs_per_proc
        };
        per_proc * self.spec.procs as u64
    }

    /// Measured (post-warm-up) data references: the `refs_per_s` count.
    fn measured_refs(&self) -> u64 {
        self.spec.data_refs_per_proc * self.spec.procs as u64
    }

    fn build(&self) -> Box<dyn Simulator> {
        let workload = Workload::new(self.spec.clone()).expect("paper spec is valid");
        self.build_from(workload)
    }

    fn build_from(&self, workload: Workload) -> Box<dyn Simulator> {
        let spec = SimSpec::new(workload).with_protocol(self.protocol);
        self.sim.build(&spec).unwrap_or_else(|e| panic!("{}: {e}", self.label))
    }

    fn clock_cycles(&self, report: &SimReport) -> u64 {
        let scenario = Scenario {
            kind: self.sim,
            procs: self.spec.procs,
            refs_per_proc: self.spec.data_refs_per_proc,
            topo: None,
        };
        report.sim_end.cycles(scenario.clock_period())
    }
}

fn spec(bench: Benchmark, procs: usize, refs: u64, seed: u64) -> WorkloadSpec {
    bench.spec(procs).expect("paper size").with_refs(refs).with_seed(seed)
}

fn points(workload: &str, seed: u64) -> Vec<Point> {
    let mut out = Vec::new();
    let mut push = |label: String, kind, sim, protocol, spec| {
        out.push(Point { label, kind, sim, protocol, spec });
    };
    if workload == "sim-ring" {
        for (bench, procs) in CONFIGS {
            for (kind, protocol) in [
                ("ring500-snooping", ProtocolKind::Snooping),
                ("ring500-directory", ProtocolKind::Directory),
            ] {
                let label = format!("{}-{procs}p/{kind}", bench.name());
                push(label, kind, SimKind::Ring500, protocol, spec(bench, procs, RING_REFS, seed));
            }
        }
    } else {
        for (bench, procs) in CONFIGS {
            for (kind, sim) in [("bus50", SimKind::Bus50), ("sci500", SimKind::Sci500)] {
                let label = format!("{}-{procs}p/{kind}", bench.name());
                let s = spec(bench, procs, NONRING_REFS, seed);
                push(label, kind, sim, ProtocolKind::Snooping, s);
            }
        }
        for (bench, procs) in [(Benchmark::Mp3d, 32), (Benchmark::Fft, 64)] {
            for (kind, sim) in [("hier", SimKind::Hier), ("hier-deflect", SimKind::HierDeflect)] {
                let s = spec(bench, procs, NONRING_REFS, seed);
                push(format!("{procs}p/{kind}"), kind, sim, ProtocolKind::Snooping, s);
            }
        }
    }
    out
}

/// One pass: every point built (untimed) and run (timed). Returns the
/// reports and each point's run nanoseconds.
fn pass(points: &[Point], tracer: &mut Tracer, req: &str) -> (Vec<SimReport>, Vec<u64>) {
    tracer.span("pass", req, points.len() as u64, |t| {
        points
            .iter()
            .map(|p| {
                let mut sim = p.build();
                t.span("core.run", &p.label, p.processed_refs(), |_| {
                    let start = Instant::now();
                    let outcome = sim.run(&RunOptions::default());
                    (outcome.report, elapsed_ns(start))
                })
            })
            .unzip()
    })
}

pub fn run(ctx: &Run) -> WorkloadResult {
    let mut res = WorkloadResult::new(&ctx.workload, ctx.seed, ctx.traced);
    res.threads = 1;
    let mut tracer = Tracer::new(ctx.traced);
    let points = points(&ctx.workload, ctx.seed);

    // Set-up: workload generation state plus backend construction.
    let mut setups = Vec::new();
    for rep in 0..SETUPS {
        tracer.span("setup", &format!("setup-{rep}"), points.len() as u64, |t| {
            let start = Instant::now();
            for p in &points {
                let workload = t.span("trace.workload", &p.label, 1, |_| {
                    Workload::new(p.spec.clone()).expect("paper spec is valid")
                });
                drop(black_box(t.span("core.build", &p.label, 1, |_| p.build_from(workload))));
            }
            setups.push(elapsed_ns(start) as f64 / 1e9);
        });
    }
    res.e2e("setup_s", setups);

    // Passes: one warm-up, then the timed ones. A traced run alternates
    // untraced and traced passes to price the tracing.
    tracer.set_enabled(false);
    let (reports, _) = pass(&points, &mut tracer, "warm-up");
    let digests: Vec<String> = reports.iter().map(report_digest).collect();
    for (p, d) in points.iter().zip(&digests) {
        res.check(None);
        res.digests.insert(p.label.clone(), d.clone());
    }
    // The pins hold at the default seed; other seeds check passes agree.
    if ctx.seed == crate::DEFAULT_SEED {
        ctx.check_pins(&mut res);
    }
    let mut untraced: Vec<f64> = Vec::new();
    let mut traced: Vec<f64> = Vec::new();
    let mut run_ns: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    let mut fastest_ns: BTreeMap<&str, u64> = BTreeMap::new();
    let nominal_s = if ctx.workload == "sim-ring" { RING_PASS_S } else { NONRING_PASS_S };
    let passes = ctx.ops(nominal_s, MIN_PASSES);
    let usage_before = usage::Usage::read(None);
    for i in 0..passes {
        let trace_this = ctx.traced && i % 2 == 1;
        tracer.set_enabled(trace_this);
        let (reps, times) = pass(&points, &mut tracer, &format!("pass-{i}"));
        tracer.set_enabled(ctx.traced);
        for (((p, r), t), expect) in points.iter().zip(&reps).zip(&times).zip(&digests) {
            let digest = report_digest(r);
            res.check(
                (&digest != expect).then(|| {
                    format!("{} pass {i}: digest {digest}, warm-up pass {expect}", p.label)
                }),
            );
            run_ns.entry(p.label.as_str()).or_default().push(*t);
            if !trace_this {
                let fastest = fastest_ns.entry(p.label.as_str()).or_insert(*t);
                *fastest = (*fastest).min(*t);
            }
        }
        let total = times.iter().sum::<u64>() as f64 / 1e9;
        if trace_this {
            traced.push(total);
        } else {
            untraced.push(total);
        }
    }
    let usage_after = usage::Usage::read(None);
    let wall = median(&untraced);
    let fastest_pass = fastest_ns.values().sum::<u64>() as f64 / 1e9;
    res.e2e_value("wall_s", fastest_pass, untraced);

    if ctx.traced {
        res.layer("trace_overhead_pct", 100.0 * (median(&traced) / wall - 1.0));
        usage::record(&mut res, usage_before, usage_after, passes);
        layer_metrics(&points, &reports, wall, &run_ns, &mut tracer, &mut res);
        ctx.write_trace(&tracer);
    }
    res.e2e("peak_rss_mb", vec![peak_rss_mb(None)]);
    res
}

/// Layer detail of a traced run.
fn layer_metrics(
    points: &[Point],
    reports: &[SimReport],
    wall_s: f64,
    run_ns: &BTreeMap<&str, Vec<u64>>,
    tracer: &mut Tracer,
    res: &mut WorkloadResult,
) {
    let n = points.len() as f64;
    let measured: u64 = points.iter().map(Point::measured_refs).sum();
    res.detail("core.refs_per_s", measured as f64 / wall_s);
    res.detail("core.sim_proc_util", reports.iter().map(|r| r.proc_util).sum::<f64>() / n);
    res.detail("core.sim_net_util", reports.iter().map(|r| r.ring_util).sum::<f64>() / n);
    res.detail("core.sim_miss_ns", reports.iter().map(SimReport::miss_latency_ns).sum::<f64>() / n);
    res.detail("core.retries", reports.iter().map(|r| r.retries as f64).sum());
    let (build_ns, _) = tracer.total("core.build", |_| true);
    res.detail("core.build_ms", build_ns as f64 / 1e6 / SETUPS as f64);

    // The trace and cache layers alone, on the streams the non-hierarchy
    // points generate (one per distinct spec).
    let mut misses = 0;
    let mut accesses = 0;
    let mut seen: Vec<&str> = Vec::new();
    for p in points.iter().filter(|p| !p.sim.is_hier()) {
        let key = p.label.split('/').next().unwrap_or_default();
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let (m, a) = tracer.span("layers", key, 0, |t| drive_layers(p, key, t));
        misses += m;
        accesses += a;
    }
    let gen = tracer.ns_per_item("trace.gen", |_| true);
    let probe = tracer.ns_per_item("cache.probe", |_| true);
    res.detail("trace.gen_ns_per_ref", gen);
    res.detail("trace.interp_ns_per_ref", tracer.ns_per_item("trace.interp", |_| true));
    res.detail("cache.probe_ns_per_ref", probe);
    res.detail("cache.miss_ratio", misses as f64 / accesses as f64);

    // Telemetry on: each point once more with obs recording.
    for p in points {
        let mut sim = p.build();
        tracer.span("obs.run", &p.label, p.processed_refs(), |_| {
            black_box(sim.run(&RunOptions::new().with_obs(ObsConfig::default())));
        });
    }

    for kind in KINDS {
        let of_kind = |req: &str| req.rsplit('/').next() == Some(kind);
        let ours: Vec<(&Point, &SimReport)> =
            points.iter().zip(reports).filter(|(p, _)| p.kind == kind).collect();
        if ours.is_empty() {
            continue;
        }
        let run = tracer.ns_per_item("core.run", of_kind);
        let overhead = if ours[0].0.sim.is_hier() { 0.0 } else { gen + probe };
        res.detail(&format!("core.run_ns_per_ref.{kind}"), run);
        res.detail(&format!("core.residual_ns_per_ref.{kind}"), run - overhead);
        let median_ns: f64 =
            ours.iter().map(|(p, _)| median(&as_f64(&run_ns[p.label.as_str()]))).sum();
        let cycles: u64 = ours.iter().map(|(p, r)| p.clock_cycles(r)).sum();
        res.detail(&format!("core.host_ns_per_sim_cycle.{kind}"), median_ns / cycles as f64);
        let (obs_ns, _) = tracer.total("obs.run", of_kind);
        res.detail(&format!("obs.overhead_ratio.{kind}"), obs_ns as f64 / median_ns);
    }
}

fn as_f64(xs: &[u64]) -> Vec<f64> {
    xs.iter().map(|&x| x as f64).collect()
}

/// Generates `p`'s reference stream in round-robin chunks and drives each
/// chunk through the reference interpreter and through bare per-node
/// caches. Returns the caches' (misses, accesses).
fn drive_layers(p: &Point, key: &str, t: &mut Tracer) -> (u64, u64) {
    let mut workload = Workload::new(p.spec.clone()).expect("paper spec is valid");
    let procs = p.spec.procs;
    let mut interp = RefInterpreter::new(procs, workload.space()).expect("at most 64 nodes");
    let mut caches: Vec<Cache> = (0..procs)
        .map(|_| Cache::new(CacheConfig::paper_default()).expect("paper cache"))
        .collect();
    let total = p.processed_refs() as usize;
    let mut buf = Vec::with_capacity(CHUNK);
    let mut node = 0;
    let mut done = 0;
    while done < total {
        let n = CHUNK.min(total - done);
        buf.clear();
        t.span("trace.gen", key, n as u64, |_| {
            let streams = workload.streams_mut();
            for _ in 0..n {
                buf.push(streams[node].next_ref());
                node = (node + 1) % procs;
            }
        });
        t.span("trace.interp", key, n as u64, |_| {
            for r in &buf {
                interp.process(*r);
            }
        });
        t.span("cache.probe", key, n as u64, |_| {
            for r in &buf {
                let cache = &mut caches[r.node.index()];
                let block = r.addr.block(BLOCK_BYTES);
                match cache.classify(block, r.kind) {
                    AccessClass::Hit => {}
                    AccessClass::Upgrade => {
                        cache.promote(block);
                    }
                    AccessClass::Miss => {
                        let state = if r.kind.is_write() { LineState::We } else { LineState::Rs };
                        cache.fill(block, state);
                    }
                }
            }
        });
        done += n;
    }
    black_box(interp.events());
    caches
        .iter()
        .map(Cache::stats)
        .fold((0, 0), |(m, a), s| (m + s.misses, a + s.hits + s.misses + s.upgrades))
}
