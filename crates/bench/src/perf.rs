//! Macro-benchmark harness behind the committed `BENCH_*.json` baselines.
//!
//! Each scenario times a **full** simulator run — build from a [`SimSpec`],
//! run to completion through the [`Simulator`] trait — for every registered
//! backend at 16 and 64 processors, on the deterministic demo workload at a
//! fixed per-processor reference budget. Medians over a handful of samples
//! go into grouped baseline files at the repository root:
//!
//! * `BENCH_ring.json` — `ring500`, `ring250`
//! * `BENCH_bus.json` — `bus50`, `bus100`
//! * `BENCH_proto.json` — `bus50-mesi`, `bus50-dragon`
//! * `BENCH_sci.json` — `sci500`, `sci250`
//! * `BENCH_hier.json` — `hier`
//! * `BENCH_topo.json` — `hier3`, `hier-deflect`, and the flat / two-level
//!   topology overrides of `hier` at 64 processors (the topology-sweep
//!   comparison at equal node counts)
//!
//! Entries carry the median wall time per run, derived simulated-cycles/sec
//! and references/sec throughput, and a fingerprint of the exact
//! configuration measured, so the CI `bench` job can detect both schema
//! drift and (on comparable hardware) wall-clock regressions. Regenerate
//! with `cargo run --release -p ringsim-bench --bin perf` (see `--help`).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use ringsim_core::{HierTopology, RunOptions, SimKind, SimReport, SimSpec, Simulator};
use ringsim_trace::{Workload, WorkloadSpec};
use ringsim_types::{fnv1a, Time};

/// Schema tag stamped into (and required of) every baseline file.
pub const BENCH_SCHEMA: &str = "ringsim/bench-baseline/v1";

/// Per-processor reference budget every scenario runs (fixed so committed
/// medians stay comparable across regenerations).
pub const REFS_PER_PROC: u64 = 4_000;

/// Processor counts each backend is measured at.
pub const PROC_POINTS: [usize; 2] = [16, 64];

/// One benchmarked configuration: a backend at a processor count,
/// optionally pinned to an explicit hierarchy topology.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Backend under measurement.
    pub kind: SimKind,
    /// Processor count.
    pub procs: usize,
    /// Per-processor data-reference budget.
    pub refs_per_proc: u64,
    /// Topology override for the hierarchical backends (`None` keeps the
    /// backend's default depth; meaningless for non-hier kinds).
    pub topo: Option<HierTopology>,
}

impl Scenario {
    /// Stable scenario name, e.g. `ring500-64p` — or `hier-flat-64p` when a
    /// topology override is pinned.
    #[must_use]
    pub fn name(&self) -> String {
        match self.topo {
            Some(t) => format!("{}-{}-{}p", self.kind.name(), t.name(), self.procs),
            None => format!("{}-{}p", self.kind.name(), self.procs),
        }
    }

    /// The interconnect clock period the backend's slot pipeline (or bus
    /// arbiter) steps at — the denominator for cycles/sec.
    #[must_use]
    pub fn clock_period(&self) -> Time {
        match self.kind {
            SimKind::Ring500
            | SimKind::Sci500
            | SimKind::Hier
            | SimKind::Hier3
            | SimKind::HierDeflect => Time::from_ns(2),
            SimKind::Ring250 | SimKind::Sci250 => Time::from_ns(4),
            SimKind::Bus50 | SimKind::Bus50Mesi | SimKind::Bus50Dragon => Time::from_ns(20),
            SimKind::Bus100 => Time::from_ns(10),
        }
    }

    /// The baseline group (and thus `BENCH_*.json` file) this scenario
    /// belongs to: topology-override scenarios land in `topo` regardless of
    /// backend, everything else groups by backend.
    #[must_use]
    pub fn group(&self) -> &'static str {
        if self.topo.is_some() {
            "topo"
        } else {
            group_of(self.kind)
        }
    }

    /// Fingerprint of everything that shapes this scenario's runtime: the
    /// backend, topology, workload identity and budget, and the schema
    /// version. Committed baselines are only comparable to a fresh
    /// measurement when the fingerprints match. (The `|topology=` suffix is
    /// only appended when an override is pinned, so fingerprints of the
    /// pre-existing matrix are unchanged.)
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let mut canon = format!(
            "{schema}|{kind}|procs={procs}|refs={refs}|workload=demo|protocol=snooping|proc_cycle_ps=20000",
            schema = BENCH_SCHEMA,
            kind = self.kind.name(),
            procs = self.procs,
            refs = self.refs_per_proc,
        );
        if let Some(t) = self.topo {
            let _ = write!(canon, "|topology={}", t.name());
        }
        format!("{:016x}", fnv1a(canon.as_bytes()))
    }

    /// Builds the simulator for this scenario.
    ///
    /// # Panics
    ///
    /// Panics when the scenario is not buildable (a registry bug — every
    /// shipped scenario uses composite processor counts).
    #[must_use]
    pub fn build(&self) -> Box<dyn Simulator> {
        let workload = Workload::new(WorkloadSpec::demo(self.procs).with_refs(self.refs_per_proc))
            .expect("demo workload");
        let mut spec = SimSpec::new(workload);
        if let Some(t) = self.topo {
            spec = spec.with_topology(t);
        }
        self.kind.build(&spec).unwrap_or_else(|e| panic!("{}: {e}", self.name()))
    }

    /// Builds and runs the scenario once, returning the report and the
    /// wall-clock nanoseconds the run (not the build) took.
    #[must_use]
    pub fn run_once(&self) -> (SimReport, u64) {
        let mut sim = self.build();
        let start = Instant::now();
        let outcome = sim.run(&RunOptions::default());
        let elapsed = start.elapsed();
        (outcome.report, u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX))
    }
}

/// The full committed matrix: every backend at every processor point, plus
/// the `topo` group's flat and two-level overrides of `hier` at 64
/// processors (so `BENCH_topo.json` records all four topologies — flat,
/// two-level, three-level, deflection — at equal node counts).
#[must_use]
pub fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    for kind in SimKind::ALL {
        for procs in PROC_POINTS {
            out.push(Scenario { kind, procs, refs_per_proc: REFS_PER_PROC, topo: None });
        }
    }
    for topo in [HierTopology::Flat, HierTopology::TwoLevel] {
        out.push(Scenario {
            kind: SimKind::Hier,
            procs: 64,
            refs_per_proc: REFS_PER_PROC,
            topo: Some(topo),
        });
    }
    out
}

/// One measured scenario: the median of `samples` timed runs (after one
/// untimed warm-up) plus the report of the last run for derived throughput.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// What was measured.
    pub scenario: Scenario,
    /// Median wall-clock nanoseconds per full run.
    pub median_ns: u64,
    /// Simulated interconnect cycles one run covers.
    pub sim_cycles: u64,
}

/// Times `scenario` over `samples` runs (one extra warm-up run is
/// discarded) and returns the median.
#[must_use]
pub fn measure(scenario: &Scenario, samples: usize) -> Measurement {
    let (report, _) = scenario.run_once(); // warm-up
    let sim_cycles = report.sim_end.cycles(scenario.clock_period());
    let mut times: Vec<u64> = (0..samples.max(1)).map(|_| scenario.run_once().1).collect();
    times.sort_unstable();
    Measurement { scenario: *scenario, median_ns: times[times.len() / 2], sim_cycles }
}

/// Baseline/candidate pairs per scenario under `perf --interleave`.
pub const PAIRS: usize = 10;

/// Pairs per scenario under `perf --interleave --quick`.
pub const QUICK_PAIRS: usize = 3;

/// Times `pairs` baseline/candidate pairs and returns their
/// `(baseline_ns, candidate_ns)`. The baseline goes first in even pairs
/// and the candidate in odd ones, so a machine-load step between the two
/// halves of a pair favours neither build over the run.
///
/// # Errors
///
/// Returns the first error either side returns.
pub fn alternate_pairs<E>(
    pairs: usize,
    mut baseline: impl FnMut() -> Result<u64, E>,
    mut candidate: impl FnMut() -> Result<u64, E>,
) -> Result<Vec<(u64, u64)>, E> {
    (0..pairs)
        .map(|k| {
            if k % 2 == 0 {
                let b = baseline()?;
                Ok((b, candidate()?))
            } else {
                let c = candidate()?;
                Ok((baseline()?, c))
            }
        })
        .collect()
}

/// What alternating pairs say about one scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairSummary {
    /// Median of the baseline's per-pair medians, in ns per run.
    pub baseline_ns: u64,
    /// Median of the candidate's per-pair medians, in ns per run.
    pub candidate_ns: u64,
    /// Lower quartile, median and upper quartile of the per-pair speedups
    /// `baseline_ns / candidate_ns`. Each ratio is taken inside one pair,
    /// so a load step that slows both builds alike leaves it at 1.
    pub speedup: [f64; 3],
}

/// Summarises `(baseline_ns, candidate_ns)` pairs (see [`PairSummary`]);
/// quantiles interpolate linearly between the closest ranks.
///
/// # Panics
///
/// Panics if `pairs` is empty.
#[must_use]
pub fn summarize_pairs(pairs: &[(u64, u64)]) -> PairSummary {
    assert!(!pairs.is_empty(), "no pairs to summarise");
    let quantile = |mut v: Vec<f64>, q: f64| {
        v.sort_by(f64::total_cmp);
        let rank = q * (v.len() - 1) as f64;
        let (lo, hi) = (v[rank.floor() as usize], v[rank.ceil() as usize]);
        lo + (hi - lo) * rank.fract()
    };
    let ratios: Vec<f64> = pairs.iter().map(|&(b, c)| b as f64 / c as f64).collect();
    let median_ns = |ns: Vec<f64>| quantile(ns, 0.5).round() as u64;
    PairSummary {
        baseline_ns: median_ns(pairs.iter().map(|p| p.0 as f64).collect()),
        candidate_ns: median_ns(pairs.iter().map(|p| p.1 as f64).collect()),
        speedup: [0.25, 0.5, 0.75].map(|q| quantile(ratios.clone(), q)),
    }
}

/// One entry of a committed baseline file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Scenario name (`<network>-<procs>p`).
    pub name: String,
    /// Backend name.
    pub network: String,
    /// Processor count.
    pub procs: usize,
    /// Per-processor reference budget.
    pub refs_per_proc: u64,
    /// Configuration fingerprint (see [`Scenario::fingerprint`]).
    pub config_fingerprint: String,
    /// Median wall-clock nanoseconds for one full run.
    pub median_ns_per_run: u64,
    /// Simulated interconnect cycles per wall-clock second.
    pub cycles_per_sec: f64,
    /// Data references retired per wall-clock second.
    pub refs_per_sec: f64,
    /// Median of the pre-optimization build this entry was compared
    /// against when the baseline was recorded (`null` on first capture).
    pub baseline_median_ns_per_run: Option<u64>,
    /// `baseline_median_ns_per_run / median_ns_per_run` (`null` on first
    /// capture).
    pub speedup_vs_baseline: Option<f64>,
}

/// A committed `BENCH_*.json` file: schema tag plus one entry per scenario
/// in the group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchFile {
    /// Must equal [`BENCH_SCHEMA`].
    pub schema: String,
    /// Group name (one of [`GROUPS`]).
    pub group: String,
    /// Measured entries, in registry order.
    pub entries: Vec<BenchEntry>,
}

/// The baseline group (and thus file) a backend belongs to. The bus
/// protocol variants, the SCI backends, and the topology variants form
/// their own groups so the baselines captured before they existed stay
/// comparable file-for-file. Scenarios with a topology override land in
/// `topo` regardless of backend — see [`Scenario::group`].
#[must_use]
pub fn group_of(kind: SimKind) -> &'static str {
    match kind {
        SimKind::Ring500 | SimKind::Ring250 => "ring",
        SimKind::Bus50 | SimKind::Bus100 => "bus",
        SimKind::Bus50Mesi | SimKind::Bus50Dragon => "proto",
        SimKind::Sci500 | SimKind::Sci250 => "sci",
        SimKind::Hier => "hier",
        SimKind::Hier3 | SimKind::HierDeflect => "topo",
    }
}

/// The group names, in file order.
pub const GROUPS: [&str; 6] = ["ring", "bus", "proto", "sci", "hier", "topo"];

/// File name for a group's baseline (`BENCH_<group>.json`).
#[must_use]
pub fn file_name(group: &str) -> String {
    format!("BENCH_{group}.json")
}

fn entry_for(m: &Measurement, baselines: &HashMap<String, u64>) -> BenchEntry {
    let s = &m.scenario;
    let secs = m.median_ns as f64 / 1e9;
    let total_refs = (s.procs as u64) * s.refs_per_proc;
    let baseline = baselines.get(&s.name()).copied();
    BenchEntry {
        name: s.name(),
        network: s.kind.name().to_owned(),
        procs: s.procs,
        refs_per_proc: s.refs_per_proc,
        config_fingerprint: s.fingerprint(),
        median_ns_per_run: m.median_ns,
        cycles_per_sec: m.sim_cycles as f64 / secs,
        refs_per_sec: total_refs as f64 / secs,
        baseline_median_ns_per_run: baseline,
        speedup_vs_baseline: baseline.map(|b| b as f64 / m.median_ns as f64),
    }
}

/// Assembles the grouped baseline files from `measurements`.
/// `baselines` maps scenario names to the pre-optimization medians to
/// record alongside (empty on first capture).
#[must_use]
pub fn assemble(measurements: &[Measurement], baselines: &HashMap<String, u64>) -> Vec<BenchFile> {
    GROUPS
        .iter()
        .map(|group| BenchFile {
            schema: BENCH_SCHEMA.to_owned(),
            group: (*group).to_owned(),
            entries: measurements
                .iter()
                .filter(|m| m.scenario.group() == *group)
                .map(|m| entry_for(m, baselines))
                .collect(),
        })
        .collect()
}

/// Writes the grouped baseline files into `dir`.
///
/// # Errors
///
/// Returns the write error message on I/O failure.
pub fn write_files(dir: &Path, files: &[BenchFile]) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for file in files {
        let path = dir.join(file_name(&file.group));
        let json = serde_json::to_string_pretty(file).map_err(|e| format!("serialising: {e}"))?;
        fs::write(&path, json + "\n").map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

/// Reads the medians out of previously emitted baseline files in `dir`,
/// keyed by scenario name. Missing files are simply skipped; a present but
/// malformed file is an error.
///
/// # Errors
///
/// Returns a description of the first malformed file.
pub fn read_medians(dir: &Path) -> Result<HashMap<String, u64>, String> {
    let mut out = HashMap::new();
    for group in GROUPS {
        let path = dir.join(file_name(group));
        if !path.exists() {
            continue;
        }
        let file = load_file(&path)?;
        for e in file.entries {
            out.insert(e.name, e.median_ns_per_run);
        }
    }
    Ok(out)
}

/// Loads and schema-validates one baseline file.
///
/// # Errors
///
/// Returns a description of what is malformed: unreadable/unparsable JSON,
/// a schema-tag mismatch, an empty or wrong-group entry list, fingerprints
/// that no longer match the current scenario matrix, or non-positive
/// measurements.
pub fn load_file(path: &Path) -> Result<BenchFile, String> {
    let raw = fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let file: BenchFile = serde_json::from_str(&raw)
        .map_err(|e| format!("{}: not a bench baseline ({e})", path.display()))?;
    validate(&file).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(file)
}

/// Validates one baseline file against the current scenario matrix.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn validate(file: &BenchFile) -> Result<(), String> {
    if file.schema != BENCH_SCHEMA {
        return Err(format!("schema `{}` (expected `{BENCH_SCHEMA}`)", file.schema));
    }
    if !GROUPS.contains(&file.group.as_str()) {
        return Err(format!("unknown group `{}`", file.group));
    }
    let expected: Vec<Scenario> =
        scenarios().into_iter().filter(|s| s.group() == file.group).collect();
    if file.entries.len() != expected.len() {
        return Err(format!(
            "group `{}` has {} entries (expected {})",
            file.group,
            file.entries.len(),
            expected.len()
        ));
    }
    for (entry, scen) in file.entries.iter().zip(&expected) {
        if entry.name != scen.name() {
            return Err(format!(
                "entry `{}` out of order (expected `{}`)",
                entry.name,
                scen.name()
            ));
        }
        if entry.config_fingerprint != scen.fingerprint() {
            return Err(format!(
                "entry `{}`: stale config fingerprint {} (scenario is now {}) — regenerate with \
                 `cargo run --release -p ringsim-bench --bin perf`",
                entry.name,
                entry.config_fingerprint,
                scen.fingerprint()
            ));
        }
        if entry.median_ns_per_run == 0 || entry.cycles_per_sec <= 0.0 || entry.refs_per_sec <= 0.0
        {
            return Err(format!("entry `{}`: non-positive measurement", entry.name));
        }
    }
    Ok(())
}

/// Compares fresh measurements against a committed baseline file: any
/// scenario slower than `committed * (1 + max_regress)` is a regression.
///
/// # Errors
///
/// Returns a report listing every regressed scenario.
pub fn regression_check(
    committed: &BenchFile,
    fresh: &[Measurement],
    max_regress: f64,
) -> Result<(), String> {
    let mut failures = String::new();
    for entry in &committed.entries {
        let Some(m) = fresh.iter().find(|m| m.scenario.name() == entry.name) else {
            continue;
        };
        let limit = entry.median_ns_per_run as f64 * (1.0 + max_regress);
        if m.median_ns as f64 > limit {
            let _ = writeln!(
                failures,
                "  {}: {} ns/run vs committed {} ns/run (> {:.0}% over)",
                entry.name,
                m.median_ns,
                entry.median_ns_per_run,
                max_regress * 100.0
            );
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("perf regressions vs committed baseline:\n{failures}"))
    }
}

/// [`regression_check`] over every committed group: all regressed groups
/// are reported together, each under its name, instead of stopping at
/// the first.
///
/// # Errors
///
/// Returns one report section per regressed group.
pub fn regression_check_groups(
    committed: &[BenchFile],
    fresh: &[Measurement],
    max_regress: f64,
) -> Result<(), String> {
    let failures: Vec<String> = committed
        .iter()
        .filter_map(|file| {
            regression_check(file, fresh, max_regress)
                .err()
                .map(|e| format!("group `{}`: {e}", file.group))
        })
        .collect();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// Canonical digest of a report: FNV-1a over its JSON serialisation.
/// Two runs produce the same digest exactly when their reports are
/// byte-identical after serialisation — the contract the committed
/// golden digests (and the optimization work behind them) are gated on.
///
/// # Panics
///
/// Panics when the report fails to serialise (a serde stand-in bug).
#[must_use]
pub fn report_digest(report: &SimReport) -> String {
    let json = serde_json::to_string(report).expect("report serialises");
    format!("{:016x}", fnv1a(json.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_backend_at_both_points() {
        let all = scenarios();
        // Every backend at both points, plus the two 64-processor topology
        // overrides of `hier` in the `topo` group.
        assert_eq!(all.len(), SimKind::ALL.len() * PROC_POINTS.len() + 2);
        for kind in SimKind::ALL {
            for procs in PROC_POINTS {
                assert!(all.iter().any(|s| s.kind == kind && s.procs == procs && s.topo.is_none()));
            }
        }
        let topo: Vec<String> =
            all.iter().filter(|s| s.group() == "topo").map(Scenario::name).collect();
        assert_eq!(
            topo,
            [
                "hier3-16p",
                "hier3-64p",
                "hier-deflect-16p",
                "hier-deflect-64p",
                "hier-flat-64p",
                "hier-2level-64p",
            ]
        );
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let all = scenarios();
        for s in &all {
            assert_eq!(s.fingerprint(), s.fingerprint());
        }
        let mut prints: Vec<String> = all.iter().map(Scenario::fingerprint).collect();
        prints.sort();
        prints.dedup();
        assert_eq!(prints.len(), all.len(), "fingerprint collision");
    }

    #[test]
    fn assemble_round_trips_through_json() {
        let s =
            Scenario { kind: SimKind::Bus50, procs: 16, refs_per_proc: REFS_PER_PROC, topo: None };
        let m = Measurement { scenario: s, median_ns: 1_000_000, sim_cycles: 50_000 };
        let mut baselines = HashMap::new();
        baselines.insert(s.name(), 2_000_000_u64);
        let files = assemble(&[m], &baselines);
        assert_eq!(files.len(), GROUPS.len());
        let bus = files.iter().find(|f| f.group == "bus").unwrap();
        assert_eq!(bus.entries.len(), 1);
        let entry = &bus.entries[0];
        assert_eq!(entry.baseline_median_ns_per_run, Some(2_000_000));
        assert!((entry.speedup_vs_baseline.unwrap() - 2.0).abs() < 1e-12);
        let json = serde_json::to_string_pretty(bus).expect("serialise");
        let back: BenchFile = serde_json::from_str(&json).expect("parse");
        assert_eq!(&back, bus);
    }

    #[test]
    fn alternate_pairs_swap_which_build_runs_first() {
        let log = std::cell::RefCell::new(String::new());
        let mut n = 0;
        let pairs = alternate_pairs::<()>(
            4,
            || {
                log.borrow_mut().push('b');
                Ok(100)
            },
            || {
                log.borrow_mut().push('c');
                n += 1;
                Ok(n)
            },
        )
        .unwrap();
        assert_eq!(log.into_inner(), "bccbbccb");
        assert_eq!(pairs, vec![(100, 1), (100, 2), (100, 3), (100, 4)]);
        // A failing side stops the run with its error.
        let mut calls = 0;
        let err = alternate_pairs(
            3,
            || {
                calls += 1;
                if calls == 2 {
                    Err("boom")
                } else {
                    Ok(1)
                }
            },
            || Ok(1),
        );
        assert_eq!(err, Err("boom"));
        assert_eq!(alternate_pairs(2, || Ok(1), || Err("bang")), Err("bang"));
    }

    #[test]
    fn pair_summary_takes_medians_of_per_pair_ratios() {
        // A uniform 1.6x load step on both builds, in three of five pairs:
        // each build's median moves, every per-pair ratio stays at 1.
        let stepped = [(100, 100), (160, 160), (160, 160), (100, 100), (160, 160)];
        let s = summarize_pairs(&stepped);
        assert_eq!(s.speedup, [1.0, 1.0, 1.0]);
        assert_eq!((s.baseline_ns, s.candidate_ns), (160, 160));
        // A candidate 25% slower in every pair reads 0.8 whatever the load.
        let slower = [(100, 125), (160, 200), (100, 125), (160, 200)];
        let s = summarize_pairs(&slower);
        assert!(s.speedup.iter().all(|r| (r - 0.8).abs() < 1e-12), "{s:?}");
        assert_eq!((s.baseline_ns, s.candidate_ns), (130, 163));
        // Quartiles interpolate between ranks: ratios 0.5, 1, 1.5, 2.
        let spread = [(50, 100), (100, 100), (150, 100), (200, 100)];
        assert_eq!(summarize_pairs(&spread).speedup, [0.875, 1.25, 1.625]);
    }

    #[test]
    fn validate_rejects_drift() {
        let measurements: Vec<Measurement> = scenarios()
            .iter()
            .map(|s| Measurement { scenario: *s, median_ns: 1_000, sim_cycles: 10 })
            .collect();
        let files = assemble(&measurements, &HashMap::new());
        for f in &files {
            validate(f).expect("fresh files validate");
        }
        let mut bad = files[0].clone();
        bad.schema = "something/else".into();
        assert!(validate(&bad).is_err());
        let mut bad = files[0].clone();
        bad.entries[0].config_fingerprint = "0".repeat(16);
        assert!(validate(&bad).unwrap_err().contains("stale config fingerprint"));
        let mut bad = files[0].clone();
        bad.entries.pop();
        assert!(validate(&bad).is_err());
    }

    #[test]
    fn regression_check_flags_slowdowns() {
        let measurements: Vec<Measurement> = scenarios()
            .iter()
            .map(|s| Measurement { scenario: *s, median_ns: 1_000, sim_cycles: 10 })
            .collect();
        let committed = assemble(&measurements, &HashMap::new());
        let slow: Vec<Measurement> =
            measurements.iter().map(|m| Measurement { median_ns: 2_000, ..m.clone() }).collect();
        assert!(regression_check(&committed[0], &measurements, 0.25).is_ok());
        let err = regression_check(&committed[0], &slow, 0.25).unwrap_err();
        assert!(err.contains("regressions"), "{err}");
    }

    #[test]
    fn regression_check_groups_names_every_regressed_group() {
        let measurements: Vec<Measurement> = scenarios()
            .iter()
            .map(|s| Measurement { scenario: *s, median_ns: 1_000, sim_cycles: 10 })
            .collect();
        let committed = assemble(&measurements, &HashMap::new());
        assert!(committed.len() >= 3, "expected several groups");
        let slow_groups = [&committed[0].group, &committed[2].group];
        let fresh: Vec<Measurement> = measurements
            .iter()
            .map(|m| {
                let slow = committed
                    .iter()
                    .filter(|f| slow_groups.contains(&&f.group))
                    .any(|f| f.entries.iter().any(|e| e.name == m.scenario.name()));
                Measurement { median_ns: if slow { 2_000 } else { 1_000 }, ..m.clone() }
            })
            .collect();
        assert!(regression_check_groups(&committed, &measurements, 0.5).is_ok());
        let err = regression_check_groups(&committed, &fresh, 0.5).unwrap_err();
        for group in slow_groups {
            assert!(err.contains(&format!("group `{group}`")), "{group} missing from: {err}");
        }
        assert!(!err.contains(&format!("group `{}`", committed[1].group)), "{err}");
    }
}
