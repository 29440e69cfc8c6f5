//! Every workload and metric the benchmark can report, and the result
//! records a run writes. `BENCHMARK.json` must list exactly the end-to-end
//! and per-layer names (a unit test checks both directions); the layer
//! detail appears only in result files and the printed table.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::{experiments, serve, sims};

/// Workload names and why each exists, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "sim-ring",
        "slotted-ring snooping and directory runs: the ring's own protocol, slot and event work \
         dominates each reference",
    ),
    (
        "sim-nonring",
        "bus, SCI and ring-hierarchy runs: the ring slot machine is idle, so trace generation and \
         cache lookup weigh most",
    ),
    (
        "experiments",
        "all 17 registered experiments through the sweep engine, cold (computing and writing the \
         point cache) and warm (reading it)",
    ),
    (
        "serve-inproc",
        "closed-loop POST /runs to the terminal SSE event on a server that computes in-process",
    ),
    (
        "serve-sharded",
        "the same client against 2 shard-worker processes: worker spawn, cache polling and the \
         fold",
    ),
];

/// Whether a metric improves downwards or upwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A metric's identity: name, unit and direction.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name: name.into(), unit, better }
}

/// The end-to-end metrics; every workload reports all of them.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::Lower;
    vec![def("setup_s", "s", Lower), def("wall_s", "s", Lower), def("peak_rss_mb", "MB", Lower)]
}

/// Absolute floors under `setup_s`'s relative bound in `compare`, per
/// workload: a change smaller than the floor never counts, however large
/// relative to the base. Each is about the widest run-to-run interquartile
/// distance of the workload's set-up median in calibration (README), and
/// well below the median itself. No other metric has a floor.
pub const SETUP_FLOORS_S: [(&str, f64); 5] = [
    ("sim-ring", 0.005),
    ("sim-nonring", 0.005),
    ("experiments", 0.0004),
    ("serve-inproc", 0.0005),
    ("serve-sharded", 0.0005),
];

/// The absolute floor of `metric` on `workload` (0 when it has none).
pub fn floor(workload: &str, metric: &str) -> f64 {
    let floors = if metric == "setup_s" { SETUP_FLOORS_S.as_slice() } else { &[] };
    floors.iter().find(|(w, _)| *w == workload).map_or(0.0, |f| f.1)
}

/// The per-layer metrics; every workload's traced run reports all of them,
/// so each names a layer every workload's operations pass through: the
/// benchmark's own span tracing, and the CPU, memory and I/O counters the
/// kernel keeps for the process doing the work (see `usage.rs`).
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    vec![
        def("trace_overhead_pct", "%", Lower),
        def("cpu.user_ms_per_op", "ms", Lower),
        def("cpu.sys_pct", "%", Lower),
        def("cpu.busy_cores", "cores", Higher),
        def("mem.minflt_per_op", "count", Lower),
        def("io.syscalls_per_op", "count", Lower),
        def("io.kb_per_op", "KB", Lower),
    ]
}

/// The layer detail; each workload's traced run reports the rows for the
/// layers it runs, into the result file and the printed table only.
pub fn layer_detail() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut out = vec![
        def("trace.gen_ns_per_ref", "ns", Lower),
        def("trace.interp_ns_per_ref", "ns", Lower),
        def("trace.characterize_s", "s", Lower),
        def("trace.table2_err_pct", "%", Lower),
        def("cache.probe_ns_per_ref", "ns", Lower),
        def("cache.miss_ratio", "ratio", Lower),
        def("core.build_ms", "ms", Lower),
        def("core.refs_per_s", "1/s", Higher),
        def("core.sim_proc_util", "ratio", Higher),
        def("core.sim_net_util", "ratio", Lower),
        def("core.sim_miss_ns", "sim_ns", Lower),
        def("core.retries", "count", Lower),
    ];
    for kind in sims::KINDS {
        out.push(def(format!("core.run_ns_per_ref.{kind}"), "ns", Lower));
        out.push(def(format!("core.residual_ns_per_ref.{kind}"), "ns", Lower));
        out.push(def(format!("core.host_ns_per_sim_cycle.{kind}"), "ns", Lower));
        out.push(def(format!("obs.overhead_ratio.{kind}"), "ratio", Lower));
    }
    out.extend([
        def("analytic.eval_us", "us", Lower),
        def("analytic.evals", "count", Higher),
        def("analytic.validate_err_pct", "%", Lower),
        def("sweep.warm_wall_s", "s", Lower),
        def("sweep.points", "count", Higher),
        def("sweep.cache_hits", "count", Higher),
        def("sweep.cache_misses", "count", Lower),
        def("sweep.hit_ratio", "ratio", Higher),
        def("sweep.cache_bytes", "bytes", Lower),
        def("sweep.artifact_bytes", "bytes", Lower),
    ]);
    for name in experiments::names() {
        out.push(def(format!("sweep.exp_s.{name}"), "s", Lower));
    }
    out.extend([
        def("serve.run_p75_s", "s", Lower),
        def("serve.ack_ms", "ms", Lower),
        def("serve.queue_ms", "ms", Lower),
        def("serve.first_point_ms", "ms", Lower),
        def("serve.compute_ms", "ms", Lower),
        def("serve.finish_ms", "ms", Lower),
        def("serve.artifact_get_ms", "ms", Lower),
        def("serve.events_per_run", "count", Lower),
    ]);
    for (_, metric) in serve::ROUTES {
        out.push(def(format!("serve.route_mean_ms.{metric}"), "ms", Lower));
    }
    out
}

/// One reported number: the value (the median of `samples`, or for
/// `wall_s` a fastest time), its unit, and the samples the spread is
/// computed from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
    pub samples: Vec<f64>,
}

/// What one workload run measured and checked.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub workload: String,
    pub seed: u64,
    /// `false` when the workload ignores `--seed` (the sweep engine derives
    /// its own per-point seeds).
    pub seed_used: bool,
    pub traced: bool,
    /// Threads doing the measured work, and client connections open at
    /// once.
    pub threads: usize,
    pub connections: usize,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub end_to_end: BTreeMap<String, Metric>,
    pub per_layer: BTreeMap<String, Metric>,
    pub layer_detail: BTreeMap<String, Metric>,
    /// Observed output digests, for `--bless`.
    pub digests: BTreeMap<String, String>,
}

impl WorkloadResult {
    pub fn new(workload: &str, seed: u64, traced: bool) -> Self {
        Self { workload: workload.to_owned(), seed, seed_used: true, traced, ..Self::default() }
    }

    /// Records an end-to-end metric from its samples (value = median).
    pub fn e2e(&mut self, name: &str, samples: Vec<f64>) {
        let value = crate::stats::median(&samples);
        self.e2e_value(name, value, samples);
    }

    /// Records an end-to-end time as the fastest of its samples. On a
    /// shared host the slower repeats of the same operation measure the
    /// neighbours' bursts, not the code: across ten seeds the fastest
    /// request varied about half as much as the median one.
    pub fn e2e_fastest(&mut self, name: &str, samples: Vec<f64>) {
        let value = samples.iter().copied().fold(f64::INFINITY, f64::min);
        self.e2e_value(name, if value.is_finite() { value } else { 0.0 }, samples);
    }

    /// Records an end-to-end metric whose value its samples do not give
    /// directly: the sims and `experiments` sum each item's fastest time
    /// into one operation, while the samples stay whole operations.
    pub fn e2e_value(&mut self, name: &str, value: f64, samples: Vec<f64>) {
        let unit = unit_of(&end_to_end(), name);
        self.end_to_end.insert(name.to_owned(), Metric { value, unit, samples });
    }

    /// Records a per-layer metric with a single value.
    pub fn layer(&mut self, name: &str, value: f64) {
        let unit = unit_of(&per_layer(), name);
        self.per_layer.insert(name.to_owned(), Metric { value, unit, samples: Vec::new() });
    }

    /// Records a layer-detail metric with a single value.
    pub fn detail(&mut self, name: &str, value: f64) {
        let unit = unit_of(&layer_detail(), name);
        self.layer_detail.insert(name.to_owned(), Metric { value, unit, samples: Vec::new() });
    }

    /// Fails the run when it left out a metric its summary line must hold:
    /// every per-layer metric in a traced run, every end-to-end one
    /// otherwise.
    pub fn check_complete(&mut self) {
        let (defs, got) = if self.traced {
            (per_layer(), &self.per_layer)
        } else {
            (end_to_end(), &self.end_to_end)
        };
        let missing: Vec<String> =
            defs.into_iter().map(|d| d.name).filter(|n| !got.contains_key(n)).collect();
        if !missing.is_empty() {
            self.fail_if(Some(format!("metrics not reported: {missing:?}")));
        }
    }

    /// Counts one attempted operation, failed when `err` is `Some`.
    pub fn check(&mut self, err: Option<String>) {
        self.attempted += 1;
        self.fail_if(err);
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail_if(&mut self, err: Option<String>) {
        if let Some(e) = err {
            self.failed += 1;
            self.failures.push(e);
        }
    }
}

fn unit_of(defs: &[MetricDef], name: &str) -> String {
    defs.iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not registered"))
        .unit
        .to_owned()
}

/// A result file: one set of workload runs plus what it ran on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultFile {
    pub schema: String,
    pub git_head: String,
    pub nproc: usize,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub workloads: Vec<WorkloadResult>,
}

pub const RESULT_SCHEMA: &str = "ringsim/benchmark-result/v1";

/// The benchmark's manifest, relative to the repository root. `compare`
/// reads it at run time, so it applies the bounds of the checkout it runs
/// in.
pub const MANIFEST_PATH: &str = "BENCHMARK.json";

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct Bound {
    pub name: String,
    pub better: Better,
    pub bound: f64,
}

/// The `end_to_end` table of a `BENCHMARK.json` text.
pub fn manifest_bounds(manifest: &str) -> Result<Vec<Bound>, String> {
    let doc = serde_json::parse_value(manifest)
        .map_err(|e| format!("{MANIFEST_PATH} does not parse: {e}"))?;
    let Some(serde::Value::Array(rows)) = doc.get("end_to_end") else {
        return Err(format!("{MANIFEST_PATH} has no end_to_end array"));
    };
    rows.iter()
        .map(|row| {
            let text = |k: &str| match row.get(k) {
                Some(serde::Value::Str(s)) => Ok(s.clone()),
                _ => Err(format!("an end_to_end entry of {MANIFEST_PATH} lacks `{k}`")),
            };
            let bound = match row.get("bound") {
                Some(serde::Value::Float(f)) => *f,
                Some(serde::Value::UInt(u)) => *u as f64,
                _ => return Err(format!("an end_to_end entry of {MANIFEST_PATH} lacks `bound`")),
            };
            let better = if text("better")? == "higher" { Better::Higher } else { Better::Lower };
            Ok(Bound { name: text("name")?, better, bound })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// The contract's name rule: 1 to 64 of `[A-Za-z0-9_.-]`, starting
    /// with a letter or digit.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn direction(b: Better) -> &'static str {
        match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn names(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        let Some(Value::Array(rows)) = doc.get(key) else { panic!("{key} array") };
        rows.iter()
            .map(|r| {
                let s = |k| match r.get(k) {
                    Some(Value::Str(s)) => s.clone(),
                    _ => String::new(),
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn expect_same(declared: Vec<(String, String, String)>, code: Vec<MetricDef>) {
        let code: Vec<(String, String, String)> = code
            .into_iter()
            .map(|d| (d.name, d.unit.to_owned(), direction(d.better).to_owned()))
            .collect();
        for d in &declared {
            assert!(code.contains(d), "BENCHMARK.json declares {d:?}, which the code never emits");
        }
        for c in &code {
            assert!(declared.contains(c), "the code emits {c:?}, which BENCHMARK.json lacks");
        }
    }

    #[test]
    fn manifest_and_code_name_the_same_metrics() {
        let manifest = crate::repo_file(MANIFEST_PATH);
        let doc = serde_json::parse_value(&manifest).expect("BENCHMARK.json parses");
        expect_same(names(&doc, "end_to_end"), end_to_end());
        expect_same(names(&doc, "per_layer"), per_layer());
        let Some(Value::Array(rows)) = doc.get("workloads") else { panic!("workloads array") };
        let declared: Vec<(Value, Value)> = rows
            .iter()
            .map(|r| (r.get("name").cloned().unwrap(), r.get("why").cloned().unwrap()))
            .collect();
        let code: Vec<(Value, Value)> = WORKLOADS
            .iter()
            .map(|(n, w)| (Value::Str((*n).to_owned()), Value::Str((*w).to_owned())))
            .collect();
        assert_eq!(declared, code);
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        assert_eq!(doc.get("run_seconds"), Some(&Value::UInt(crate::DEFAULT_SECONDS)));
        let bounds = manifest_bounds(&manifest).expect("end_to_end is well-formed");
        assert!(bounds.iter().all(|b| (0.0..=0.25).contains(&b.bound)));
        let setup = bounds.iter().find(|b| b.name == "setup_s").expect("setup_s is declared");
        assert!(bounds.iter().all(|b| b.bound <= setup.bound), "setup_s has the largest bound");
    }

    #[test]
    fn wall_time_is_the_fastest_sample_and_setup_the_median() {
        let mut r = WorkloadResult::new("sim-ring", 1, false);
        r.e2e_fastest("wall_s", vec![1.3, 1.1, 1.6]);
        r.e2e("setup_s", vec![0.3, 0.1, 0.2]);
        assert_eq!(r.end_to_end["wall_s"].value, 1.1);
        assert_eq!(r.end_to_end["wall_s"].samples, [1.3, 1.1, 1.6]);
        assert_eq!(r.end_to_end["setup_s"].value, 0.2);
        r.e2e_fastest("wall_s", Vec::new());
        assert_eq!(r.end_to_end["wall_s"].value, 0.0);
    }

    #[test]
    fn a_run_missing_a_summary_metric_fails() {
        let mut r = WorkloadResult::new("sim-ring", 1, false);
        for d in end_to_end() {
            r.e2e(&d.name, vec![1.0]);
        }
        r.check_complete();
        assert_eq!(r.failed, 0);
        let mut t = WorkloadResult::new("sim-ring", 1, true);
        t.layer("trace_overhead_pct", 1.0);
        t.check_complete();
        assert_eq!(t.failed, 1);
        assert!(t.failures[0].contains("cpu.user_ms_per_op"), "{:?}", t.failures);
    }

    #[test]
    fn malformed_manifests_are_errors() {
        assert!(manifest_bounds("{").is_err());
        assert!(manifest_bounds("{\"end_to_end\": 3}").is_err());
        assert!(manifest_bounds("{\"end_to_end\": [{\"name\": \"x\", \"better\": \"lower\"}]}")
            .is_err());
        let ok = "{\"end_to_end\": [{\"name\": \"x\", \"unit\": \"s\", \"better\": \"higher\", \
                  \"bound\": 0.1}]}";
        let bounds = manifest_bounds(ok).unwrap();
        assert_eq!((bounds[0].name.as_str(), bounds[0].better), ("x", Better::Higher));
    }

    #[test]
    fn setup_floors_cover_every_workload_and_only_setup() {
        let named: Vec<&str> = SETUP_FLOORS_S.iter().map(|f| f.0).collect();
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(named, workloads);
        assert!(SETUP_FLOORS_S.iter().all(|f| f.1 > 0.0 && f.1 < 0.01));
        assert_eq!(floor("serve-inproc", "setup_s"), 0.0005);
        assert_eq!(floor("serve-inproc", "wall_s"), 0.0);
        assert_eq!(floor("nope", "setup_s"), 0.0);
    }

    #[test]
    fn every_name_is_valid_and_unique() {
        let mut all: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .chain(layer_detail())
            .map(|d| d.name)
            .collect();
        all.extend(WORKLOADS.iter().map(|w| w.0.to_owned()));
        for n in &all {
            assert!(valid_name(n), "invalid name `{n}`");
        }
        let count = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), count, "duplicate names");
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn name_validity_rule() {
        assert!(valid_name("core.run_ns_per_ref.hier-deflect"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/ed"));
        assert!(!valid_name(&"x".repeat(65)));
    }
}
