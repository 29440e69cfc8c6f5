//! Byte-identity gate for engine optimizations: every registered backend's
//! report must serialise to exactly the bytes the committed goldens were
//! blessed from (captured on the pre-optimization engine). A hot-path
//! change that shifts any simulation result — event order, a latency sum,
//! a utilisation denominator — flips a digest and fails here.
//!
//! To bless new goldens after an *intentional* semantic change:
//!
//! ```text
//! RINGSIM_BLESS=1 cargo test -p ringsim-bench --test simkind_goldens
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;

use ringsim_bench::perf::{report_digest, Scenario};
use ringsim_core::{RunOptions, SimKind, SimSpec};
use ringsim_proto::ProtocolKind;
use ringsim_trace::{Workload, WorkloadSpec};

const GOLDEN: &str = "tests/goldens/simkind_digests.json";

/// Small fixed budgets: big enough to exercise retries, conflicts and both
/// slot classes, small enough for debug-mode test runs.
fn golden_scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    for kind in SimKind::ALL {
        out.push(Scenario { kind, procs: 16, refs_per_proc: 2_000, topo: None });
        out.push(Scenario { kind, procs: 64, refs_per_proc: 400, topo: None });
    }
    out
}

/// The slotted-ring backends under the full-map directory protocol (the
/// scenarios above run every backend with its default, snooping): the
/// same budgets, keyed `<kind>-dir-<procs>p-r<refs>`.
fn directory_scenarios() -> Vec<(SimKind, usize, u64)> {
    let mut out = Vec::new();
    for kind in [SimKind::Ring500, SimKind::Ring250] {
        out.push((kind, 16, 2_000));
        out.push((kind, 64, 400));
    }
    out
}

fn directory_digest(kind: SimKind, procs: usize, refs_per_proc: u64) -> String {
    let workload =
        Workload::new(WorkloadSpec::demo(procs).with_refs(refs_per_proc)).expect("demo workload");
    let spec = SimSpec::new(workload).with_protocol(ProtocolKind::Directory);
    let mut sim = kind.build(&spec).expect("ring directory backend");
    report_digest(&sim.run(&RunOptions::default()).report)
}

fn current_digests() -> BTreeMap<String, String> {
    let mut out: BTreeMap<String, String> = golden_scenarios()
        .iter()
        .map(|s| {
            let (report, _) = s.run_once();
            (format!("{}-r{}", s.name(), s.refs_per_proc), report_digest(&report))
        })
        .collect();
    for (kind, procs, refs) in directory_scenarios() {
        out.insert(
            format!("{}-dir-{procs}p-r{refs}", kind.name()),
            directory_digest(kind, procs, refs),
        );
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(GOLDEN)
}

#[test]
fn reports_match_blessed_digests() {
    let current = current_digests();
    let path = golden_path();
    if std::env::var_os("RINGSIM_BLESS").is_some() {
        let json = serde_json::to_string_pretty(&current).expect("serialise");
        std::fs::create_dir_all(path.parent().unwrap()).expect("goldens dir");
        std::fs::write(&path, json + "\n").expect("write goldens");
        eprintln!("blessed {} digests into {}", current.len(), path.display());
        return;
    }
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing goldens {GOLDEN} ({e}); bless with RINGSIM_BLESS=1"));
    let blessed: BTreeMap<String, String> = serde_json::from_str(&raw).expect("parse goldens");
    assert_eq!(
        blessed.len(),
        current.len(),
        "golden scenario set changed; bless with RINGSIM_BLESS=1"
    );
    for (name, digest) in &current {
        let want = blessed
            .get(name)
            .unwrap_or_else(|| panic!("no blessed digest for {name}; bless with RINGSIM_BLESS=1"));
        assert_eq!(
            digest, want,
            "{name}: report bytes diverged from the blessed pre-optimization capture \
             (an engine change altered simulation results; if intentional, re-bless \
             with RINGSIM_BLESS=1)"
        );
    }
}

#[test]
fn runs_are_deterministic_within_a_process() {
    // The digest gate above compares against a capture from another build;
    // this guards the weaker (but load-bearing) half: re-running the same
    // scenario in-process yields the same bytes.
    for kind in SimKind::ALL {
        let s = Scenario { kind, procs: 16, refs_per_proc: 500, topo: None };
        let (a, _) = s.run_once();
        let (b, _) = s.run_once();
        assert_eq!(report_digest(&a), report_digest(&b), "{}", s.name());
    }
}
