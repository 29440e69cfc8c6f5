//! Byte pins for the ring-hierarchy simulator (`HierNetSim`), wider than
//! the two `hier` rows of `simkind_goldens` and `hier_refactor_identity`:
//!
//! * a grid of report digests over every topology depth (flat, two-level
//!   and three-level at 16 processors, two-level at 64), every bridge
//!   flavour (classic unbounded, and deflecting at depths 0, 1 and 2),
//!   three localities, two think times and two seeds;
//! * the telemetry a `hier` and a `hier-deflect` run record: the `"hier"`
//!   and `"bridges"` gauge timelines and the Chrome trace export.
//!
//! A change to how the simulator schedules its work must leave every one
//! of these bytes alone. To bless new pins after an *intentional* semantic
//! change:
//!
//! ```text
//! RINGSIM_BLESS=1 cargo test -p ringsim-bench --test hier_pins
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;

use ringsim_bench::perf::report_digest;
use ringsim_core::{HierNetConfig, HierNetSim, RunOptions, SimKind, SimSpec, Simulator};
use ringsim_obs::ObsConfig;
use ringsim_ring::RingTopology;
use ringsim_trace::{Workload, WorkloadSpec};
use ringsim_types::{fnv1a, Time};

const GRID_GOLDEN: &str = "tests/goldens/hier_grid_digests.json";
const OBS_GOLDEN: &str = "tests/goldens/hier_obs_digests.json";

fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(bytes))
}

/// Compares `current` against the golden file at `rel`, or rewrites the
/// file under `RINGSIM_BLESS`.
fn check_against(rel: &str, current: &BTreeMap<String, String>) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel);
    if std::env::var_os("RINGSIM_BLESS").is_some() {
        let json = serde_json::to_string_pretty(current).expect("serialise");
        std::fs::write(&path, json + "\n").expect("write goldens");
        eprintln!("blessed {} digests into {}", current.len(), path.display());
        return;
    }
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing goldens {rel} ({e}); bless with RINGSIM_BLESS=1"));
    let blessed: BTreeMap<String, String> = serde_json::from_str(&raw).expect("parse goldens");
    assert_eq!(
        blessed.keys().collect::<Vec<_>>(),
        current.keys().collect::<Vec<_>>(),
        "pinned row set changed; bless with RINGSIM_BLESS=1"
    );
    let diverged: Vec<&String> =
        current.iter().filter(|(name, d)| blessed.get(*name) != Some(d)).map(|(n, _)| n).collect();
    assert!(diverged.is_empty(), "{rel}: bytes diverged for {diverged:?}");
}

/// The grid's topologies with their per-node transaction budgets (small,
/// so the grid runs in a few seconds in a debug build).
fn grid_topologies() -> Vec<(&'static str, RingTopology, u64)> {
    vec![
        ("flat16", RingTopology::flat(16).unwrap(), 10),
        ("2level16", RingTopology::two_level(4, 4).unwrap(), 10),
        ("3level16", RingTopology::three_level(2, 2, 4).unwrap(), 10),
        ("2level64", RingTopology::two_level(8, 8).unwrap(), 3),
    ]
}

#[test]
fn hier_report_grid_matches_pinned_digests() {
    let mut current = BTreeMap::new();
    let mut deflecting_rows = 0;
    for (name, topo, txns) in grid_topologies() {
        let uniform = topo.uniform_locality();
        for bridge_buffer in [None, Some(0), Some(1), Some(2)] {
            for (loc_name, locality) in [("0", 0.0), ("uniform", uniform), ("1", 1.0)] {
                for think_ns in [150, 400] {
                    for seed in [0xB10C, 7] {
                        let mut cfg = HierNetConfig::new(topo.clone());
                        cfg.think_time = Time::from_ns(think_ns);
                        cfg.locality = locality;
                        cfg.txns_per_node = txns;
                        cfg.seed = seed;
                        cfg.bridge_buffer = bridge_buffer;
                        let mut sim = HierNetSim::new(cfg).expect("grid config");
                        let report = Simulator::run(&mut sim, &RunOptions::default()).report;
                        assert_eq!(report.events.misses(), topo.total_nodes() as u64 * txns);
                        if report.retries > 0 {
                            deflecting_rows += 1;
                        }
                        let bb = bridge_buffer.map_or("none".to_owned(), |d| d.to_string());
                        current.insert(
                            format!("{name}|bb={bb}|loc={loc_name}|think={think_ns}|seed={seed}"),
                            report_digest(&report),
                        );
                    }
                }
            }
        }
    }
    assert!(deflecting_rows > 0, "no pinned row exercises a deflection");
    check_against(GRID_GOLDEN, &current);
}

#[test]
fn hier_telemetry_matches_pinned_bytes() {
    let mut current = BTreeMap::new();
    for (name, kind, bridge_buffer) in
        [("hier", SimKind::Hier, None), ("hier-deflect-b0", SimKind::HierDeflect, Some(0))]
    {
        let workload = Workload::new(WorkloadSpec::demo(16).with_refs(1_000)).expect("workload");
        let mut spec = SimSpec::new(workload);
        if let Some(depth) = bridge_buffer {
            spec = spec.with_bridge_buffer(depth);
        }
        let mut sim = kind.build(&spec).expect("hier backend");
        let outcome = sim.run(&RunOptions::new().with_obs(ObsConfig::default()));
        let rec = outcome.obs.expect("recorder requested");
        assert_eq!(rec.trace.dropped(), 0, "{name}: trace buffer overflowed");
        let timelines: Vec<&str> = rec.timelines.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(timelines, ["hier", "bridges"], "{name}");
        for tl in &rec.timelines {
            assert!(tl.rows.len() > 1, "{name}/{}: too few rows to pin", tl.name);
            current.insert(format!("{name}|timeline={}", tl.name), digest(tl.to_csv().as_bytes()));
        }
        current.insert(format!("{name}|trace"), digest(rec.trace.to_chrome_json().as_bytes()));
        current.insert(format!("{name}|report"), report_digest(&outcome.report));
    }
    check_against(OBS_GOLDEN, &current);
}
