//! Smoke tests: every registered experiment completes on a tiny budget and
//! leaves its artifacts plus a `.meta.json` twin behind. Guards the harness
//! against bit-rot.

use std::path::PathBuf;

use ringsim_bench::experiments;
use ringsim_sweep::{run_experiment, SweepConfig};
use ringsim_types::fnv1a;

const TINY: u64 = 2_000;

/// FNV-1a of `table1.json` at the [`TINY`] budget. Both of Table 1's
/// directories are untimed replays, so any change to their state updates or
/// traversal accounting flips it.
const TABLE1_DIGEST: u64 = 0x5110_5b08_691b_db8a;

/// Runs `name` on the tiny budget, checks its artifacts, and returns the
/// bytes of its `<name>.json` (empty if it writes none).
fn smoke(name: &str) -> Vec<u8> {
    let exp = experiments::find(name).expect("registered experiment");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = SweepConfig::new(TINY).jobs(2).out_dir(&dir);
    let report = run_experiment(exp, &cfg);
    assert!(!report.artifacts.is_empty(), "{name} wrote no artifacts");
    for a in &report.artifacts {
        assert!(a.path.is_file(), "{name}: missing artifact {}", a.path.display());
    }
    assert!(dir.join(format!("{name}.meta.json")).is_file(), "{name}: missing meta twin");
    assert!(report.meta.points > 0, "{name} ran no sweep points");
    let json = std::fs::read(dir.join(format!("{name}.json"))).unwrap_or_default();
    let _ = std::fs::remove_dir_all(&dir);
    json
}

#[test]
fn registry_covers_seventeen_experiments() {
    assert_eq!(experiments::ALL.len(), 17);
}

#[test]
fn table1_runs() {
    let json = smoke("table1");
    assert_eq!(
        fnv1a(&json),
        TABLE1_DIGEST,
        "table1.json changed:\n{}",
        String::from_utf8_lossy(&json)
    );
}

#[test]
fn table2_runs() {
    smoke("table2");
}

#[test]
fn table3_runs() {
    smoke("table3");
}

#[test]
fn table4_runs() {
    smoke("table4");
}

#[test]
fn fig3_runs() {
    let exp = experiments::find("fig3").unwrap();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-fig3-dats");
    let _ = std::fs::remove_dir_all(&dir);
    let report = run_experiment(exp, &SweepConfig::new(TINY).jobs(2).out_dir(&dir));
    assert!(dir.join("fig3.json").is_file());
    assert!(dir.join("fig3_mp3d_8p_snooping.dat").is_file());
    // One JSON plus one .dat per (bench, procs, protocol) curve.
    assert_eq!(report.artifacts.len(), 1 + 18);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig4_runs() {
    smoke("fig4");
}

#[test]
fn fig5_runs() {
    smoke("fig5");
}

#[test]
fn fig6_runs() {
    smoke("fig6");
}

#[test]
fn validate_runs() {
    smoke("validate");
}

#[test]
fn ablation_runs() {
    smoke("ablation");
}

#[test]
fn future_work_runs() {
    smoke("future_work");
}

#[test]
fn block_sweep_runs() {
    smoke("block_sweep");
}

#[test]
fn hierarchy_runs() {
    smoke("hierarchy");
}

#[test]
fn wide_ring_runs() {
    smoke("wide_ring");
}

#[test]
fn ring_access_runs() {
    smoke("ring_access");
}

#[test]
fn sci_vs_fullmap_runs() {
    smoke("sci_vs_fullmap");
}

#[test]
fn topology_sweep_runs() {
    smoke("topology_sweep");
}
