//! Locks the sweep engine's determinism contract: every artifact an
//! experiment writes must be byte-identical no matter how many worker
//! threads computed its points. Wall-time metrics are quarantined in the
//! `<name>.meta.json` twins, which are the only files allowed to differ.

use std::fs;
use std::path::{Path, PathBuf};

use ringsim_bench::experiments;
use ringsim_sweep::{run_experiment, SweepConfig};

const REFS: u64 = 2_000;

fn run_into(name: &str, jobs: usize, dir: &Path) -> Vec<PathBuf> {
    let exp = experiments::find(name).expect("known experiment");
    let report = run_experiment(exp, &SweepConfig::new(REFS).jobs(jobs).out_dir(dir));
    report.artifacts.into_iter().map(|a| a.path).collect()
}

/// One analytic experiment (table3), one simulation experiment whose points
/// share a characterisation (block_sweep), the one experiment that draws
/// per-point RNG streams from `PointCtx::seed` (ring_access) — the three
/// ways a schedule-dependent bug could leak into artifacts — plus the SCI
/// comparison, which runs two different timed backends per point, and the
/// topology sweep, which runs the hierarchical engine at every tree depth
/// (including the deflecting-bridge mode, whose deflection counts must
/// also be schedule-independent).
#[test]
fn artifacts_are_byte_identical_across_jobs() {
    for name in ["table3", "block_sweep", "ring_access", "sci_vs_fullmap", "topology_sweep"] {
        let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("det-{name}"));
        // A point cache left by an earlier build would be served instead
        // of computed (its keys do not cover the code).
        let _ = fs::remove_dir_all(&base);
        let serial = run_into(name, 1, &base.join("jobs1"));
        let parallel = run_into(name, 8, &base.join("jobs8"));
        assert!(!serial.is_empty(), "{name} wrote no artifacts");
        assert_eq!(serial.len(), parallel.len(), "{name} artifact count differs");
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.file_name(), b.file_name(), "{name} artifact order differs");
            let left = fs::read(a).unwrap();
            let right = fs::read(b).unwrap();
            assert_eq!(
                left,
                right,
                "{name} artifact {:?} differs between --jobs 1 and --jobs 8",
                a.file_name()
            );
        }
    }
}

/// Repeating the same run must also reproduce the same bytes (the RNG
/// streams are functions of the point identity, not of process state).
#[test]
fn artifacts_are_byte_identical_across_runs() {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("det-rerun");
    let _ = fs::remove_dir_all(&base);
    let first = run_into("ring_access", 4, &base.join("a"));
    let second = run_into("ring_access", 4, &base.join("b"));
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(fs::read(a).unwrap(), fs::read(b).unwrap());
    }
}

/// Every cache write fails when `<out>/.cache` is a regular file (no entry
/// directory can be made under it): the run must still finish, and render
/// exactly the bytes a run without the cache renders. `block_sweep` reads
/// shared characterisations, `topology_sweep` only per-point entries.
#[test]
fn failing_cache_writes_leave_artifacts_unchanged() {
    for name in ["block_sweep", "topology_sweep"] {
        let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cache-fail-{name}"));
        let _ = fs::remove_dir_all(&base);
        let (blocked, uncached) = (base.join("blocked"), base.join("no-cache"));
        fs::create_dir_all(&blocked).unwrap();
        fs::write(blocked.join(".cache"), "not a directory").unwrap();
        let exp = experiments::find(name).expect("known experiment");
        let failing = run_experiment(exp, &SweepConfig::new(REFS).jobs(2).out_dir(&blocked));
        let reference =
            run_experiment(exp, &SweepConfig::new(REFS).jobs(2).out_dir(&uncached).cache(false));
        assert_eq!(failing.meta.cache_hits, 0, "{name}: nothing can have been cached");
        assert!(!failing.artifacts.is_empty(), "{name} wrote no artifacts");
        assert_eq!(failing.artifacts.len(), reference.artifacts.len());
        for (a, b) in failing.artifacts.iter().zip(&reference.artifacts) {
            assert_eq!(a.path.file_name(), b.path.file_name());
            assert_eq!(
                fs::read(&a.path).unwrap(),
                fs::read(&b.path).unwrap(),
                "{name} artifact {:?} differs when every cache write fails",
                a.path.file_name()
            );
        }
        assert_eq!(fs::read_to_string(blocked.join(".cache")).unwrap(), "not a directory");
    }
}
