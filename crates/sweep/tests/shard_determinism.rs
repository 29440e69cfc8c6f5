//! Sharded execution must be invisible in the artifacts: a sweep split
//! across 4 concurrent shard workers (sharing one cache, as the serve
//! coordinator arranges across *processes*) folds into artifacts that are
//! byte-identical to the single-pool path. This is the `--jobs`-invariance
//! contract lifted one level up — see `crates/sweep/src/shard.rs`.

use std::path::Path;
use std::time::Duration;

use ringsim_sweep::{
    run_experiment, Artifact, Experiment, Shard, SweepConfig, SweepCtx, SweepPoint,
};

/// A two-`map`-call experiment: the second call consumes the first call's
/// results (the shape that forces shard workers to exchange values through
/// the cache, not just partition work).
struct Chained;

impl Experiment for Chained {
    fn name(&self) -> &'static str {
        "chained"
    }
    fn description(&self) -> &'static str {
        "two dependent map calls"
    }
    fn run(&self, ctx: &SweepCtx) -> Vec<Artifact> {
        let points: Vec<u64> = (0..13).collect();
        let squares = ctx.map(
            &points,
            |p| SweepPoint::new().detail(format!("sq-{p}")),
            |c, p| p * p + u64::from(c.seed == 0),
        );
        // Every point of the second call depends on the *full* first-call
        // vector, so a shard that only knew its own stripe would diverge.
        let total: u64 = squares.iter().sum();
        let shifted =
            ctx.map(&points, |p| SweepPoint::new().detail(format!("sh-{p}")), |_c, p| total + p);
        ctx.write_json("chained", &(squares, shifted));
        ctx.write_dat("chained", "i value", &[vec![1.0, 2.0], vec![3.0, 4.0]]);
        ctx.artifacts()
    }
}

/// Every point reads values from `SweepCtx::shared`, keyed by the point's
/// parity (the shape of an experiment whose points share characterisations).
struct SharedInputs;

impl Experiment for SharedInputs {
    fn name(&self) -> &'static str {
        "shared_inputs"
    }
    fn description(&self) -> &'static str {
        "points reading shared values"
    }
    fn run(&self, ctx: &SweepCtx) -> Vec<Artifact> {
        let points: Vec<u64> = (0..11).collect();
        let rows = ctx.map(
            &points,
            |p| SweepPoint::new().detail(format!("p-{p}")),
            |_c, p| {
                let parity = p % 2;
                let base: (u64, f64) =
                    ctx.shared(&format!("parity|{parity}"), || (parity + 7, 0.1 * parity as f64));
                (base.0 * p, base.1 + *p as f64)
            },
        );
        ctx.write_json("shared_inputs", &rows);
        ctx.artifacts()
    }
}

fn read_artifacts(dir: &Path) -> (Vec<u8>, Vec<u8>) {
    (
        std::fs::read(dir.join("chained.json")).expect("json artifact"),
        std::fs::read(dir.join("chained.dat")).expect("dat artifact"),
    )
}

#[test]
fn four_concurrent_shards_fold_to_single_pool_bytes() {
    let base = std::env::temp_dir().join(format!("ringsim-shard-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // Reference: plain single-pool run.
    let solo_dir = base.join("solo");
    let solo = run_experiment(&Chained, &SweepConfig::new(3).jobs(2).out_dir(&solo_dir));
    assert_eq!(solo.meta.points, 26);
    let (solo_json, solo_dat) = read_artifacts(&solo_dir);

    // Sharded: 4 workers run concurrently (threads stand in for the serve
    // coordinator's processes — the cache protocol is identical), each with
    // a private out dir and the shared run dir as cache root.
    let run_dir = base.join("run");
    std::thread::scope(|scope| {
        for w in 0..4 {
            let run_dir = run_dir.clone();
            scope.spawn(move || {
                let cfg = SweepConfig::new(3)
                    .jobs(2)
                    .out_dir(run_dir.join(format!("shards/{w}")))
                    .cache_dir(&run_dir)
                    .shard(Shard::new(w, 4).unwrap())
                    .shard_wait(Duration::from_secs(60));
                let report = run_experiment(&Chained, &cfg);
                // Every worker assembles the full result vector.
                assert_eq!(report.meta.points, 26);
            });
        }
    });

    // Fold: re-run against the warm shared cache, single pool. Zero points
    // recomputed; artifacts land in the run dir.
    let fold = run_experiment(
        &Chained,
        &SweepConfig::new(3).jobs(1).out_dir(&run_dir).cache_dir(&run_dir),
    );
    assert_eq!(
        (fold.meta.cache_hits, fold.meta.cache_misses),
        (26, 0),
        "fold must be pure cache replay"
    );
    let (fold_json, fold_dat) = read_artifacts(&run_dir);
    assert_eq!(fold_json, solo_json, "sharded JSON artifact differs from single-pool run");
    assert_eq!(fold_dat, solo_dat, "sharded dat artifact differs from single-pool run");

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn shared_values_under_two_shards_fold_to_single_pool_bytes() {
    let base = std::env::temp_dir().join(format!("ringsim-shard-shared-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let solo_dir = base.join("solo");
    let solo = run_experiment(&SharedInputs, &SweepConfig::new(3).jobs(1).out_dir(&solo_dir));
    assert_eq!(solo.meta.points, 11);
    let solo_json = std::fs::read(solo_dir.join("shared_inputs.json")).expect("json artifact");

    // Sharding forces the cache on, even against `--no-cache`: the shared
    // entries land in the run dir both workers use as cache root.
    let run_dir = base.join("run");
    std::thread::scope(|scope| {
        for w in 0..2 {
            let run_dir = run_dir.clone();
            scope.spawn(move || {
                let cfg = SweepConfig::new(3)
                    .jobs(2)
                    .cache(false)
                    .out_dir(run_dir.join(format!("shards/{w}")))
                    .cache_dir(&run_dir)
                    .shard(Shard::new(w, 2).unwrap())
                    .shard_wait(Duration::from_secs(60));
                assert_eq!(run_experiment(&SharedInputs, &cfg).meta.points, 11);
            });
        }
    });
    let shared = std::fs::read_dir(run_dir.join(".cache/shared")).expect("shared entries");
    assert_eq!(shared.count(), 2, "one entry per parity");

    let fold = run_experiment(
        &SharedInputs,
        &SweepConfig::new(3).jobs(1).out_dir(&run_dir).cache_dir(&run_dir),
    );
    assert_eq!((fold.meta.cache_hits, fold.meta.cache_misses), (11, 0));
    let fold_json = std::fs::read(run_dir.join("shared_inputs.json")).expect("json artifact");
    assert_eq!(fold_json, solo_json, "sharded JSON artifact differs from single-pool run");

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn lone_shard_equals_unsharded_run() {
    let base = std::env::temp_dir().join(format!("ringsim-shard-lone-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let solo_dir = base.join("solo");
    run_experiment(&Chained, &SweepConfig::new(3).jobs(2).out_dir(&solo_dir));

    let lone_dir = base.join("lone");
    let lone = run_experiment(
        &Chained,
        &SweepConfig::new(3).jobs(2).out_dir(&lone_dir).shard(Shard::new(0, 1).unwrap()),
    );
    assert_eq!(lone.meta.points, 26);
    assert_eq!(read_artifacts(&solo_dir).0, read_artifacts(&lone_dir).0);

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn dead_peer_falls_back_to_local_compute() {
    let base = std::env::temp_dir().join(format!("ringsim-shard-dead-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // Only shard 0 of 2 ever runs; its peer is "dead". With a tiny wait
    // deadline the worker computes the missing stripe itself and still
    // produces correct artifacts.
    let solo_dir = base.join("solo");
    run_experiment(&Chained, &SweepConfig::new(3).jobs(2).out_dir(&solo_dir));

    let run_dir = base.join("run");
    let cfg = SweepConfig::new(3)
        .jobs(2)
        .out_dir(run_dir.join("shards/0"))
        .cache_dir(&run_dir)
        .shard(Shard::new(0, 2).unwrap())
        .shard_wait(Duration::from_millis(40));
    let report = run_experiment(&Chained, &cfg);
    assert_eq!(report.meta.points, 26);

    let fold = run_experiment(
        &Chained,
        &SweepConfig::new(3).jobs(1).out_dir(&run_dir).cache_dir(&run_dir),
    );
    assert_eq!((fold.meta.cache_hits, fold.meta.cache_misses), (26, 0));
    assert_eq!(read_artifacts(&solo_dir).0, read_artifacts(&run_dir).0);

    let _ = std::fs::remove_dir_all(&base);
}
