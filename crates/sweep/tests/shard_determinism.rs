//! Sharded execution must be invisible in the artifacts: a sweep split
//! across 4 concurrent shard workers (sharing one run directory, as the
//! serve coordinator arranges across *processes*) folds into artifacts
//! that are byte-identical to the single-pool path. This is the
//! `--jobs`-invariance contract lifted one level up — see
//! `crates/sweep/src/shard.rs`.

use std::path::Path;

use ringsim_sweep::{
    run_experiment, run_shard, Artifact, Experiment, Shard, SweepConfig, SweepCtx, SweepPoint,
};

/// A two-`map`-call experiment: the second call consumes the first call's
/// results. Shard workers stop after the first call, so the fold computes
/// the second one in-process.
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
        // vector, so only a process holding every stripe can run it.
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

/// Points of a 13-point `map` call that shard `index` of `count` owns.
fn stripe(index: usize, count: usize) -> u64 {
    (0..13).filter(|&i| Shard::new(index, count).unwrap().owns(i)).count() as u64
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
    // coordinator's processes — the cache protocol is identical), all with
    // the run dir as out dir. Each caches its stripe of the first call and
    // stops, rendering nothing.
    let run_dir = base.join("run");
    std::thread::scope(|scope| {
        for w in 0..4 {
            let run_dir = run_dir.clone();
            scope.spawn(move || {
                let cfg = SweepConfig::new(3).jobs(2).out_dir(&run_dir);
                let report = run_shard(&Chained, &cfg, Shard::new(w, 4).unwrap());
                assert_eq!(
                    (report.points, report.hits, report.misses),
                    (stripe(w, 4), 0, stripe(w, 4))
                );
            });
        }
    });
    assert!(!run_dir.join("chained.json").exists(), "a shard worker rendered an artifact");
    assert!(!run_dir.join("chained.meta.json").exists(), "a shard worker wrote a meta twin");

    // Fold: re-run against the shared cache, single pool. The first call
    // replays from the workers' entries; the second, which no worker
    // reaches, is computed here.
    let fold = run_experiment(&Chained, &SweepConfig::new(3).jobs(1).out_dir(&run_dir));
    assert_eq!((fold.meta.cache_hits, fold.meta.cache_misses), (13, 13));
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

    // A shard worker caches even against `--no-cache`: the shared entries
    // land in the run dir both workers and the fold use.
    let run_dir = base.join("run");
    std::thread::scope(|scope| {
        for w in 0..2 {
            let run_dir = run_dir.clone();
            scope.spawn(move || {
                let cfg = SweepConfig::new(3).jobs(2).cache(false).out_dir(&run_dir);
                let report = run_shard(&SharedInputs, &cfg, Shard::new(w, 2).unwrap());
                assert_eq!(report.points, [6, 5][w]);
            });
        }
    });
    let shared = std::fs::read_dir(run_dir.join(".cache/shared")).expect("shared entries");
    assert_eq!(shared.count(), 2, "one entry per parity");

    let fold = run_experiment(&SharedInputs, &SweepConfig::new(3).jobs(1).out_dir(&run_dir));
    assert_eq!((fold.meta.cache_hits, fold.meta.cache_misses), (11, 0), "pure cache replay");
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

    // A lone shard owns every point of the first call.
    let lone_dir = base.join("lone");
    let cfg = SweepConfig::new(3).jobs(2).out_dir(&lone_dir);
    let lone = run_shard(&Chained, &cfg, Shard::new(0, 1).unwrap());
    assert_eq!((lone.points, lone.hits, lone.misses), (13, 0, 13));
    let fold = run_experiment(&Chained, &cfg);
    assert_eq!((fold.meta.cache_hits, fold.meta.cache_misses), (13, 13));
    assert_eq!(read_artifacts(&solo_dir).0, read_artifacts(&lone_dir).0);

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn missing_shard_stripe_is_computed_by_the_fold() {
    let base = std::env::temp_dir().join(format!("ringsim-shard-missing-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let solo_dir = base.join("solo");
    run_experiment(&Chained, &SweepConfig::new(3).jobs(2).out_dir(&solo_dir));

    // Only shard 0 of 2 ever runs; its peer died before caching anything.
    // The fold computes shard 1's stripe as ordinary misses, along with the
    // second call, and still renders the single-pool bytes.
    let run_dir = base.join("run");
    let cfg = SweepConfig::new(3).jobs(2).out_dir(&run_dir);
    let report = run_shard(&Chained, &cfg, Shard::new(0, 2).unwrap());
    assert_eq!(report.points, stripe(0, 2));

    let fold = run_experiment(&Chained, &SweepConfig::new(3).jobs(1).out_dir(&run_dir));
    assert_eq!((fold.meta.cache_hits, fold.meta.cache_misses), (7, 6 + 13));
    assert_eq!(read_artifacts(&solo_dir).0, read_artifacts(&run_dir).0);

    let _ = std::fs::remove_dir_all(&base);
}

/// A panic of the experiment's own leaves a shard worker unchanged, so the
/// worker reports the real message.
struct FailsInStripe;

impl Experiment for FailsInStripe {
    fn name(&self) -> &'static str {
        "fails_in_stripe"
    }
    fn description(&self) -> &'static str {
        "panics at one point"
    }
    fn run(&self, ctx: &SweepCtx) -> Vec<Artifact> {
        let points: Vec<u64> = (0..4).collect();
        ctx.map(
            &points,
            |p| SweepPoint::new().detail(p.to_string()),
            |_c, p| {
                assert_ne!(*p, 2, "point {p} failed");
                *p
            },
        );
        ctx.artifacts()
    }
}

#[test]
fn a_panic_in_the_stripe_reaches_the_caller_unchanged() {
    let dir = std::env::temp_dir().join(format!("ringsim-shard-panic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = SweepConfig::new(3).jobs(1).out_dir(&dir);
    let run =
        std::panic::AssertUnwindSafe(|| run_shard(&FailsInStripe, &cfg, Shard::new(0, 2).unwrap()));
    let payload = std::panic::catch_unwind(run).expect_err("the point's panic reaches the caller");
    let msg = payload.downcast_ref::<String>().map_or("", String::as_str);
    assert!(msg.contains("point 2 failed"), "lost the message: {msg:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
