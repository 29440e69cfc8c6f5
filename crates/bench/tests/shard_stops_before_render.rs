//! The sharded service relies on one property of every registered
//! experiment: it reaches `SweepCtx::map` before it renders anything. A
//! shard worker (`ringsim_sweep::run_shard`) stops inside its first `map`
//! call, so an experiment that wrote an artifact first would have every
//! worker write it too, and one that never called `map` would run whole in
//! every worker.

use std::path::Path;

use ringsim_bench::experiments;
use ringsim_sweep::{run_shard, Shard, ShardReport, SweepConfig};

const REFS: u64 = 200;

#[test]
fn every_experiment_maps_before_it_renders() {
    // A shard that owns no point of any registered sweep.
    let shard = Shard::new(999, 1000).expect("valid shard");
    for exp in experiments::registry() {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("no-stripe-{}", exp.name()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = run_shard(*exp, &SweepConfig::new(REFS).jobs(1).out_dir(&dir), shard);
        assert_eq!(report, ShardReport { points: 0, hits: 0, misses: 0 }, "{}", exp.name());
        let files: Vec<_> = std::fs::read_dir(&dir)
            .expect("out dir exists")
            .flatten()
            .filter(|e| e.path().is_file())
            .map(|e| e.file_name())
            .collect();
        assert!(files.is_empty(), "{} wrote {files:?} before its first map call", exp.name());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
