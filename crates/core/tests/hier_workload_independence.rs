//! The hierarchy backends drive their own closed-loop think/transact
//! traffic: of the workload they read only the processor count and the
//! reference budget, never its access pattern or seed. `topology_sweep`
//! relies on this to simulate each topology once and repeat the row for
//! every benchmark, so pin it: every benchmark and seed must give the same
//! report, byte for byte.

use ringsim_core::{RunOptions, SimKind, SimSpec};
use ringsim_trace::{Benchmark, Workload};

const PROCS: usize = 16;
const REFS: u64 = 4_000;
const SEEDS: [u64; 2] = [1, 0x5EED_CAFE];

fn report_json(kind: SimKind, bench: Benchmark, seed: u64) -> String {
    let spec = bench.spec(PROCS).expect("paper spec").with_refs(REFS).with_seed(seed);
    let mut sim = kind.build(&SimSpec::new(Workload::new(spec).expect("workload"))).expect("build");
    serde_json::to_string(&sim.run(&RunOptions::default()).report).expect("json")
}

#[test]
fn hierarchy_reports_ignore_the_workload() {
    for kind in [SimKind::Hier, SimKind::Hier3, SimKind::HierDeflect] {
        let want = report_json(kind, Benchmark::Mp3d, SEEDS[0]);
        for bench in [Benchmark::Mp3d, Benchmark::Water, Benchmark::Cholesky] {
            for seed in SEEDS {
                assert!(
                    report_json(kind, bench, seed) == want,
                    "{} report depends on the workload ({} seed {seed}): topology_sweep's \
                     sweep-point key must regain its `bench` axis",
                    kind.name(),
                    bench.name(),
                );
            }
        }
    }
}
