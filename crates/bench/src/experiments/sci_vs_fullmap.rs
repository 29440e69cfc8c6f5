//! SCI linked-list directory versus the full-map directory, timed: the
//! same SPLASH workloads through the full-map directory ring (`ring500`)
//! and through the SCI backend (`sci500`), side by side with the traversal
//! distributions the SCI engine accumulated over the run (the timed
//! counterpart of Table 1's untimed replay).

use serde::{Deserialize, Serialize};

use ringsim_core::{SciRingSystem, SciSystemConfig, SimKind, SimSpec};
use ringsim_proto::table1::TraversalReport;
use ringsim_proto::ProtocolKind;
use ringsim_sweep::{Artifact, Experiment, PointCtx, SweepCtx, SweepPoint};
use ringsim_trace::{Benchmark, Workload};
use ringsim_types::Time;

/// Two timed runs per point; cap the budget like the validation suite so
/// the experiment stays tractable at the default budget.
const MAX_REFS: u64 = 40_000;

#[derive(Debug, Serialize, Deserialize)]
struct Row {
    bench: String,
    procs: usize,
    /// Full-map directory on the 500 MHz slotted ring.
    fullmap_proc_util: f64,
    fullmap_ring_util: f64,
    fullmap_miss_ns: f64,
    /// SCI linked-list directory on the same ring clock.
    sci_proc_util: f64,
    sci_ring_util: f64,
    sci_miss_ns: f64,
    /// Traversal distributions the SCI engine accumulated over the timed
    /// run (warm-up included — the protocol walks lists from reference
    /// one).
    sci_traversals: TraversalReport,
}

fn run_point(pctx: &PointCtx, bench: Benchmark, procs: usize) -> Row {
    let refs = pctx.refs_per_proc.min(MAX_REFS);
    let proc = Time::from_ns(20);
    let spec = bench.spec(procs).expect("paper spec").with_refs(refs);

    let fullmap = {
        let workload = Workload::new(spec.clone()).expect("workload");
        let sim_spec =
            SimSpec::new(workload).with_protocol(ProtocolKind::Directory).with_proc_cycle(proc);
        let mut system = SimKind::Ring500.build(&sim_spec).expect("system");
        crate::simulate(pctx, system.as_mut())
    };

    // Built directly (not through the registry) so the engine's traversal
    // report stays reachable after the run.
    let workload = Workload::new(spec).expect("workload");
    let cfg = SciSystemConfig::sci_500mhz(procs).with_proc_cycle(proc);
    let mut sci = SciRingSystem::new(cfg, workload).expect("system");
    let sci_report = crate::simulate(pctx, &mut sci);

    Row {
        bench: bench.name().to_owned(),
        procs,
        fullmap_proc_util: fullmap.proc_util,
        fullmap_ring_util: fullmap.ring_util,
        fullmap_miss_ns: fullmap.miss_latency_ns(),
        sci_proc_util: sci_report.proc_util,
        sci_ring_util: sci_report.ring_util,
        sci_miss_ns: sci_report.miss_latency_ns(),
        sci_traversals: sci.traversal_report(),
    }
}

/// Compares the SCI backend with the full-map directory ring.
pub struct SciVsFullmap;

impl Experiment for SciVsFullmap {
    fn name(&self) -> &'static str {
        "sci_vs_fullmap"
    }

    fn description(&self) -> &'static str {
        "timed SCI linked-list directory vs full-map directory ring (500 MHz, 50 MIPS)"
    }

    fn run(&self, ctx: &SweepCtx) -> Vec<Artifact> {
        let cases = [(Benchmark::Mp3d, 16), (Benchmark::Water, 16), (Benchmark::Cholesky, 16)];
        let rows = ctx.map(
            &cases,
            |&(bench, procs)| SweepPoint::new().bench(bench.name()).procs(procs).protocol("sci"),
            |pctx, &(bench, procs)| run_point(pctx, bench, procs),
        );
        println!("SCI linked list vs full map, timed at 500 MHz / 50 MIPS (16 procs)");
        println!("{:-<100}", "");
        println!(
            "{:<10} | {:>8} {:>8} {:>9} | {:>8} {:>8} {:>9} | miss 1/2/3+ %",
            "bench", "fmU%", "fmNet%", "fmLat", "sciU%", "sciNet%", "sciLat"
        );
        for row in &rows {
            let (one, two, three) = row.sci_traversals.miss.percentages();
            println!(
                "{:<10} | {:>7.1}% {:>7.1}% {:>8.1}n | {:>7.1}% {:>7.1}% {:>8.1}n | {:>4.1}/{:>4.1}/{:>4.1}",
                row.bench,
                100.0 * row.fullmap_proc_util,
                100.0 * row.fullmap_ring_util,
                row.fullmap_miss_ns,
                100.0 * row.sci_proc_util,
                100.0 * row.sci_ring_util,
                row.sci_miss_ns,
                one,
                two,
                three,
            );
        }
        ctx.write_json("sci_vs_fullmap", &rows);
        ctx.artifacts()
    }
}
