//! Timed topology sweep over the hierarchical slotted-ring engine: a flat
//! ring, the default two-level hierarchy, a three-level hierarchy, and a
//! two-level hierarchy with finite deflecting bridges — all at equal
//! processor counts, so the only variable is the topology tree (and the
//! bridge discipline).
//!
//! The hierarchy engine drives its own closed-loop think/transact traffic
//! and reads only the processor count, topology, reference budget and
//! bridge buffer — never the workload or its seed. So each topology is
//! simulated once and its row is repeated for every benchmark
//! (`crates/core/tests/hier_workload_independence.rs` pins this).

use serde::{Deserialize, Serialize};

use ringsim_core::{HierTopology, SimKind, SimSpec};
use ringsim_sweep::{Artifact, Experiment, PointCtx, SweepCtx, SweepPoint};
use ringsim_trace::{Benchmark, Workload};

/// Cap the budget like the other timed comparisons so the experiment stays
/// tractable at the default budget.
const MAX_REFS: u64 = 40_000;

/// The four topologies compared, as (label, backend, topology override).
const CONFIGS: [(&str, SimKind, Option<HierTopology>); 4] = [
    ("flat", SimKind::Hier, Some(HierTopology::Flat)),
    ("2level", SimKind::Hier, None),
    ("3level", SimKind::Hier3, None),
    ("deflect", SimKind::HierDeflect, None),
];

/// The benchmarks the table reports, in row order.
const BENCHES: [Benchmark; 3] = [Benchmark::Mp3d, Benchmark::Water, Benchmark::Cholesky];

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Row {
    bench: String,
    procs: usize,
    topology: String,
    proc_util: f64,
    /// Combined slot utilisation of the leaf rings (the whole ring when
    /// flat).
    leaf_util: f64,
    /// Combined slot utilisation of every ring above the leaves (0 when
    /// flat).
    upper_util: f64,
    miss_ns: f64,
    p95_miss_ns: f64,
    /// Bridge deflections over the run (0 except for `deflect`).
    deflections: u64,
    sim_end_ns: f64,
}

/// Simulates one topology. The workload only carries the processor count
/// and reference budget into the engine, so any paper spec serves; `bench`
/// is left empty for the caller to fill per benchmark.
fn run_point(
    pctx: &PointCtx,
    procs: usize,
    (label, kind, topo): (&str, SimKind, Option<HierTopology>),
) -> Row {
    let refs = pctx.refs_per_proc.min(MAX_REFS);
    let spec = BENCHES[0].spec(procs).expect("paper spec").with_refs(refs);
    let workload = Workload::new(spec).expect("workload");
    let mut sim_spec = SimSpec::new(workload);
    if let Some(t) = topo {
        sim_spec = sim_spec.with_topology(t);
    }
    let mut sim = kind.build(&sim_spec).expect("hier topology system");
    let report = crate::simulate(pctx, sim.as_mut());
    Row {
        bench: String::new(),
        procs,
        topology: label.to_owned(),
        proc_util: report.proc_util,
        leaf_util: report.ring_util,
        upper_util: report.block_util,
        miss_ns: report.miss_latency_ns(),
        p95_miss_ns: report.miss_latency_percentile(0.95).unwrap_or(0.0),
        deflections: report.retries,
        sim_end_ns: report.sim_end.as_ns_f64(),
    }
}

/// Compares ring topologies (flat / two-level / three-level / deflecting
/// bridges) at equal processor counts.
pub struct TopologySweep;

impl Experiment for TopologySweep {
    fn name(&self) -> &'static str {
        "topology_sweep"
    }

    fn description(&self) -> &'static str {
        "flat vs two-level vs three-level vs deflecting-bridge ring topologies, timed"
    }

    fn run(&self, ctx: &SweepCtx) -> Vec<Artifact> {
        let procs = 16; // every SPLASH paper spec exists at 16 processors
        let per_topo = ctx.map(
            &CONFIGS,
            |&(label, ..)| SweepPoint::new().procs(procs).detail(format!("topo={label}")),
            |pctx, &config| run_point(pctx, procs, config),
        );
        let rows: Vec<Row> = BENCHES
            .iter()
            .flat_map(|bench| {
                per_topo.iter().map(|row| Row { bench: bench.name().to_owned(), ..row.clone() })
            })
            .collect();
        println!("Ring topology sweep, timed at 500 MHz ({procs} procs)");
        println!("{:-<86}", "");
        println!(
            "{:<10} {:<8} | {:>9} {:>9} {:>9} | {:>9} {:>9} | {:>8}",
            "bench", "topo", "procU%", "leafU%", "upperU%", "miss ns", "p95 ns", "defl"
        );
        for row in &rows {
            println!(
                "{:<10} {:<8} | {:>8.1}% {:>8.1}% {:>8.1}% | {:>9.1} {:>9.0} | {:>8}",
                row.bench,
                row.topology,
                100.0 * row.proc_util,
                100.0 * row.leaf_util,
                100.0 * row.upper_util,
                row.miss_ns,
                row.p95_miss_ns,
                row.deflections,
            );
        }
        println!(
            "(defl = bridge deflections; only the finite-buffer `deflect` config can deflect)"
        );
        ctx.write_json("topology_sweep", &rows);
        ctx.artifacts()
    }
}
