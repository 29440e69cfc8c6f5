//! Extension: two-level ring hierarchies (paper §5 related work — Hector,
//! KSR1) against the flat 64-node slotted ring, across cluster shapes and
//! home-placement locality.

use serde::{Deserialize, Serialize};

use ringsim_analytic::{HierRingModel, RingModel};
use ringsim_proto::ProtocolKind;
use ringsim_ring::{RingConfig, RingTopology};
use ringsim_sweep::{Artifact, Experiment, SweepCtx, SweepPoint};
use ringsim_trace::Benchmark;
use ringsim_types::Time;

use crate::characterized;

#[derive(Debug, Serialize, Deserialize)]
struct Row {
    topology: String,
    locality_pct: u32,
    proc_util: f64,
    miss_latency_ns: f64,
    local_util: f64,
    global_util: f64,
}

/// One topology/locality combination (locality 0 on the flat ring).
#[derive(Debug, Clone, Copy)]
enum Point {
    Flat,
    Hier { rings: usize, per: usize, locality_pct: u32 },
}

impl Point {
    fn label(self) -> String {
        match self {
            Point::Flat => "flat-64".to_owned(),
            Point::Hier { rings, per, locality_pct } => {
                format!("{rings}x{per}|locality={locality_pct}")
            }
        }
    }
}

/// Compares the flat 64-processor ring with 4×16 / 8×8 / 16×4 hierarchies.
pub struct Hierarchy;

impl Experiment for Hierarchy {
    fn name(&self) -> &'static str {
        "hierarchy"
    }

    fn description(&self) -> &'static str {
        "two-level ring hierarchies vs the flat 64-node ring"
    }

    fn run(&self, ctx: &SweepCtx) -> Vec<Artifact> {
        // Shared characterisation: pure function of the spec, computed once
        // per cache root.
        let (_, input) = characterized(ctx, Benchmark::Weather, 64, ctx.refs_per_proc());
        let t = Time::from_ns(5); // 200 MIPS
        let mut points = vec![Point::Flat];
        for (rings, per) in [(4usize, 16usize), (8, 8), (16, 4)] {
            let topo = RingTopology::two_level(rings, per).expect("valid hierarchy");
            let uniform = (100.0 * topo.uniform_locality()).round() as u32;
            for locality_pct in [uniform, 50, 80] {
                points.push(Point::Hier { rings, per, locality_pct });
            }
        }
        let rows = ctx.map(
            &points,
            |p| SweepPoint::new().bench("weather").procs(64).detail(p.label()),
            |_pctx, p| match *p {
                Point::Flat => {
                    let flat =
                        RingModel::new(RingConfig::standard_500mhz(64), ProtocolKind::Snooping)
                            .evaluate(&input, t);
                    Row {
                        topology: "flat-64".into(),
                        locality_pct: 0,
                        proc_util: flat.proc_util,
                        miss_latency_ns: flat.miss_latency_ns,
                        local_util: flat.net_util,
                        global_util: 0.0,
                    }
                }
                Point::Hier { rings, per, locality_pct } => {
                    let topo = RingTopology::two_level(rings, per).expect("valid hierarchy");
                    let model = HierRingModel::new(topo)
                        .expect("two-level hierarchy")
                        .with_locality(f64::from(locality_pct) / 100.0);
                    let out = model.evaluate(&input, t);
                    Row {
                        topology: format!("{rings}x{per}"),
                        locality_pct,
                        proc_util: out.proc_util,
                        miss_latency_ns: out.miss_latency_ns,
                        local_util: out.probe_util,
                        global_util: out.block_util,
                    }
                }
            },
        );
        println!(
            "Hierarchical rings vs the flat 64-node ring (weather.64 mix, snooping, 200 MIPS)"
        );
        println!("{:-<86}", "");
        println!(
            "{:<10} {:>9} | {:>10} {:>14} | {:>11} {:>11}",
            "topology", "locality", "proc util%", "miss lat (ns)", "local util%", "global util%"
        );
        for row in &rows {
            if row.topology == "flat-64" {
                println!(
                    "{:<10} {:>8}% | {:>10.1} {:>14.0} | {:>11.1} {:>11}",
                    row.topology,
                    "-",
                    100.0 * row.proc_util,
                    row.miss_latency_ns,
                    100.0 * row.local_util,
                    "-"
                );
            } else {
                println!(
                    "{:<10} {:>8}% | {:>10.1} {:>14.0} | {:>11.1} {:>11.1}",
                    row.topology,
                    row.locality_pct,
                    100.0 * row.proc_util,
                    row.miss_latency_ns,
                    100.0 * row.local_util,
                    100.0 * row.global_util,
                );
            }
        }
        println!(
            "(locality = fraction of remote transactions homed in the requester's local ring)"
        );
        ctx.write_json("hierarchy", &rows);
        ctx.artifacts()
    }
}
