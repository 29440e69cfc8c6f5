//! Figure 6: 32-bit slotted rings (250/500 MHz, snooping) versus 64-bit
//! split-transaction buses (50/100 MHz) — processor utilisation, network
//! utilisation and miss latency over the 1–20 ns processor-cycle sweep, for
//! MP3D and WATER at 8/16/32 processors.

use serde::{Deserialize, Serialize};

use ringsim_analytic::{BusModel, RingModel};
use ringsim_bus::BusConfig;
use ringsim_proto::ProtocolKind;
use ringsim_ring::RingConfig;
use ringsim_sweep::{Artifact, Experiment, SweepCtx, SweepPoint};
use ringsim_trace::Benchmark;

use crate::characterized;

/// One interconnect curve.
#[derive(Debug, Serialize, Deserialize)]
pub struct Curve {
    /// Benchmark name.
    pub bench: String,
    /// Processor count.
    pub procs: usize,
    /// Interconnect label ("ring-500", "bus-100", ...).
    pub network: String,
    /// Points `(proc_cycle_ns, proc_util, net_util, miss_latency_ns)`.
    pub points: Vec<(u64, f64, f64, f64)>,
}

/// Regenerates Figure 6.
pub struct Fig6;

impl Experiment for Fig6 {
    fn name(&self) -> &'static str {
        "fig6"
    }

    fn description(&self) -> &'static str {
        "32-bit slotted rings vs 64-bit split-transaction buses (Figure 6)"
    }

    fn run(&self, ctx: &SweepCtx) -> Vec<Artifact> {
        let mut configs = Vec::new();
        for bench in [Benchmark::Mp3d, Benchmark::Water] {
            for &procs in bench.paper_sizes() {
                configs.push((bench, procs));
            }
        }
        let per_config = ctx.map(
            &configs,
            |&(bench, procs)| SweepPoint::new().bench(bench.name()).procs(procs),
            |pctx, &(bench, procs)| {
                let (_, input) = characterized(ctx, bench, procs, pctx.refs_per_proc);
                let mut curves: Vec<Curve> = Vec::new();
                for (label, ring) in [
                    ("ring-500", RingConfig::standard_500mhz(procs)),
                    ("ring-250", RingConfig::standard_250mhz(procs)),
                ] {
                    let model = RingModel::new(ring, ProtocolKind::Snooping);
                    let points = (1..=20)
                        .map(|ns| {
                            let (t, o) = model.sweep_point(&input, ns);
                            (t.as_ps() / 1000, o.proc_util, o.net_util, o.miss_latency_ns)
                        })
                        .collect();
                    curves.push(Curve {
                        bench: bench.name().to_owned(),
                        procs,
                        network: label.to_owned(),
                        points,
                    });
                }
                for (label, bus) in [
                    ("bus-100", BusConfig::bus_100mhz(procs)),
                    ("bus-50", BusConfig::bus_50mhz(procs)),
                ] {
                    let model = BusModel::new(bus);
                    let points = (1..=20)
                        .map(|ns| {
                            let (t, o) = model.sweep_point(&input, ns);
                            (t.as_ps() / 1000, o.proc_util, o.net_util, o.miss_latency_ns)
                        })
                        .collect();
                    curves.push(Curve {
                        bench: bench.name().to_owned(),
                        procs,
                        network: label.to_owned(),
                        points,
                    });
                }
                curves
            },
        );
        println!("Figure 6: 32-bit slotted ring (snooping) vs 64-bit split-transaction bus");
        println!("{:-<100}", "");
        println!(
            "{:<12} {:>4} {:<9} | {:>22} | {:>22} | {:>26}",
            "bench",
            "P",
            "network",
            "proc util % @2/5/10/20",
            "net util % @2/5/10/20",
            "miss latency ns @2/5/10/20"
        );
        let all: Vec<Curve> = per_config.into_iter().flatten().collect();
        for c in &all {
            let pick = |ns: u64| c.points.iter().find(|p| p.0 == ns).expect("sweep point");
            let u: Vec<f64> = [2, 5, 10, 20].iter().map(|&n| 100.0 * pick(n).1).collect();
            let r: Vec<f64> = [2, 5, 10, 20].iter().map(|&n| 100.0 * pick(n).2).collect();
            let l: Vec<f64> = [2, 5, 10, 20].iter().map(|&n| pick(n).3).collect();
            println!(
                "{:<12} {:>4} {:<9} | {:>4.0} {:>4.0} {:>4.0} {:>4.0}      | {:>4.0} {:>4.0} {:>4.0} {:>4.0}      | {:>5.0} {:>5.0} {:>5.0} {:>5.0}",
                c.bench, c.procs, c.network,
                u[0], u[1], u[2], u[3],
                r[0], r[1], r[2], r[3],
                l[0], l[1], l[2], l[3],
            );
        }
        ctx.write_json("fig6", &all);
        ctx.artifacts()
    }
}
