//! Paper §6's forward-looking claims, evaluated with the extended models:
//!
//! * "the slotted ring could benefit from latency tolerance techniques ...
//!   because the large latencies observed for the slotted ring are, in most
//!   cases, not caused by heavy contention but by pure delays";
//! * "most latency tolerance techniques ... can be self-defeating in an
//!   interconnect working close to saturation. This would probably happen
//!   in a split transaction bus using very fast processors";
//! * "the ring would be able to accommodate the increase in the load
//!   without significantly altering the expected latencies".

use serde::{Deserialize, Serialize};

use ringsim_analytic::{BusModel, RingModel};
use ringsim_bus::BusConfig;
use ringsim_proto::ProtocolKind;
use ringsim_ring::RingConfig;
use ringsim_sweep::{Artifact, Experiment, SweepCtx, SweepPoint};
use ringsim_trace::Benchmark;
use ringsim_types::Time;

use crate::characterized;

#[derive(Debug, Serialize, Deserialize)]
struct Row {
    network: String,
    mips: u64,
    base_util: f64,
    tolerant_util: f64,
    gain_points: f64,
    base_read_latency: f64,
    tolerant_read_latency: f64,
    base_net_util: f64,
    tolerant_net_util: f64,
}

/// Evaluates write-latency tolerance (write buffers / weak ordering) on the
/// ring and on the bus, per paper §6.
pub struct FutureWork;

impl Experiment for FutureWork {
    fn name(&self) -> &'static str {
        "future_work"
    }

    fn description(&self) -> &'static str {
        "write-latency tolerance on ring vs bus, per paper section 6"
    }

    fn run(&self, ctx: &SweepCtx) -> Vec<Artifact> {
        let procs = 16;
        // The characterisation is shared by all points; run it once per
        // cache root on the harness thread (it is a pure function of the
        // spec, so this does not affect determinism).
        let (_, input) = characterized(ctx, Benchmark::Mp3d, procs, ctx.refs_per_proc());
        let mut points = Vec::new();
        for mips in [100u64, 200, 400] {
            points.push(("ring-500", mips));
            points.push(("bus-50", mips));
        }
        let rows = ctx.map(
            &points,
            |&(network, mips)| {
                SweepPoint::new()
                    .bench("mp3d")
                    .procs(procs)
                    .protocol(network)
                    .detail(format!("mips={mips}"))
            },
            |_pctx, &(network, mips)| {
                let t = Time::from_ps(1_000_000 / mips);
                let (b, w) = if network == "ring-500" {
                    let base =
                        RingModel::new(RingConfig::standard_500mhz(procs), ProtocolKind::Snooping);
                    let tol = base.with_write_tolerance(true);
                    (base.evaluate(&input, t), tol.evaluate(&input, t))
                } else {
                    // Bus at 50 MHz (the saturation-prone baseline).
                    let base = BusModel::new(BusConfig::bus_50mhz(procs));
                    let tol = base.with_write_tolerance(true);
                    (base.evaluate(&input, t), tol.evaluate(&input, t))
                };
                Row {
                    network: network.to_owned(),
                    mips,
                    base_util: b.proc_util,
                    tolerant_util: w.proc_util,
                    gain_points: w.proc_util - b.proc_util,
                    base_read_latency: b.miss_latency_ns,
                    tolerant_read_latency: w.miss_latency_ns,
                    base_net_util: b.net_util,
                    tolerant_net_util: w.net_util,
                }
            },
        );
        println!("Paper §6: write-latency tolerance on mp3d.16 — ring vs bus");
        println!("{:-<100}", "");
        println!(
            "{:<9} {:>5} | {:>8} {:>8} {:>7} | {:>9} {:>9} | {:>8} {:>8}",
            "network",
            "MIPS",
            "baseU%",
            "tolU%",
            "gain",
            "baseLat",
            "tolLat",
            "baseNet%",
            "tolNet%"
        );
        for r in &rows {
            println!(
                "{:<9} {:>5} | {:>8.1} {:>8.1} {:>+6.1}pp | {:>9.0} {:>9.0} | {:>8.1} {:>8.1}",
                r.network,
                r.mips,
                100.0 * r.base_util,
                100.0 * r.tolerant_util,
                100.0 * r.gain_points,
                r.base_read_latency,
                r.tolerant_read_latency,
                100.0 * r.base_net_util,
                100.0 * r.tolerant_net_util,
            );
        }
        // Summarise the paper's prediction.
        let ring_lat_growth: f64 = rows
            .iter()
            .filter(|r| r.network == "ring-500")
            .map(|r| r.tolerant_read_latency / r.base_read_latency - 1.0)
            .fold(0.0, f64::max);
        let bus_lat_growth: f64 = rows
            .iter()
            .filter(|r| r.network == "bus-50")
            .map(|r| r.tolerant_read_latency / r.base_read_latency - 1.0)
            .fold(0.0, f64::max);
        println!();
        println!(
            "tolerating write latency inflates remaining miss latency by ≤{:.0}% on the ring but {:.0}% on the saturated bus",
            100.0 * ring_lat_growth,
            100.0 * bus_lat_growth
        );
        ctx.write_json("future_work", &rows);
        ctx.artifacts()
    }
}
