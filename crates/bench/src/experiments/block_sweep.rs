//! Block-size sensitivity: Table 3 fixes the snooping-rate constraint per
//! block size; this experiment adds the performance dimension — how the
//! frame geometry (longer block slots, fewer slots per ring) moves
//! utilisation and latency for a fixed event mix.
//!
//! The reference mix is held constant across block sizes (a conservative
//! choice: larger blocks would also change miss rates; here we isolate the
//! interconnect effect, which is the part the paper's §3.3 discusses).

use serde::{Deserialize, Serialize};

use ringsim_analytic::RingModel;
use ringsim_proto::ProtocolKind;
use ringsim_ring::RingConfig;
use ringsim_sweep::{Artifact, Experiment, SweepCtx, SweepPoint};
use ringsim_trace::Benchmark;
use ringsim_types::Time;

use crate::characterized;

#[derive(Debug, Serialize, Deserialize)]
struct Row {
    block_bytes: u64,
    frame_stages: usize,
    snoop_interarrival_ns: f64,
    ring_stages: usize,
    proc_util: f64,
    ring_util: f64,
    miss_latency_ns: f64,
}

/// Sweeps the cache-block / block-slot size for a 16-processor snooping
/// ring at 200 MIPS.
pub struct BlockSweep;

impl Experiment for BlockSweep {
    fn name(&self) -> &'static str {
        "block_sweep"
    }

    fn description(&self) -> &'static str {
        "cache-block size vs frame geometry on a 16-proc snooping ring"
    }

    fn run(&self, ctx: &SweepCtx) -> Vec<Artifact> {
        let procs = 16;
        // Shared characterisation: pure function of the spec, computed once
        // per cache root.
        let (_, input) = characterized(ctx, Benchmark::Mp3d, procs, ctx.refs_per_proc());
        let t = Time::from_ns(5);
        let blocks = [16u64, 32, 64, 128];
        let rows = ctx.map(
            &blocks,
            |&block| SweepPoint::new().bench("mp3d").procs(procs).detail(format!("block={block}")),
            |_pctx, &block| {
                let ring = RingConfig { block_bytes: block, ..RingConfig::standard_500mhz(procs) };
                let layout = ring.layout().expect("valid");
                let out = RingModel::new(ring, ProtocolKind::Snooping).evaluate(&input, t);
                Row {
                    block_bytes: block,
                    frame_stages: ring.frame_stages(),
                    snoop_interarrival_ns: ring.snoop_interarrival().as_ns_f64(),
                    ring_stages: layout.stages(),
                    proc_util: out.proc_util,
                    ring_util: out.net_util,
                    miss_latency_ns: out.miss_latency_ns,
                }
            },
        );
        println!("Block-size sweep: mp3d.16 event mix, snooping, 500 MHz 32-bit ring, 200 MIPS");
        println!("{:-<88}", "");
        println!(
            "{:>6} | {:>6} {:>10} {:>7} | {:>10} {:>10} {:>14}",
            "block", "frame", "snoop(ns)", "stages", "proc util%", "ring util%", "miss lat (ns)"
        );
        for row in &rows {
            println!(
                "{:>4} B | {:>6} {:>10.0} {:>7} | {:>10.1} {:>10.1} {:>14.0}",
                row.block_bytes,
                row.frame_stages,
                row.snoop_interarrival_ns,
                row.ring_stages,
                100.0 * row.proc_util,
                100.0 * row.ring_util,
                row.miss_latency_ns,
            );
        }
        println!("(fixed event mix: isolates the interconnect cost of bigger blocks)");
        ctx.write_json("block_sweep", &rows);
        ctx.artifacts()
    }
}
