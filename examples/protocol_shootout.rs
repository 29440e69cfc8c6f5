//! Snooping versus full-map directory on the same ring and workload — the
//! paper's central comparison (§4.2), both by timed simulation and by the
//! analytical model.
//!
//! Run with `cargo run --release --example protocol_shootout`.

use ringsim::analytic::{ModelInput, RingModel};
use ringsim::core::{RingSystem, SystemConfig};
use ringsim::proto::ProtocolKind;
use ringsim::ring::RingConfig;
use ringsim::trace::{Benchmark, Workload};
use ringsim::types::Time;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let procs = 16;
    let spec = Benchmark::Mp3d.spec(procs)?.with_refs(20_000);
    let proc_cycle = Time::from_ns(10); // 100 MIPS

    println!("mp3d.16 on a 500 MHz 32-bit slotted ring, 100 MIPS processors");
    println!("{:-<72}", "");
    println!(
        "{:<11} | {:>10} {:>10} {:>14} | {:>8}",
        "protocol", "proc util%", "ring util%", "miss lat (ns)", "retries"
    );

    let mut sim_events = None;
    for protocol in [ProtocolKind::Snooping, ProtocolKind::Directory] {
        let cfg = SystemConfig::ring_500mhz(protocol, procs).with_proc_cycle(proc_cycle);
        let workload = Workload::new(spec.clone())?;
        let report = RingSystem::new(cfg, workload)?.run();
        println!(
            "{:<11} | {:>10.1} {:>10.1} {:>14.0} | {:>8}",
            protocol.name(),
            100.0 * report.proc_util,
            100.0 * report.ring_util,
            report.miss_latency_ns(),
            report.retries,
        );
        sim_events.get_or_insert((report.events, spec.instr_per_data));
    }

    // The hybrid methodology: feed the simulator's event mix to the
    // analytical model and sweep the processor speed.
    let (events, ipd) = sim_events.expect("at least one simulation ran");
    let input = ModelInput {
        procs,
        instr_per_data: ipd,
        freqs: ringsim::analytic::ClassFreqs::from_events(&events),
    };
    println!();
    println!("analytical sweep (processor cycle -> snooping util / directory util):");
    let snoop = RingModel::new(RingConfig::standard_500mhz(procs), ProtocolKind::Snooping);
    let dir = RingModel::new(RingConfig::standard_500mhz(procs), ProtocolKind::Directory);
    for ns in [1u64, 2, 5, 10, 20] {
        let t = Time::from_ns(ns);
        let s = snoop.evaluate(&input, t);
        let d = dir.evaluate(&input, t);
        println!(
            "  {ns:>2} ns ({:>3} MIPS): {:5.1}% vs {:5.1}%  (snooping ahead by {:+.1} points)",
            1000 / ns,
            100.0 * s.proc_util,
            100.0 * d.proc_util,
            100.0 * (s.proc_util - d.proc_util),
        );
    }
    Ok(())
}
