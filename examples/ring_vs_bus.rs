//! The slotted ring against the split-transaction bus as processors get
//! faster — the technology argument of the paper's §4.3 and Figure 6.
//!
//! Run with `cargo run --release --example ring_vs_bus`.

use ringsim::core::{BusSystem, BusSystemConfig, RingSystem, SystemConfig};
use ringsim::proto::ProtocolKind;
use ringsim::trace::{Benchmark, Workload};
use ringsim::types::Time;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let procs = 16;
    let spec = Benchmark::Mp3d.spec(procs)?.with_refs(15_000);

    println!("mp3d.16: 500 MHz 32-bit ring (snooping) vs 100 MHz 64-bit split-transaction bus");
    println!("{:-<86}", "");
    println!(
        "{:>5} | {:>24} | {:>24} | winner",
        "MIPS", "ring util%/net%/lat", "bus util%/net%/lat"
    );
    for mips in [50u64, 100, 200, 400] {
        let proc_cycle = Time::from_ps(1_000_000 / mips);

        let ring_cfg =
            SystemConfig::ring_500mhz(ProtocolKind::Snooping, procs).with_proc_cycle(proc_cycle);
        let ring = RingSystem::new(ring_cfg, Workload::new(spec.clone())?)?.run();

        let bus_cfg = BusSystemConfig::bus_100mhz(procs).with_proc_cycle(proc_cycle);
        let bus = BusSystem::new(bus_cfg, Workload::new(spec.clone())?)?.run();

        let winner = if ring.proc_util > bus.proc_util { "ring" } else { "bus" };
        println!(
            "{:>5} | {:>6.1} {:>6.1} {:>7.0}ns | {:>6.1} {:>6.1} {:>7.0}ns | {winner}",
            mips,
            100.0 * ring.proc_util,
            100.0 * ring.ring_util,
            ring.miss_latency_ns(),
            100.0 * bus.proc_util,
            100.0 * bus.ring_util,
            bus.miss_latency_ns(),
        );
    }
    println!();
    println!("the bus saturates as processors speed up; the ring's latency stays stable");
    Ok(())
}
