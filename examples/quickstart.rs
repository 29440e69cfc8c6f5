//! Quickstart: simulate a small cache-coherent slotted-ring multiprocessor
//! and print the paper's three headline metrics.
//!
//! Run with `cargo run --release --example quickstart`.

use ringsim::core::{RingSystem, SystemConfig};
use ringsim::proto::ProtocolKind;
use ringsim::trace::{Workload, WorkloadSpec};
use ringsim::types::Time;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An 8-processor, 500 MHz slotted ring with the snooping protocol and
    // 100 MIPS processors.
    let cfg =
        SystemConfig::ring_500mhz(ProtocolKind::Snooping, 8).with_proc_cycle(Time::from_ns(10));

    // A small synthetic workload with a healthy amount of read-write
    // sharing.
    let workload = Workload::new(WorkloadSpec::builder(8).refs(20_000).build()?)?;

    let report = RingSystem::new(cfg, workload)?.run();

    println!("simulated {} of program execution", report.sim_end);
    println!("processor utilisation : {:5.1} %", 100.0 * report.proc_util);
    println!("ring slot utilisation : {:5.1} %", 100.0 * report.ring_util);
    println!("average miss latency  : {:5.0} ns", report.miss_latency_ns());
    println!(
        "misses: {} ({:.2}% of data references), upgrades: {}",
        report.events.misses(),
        100.0 * report.events.total_miss_rate(),
        report.events.upgrades(),
    );
    Ok(())
}
