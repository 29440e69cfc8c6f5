//! Building a custom synthetic workload: dial in a sharing pattern, verify
//! its characteristics against your targets, then simulate it.
//!
//! Run with `cargo run --release --example custom_workload`.

use ringsim::core::{RingSystem, SystemConfig};
use ringsim::proto::ProtocolKind;
use ringsim::trace::{characterize, Workload, WorkloadSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A migratory-heavy workload: think of a particle simulation where each
    // record is updated by whichever processor owns the particle's cell.
    // The builder starts from the demo defaults and validates at build().
    let spec = WorkloadSpec::builder(8)
        .name("my-particles.8")
        .warmup_refs(5_000)
        .instr_per_data(1.5)
        .shared_frac(0.40)
        .private_write_frac(0.25)
        .private_cold_frac(0.002)
        .private_pools(1024, 1 << 18)
        .pool_mix(0.15, 0.05, 0.70, 0.10) // read-only, stream, migratory, prod-cons
        .pool_blocks(192, 192, 96)
        .migratory(6, 0.6)
        .seed(7)
        .build()?;

    // 1. Characterise it (untimed, instantaneous coherence).
    let ch = characterize(&spec)?;
    let e = ch.events;
    println!("characteristics of {}:", spec.name);
    println!("  total miss rate  : {:5.2} %", 100.0 * e.total_miss_rate());
    println!("  shared miss rate : {:5.2} %", 100.0 * e.shared_miss_rate());
    println!("  dirty-miss frac  : {:5.1} %", 100.0 * e.dirty_miss_frac());
    println!("  invalidations    : {} ({} copies)", e.upgrades(), e.invalidated_copies);

    // 2. Simulate it on both ring protocols.
    println!();
    for protocol in [ProtocolKind::Snooping, ProtocolKind::Directory] {
        let cfg = SystemConfig::ring_500mhz(protocol, spec.procs);
        let report = RingSystem::new(cfg, Workload::new(spec.clone())?)?.run();
        println!(
            "{:<10}: proc util {:5.1} %, miss latency {:4.0} ns",
            protocol.name(),
            100.0 * report.proc_util,
            report.miss_latency_ns(),
        );
    }
    println!();
    println!("migratory-dominant sharing favours snooping, as in the paper's MP3D");
    Ok(())
}
