//! The paper's trace-driven workflow, end to end: capture a workload once,
//! save it to disk, and replay the *identical* reference streams against
//! four different architectures.
//!
//! Run with `cargo run --release --example trace_workflow`.

use ringsim::core::{BusSystem, BusSystemConfig, RingSystem, SystemConfig};
use ringsim::proto::ProtocolKind;
use ringsim::trace::{Benchmark, RecordedTrace};
use ringsim::types::Time;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. capture the trace (as CacheMire captured SPLASH runs in 1993).
    let spec = Benchmark::Mp3d.spec(8)?.with_refs(15_000);
    let trace = RecordedTrace::capture(&spec)?;
    println!("captured {} references across {} processors", trace.total_refs(), trace.procs());

    // 2. persist and reload — the replay is bit-identical.
    let path = std::env::temp_dir().join("mp3d8.rstrace");
    trace.save(&path)?;
    let trace = RecordedTrace::load(&path)?;
    println!("trace file: {} ({} KiB)", path.display(), std::fs::metadata(&path)?.len() / 1024);
    std::fs::remove_file(&path).ok();

    // 3. replay against four architectures.
    let proc = Time::from_ns(10); // 100 MIPS
    println!();
    println!(
        "{:<26} | {:>10} {:>10} {:>14}",
        "architecture", "proc util%", "net util%", "miss lat (ns)"
    );
    println!("{:-<66}", "");
    for protocol in [ProtocolKind::Snooping, ProtocolKind::Directory] {
        let cfg = SystemConfig::ring_500mhz(protocol, 8).with_proc_cycle(proc);
        let r = RingSystem::new(cfg, trace.workload())?.run();
        println!(
            "{:<26} | {:>10.1} {:>10.1} {:>14.0}",
            format!("ring 500 MHz / {protocol}"),
            100.0 * r.proc_util,
            100.0 * r.ring_util,
            r.miss_latency_ns(),
        );
    }
    for (label, cfg) in [
        ("bus 100 MHz / snooping", BusSystemConfig::bus_100mhz(8)),
        ("bus 50 MHz / snooping", BusSystemConfig::bus_50mhz(8)),
    ] {
        let r = BusSystem::new(cfg.with_proc_cycle(proc), trace.workload())?.run();
        println!(
            "{:<26} | {:>10.1} {:>10.1} {:>14.0}",
            label,
            100.0 * r.proc_util,
            100.0 * r.ring_util,
            r.miss_latency_ns(),
        );
    }
    println!();
    println!("every row consumed exactly the same per-processor reference sequences");
    Ok(())
}
