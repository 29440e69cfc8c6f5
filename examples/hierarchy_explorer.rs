//! Exploring two-level ring hierarchies (the Hector/KSR1 direction from the
//! paper's related work): model and message-level simulation side by side.
//!
//! Run with `cargo run --release --example hierarchy_explorer`.

use ringsim::analytic::{ClassFreqs, HierRingModel, ModelInput};
use ringsim::core::{HierNetConfig, HierNetSim};
use ringsim::ring::RingTopology;
use ringsim::types::Time;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let think = Time::from_ns(800);
    println!("64 processors as two-level ring hierarchies; one remote transaction per");
    println!("{think} of compute; columns are (simulated / modelled).");
    println!("{:-<78}", "");
    println!(
        "{:<9} {:>9} | {:>21} | {:>21}",
        "topology", "locality", "latency ns (sim/mod)", "global util % (s/m)"
    );
    for (rings, per) in [(4usize, 16usize), (8, 8), (16, 4)] {
        let topo = RingTopology::two_level(rings, per)?;
        for locality in [topo.uniform_locality(), 0.5, 0.9] {
            // Simulate.
            let mut cfg = HierNetConfig::new(topo.clone());
            cfg.think_time = think;
            cfg.locality = locality;
            cfg.txns_per_node = 200;
            let sim = HierNetSim::new(cfg)?.run();
            // Model the same closed loop: one remote transaction per data
            // reference, one reference per `think` of compute.
            let input = ModelInput {
                procs: rings * per,
                instr_per_data: 0.0,
                freqs: ClassFreqs { read_clean_remote: 1.0, ..ClassFreqs::default() },
            };
            let model =
                HierRingModel::new(topo.clone())?.with_locality(locality).evaluate(&input, think);
            println!(
                "{:<9} {:>8.0}% | {:>9.0} / {:>9.0} | {:>9.1} / {:>9.1}",
                format!("{rings}x{per}"),
                100.0 * locality,
                sim.latency.mean(),
                model.miss_latency_ns,
                100.0 * sim.global_util,
                100.0 * model.block_util,
            );
        }
    }
    println!();
    println!("higher home locality keeps traffic off the global ring and shortens paths;");
    println!("the analytic model tracks the slot-level simulation across the sweep.");
    Ok(())
}
