//! The hierarchical analytic model against the message-level hierarchy
//! simulator: the closed-loop network simulation and the fixed-point model
//! must agree on latency and utilisation trends (and roughly on values).

use ringsim::analytic::{ClassFreqs, HierRingModel, ModelInput};
use ringsim::core::{HierNetConfig, HierNetSim};
use ringsim::ring::RingTopology;
use ringsim::types::Time;

/// Maps the network simulator's closed loop (think → one remote
/// transaction) onto the model's vocabulary: one data reference per
/// transaction, costing `think_time` of compute, always missing remotely.
fn model_input(procs: usize) -> ModelInput {
    ModelInput {
        procs,
        instr_per_data: 0.0,
        freqs: ClassFreqs { read_clean_remote: 1.0, ..ClassFreqs::default() },
    }
}

fn run_pair(rings: usize, per: usize, think_ns: u64, locality: f64) -> (f64, f64, f64, f64) {
    let topo = RingTopology::two_level(rings, per).unwrap();
    let mut cfg = HierNetConfig::new(topo.clone());
    cfg.think_time = Time::from_ns(think_ns);
    cfg.locality = locality;
    cfg.txns_per_node = 300;
    let sim = HierNetSim::new(cfg).unwrap().run();

    let model = HierRingModel::new(topo)
        .unwrap()
        .with_locality(locality)
        .evaluate(&model_input(rings * per), Time::from_ns(think_ns));
    (
        sim.latency.mean(),
        model.miss_latency_ns,
        sim.global_util,
        model.block_util, // global-ring utilisation in the hier model
    )
}

#[test]
fn latency_agrees_within_a_third_at_light_load() {
    for (rings, per, locality) in [(4usize, 4usize, 0.25), (4, 4, 0.8), (8, 4, 0.125)] {
        let (sim_lat, model_lat, _, _) = run_pair(rings, per, 2_000, locality);
        let rel = (sim_lat - model_lat).abs() / sim_lat;
        assert!(
            rel < 0.33,
            "{rings}x{per} loc {locality}: sim {sim_lat:.0} vs model {model_lat:.0} ({rel:.2})"
        );
    }
}

#[test]
fn both_see_global_ring_load_rise_with_remote_traffic() {
    let (_, _, sim_low, model_low) = run_pair(4, 4, 800, 0.9);
    let (_, _, sim_high, model_high) = run_pair(4, 4, 800, 0.1);
    assert!(sim_high > sim_low, "sim: {sim_high} vs {sim_low}");
    assert!(model_high > model_low, "model: {model_high} vs {model_low}");
}

#[test]
fn both_see_latency_rise_under_load() {
    let (sim_slow, model_slow, _, _) = run_pair(4, 4, 2_000, 0.25);
    let (sim_fast, model_fast, _, _) = run_pair(4, 4, 250, 0.25);
    assert!(sim_fast > sim_slow, "sim: {sim_fast} vs {sim_slow}");
    assert!(model_fast > model_slow, "model: {model_fast} vs {model_slow}");
}
