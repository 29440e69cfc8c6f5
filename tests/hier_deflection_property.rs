//! Deflection routing never loses work: across random topology shapes,
//! bridge depths (including the bufferless latch) and workload seeds, every
//! injected transaction completes. A deflected message re-circulates on its
//! current ring instead of being dropped, and the age-based reserved-slot
//! priority guarantees it eventually wins a bridge slot — so completion of
//! the full budget is exactly the no-drop/no-livelock property (the engine
//! panics if a run exceeds its runaway cycle bound, so a livelock cannot
//! pass as a hang).

use proptest::prelude::*;

use ringsim::core::{HierNetConfig, HierNetSim};
use ringsim::ring::{RingConfig, RingTopology};
use ringsim::types::Time;

/// The topology shapes the property sweeps: flat, two-level and three-level
/// trees small enough to keep 96 contended runs fast.
const SHAPES: [&[usize]; 5] = [&[6], &[2, 2], &[4, 2], &[2, 2, 2], &[3, 2, 2]];

fn run_shape(shape: &[usize], bridge_buffer: usize, seed: u64, locality: f64) -> (u64, u64, u64) {
    let topo = RingTopology::from_shape(shape, RingConfig::standard_500mhz(2)).unwrap();
    let mut cfg = HierNetConfig::new(topo);
    // Short think time at low locality keeps the bridges contended, which
    // is the regime deflection exists for.
    cfg.think_time = Time::from_ns(150);
    cfg.locality = locality;
    cfg.txns_per_node = 25;
    cfg.seed = seed;
    cfg.bridge_buffer = Some(bridge_buffer);
    let procs: usize = shape.iter().product();
    let report = HierNetSim::new(cfg).unwrap().run();
    (report.completed, (procs as u64) * 25, report.deflections)
}

proptest! {
    /// Random shape × bridge depth × seed: the full transaction budget
    /// always completes, and unbounded-equivalent checks stay deflection-free.
    #[test]
    fn deflection_completes_every_transaction(seed in 0u64..10_000) {
        let shape = SHAPES[(seed % SHAPES.len() as u64) as usize];
        // Depth 0 is the bufferless latch — the most deflection-prone mode.
        let depth = ((seed / 8) % 3) as usize;
        let locality = [0.0, 0.25, 0.5][((seed / 24) % 3) as usize];
        let (completed, budget, _) = run_shape(shape, depth, seed, locality);
        prop_assert_eq!(completed, budget, "shape {:?} depth {} lost transactions", shape, depth);
    }

    /// The same runs repeated give the same deflection counts (deflection
    /// arbitration is deterministic, not timing-dependent).
    #[test]
    fn deflection_counts_are_deterministic(seed in 0u64..100) {
        let shape = SHAPES[(seed % SHAPES.len() as u64) as usize];
        let a = run_shape(shape, 0, seed, 0.0);
        let b = run_shape(shape, 0, seed, 0.0);
        prop_assert_eq!(a, b);
    }
}

/// Flat shapes have no bridges, so nothing can deflect regardless of the
/// configured depth.
#[test]
fn flat_topologies_never_deflect() {
    let (completed, budget, deflections) = run_shape(&[6], 0, 7, 0.0);
    assert_eq!(completed, budget);
    assert_eq!(deflections, 0);
}
