//! The `Simulator` trait refactor must be a pure reorganisation: for every
//! backend, building through the [`SimKind`] registry and running through
//! the trait produces a report byte-identical (after serialisation) to the
//! pre-refactor direct-call path.

use ringsim_core::{
    BusSystem, BusSystemConfig, HierNetConfig, HierNetSim, RingSystem, RunOptions, SimKind,
    SimReport, SimSpec, SystemConfig,
};
use ringsim_proto::ProtocolKind;
use ringsim_ring::RingTopology;
use ringsim_trace::{Workload, WorkloadSpec};
use ringsim_types::Time;

const PROCS: usize = 8;
const REFS: u64 = 4_000;

fn workload() -> Workload {
    Workload::new(WorkloadSpec::demo(PROCS).with_refs(REFS)).expect("workload")
}

fn spec() -> SimSpec {
    SimSpec::new(workload())
}

fn via_trait(kind: SimKind) -> SimReport {
    let mut sim = kind.build(&spec()).expect("build");
    sim.run(&RunOptions::default()).report
}

fn assert_identical(kind: SimKind, direct: &SimReport) {
    let trait_report = via_trait(kind);
    assert_eq!(&trait_report, direct, "{} report mismatch", kind.name());
    let a = serde_json::to_string_pretty(&trait_report).expect("json");
    let b = serde_json::to_string_pretty(direct).expect("json");
    assert_eq!(a, b, "{} serialised report mismatch", kind.name());
}

#[test]
fn ring_backends_match_direct_calls() {
    for (kind, cfg) in [
        (SimKind::Ring500, SystemConfig::ring_500mhz(ProtocolKind::Snooping, PROCS)),
        (SimKind::Ring250, SystemConfig::ring_250mhz(ProtocolKind::Snooping, PROCS)),
    ] {
        let cfg = cfg.with_proc_cycle(Time::from_ns(20));
        let direct = RingSystem::new(cfg, workload()).expect("system").run();
        assert_identical(kind, &direct);
    }
}

#[test]
fn bus_backends_match_direct_calls() {
    for (kind, cfg) in [
        (SimKind::Bus50, BusSystemConfig::bus_50mhz(PROCS)),
        (SimKind::Bus100, BusSystemConfig::bus_100mhz(PROCS)),
    ] {
        let cfg = cfg.with_proc_cycle(Time::from_ns(20));
        let direct = BusSystem::new(cfg, workload()).expect("system").run();
        assert_identical(kind, &direct);
    }
}

#[test]
fn hier_backend_matches_direct_calls() {
    // Mirror `SimKind::build`'s topology/budget derivation by hand: the
    // most balanced split of 8 processors and one transaction per ~50
    // references.
    let mut cfg = HierNetConfig::new(RingTopology::two_level(2, 4).expect("topology"));
    cfg.txns_per_node = (REFS / 50).max(1);
    let mut sim = HierNetSim::new(cfg).expect("system");
    let rep = sim.run();
    let direct = sim.sim_report(&rep);
    assert_identical(SimKind::Hier, &direct);
}
