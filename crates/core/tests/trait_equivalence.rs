//! The `Simulator` trait refactor must be a pure reorganisation: for every
//! backend, building through the [`SimKind`] registry and running through
//! the trait produces a report byte-identical (after serialisation) to the
//! pre-refactor direct-call path.

use ringsim_core::{
    BusSystem, BusSystemConfig, HierNetConfig, HierNetSim, RingSystem, RunOptions, SciRingSystem,
    SciSystemConfig, SimKind, SimReport, SimSpec, SystemConfig,
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
    // The SCI linked-list directory runs on the same ring geometries.
    for (kind, cfg) in [
        (SimKind::Sci500, SciSystemConfig::sci_500mhz(PROCS)),
        (SimKind::Sci250, SciSystemConfig::sci_250mhz(PROCS)),
    ] {
        let cfg = cfg.with_proc_cycle(Time::from_ns(20));
        let direct = SciRingSystem::new(cfg, workload()).expect("system").run();
        assert_identical(kind, &direct);
    }
}

#[test]
fn bus_backends_match_direct_calls() {
    for (kind, cfg) in [
        (SimKind::Bus50, BusSystemConfig::bus_50mhz(PROCS)),
        (SimKind::Bus100, BusSystemConfig::bus_100mhz(PROCS)),
        (SimKind::Bus50Mesi, BusSystemConfig::bus_50mhz(PROCS).with_protocol(ProtocolKind::Mesi)),
        (
            SimKind::Bus50Dragon,
            BusSystemConfig::bus_50mhz(PROCS).with_protocol(ProtocolKind::Dragon),
        ),
    ] {
        let cfg = cfg.with_proc_cycle(Time::from_ns(20));
        let direct = BusSystem::new(cfg, workload()).expect("system").run();
        assert_identical(kind, &direct);
    }
}

#[test]
fn hier_backend_matches_direct_calls() {
    // Mirror `SimKind::build`'s topology/budget derivation by hand: the
    // most balanced split of 8 processors (2 × 4 at two levels, 2 × 2 × 2
    // at three), one transaction per ~50 references, and a two-entry
    // deflecting bridge for `hier-deflect`.
    for (kind, topo, bridge_buffer) in [
        (SimKind::Hier, RingTopology::two_level(2, 4), None),
        (SimKind::Hier3, RingTopology::three_level(2, 2, 2), None),
        (SimKind::HierDeflect, RingTopology::two_level(2, 4), Some(2)),
    ] {
        let mut cfg = HierNetConfig::new(topo.expect("topology"));
        cfg.txns_per_node = (REFS / 50).max(1);
        cfg.bridge_buffer = bridge_buffer;
        let mut sim = HierNetSim::new(cfg).expect("system");
        let rep = sim.run();
        let direct = sim.sim_report(&rep);
        assert_identical(kind, &direct);
    }
}
