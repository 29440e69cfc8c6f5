//! The runtime coherence sanitizer never fires on healthy simulations.
//!
//! The sanitizer re-checks the single-writer/multiple-reader invariant (and
//! the bus/hier-net conservation laws) at every transaction-retire boundary.
//! These tests force it on through `RunOptions::sanitize` — release builds
//! included — and drive all three interconnects across workload seeds: the
//! slotted ring under snooping, the full-map directory and the SCI
//! linked-list directory (`sci500`), and the bus under MSI and under the
//! engine-driven MESI and Dragon (`bus50-mesi`, `bus50-dragon`); any
//! violation panics inside the run.
//!
//! The complementary direction — that the checks *do* fire on a broken
//! protocol — is covered by the injected-fault model-checker tests in
//! `ringsim-check` (`--inject skip-invalidate` et al.) and the unit tests in
//! `ringsim-core::sanitize`.

use proptest::prelude::*;

use ringsim::core::{
    BusProtocol, BusSystem, BusSystemConfig, HierNetConfig, HierNetSim, RingSystem, RunOptions,
    SciRingSystem, SciSystemConfig, SimReport, Simulator, SystemConfig,
};
use ringsim::proto::ProtocolKind;
use ringsim::ring::RingTopology;
use ringsim::trace::{Workload, WorkloadSpec};

fn workload(procs: usize, refs: u64, seed: u64) -> Workload {
    // Short warmup keeps the 96-case property loop fast; the sanitizer sees
    // every retire either way.
    let mut spec = WorkloadSpec::demo(procs).with_seed(seed);
    spec.data_refs_per_proc = refs;
    spec.warmup_refs_per_proc = refs / 4;
    Workload::new(spec).unwrap()
}

/// Runs `sim` with the sanitizer forced on.
fn sanitized(mut sim: impl Simulator) -> SimReport {
    sim.run(&RunOptions { sanitize: true, ..RunOptions::default() }).report
}

/// The bus configurations under test: `bus100` (MSI), `bus50-mesi` and
/// `bus50-dragon`.
fn buses(procs: usize) -> [BusSystemConfig; 3] {
    [
        BusSystemConfig::bus_100mhz(procs),
        BusSystemConfig::bus_50mhz(procs).with_protocol(BusProtocol::Mesi),
        BusSystemConfig::bus_50mhz(procs).with_protocol(BusProtocol::Dragon),
    ]
}

#[test]
fn sanitizer_is_quiet_on_all_interconnects() {
    for procs in [4, 8] {
        for protocol in [ProtocolKind::Snooping, ProtocolKind::Directory] {
            let cfg = SystemConfig::ring_500mhz(protocol, procs);
            let report = sanitized(RingSystem::new(cfg, workload(procs, 2_000, 7)).unwrap());
            assert_eq!(report.events.data_refs(), (procs as u64) * 2_000);
        }
        let cfg = SciSystemConfig::sci_500mhz(procs);
        let report = sanitized(SciRingSystem::new(cfg, workload(procs, 2_000, 7)).unwrap());
        assert_eq!(report.events.data_refs(), (procs as u64) * 2_000, "{}", report.protocol);
        for cfg in buses(procs) {
            let report = sanitized(BusSystem::new(cfg, workload(procs, 2_000, 7)).unwrap());
            assert_eq!(report.events.data_refs(), (procs as u64) * 2_000, "{}", report.protocol);
        }
    }
    // The hierarchy simulator has no caches; its sanitizer check is the
    // transaction conservation law.
    let mut cfg = HierNetConfig::new(RingTopology::two_level(4, 2).unwrap());
    cfg.txns_per_node = 200;
    let report = sanitized(HierNetSim::new(cfg).unwrap());
    assert!(report.miss_latency.mean() > 0.0);
}

proptest! {
    /// Random workload seeds: the retire-time SWMR check stays quiet for
    /// the three ring protocols and the three bus protocols, alternating 4
    /// and 8 nodes.
    #[test]
    fn sanitizer_never_fires_across_seeds(seed in 0u64..10_000) {
        let procs = if seed % 2 == 0 { 4 } else { 8 };
        for protocol in [ProtocolKind::Snooping, ProtocolKind::Directory] {
            let cfg = SystemConfig::ring_500mhz(protocol, procs);
            let report = sanitized(RingSystem::new(cfg, workload(procs, 400, seed)).unwrap());
            prop_assert!(report.proc_util > 0.0);
        }
        let cfg = SciSystemConfig::sci_500mhz(procs);
        let report = sanitized(SciRingSystem::new(cfg, workload(procs, 400, seed)).unwrap());
        prop_assert!(report.proc_util > 0.0, "{}", report.protocol);
        for cfg in buses(procs) {
            let report = sanitized(BusSystem::new(cfg, workload(procs, 400, seed)).unwrap());
            prop_assert!(report.proc_util > 0.0, "{}", report.protocol);
        }
    }
}
