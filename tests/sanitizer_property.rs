//! The runtime coherence sanitizer never fires on healthy simulations.
//!
//! The sanitizer re-checks the single-writer/multiple-reader invariant (and
//! the bus/hier-net conservation laws) at every transaction-retire boundary.
//! These tests force it on — release builds included — and drive all three
//! interconnects across workload seeds; any violation panics inside the run.
//!
//! The complementary direction — that the checks *do* fire on a broken
//! protocol — is covered by the injected-fault model-checker tests in
//! `ringsim-check` (`--inject skip-invalidate` et al.) and the unit tests in
//! `ringsim-core::sanitize`.

use proptest::prelude::*;

use ringsim::core::{
    set_sanitize_mode, BusSystem, BusSystemConfig, HierNetConfig, HierNetSim, RingSystem,
    SanitizeMode, SystemConfig,
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

#[test]
fn sanitizer_is_quiet_on_all_interconnects() {
    set_sanitize_mode(SanitizeMode::On);
    for procs in [4, 8] {
        for protocol in [ProtocolKind::Snooping, ProtocolKind::Directory] {
            let cfg = SystemConfig::ring_500mhz(protocol, procs);
            let report = RingSystem::new(cfg, workload(procs, 2_000, 7)).unwrap().run();
            assert_eq!(report.events.data_refs(), (procs as u64) * 2_000);
        }
        let cfg = BusSystemConfig::bus_100mhz(procs);
        let report = BusSystem::new(cfg, workload(procs, 2_000, 7)).unwrap().run();
        assert_eq!(report.events.data_refs(), (procs as u64) * 2_000);
    }
    // The hierarchy simulator has no caches; its sanitizer check is the
    // transaction conservation law.
    let mut cfg = HierNetConfig::new(RingTopology::two_level(4, 2).unwrap());
    cfg.txns_per_node = 200;
    let report = HierNetSim::new(cfg).unwrap().run();
    assert!(report.latency.mean() > 0.0);
}

proptest! {
    /// Random workload seeds: the retire-time SWMR check stays quiet for
    /// both ring protocols and the bus, alternating 4 and 8 nodes.
    #[test]
    fn sanitizer_never_fires_across_seeds(seed in 0u64..10_000) {
        set_sanitize_mode(SanitizeMode::On);
        let procs = if seed % 2 == 0 { 4 } else { 8 };
        for protocol in [ProtocolKind::Snooping, ProtocolKind::Directory] {
            let cfg = SystemConfig::ring_500mhz(protocol, procs);
            let report = RingSystem::new(cfg, workload(procs, 400, seed)).unwrap().run();
            prop_assert!(report.proc_util > 0.0);
        }
        let cfg = BusSystemConfig::bus_100mhz(procs);
        let report = BusSystem::new(cfg, workload(procs, 400, seed)).unwrap().run();
        prop_assert!(report.proc_util > 0.0);
    }
}
