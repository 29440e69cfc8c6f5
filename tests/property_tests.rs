//! Property-based tests over the core invariants, spanning crates.

use proptest::prelude::*;

use ringsim::cache::{Cache, CacheConfig, LineState};
use ringsim::ring::{RingConfig, SlotRing};
use ringsim::trace::{RefInterpreter, Workload, WorkloadSpec};
use ringsim::types::rng::Xoshiro256;
use ringsim::types::{AccessKind, BlockAddr, NodeId, Time};

proptest! {
    /// Ring geometry: distances compose and traversal counts are whole.
    #[test]
    fn ring_distance_composition(nodes in 2usize..=64, a in 0usize..64, b in 0usize..64, c in 0usize..64) {
        let a = a % nodes;
        let b = b % nodes;
        let c = c % nodes;
        let layout = RingConfig::standard_500mhz(nodes).layout().unwrap();
        let (na, nb, nc) = (NodeId::new(a), NodeId::new(b), NodeId::new(c));
        // Any closed tour is a whole number of revolutions ≥ 1.
        let t = layout.closed_path_traversals([na, nb, nc]);
        prop_assert!(t >= 1);
        let s = layout.stages();
        let total = layout.stage_distance(na, nb)
            + layout.stage_distance(nb, nc)
            + layout.stage_distance(nc, na);
        prop_assert_eq!(total % s, 0);
        prop_assert_eq!(total / s, t);
    }

    /// Message conservation on the slotted ring: whatever is inserted is
    /// either still in flight or has been removed.
    #[test]
    fn slot_ring_conserves_messages(seed in 0u64..1000, nodes in 2usize..=16, steps in 50usize..400) {
        let mut ring: SlotRing<u64> = SlotRing::new(RingConfig::standard_500mhz(nodes)).unwrap();
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut next_tag = 0u64;
        let mut outstanding = std::collections::HashSet::new();
        for _ in 0..steps {
            for n in 0..nodes {
                let node = NodeId::new(n);
                if let Some(slot) = ring.arrival(node) {
                    if ring.peek(slot).is_some() {
                        if rng.chance(0.5) {
                            let tag = ring.remove(slot, node);
                            prop_assert!(outstanding.remove(&tag), "removed unknown message");
                        }
                    } else if rng.chance(0.3) {
                        let tag = next_tag;
                        next_tag += 1;
                        if ring.try_insert(slot, node, tag).is_ok() {
                            outstanding.insert(tag);
                        }
                    }
                }
            }
            ring.advance();
        }
        prop_assert_eq!(ring.in_flight(), outstanding.len());
        let st = ring.stats();
        prop_assert_eq!(st.inserted - st.removed, outstanding.len() as u64);
    }

    /// The cache never reports more valid lines than it has slots, and
    /// fills/evictions keep the direct-mapped invariant (at most one block
    /// per line index).
    #[test]
    fn cache_valid_lines_bounded(ops in prop::collection::vec((0u64..4096, any::<bool>()), 1..300)) {
        let cfg = CacheConfig { size_bytes: 1024, block_bytes: 16 }; // 64 lines
        let mut cache = Cache::new(cfg).unwrap();
        for (block, write) in ops {
            let b = BlockAddr::new(block);
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            match cache.classify(b, kind) {
                ringsim::cache::AccessClass::Miss => {
                    let st = if write { LineState::We } else { LineState::Rs };
                    cache.fill(b, st);
                }
                ringsim::cache::AccessClass::Upgrade => {
                    cache.promote(b);
                }
                ringsim::cache::AccessClass::Hit => {}
            }
            prop_assert!(cache.valid_lines() <= 64);
        }
        // Every resident block maps to a distinct line index.
        let mut lines: Vec<u64> = cache.resident_blocks().map(|(b, _)| b.raw() % 64).collect();
        let total = lines.len();
        lines.sort_unstable();
        lines.dedup();
        prop_assert_eq!(lines.len(), total);
    }

    /// Interpreter coherence invariants hold for arbitrary seeds and sizes.
    #[test]
    fn interpreter_invariants_hold(seed in 0u64..500, procs in 2usize..=8) {
        let spec = WorkloadSpec::demo(procs).with_refs(1_500).with_seed(seed);
        let mut w = Workload::new(spec).unwrap();
        let mut interp = RefInterpreter::new(procs, w.space()).unwrap();
        for r in w.round_robin(1_000) {
            interp.process(r);
        }
        prop_assert!(interp.check_invariants().is_ok());
    }

    /// Time arithmetic: cycles() and multiplication are consistent.
    #[test]
    fn time_cycle_roundtrip(period_ps in 1u64..100_000, n in 0u64..10_000) {
        let period = Time::from_ps(period_ps);
        let total = period * n;
        prop_assert_eq!(total.cycles(period), n);
        prop_assert!(total.as_ps() == period_ps * n);
    }

    /// Snooping probe inter-arrival (Table 3 closed form) always equals the
    /// frame length times the clock period.
    #[test]
    fn snoop_interarrival_is_frame_time(
        link_pow in 1u32..=3,
        block_pow in 4u32..=7,
        period_ns in 1u64..=8,
    ) {
        let cfg = RingConfig {
            link_bytes: 1 << link_pow,
            block_bytes: 1 << block_pow,
            clock_period: Time::from_ns(period_ns),
            ..RingConfig::standard_500mhz(8)
        };
        prop_assert_eq!(
            cfg.snoop_interarrival().as_ps(),
            cfg.frame_stages() as u64 * cfg.clock_period.as_ps()
        );
    }
}
