//! Scripted coherence scenarios, staged through hand-written traces and
//! replayed on every backend that classifies coherence events: the
//! snooping ring, the directory ring, the bus, the SCI ring and the untimed
//! reference interpreter. Each scenario pins the block's home node
//! (private-region addresses carry their home), sequences the processors
//! with padding references, and asserts each backend's exact Fig. 5 event
//! bucket and final cache states.

use ringsim::cache::LineState;
use ringsim::core::{
    BusSystem, BusSystemConfig, RingSystem, SciRingSystem, SciSystemConfig, SystemConfig,
};
use ringsim::proto::ProtocolKind;
use ringsim::trace::{AddressSpace, RecordedTrace, RefInterpreter, BLOCK_BYTES};
use ringsim::types::{AccessKind, BlockAddr, CoherenceEvents, MemRef, NodeId, Region};

const PROCS: usize = 4;
const SEED: u64 = 0x5eed_9a9e; // placement seed used by RecordedTrace::from_refs below

fn space() -> AddressSpace {
    AddressSpace::new(PROCS, SEED)
}

/// A shared-region reference to a block whose home is pinned at `home`
/// (private-region address layout carries the home; the region tag drives
/// event classification).
fn shared_ref(node: usize, home: usize, idx: u64, kind: AccessKind) -> MemRef {
    MemRef {
        node: NodeId::new(node),
        addr: space().private_addr(NodeId::new(home), idx),
        kind,
        region: Region::Shared,
    }
}

/// A private padding reference (local home, quickly becomes a cache hit).
fn pad(node: usize) -> MemRef {
    MemRef {
        node: NodeId::new(node),
        addr: space().private_addr(NodeId::new(node), 7),
        kind: AccessKind::Read,
        region: Region::Private,
    }
}

fn block_of(r: MemRef) -> BlockAddr {
    r.addr.block(BLOCK_BYTES)
}

/// Builds the scripted workload. The simulators give every node the same
/// reference budget (the shortest recording), so all nodes are padded to
/// equal length with trailing private reads — which leave the staged state
/// untouched.
fn scripted(mut per_node: Vec<Vec<MemRef>>) -> RecordedTrace {
    let longest = per_node.iter().map(Vec::len).max().unwrap_or(1).max(1);
    for (n, refs) in per_node.iter_mut().enumerate() {
        while refs.len() < longest {
            refs.push(pad(n));
        }
    }
    RecordedTrace::from_refs(per_node, SEED, 0.0).unwrap()
}

/// One backend's outcome of a scripted run.
struct Run {
    backend: &'static str,
    events: CoherenceEvents,
    /// Node `n`'s final state for a block.
    state: Box<dyn Fn(usize, BlockAddr) -> LineState>,
}

/// Replays `trace` on every backend. The reference interpreter, which has
/// no clock, takes the nodes' references round-robin, one per node in turn.
fn every_backend(trace: &RecordedTrace) -> Vec<Run> {
    let mut runs = Vec::new();
    for protocol in [ProtocolKind::Snooping, ProtocolKind::Directory] {
        let cfg = SystemConfig::ring_500mhz(protocol, PROCS);
        let mut sys = RingSystem::new(cfg, trace.workload_with_warmup(0)).unwrap();
        let events = sys.run().events;
        sys.check_coherence().unwrap();
        runs.push(Run {
            backend: protocol.name(),
            events,
            state: Box::new(move |n, b| sys.cache_state(n, b)),
        });
    }
    let mut bus =
        BusSystem::new(BusSystemConfig::bus_100mhz(PROCS), trace.workload_with_warmup(0)).unwrap();
    let events = bus.run().events;
    runs.push(Run { backend: "bus", events, state: Box::new(move |n, b| bus.cache_state(n, b)) });
    let mut sci =
        SciRingSystem::new(SciSystemConfig::sci_500mhz(PROCS), trace.workload_with_warmup(0))
            .unwrap();
    let events = sci.run().events;
    runs.push(Run { backend: "sci", events, state: Box::new(move |n, b| sci.cache_state(n, b)) });
    let mut interp = RefInterpreter::new(PROCS, space()).unwrap();
    for k in 0..trace.node_refs(0).len() {
        for n in 0..PROCS {
            interp.process(trace.node_refs(n)[k]);
        }
    }
    interp.check_invariants().unwrap();
    runs.push(Run {
        backend: "interp",
        events: interp.events(),
        state: Box::new(move |n, b| interp.caches()[n].state_of(b)),
    });
    runs
}

/// Clean remote read: P0 reads a block homed at P2 that nobody caches.
#[test]
fn clean_remote_read_miss() {
    let r = shared_ref(0, 2, 100, AccessKind::Read);
    let b = block_of(r);
    let trace = scripted(vec![vec![r], vec![], vec![], vec![]]);
    for Run { backend, events: e, state } in every_backend(&trace) {
        assert_eq!(e.read_clean_remote, 1, "{backend}");
        assert_eq!(e.shared_misses(), 1, "{backend}");
        assert_eq!(state(0, b), LineState::Rs, "{backend}");
    }
}

/// Local clean read: P0 reads a block homed at itself — no interconnect.
#[test]
fn local_clean_read_miss() {
    let r = shared_ref(0, 0, 101, AccessKind::Read);
    let trace = scripted(vec![vec![r], vec![], vec![], vec![]]);
    for Run { backend, events: e, state } in every_backend(&trace) {
        assert_eq!(e.read_clean_local, 1, "{backend}");
        assert_eq!(e.shared_misses(), 1, "{backend}");
        assert_eq!(state(0, block_of(r)), LineState::Rs, "{backend}");
    }
}

/// Dirty read miss: P1 writes a block homed at P2, then P0 reads it —
/// the dirty node supplies, both end up read-shared. P1 lies on P0's path
/// to the home, so the ring backends pay two traversals.
#[test]
fn dirty_read_miss_downgrades_owner() {
    let w = shared_ref(1, 2, 102, AccessKind::Write);
    let r = shared_ref(0, 2, 102, AccessKind::Read);
    let b = block_of(r);
    // P0 pads long enough for P1's write to commit first.
    let mut p0 = vec![pad(0); 60];
    p0.push(r);
    let trace = scripted(vec![p0, vec![w], vec![], vec![]]);
    for Run { backend, events: e, state } in every_backend(&trace) {
        assert_eq!(e.write_nosharers_remote, 1, "{backend}: P1's write miss");
        assert_eq!(e.read_dirty_2, 1, "{backend}: P0's read must find the block dirty ({e:#?})");
        assert_eq!(e.shared_misses(), 2, "{backend}");
        assert_eq!(state(0, b), LineState::Rs, "{backend}");
        assert_eq!(state(1, b), LineState::Rs, "{backend}: owner downgraded");
    }
}

/// Dirty read miss whose owner is the block's home: P2 writes a block homed
/// at itself, then P0 reads it. Four backends call this a 1-cycle dirty
/// miss. SCI calls it 2-cycle: its message path names the home twice in a
/// row (home, then the home as list head), and
/// `RingLayout::closed_path_traversals` counts that hop as a full
/// revolution (the `closed_path_traversals` FOUND in CHANGES.md). This pins
/// today's answers.
#[test]
fn dirty_read_miss_owned_by_the_home() {
    let w = shared_ref(2, 2, 104, AccessKind::Write);
    let r = shared_ref(0, 2, 104, AccessKind::Read);
    let b = block_of(r);
    let mut p0 = vec![pad(0); 60];
    p0.push(r);
    let trace = scripted(vec![p0, vec![], vec![w], vec![]]);
    for Run { backend, events: e, state } in every_backend(&trace) {
        assert_eq!(e.write_nosharers_local, 1, "{backend}: P2's write miss");
        let (one, two) = if backend == "sci" { (0, 1) } else { (1, 0) };
        assert_eq!((e.read_dirty_1, e.read_dirty_2), (one, two), "{backend} ({e:#?})");
        assert_eq!(e.shared_misses(), 2, "{backend}");
        assert_eq!(state(0, b), LineState::Rs, "{backend}");
        assert_eq!(state(2, b), LineState::Rs, "{backend}: owner downgraded");
    }
}

/// Upgrade with a sharer: P1 reads, later P0 (who read first) writes.
#[test]
fn upgrade_invalidates_sharers() {
    let b_home = 2;
    let r0 = shared_ref(0, b_home, 103, AccessKind::Read);
    let w0 = shared_ref(0, b_home, 103, AccessKind::Write);
    let r1 = shared_ref(1, b_home, 103, AccessKind::Read);
    let b = block_of(r0);
    // P0: read, long pad, write. P1: short pad, read (lands between).
    let mut p0 = vec![r0];
    p0.extend(vec![pad(0); 60]);
    p0.push(w0);
    let mut p1 = vec![pad(1); 10];
    p1.push(r1);
    let trace = scripted(vec![p0, p1, vec![], vec![]]);
    for Run { backend, events: e, state } in every_backend(&trace) {
        assert_eq!(e.read_clean_remote, 2, "{backend}");
        assert_eq!(e.upgrade_sharers_remote, 1, "{backend}: upgrade must see P1's copy ({e:#?})");
        assert_eq!(e.upgrades(), 1, "{backend}");
        assert_eq!(e.invalidated_copies, 1, "{backend}");
        assert_eq!(state(0, b), LineState::We, "{backend}");
        assert_eq!(state(1, b), LineState::Inv, "{backend}");
    }
}

/// Dirty eviction: P0 dirties two blocks that collide in its cache; the
/// second fill writes the first back to its (remote) home. SCI counts no
/// write-backs at all (a FOUND in CHANGES.md); this pins today's answer.
#[test]
fn dirty_eviction_writes_back() {
    // Same cache line: block indices 8192 apart within P2's region.
    let w1 = shared_ref(0, 2, 300, AccessKind::Write);
    let w2 = shared_ref(0, 2, 300 + 8192, AccessKind::Write);
    assert_eq!(
        block_of(w1).raw() % 8192,
        block_of(w2).raw() % 8192,
        "must alias the same direct-mapped line"
    );
    let mut p0 = vec![w1];
    p0.extend(vec![pad(0); 40]);
    p0.push(w2);
    let trace = scripted(vec![p0, vec![], vec![], vec![]]);
    for Run { backend, events: e, state } in every_backend(&trace) {
        assert_eq!(e.write_nosharers_remote, 2, "{backend} ({e:#?})");
        if backend == "sci" {
            assert_eq!(e.writebacks(), 0, "{backend} ({e:#?})");
        } else {
            assert_eq!(e.writeback_remote, 1, "{backend} ({e:#?})");
            assert_eq!(e.writebacks(), 1, "{backend} ({e:#?})");
        }
        assert_eq!(state(0, block_of(w1)), LineState::Inv, "{backend}");
        assert_eq!(state(0, block_of(w2)), LineState::We, "{backend}");
    }
}

/// Write-back then re-read: after P0's dirty victim drains to the home,
/// a read by another node is a *clean* miss again.
#[test]
fn writeback_restores_clean_home() {
    let w1 = shared_ref(0, 2, 400, AccessKind::Write);
    let w2 = shared_ref(0, 2, 400 + 8192, AccessKind::Write);
    let r3 = shared_ref(3, 2, 400, AccessKind::Read);
    let mut p0 = vec![w1];
    p0.extend(vec![pad(0); 40]);
    p0.push(w2);
    // P3 waits long enough for the write-back to land, then reads w1's block.
    let mut p3 = vec![pad(3); 200];
    p3.push(r3);
    let trace = scripted(vec![p0, vec![], vec![], p3]);
    for Run { backend, events: e, state } in every_backend(&trace) {
        assert_eq!(
            e.read_clean_remote, 1,
            "{backend}: read after write-back must be clean ({e:#?})"
        );
        assert_eq!(e.shared_read_misses(), 1, "{backend}");
        assert_eq!(state(3, block_of(r3)), LineState::Rs, "{backend}");
    }
}

/// Racing upgrades: P0 and P1 both hold the block read-shared and write at
/// the same moment. Exactly one may win; the loser converts to a write
/// miss; the final state has a single owner.
#[test]
fn racing_upgrades_leave_one_owner() {
    let home = 2;
    let r0 = shared_ref(0, home, 500, AccessKind::Read);
    let r1 = shared_ref(1, home, 500, AccessKind::Read);
    let w0 = shared_ref(0, home, 500, AccessKind::Write);
    let w1 = shared_ref(1, home, 500, AccessKind::Write);
    let b = block_of(r0);
    let mut p0 = vec![r0];
    p0.extend(vec![pad(0); 40]);
    p0.push(w0);
    let mut p1 = vec![r1];
    p1.extend(vec![pad(1); 40]);
    p1.push(w1);
    let trace = scripted(vec![p0, p1, vec![], vec![]]);
    for Run { backend, events: e, state } in every_backend(&trace) {
        let owners = (0..PROCS).filter(|&n| state(n, b) == LineState::We).count();
        assert_eq!(owners, 1, "{backend}: exactly one writer must survive ({e:#?})");
        assert_eq!(
            e.upgrades() + e.shared_write_misses(),
            2,
            "{backend}: both writes must be accounted ({e:#?})"
        );
    }
}

/// Write miss on a block with multiple readers: the multicast/broadcast
/// invalidates them all.
#[test]
fn write_miss_invalidates_all_readers() {
    let home = 3;
    let b_idx = 600;
    let b = block_of(shared_ref(0, home, b_idx, AccessKind::Read));
    let readers: Vec<Vec<MemRef>> =
        (0..3).map(|n| vec![shared_ref(n, home, b_idx, AccessKind::Read)]).collect();
    let mut p3 = vec![pad(3); 80];
    p3.push(shared_ref(3, home, b_idx, AccessKind::Write));
    let mut per_node = readers;
    per_node.push(p3);
    let trace = scripted(per_node);
    for Run { backend, events: e, state } in every_backend(&trace) {
        // P3's write is a local-home miss with sharers.
        assert_eq!(e.write_sharers_local, 1, "{backend} ({e:#?})");
        assert_eq!(e.shared_write_misses(), 1, "{backend}");
        assert!(e.invalidated_copies >= 3, "{backend}: all readers invalidated");
        for n in 0..3 {
            assert_eq!(state(n, b), LineState::Inv, "{backend} P{n}");
        }
        assert_eq!(state(3, b), LineState::We, "{backend}");
    }
}

/// Dirty write miss: P1 writes a block homed at P2, then P0 writes it. The
/// ring backends count no invalidated copy for it (the dirty owner hands
/// its copy over); the bus, SCI and the reference interpreter count the
/// owner's copy as invalidated. This pins today's answers.
#[test]
fn dirty_write_miss_takes_ownership() {
    let w1 = shared_ref(1, 2, 105, AccessKind::Write);
    let w0 = shared_ref(0, 2, 105, AccessKind::Write);
    let b = block_of(w0);
    let mut p0 = vec![pad(0); 60];
    p0.push(w0);
    let trace = scripted(vec![p0, vec![w1], vec![], vec![]]);
    for Run { backend, events: e, state } in every_backend(&trace) {
        assert_eq!(e.write_nosharers_remote, 1, "{backend}: P1's write miss");
        assert_eq!(e.write_dirty_2, 1, "{backend} ({e:#?})");
        assert_eq!(e.shared_write_misses(), 2, "{backend}");
        let invalidated = u64::from(!matches!(backend, "snooping" | "directory"));
        assert_eq!(e.invalidated_copies, invalidated, "{backend}");
        assert_eq!(state(0, b), LineState::We, "{backend}");
        assert_eq!(state(1, b), LineState::Inv, "{backend}");
    }
}

/// Private read, then write: a private miss, then an upgrade with no
/// sharers at the local home. P0's read is its padding block, so each node
/// pays exactly one private miss.
#[test]
fn private_upgrade_is_local_and_unshared() {
    let w = MemRef { kind: AccessKind::Write, ..pad(0) };
    let trace = scripted(vec![vec![pad(0), w], vec![], vec![], vec![]]);
    for Run { backend, events: e, state } in every_backend(&trace) {
        assert_eq!(e.private_misses, PROCS as u64, "{backend} ({e:#?})");
        assert_eq!(e.upgrade_nosharers_local, 1, "{backend}");
        assert_eq!((e.shared_misses(), e.upgrades(), e.invalidated_copies), (0, 1, 0), "{backend}");
        assert_eq!(state(0, block_of(w)), LineState::We, "{backend}");
    }
}
