//! Scenario tests for the MSI/MESI/Dragon bus engine, driven through a minimal
//! host: plain caches, one block, and explicit E markers, owner, Sm owner
//! and dirty bit. The checker's exhaustive runs and the simulator's golden
//! digests cover the engine as a whole; these pin single steps.

use ringsim_cache::{Cache, CacheConfig, LineState};
use ringsim_proto::bus_engine::{grant, retire, write_hit, BusAction, BusHost, Grant};
use ringsim_proto::ring_engine::TxnKind;
use ringsim_proto::transitions::{DragonAction, MesiAction};
use ringsim_proto::ProtocolKind;
use ringsim_types::{BlockAddr, NodeId};
use LineState::{Inv, Rs, We};

const B: BlockAddr = BlockAddr::new(3);

struct Bench {
    protocol: ProtocolKind,
    caches: Vec<Cache>,
    excl: Vec<bool>,
    owner: Option<NodeId>,
    supplier: Option<NodeId>,
    dirty: bool,
}

impl Bench {
    fn new(protocol: ProtocolKind, nodes: usize) -> Self {
        let cfg = CacheConfig { size_bytes: 64, block_bytes: 16 };
        Self {
            protocol,
            caches: (0..nodes).map(|_| Cache::new(cfg).unwrap()).collect(),
            excl: vec![false; nodes],
            owner: None,
            supplier: None,
            dirty: false,
        }
    }

    /// Grants `node`'s `kind` and fills the line as a host must.
    fn serve(&mut self, node: usize, kind: TxnKind) -> Grant {
        let g = grant(self, NodeId::new(node), B, kind);
        if let Some(state) = g.fill {
            self.caches[node].fill(B, state);
        }
        g
    }

    fn states(&self) -> Vec<LineState> {
        self.caches.iter().map(|c| c.state_of(B)).collect()
    }
}

impl BusHost for Bench {
    fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    fn caches(&mut self) -> &mut [Cache] {
        &mut self.caches
    }

    fn present(&self, _block: BlockAddr) -> u64 {
        (1 << self.caches.len()) - 1
    }

    fn exclusive(&self, node: NodeId, _block: BlockAddr) -> bool {
        self.excl[node.index()]
    }

    fn set_exclusive(&mut self, node: NodeId, _block: BlockAddr, exclusive: bool) {
        self.excl[node.index()] = exclusive;
    }

    fn owner(&self, _block: BlockAddr) -> Option<NodeId> {
        self.owner.or(self.supplier)
    }

    fn set_supplier(&mut self, _block: BlockAddr, owner: Option<NodeId>) {
        self.supplier = owner;
    }

    fn set_dirty(&mut self, _block: BlockAddr, owner: Option<NodeId>) {
        self.dirty = owner.is_some();
        self.owner = owner;
    }
}

#[test]
fn mesi_read_fills_exclusive_then_promotes_silently() {
    let mut h = Bench::new(ProtocolKind::Mesi, 3);
    let g = h.serve(1, TxnKind::Read);
    assert_eq!(g.action, BusAction::Mesi(MesiAction::FillExclusive));
    assert_eq!((h.states(), h.excl[1], h.dirty), (vec![Inv, We, Inv], true, false));
    assert!(write_hit(&mut h, NodeId::new(1), B));
    assert_eq!((h.excl[1], h.owner), (false, Some(NodeId::new(1))));
    assert!(!write_hit(&mut h, NodeId::new(1), B), "a modified line has nothing to promote");

    // The owner supplies a reader and memory is refreshed.
    let g = h.serve(0, TxnKind::Read);
    assert_eq!(g.action, BusAction::Mesi(MesiAction::OwnerSuppliesShared));
    assert_eq!((h.states(), h.dirty), (vec![Rs, Rs, Inv], false));
}

#[test]
fn mesi_upgrade_dispatches_the_write_shared_hit_rule() {
    let mut h = Bench::new(ProtocolKind::Mesi, 3);
    h.serve(0, TxnKind::Read);
    h.serve(1, TxnKind::Read);
    let g = h.serve(1, TxnKind::Upgrade);
    assert_eq!((g.kind, g.fill), (TxnKind::Upgrade, None));
    assert_eq!(g.action, BusAction::Mesi(MesiAction::InvalidateAndPromote));
    assert_eq!((g.others, g.invalidated), (0b001, 1));
    assert_eq!((h.states(), h.owner), (vec![Inv, We, Inv], Some(NodeId::new(1))));
}

#[test]
fn mesi_stale_upgrade_is_served_as_a_write_miss() {
    let mut h = Bench::new(ProtocolKind::Mesi, 3);
    h.serve(0, TxnKind::Read);
    h.serve(1, TxnKind::Read);
    // P2 writes while P1's upgrade waits: P1's copy goes.
    let g = h.serve(2, TxnKind::Write);
    assert_eq!((g.others, g.invalidated), (0b011, 2));
    let g = h.serve(1, TxnKind::Upgrade);
    assert_eq!(g.kind, TxnKind::Write);
    assert_eq!(g.action, BusAction::Mesi(MesiAction::OwnerSuppliesModified));
    assert_eq!((g.owner, g.invalidated), (Some(NodeId::new(2)), 1));
    assert_eq!((h.states(), h.owner), (vec![Inv, We, Inv], Some(NodeId::new(1))));
}

#[test]
fn dragon_supplier_updates_and_writes_back_on_rollout() {
    let mut h = Bench::new(ProtocolKind::Dragon, 3);
    h.serve(0, TxnKind::Write);
    let g = h.serve(1, TxnKind::Read);
    assert_eq!(g.action, BusAction::Dragon(DragonAction::OwnerSuppliesShared));
    assert_eq!((h.states(), h.supplier), (vec![Rs, Rs, Inv], Some(NodeId::new(0))));
    let g = h.serve(1, TxnKind::Upgrade);
    assert_eq!(g.action, BusAction::Dragon(DragonAction::BroadcastUpdate));
    assert_eq!((h.states(), h.supplier), (vec![Rs, Rs, Inv], Some(NodeId::new(1))));
    // The supplier's rollout carries the fresh copy home.
    let state = h.caches[1].evict(B);
    assert!(retire(&mut h, NodeId::new(1), B, state));
    assert_eq!((h.supplier, h.dirty), (None, false));
    let state = h.caches[0].evict(B);
    assert!(!retire(&mut h, NodeId::new(0), B, state), "a shared-clean copy leaves silently");
}

#[test]
fn msi_read_miss_uncached_fills_shared() {
    let mut h = Bench::new(ProtocolKind::Msi, 3);
    let g = h.serve(1, TxnKind::Read);
    assert_eq!(g.action, BusAction::Msi(MesiAction::FillShared));
    assert_eq!((g.fill, g.others, g.owner), (Some(Rs), 0, None));
    assert_eq!((h.states(), h.excl[1], h.dirty), (vec![Inv, Rs, Inv], false, false));
}

#[test]
fn msi_write_hit_on_a_modified_line_stays_local() {
    let mut h = Bench::new(ProtocolKind::Msi, 3);
    let g = h.serve(0, TxnKind::Write);
    assert_eq!(g.action, BusAction::Msi(MesiAction::FillModified));
    assert_eq!((h.states(), h.owner), (vec![We, Inv, Inv], Some(NodeId::new(0))));
    assert!(!write_hit(&mut h, NodeId::new(0), B), "MSI has no clean-exclusive line");
    assert_eq!((h.states(), h.owner, h.excl[0]), (vec![We, Inv, Inv], Some(NodeId::new(0)), false));
}

#[test]
fn msi_write_miss_takes_the_line_from_a_modified_owner() {
    let mut h = Bench::new(ProtocolKind::Msi, 3);
    h.serve(0, TxnKind::Write);
    let g = h.serve(2, TxnKind::Write);
    assert_eq!(g.action, BusAction::Msi(MesiAction::OwnerSuppliesModified));
    assert_eq!((g.owner, g.others, g.invalidated), (Some(NodeId::new(0)), 0b001, 1));
    assert_eq!((h.states(), h.owner, h.dirty), (vec![Inv, Inv, We], Some(NodeId::new(2)), true));
}

#[test]
fn msi_read_miss_downgrades_the_owner_and_cleans_memory() {
    let mut h = Bench::new(ProtocolKind::Msi, 3);
    h.serve(0, TxnKind::Write);
    let g = h.serve(1, TxnKind::Read);
    assert_eq!(g.action, BusAction::Msi(MesiAction::OwnerSuppliesShared));
    assert_eq!((g.owner, g.invalidated), (Some(NodeId::new(0)), 0));
    assert_eq!((h.states(), h.owner, h.dirty), (vec![Rs, Rs, Inv], None, false));
}
