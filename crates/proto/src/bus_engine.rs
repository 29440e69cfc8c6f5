//! The untimed engine of the three bus protocols, MSI, MESI and Dragon:
//! every per-block state update their [`crate::guarded`] decisions imply —
//! the bus grant at the serialisation point, the silent E→M write hit, and
//! victim retirement. The timed `BusSystem` and the `ringsim-check` model
//! checker both drive it through [`BusHost`], so the checker verifies the
//! effects the simulator runs. MSI is MESI without the exclusive state: its
//! decisions are MESI's actions, and no MSI line is ever clean-exclusive.
//!
//! The engine keeps no state and no notion of time: each step returns a
//! small `Copy` value ([`Grant`], or a flag) on which the simulator keys
//! arbitration, supply timing and event classification. The checker's
//! fault mutations override the provided hooks, as on
//! [`crate::ring_engine::RingHost`].

use ringsim_cache::{Cache, LineState};
use ringsim_types::{BlockAddr, NodeId};

use crate::guarded::{self, FireCounts};
use crate::ring_engine::TxnKind;
use crate::transitions::{BusOp, DragonAction, MesiAction};
use crate::transitions::{DragonAction as D, MesiAction as M};
use crate::ProtocolKind;
use BusAction::{Dragon, Mesi, Msi};

/// What a host supplies to the engine: its state through the required
/// methods; the provided ones are the effects fault mutations override.
pub trait BusHost {
    /// A bus protocol: [`ProtocolKind::Msi`], [`ProtocolKind::Mesi`] or
    /// [`ProtocolKind::Dragon`].
    fn protocol(&self) -> ProtocolKind;
    /// The per-node caches.
    fn caches(&mut self) -> &mut [Cache];
    /// Nodes that may hold `block` (bit `i` = node `i`): a superset of its
    /// valid holders.
    fn present(&self, block: BlockAddr) -> u64;
    /// Whether `node` holds `block` clean-exclusive: `We`, but memory is
    /// still up to date.
    fn exclusive(&self, node: NodeId, block: BlockAddr) -> bool;
    /// Sets or clears `node`'s clean-exclusive marker for `block`.
    fn set_exclusive(&mut self, node: NodeId, block: BlockAddr, exclusive: bool);
    /// Who supplies `block` instead of memory: the modified copy's holder,
    /// or Dragon's shared-modified owner.
    fn owner(&self, block: BlockAddr) -> Option<NodeId>;
    /// Records that memory's copy of `block` is stale, `owner` holding the
    /// fresh data, or (`None`) up to date again.
    fn set_dirty(&mut self, block: BlockAddr, owner: Option<NodeId>);

    /// The nodes other than `node` that hold a valid copy of `block`, and
    /// (second) the `We` ones among them. The provided method looks at the
    /// state of each node in [`BusHost::present`]; a host that tracks the
    /// holders exactly may answer without visiting the caches.
    fn holders(&mut self, node: NodeId, block: BlockAddr) -> (u64, u64) {
        let candidates = self.present(block);
        scan_holders(self.caches(), node, block, candidates)
    }

    /// Sets (or, with `None`, clears) Dragon's shared-modified owner; a
    /// host with one owner per block records it as the dirty owner.
    fn set_supplier(&mut self, block: BlockAddr, owner: Option<NodeId>) {
        self.set_dirty(block, owner);
    }

    /// Per-rule fire counters for guarded-rule dispatches, if kept.
    fn counts(&self) -> Option<&FireCounts> {
        None
    }

    /// A bus invalidation of a sharer's copy.
    fn invalidate_sharer(&mut self, node: NodeId, block: BlockAddr) {
        self.caches()[node.index()].snoop_invalidate(block);
    }

    /// `node` now holds `block`'s only fresh copy: memory is stale.
    fn claim_dirty(&mut self, block: BlockAddr, node: NodeId) {
        self.set_dirty(block, Some(node));
    }
}

/// A bus protocol's decision for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusAction {
    /// MSI's: a subset of MESI's actions.
    Msi(MesiAction),
    /// MESI's.
    Mesi(MesiAction),
    /// Dragon's.
    Dragon(DragonAction),
}

/// What the bus grant did with a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The transaction as served (a stale upgrade is a `Write`).
    pub kind: TxnKind,
    /// The rule set's decision.
    pub action: BusAction,
    /// The state a miss fills the requester's line in; `None` for an
    /// upgrade, settled in place.
    pub fill: Option<LineState>,
    /// The other nodes holding a valid copy at the grant.
    pub others: u64,
    /// Copies the grant invalidated.
    pub invalidated: u64,
    /// The node that supplies the data instead of memory, if any.
    pub owner: Option<NodeId>,
}

/// `node`'s transaction of `kind` on `block` wins the bus, and the snoop
/// resolves atomically. Every effect but the fill is applied here: the
/// host fills a missing line in [`Grant::fill`].
pub fn grant<H: BusHost + ?Sized>(
    h: &mut H,
    node: NodeId,
    block: BlockAddr,
    kind: TxnKind,
) -> Grant {
    let me = node.index();
    let kind = kind.served_as(h.caches()[me].state_of(block));
    // Only the `We` copies among the others have anything for a fill to
    // downgrade.
    let (others, writers) = h.holders(node, block);
    let owner = h.owner(block).filter(|o| o.index() != me && others & (1 << o.index()) != 0);
    let owner_mask = owner.map_or(0, |o| 1u64 << o.index());
    let (op, mut fill) = match kind {
        TxnKind::Read => (BusOp::ReadMiss, Some(LineState::Rs)),
        TxnKind::Write => (BusOp::WriteMiss, Some(LineState::We)),
        TxnKind::Upgrade => (BusOp::WriteSharedHit, None),
    };
    let action = dispatch(h, op, others != 0, owner.is_some());
    let mut invalidated = 0;
    match action {
        Msi(a) | Mesi(a) => match a {
            M::FillExclusive => {
                h.set_exclusive(node, block, true);
                fill = Some(LineState::We);
            }
            M::FillShared => downgrade(h, writers, block),
            M::OwnerSuppliesShared => {
                // The owner's flush refreshes memory as it supplies.
                downgrade(h, owner_mask, block);
                h.set_dirty(block, None);
            }
            // Dirty data moves cache to cache; memory stays stale.
            M::OwnerSuppliesModified => invalidated = invalidate(h, owner_mask, block),
            M::InvalidateAndFillModified | M::InvalidateAndPromote => {
                invalidated = invalidate(h, others, block);
            }
            M::FillModified | M::Promote => {}
            M::PromoteSilently => unreachable!("exclusive write hits never reach the bus"),
        },
        Dragon(D::FillExclusive) => {
            h.set_exclusive(node, block, true);
            fill = Some(LineState::We);
        }
        Dragon(D::FillShared) => downgrade(h, writers, block),
        Dragon(D::OwnerSuppliesShared) => {
            // A modified owner demotes to Sm and keeps supplying.
            downgrade(h, owner_mask, block);
            h.set_supplier(block, owner);
        }
        Dragon(D::FillSharedOwnerUpdate) => {
            // The other copies take the update word and stay valid; a
            // previous owner demotes to shared-clean.
            downgrade(h, writers, block);
            h.set_supplier(block, Some(node));
            fill = Some(LineState::Rs);
        }
        Dragon(D::BroadcastUpdate) => h.set_supplier(block, Some(node)),
        // Every other copy has rolled out: the update found no listeners.
        Dragon(D::PromoteToModified) => h.set_supplier(block, None),
        Dragon(D::FillModified) => {}
        Dragon(D::PromoteSilently) => unreachable!("exclusive write hits never reach the bus"),
    }
    if kind == TxnKind::Upgrade && action != Dragon(D::BroadcastUpdate) {
        let promoted = h.caches()[me].promote(block);
        debug_assert!(promoted, "upgrade granted on a stale line");
    }
    if kind != TxnKind::Read {
        h.claim_dirty(block, node);
    }
    Grant { kind, action, fill, others, invalidated, owner }
}

/// `node` writes `block`, which it holds `We`: a clean-exclusive line
/// promotes to modified silently, with no bus transaction, and the call
/// returns `true`; a modified line changes nothing. Under MSI every `We`
/// line is modified.
pub fn write_hit<H: BusHost + ?Sized>(h: &mut H, node: NodeId, block: BlockAddr) -> bool {
    if !h.exclusive(node, block) {
        return false;
    }
    let action = dispatch(h, BusOp::WriteExclusiveHit, false, false);
    debug_assert!(matches!(action, Mesi(M::PromoteSilently) | Dragon(D::PromoteSilently)));
    h.set_exclusive(node, block, false);
    h.claim_dirty(block, node);
    true
}

/// `node` replaced `victim`, held in `state`. Returns whether the victim
/// writes back: a modified line does, and so does Dragon's Sm owner, whose
/// rollout carries the only fresh copy home; a clean-exclusive line was
/// never written.
pub fn retire<H: BusHost + ?Sized>(
    h: &mut H,
    node: NodeId,
    victim: BlockAddr,
    state: LineState,
) -> bool {
    let exclusive = h.exclusive(node, victim);
    h.set_exclusive(node, victim, false);
    let supplier = state == LineState::Rs && h.owner(victim) == Some(node);
    if supplier {
        h.set_supplier(victim, None);
    }
    let writes_back = supplier || (state.is_dirty() && !exclusive);
    if writes_back {
        h.set_dirty(victim, None);
    }
    writes_back
}

fn dispatch<H: BusHost + ?Sized>(h: &H, op: BusOp, others: bool, owner: bool) -> BusAction {
    match h.protocol() {
        ProtocolKind::Msi => Msi(guarded::msi_action(op, others, owner, h.counts())),
        ProtocolKind::Mesi => Mesi(guarded::mesi_action(op, others, owner, h.counts())),
        ProtocolKind::Dragon => Dragon(guarded::dragon_action(op, others, owner, h.counts())),
        p @ (ProtocolKind::Snooping | ProtocolKind::Directory | ProtocolKind::Sci) => {
            unreachable!("{p} is not a bus protocol")
        }
    }
}

/// The nodes in `candidates` other than `node` whose cache holds a valid
/// copy of `block`, and (second) the `We` ones among them.
#[must_use]
pub fn scan_holders(
    caches: &[Cache],
    node: NodeId,
    block: BlockAddr,
    candidates: u64,
) -> (u64, u64) {
    let (mut valid, mut written) = (0u64, 0u64);
    for j in nodes(candidates & !(1u64 << node.index())) {
        match caches[j].state_of(block) {
            LineState::Inv => {}
            LineState::Rs => valid |= 1 << j,
            LineState::We => {
                valid |= 1 << j;
                written |= 1 << j;
            }
        }
    }
    (valid, written)
}

/// The nodes in `mask`, in ascending order.
fn nodes(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let j = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (j < 64).then_some(j)
    })
}

/// The nodes in `mask` observe a fill: an E or M copy demotes to shared.
fn downgrade<H: BusHost + ?Sized>(h: &mut H, mask: u64, block: BlockAddr) {
    for j in nodes(mask) {
        h.caches()[j].snoop_downgrade(block);
        h.set_exclusive(NodeId::new(j), block, false);
    }
}

/// Invalidates the copies of the nodes in `mask`; returns how many.
fn invalidate<H: BusHost + ?Sized>(h: &mut H, mask: u64, block: BlockAddr) -> u64 {
    for j in nodes(mask) {
        h.invalidate_sharer(NodeId::new(j), block);
        // The E marker goes with the line (a fault may have kept it).
        if h.caches()[j].state_of(block) != LineState::We {
            h.set_exclusive(NodeId::new(j), block, false);
        }
    }
    u64::from(mask.count_ones())
}
