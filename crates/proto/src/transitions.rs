//! Pure coherence transition tables.
//!
//! Both protocols' *decisions* — what a snooping cache does as a probe
//! passes, what the home memory contributes, and how the full-map directory
//! dispatches a request — are declared once, as the guarded rule sets in
//! [`crate::guarded`], total over ([`ringsim_cache::LineState`],
//! [`MsgKind`]) and [`DirEntry`]. This module holds the actions those rules
//! return and the directory's admission predicates. For the ring
//! protocols, [`crate::ring_engine`] evaluates the rules and applies their
//! effects; the timed simulator in `ringsim-core` adds timing (slots,
//! latencies, retries) and the model checker in `ringsim-check` an abstract
//! scheduler. A transition bug therefore cannot hide in one consumer: the
//! checker exercises exactly the code the simulator runs.
//!
//! Every `match` in this module and in `guarded` is intentionally
//! total with **no wildcard arms** — `tests/lint_protocol_tables.rs`
//! asserts this statically so a new `MsgKind` or `LineState` variant forces
//! every table to be revisited.

use ringsim_types::NodeId;

use crate::{DirEntry, MsgKind};

/// What a snooping cache interface does to its own copy as a ring message
/// passes by (paper §3.1, plus the directory's multicast invalidation).
///
/// The caller is responsible for the requester-side arbitration that is not
/// a property of the line state: a node whose *own* transaction is in flight
/// on the block does not participate at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnoopAction {
    /// No local action.
    Ignore,
    /// Drop the read-shared copy (write/upgrade/invalidation passing a
    /// sharer). The invalidation is counted against the requester.
    Invalidate,
    /// Dirty owner relinquishes: supply the block to the requester and
    /// invalidate the local copy (write probe passing the owner).
    SupplyInvalidate,
    /// Dirty owner downgrades: supply the block, keep a read-shared copy,
    /// and write the dirty data back to the home (read probe passing the
    /// owner).
    SupplyDowngrade,
}

/// What the home node's memory contributes as a snooping probe passes it
/// (paper §3.1: the dirty bit arbitrates who answers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HomeSnoopAction {
    /// The block is dirty in some cache (or a write-back is in flight): the
    /// memory stays silent and the requester retries if nobody supplied.
    Silent,
    /// Clean read: acknowledge and supply the block from memory.
    Supply,
    /// Clean write miss: acknowledge, supply, and set the dirty bit — the
    /// requester becomes the owner.
    SupplyClaim,
    /// Clean upgrade: acknowledge and set the dirty bit; no data moves.
    AckClaim,
}

/// A request at the directory home's serialisation point, after the
/// busy/pending queue admitted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirRequest {
    /// Read miss ([`MsgKind::DirRead`]).
    Read,
    /// Write miss ([`MsgKind::DirWrite`]), including converted upgrades.
    Write,
    /// Upgrade of a still-valid read-shared line ([`MsgKind::DirUpgrade`]).
    Upgrade,
}

impl DirRequest {
    /// Maps a message kind to the request it carries, if any. Total over
    /// [`MsgKind`] so new kinds must decide whether they are home requests.
    #[must_use]
    pub fn classify(kind: MsgKind) -> Option<DirRequest> {
        match kind {
            MsgKind::DirRead => Some(DirRequest::Read),
            MsgKind::DirWrite => Some(DirRequest::Write),
            MsgKind::DirUpgrade => Some(DirRequest::Upgrade),
            MsgKind::SnoopRead
            | MsgKind::SnoopWrite
            | MsgKind::SnoopUpgrade
            | MsgKind::DirFwdRead
            | MsgKind::DirFwdWrite
            | MsgKind::DirInval
            | MsgKind::DirAck
            | MsgKind::BlockData
            | MsgKind::WriteBack
            | MsgKind::MemUpdate => None,
        }
    }
}

/// How the directory home dispatches an admitted request (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirAction {
    /// Forward a read miss to the dirty owner; the owner supplies and
    /// downgrades, then refreshes memory and directory at the home.
    ForwardRead {
        /// Current write-exclusive holder.
        owner: NodeId,
    },
    /// Forward a write miss to the dirty owner; the owner supplies and
    /// invalidates its copy.
    ForwardWrite {
        /// Current write-exclusive holder.
        owner: NodeId,
    },
    /// Multicast an invalidation to the other sharers before granting
    /// ownership to the requester.
    InvalidateSharers,
    /// Reply immediately with the block (clean read, or write with no other
    /// copies).
    GrantData,
    /// Acknowledge an upgrade without moving data (no other copies).
    GrantAck,
}

/// `true` when the directory says the requester itself owns the block: its
/// dirty-victim write-back is still in flight, and the home must reclaim it
/// before serving the request against clean memory.
#[must_use]
pub fn must_reclaim_writeback(entry: &DirEntry, requester: NodeId) -> bool {
    entry.owner == Some(requester)
}

/// `true` when an upgrade request must be demoted to a full write miss: the
/// requester's read-shared line was invalidated while the request waited in
/// the busy queue, so an ack without data would grant ownership of a block
/// the requester no longer holds.
#[must_use]
pub fn upgrade_must_convert(entry: &DirEntry, requester: NodeId) -> bool {
    !entry.has_sharer(requester)
}

/// A processor operation at the atomic bus's serialisation point, as seen
/// by the MSI, MESI and Dragon rule sets. Misses and upgrades are bus
/// transactions; the two hit variants are local decisions that MESI and
/// Dragon still declare as rules (silent E→M promotion, Dragon's
/// write-to-shared update). MSI has no exclusive state, so it never sees
/// [`BusOp::WriteExclusiveHit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusOp {
    /// Read miss.
    ReadMiss,
    /// Write miss (including upgrades demoted after losing the race).
    WriteMiss,
    /// Write to a still-valid read-shared line (MESI invalidating upgrade;
    /// Dragon broadcast update).
    WriteSharedHit,
    /// Write to a clean exclusive line (MESI/Dragon E state): promotes to
    /// modified without any bus transaction.
    WriteExclusiveHit,
}

/// How MESI serves an admitted bus operation. MSI takes the same actions
/// but the two that involve the Exclusive state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MesiAction {
    /// Read miss, no other valid copy: memory supplies, fill Exclusive.
    FillExclusive,
    /// Read miss, clean copies elsewhere (MSI: or none): memory supplies,
    /// fill Shared.
    FillShared,
    /// Read miss, dirty owner elsewhere: the owner supplies, downgrades to
    /// Shared, and memory is refreshed; fill Shared.
    OwnerSuppliesShared,
    /// Write miss, dirty owner elsewhere: the owner supplies and
    /// invalidates its copy; fill Modified.
    OwnerSuppliesModified,
    /// Write miss, clean copies elsewhere: invalidate them; memory
    /// supplies; fill Modified.
    InvalidateAndFillModified,
    /// Write miss, uncached: memory supplies; fill Modified.
    FillModified,
    /// Upgrade with other sharers: invalidate them, promote to Modified.
    InvalidateAndPromote,
    /// Upgrade with no other copy: promote to Modified, no data moves.
    Promote,
    /// Write hit on an Exclusive line: promote to Modified silently (the
    /// MESI payoff — no bus transaction at all).
    PromoteSilently,
}

/// How Dragon serves an admitted bus operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DragonAction {
    /// Read miss, uncached: memory supplies, fill Exclusive.
    FillExclusive,
    /// Read miss, clean copies elsewhere: memory supplies, fill
    /// Shared-clean.
    FillShared,
    /// Read miss with an owner (Sm or M): the owner supplies and demotes
    /// to Sm; fill Shared-clean.
    OwnerSuppliesShared,
    /// Write miss, uncached: memory supplies, fill Modified.
    FillModified,
    /// Write miss with copies elsewhere: fetch the block (owner supplies
    /// if dirty), broadcast the update word; requester becomes Sm, the
    /// previous owner demotes to Shared-clean.
    FillSharedOwnerUpdate,
    /// Write hit on a shared line with other copies: broadcast the update
    /// word; requester becomes (or stays) Sm, other copies stay valid.
    BroadcastUpdate,
    /// Write hit on a shared line whose other copies have all rolled out:
    /// the update finds no listeners, promote to Modified.
    PromoteToModified,
    /// Write hit on an Exclusive line: promote to Modified silently.
    PromoteSilently,
}

#[cfg(test)]
mod tests {
    use ringsim_cache::LineState;

    use super::*;
    use crate::guarded::{dir_action, home_snoop_action, snooper_action};

    #[test]
    fn snooper_table_matches_paper_protocol() {
        assert_eq!(
            snooper_action(LineState::We, MsgKind::SnoopRead, None),
            SnoopAction::SupplyDowngrade
        );
        assert_eq!(
            snooper_action(LineState::We, MsgKind::SnoopWrite, None),
            SnoopAction::SupplyInvalidate
        );
        assert_eq!(
            snooper_action(LineState::Rs, MsgKind::SnoopWrite, None),
            SnoopAction::Invalidate
        );
        assert_eq!(
            snooper_action(LineState::Rs, MsgKind::SnoopUpgrade, None),
            SnoopAction::Invalidate
        );
        assert_eq!(snooper_action(LineState::Inv, MsgKind::SnoopWrite, None), SnoopAction::Ignore);
        assert_eq!(snooper_action(LineState::Rs, MsgKind::BlockData, None), SnoopAction::Ignore);
    }

    #[test]
    fn home_table_claims_only_when_clean() {
        assert_eq!(home_snoop_action(false, MsgKind::SnoopRead, None), HomeSnoopAction::Supply);
        assert_eq!(
            home_snoop_action(false, MsgKind::SnoopWrite, None),
            HomeSnoopAction::SupplyClaim
        );
        assert_eq!(
            home_snoop_action(false, MsgKind::SnoopUpgrade, None),
            HomeSnoopAction::AckClaim
        );
        for kind in [MsgKind::SnoopRead, MsgKind::SnoopWrite, MsgKind::SnoopUpgrade] {
            assert_eq!(home_snoop_action(true, kind, None), HomeSnoopAction::Silent);
        }
    }

    #[test]
    fn dir_table_forwards_to_owner() {
        let requester = NodeId::new(0);
        let owner = NodeId::new(2);
        let entry = DirEntry { owner: Some(owner), sharers: DirEntry::mask(owner) };
        assert_eq!(
            dir_action(&entry, requester, DirRequest::Read, None),
            DirAction::ForwardRead { owner }
        );
        assert_eq!(
            dir_action(&entry, requester, DirRequest::Write, None),
            DirAction::ForwardWrite { owner }
        );
    }

    #[test]
    fn dir_table_invalidates_other_sharers() {
        let requester = NodeId::new(0);
        let mut entry = DirEntry {
            sharers: DirEntry::mask(requester) | DirEntry::mask(NodeId::new(3)),
            ..DirEntry::default()
        };
        assert_eq!(
            dir_action(&entry, requester, DirRequest::Write, None),
            DirAction::InvalidateSharers
        );
        assert_eq!(
            dir_action(&entry, requester, DirRequest::Upgrade, None),
            DirAction::InvalidateSharers
        );
        entry.sharers = DirEntry::mask(requester);
        assert_eq!(dir_action(&entry, requester, DirRequest::Write, None), DirAction::GrantData);
        assert_eq!(dir_action(&entry, requester, DirRequest::Upgrade, None), DirAction::GrantAck);
    }

    #[test]
    fn reclaim_and_convert_predicates() {
        let n = NodeId::new(1);
        let mut entry = DirEntry::default();
        assert!(!must_reclaim_writeback(&entry, n));
        assert!(upgrade_must_convert(&entry, n));
        entry.owner = Some(n);
        entry.sharers = DirEntry::mask(n);
        assert!(must_reclaim_writeback(&entry, n));
        assert!(!upgrade_must_convert(&entry, n));
    }
}
