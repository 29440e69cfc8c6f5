//! SCI linked-list directory protocol: its request/action vocabulary, the
//! per-block sharing list, and the one engine every SCI user drives.
//!
//! The paper only *accounts* for the linked-list directory (Table 1); this
//! repository also times it and model-checks it. All three run the same
//! untimed engine, built the way [`crate::bus_engine`] is: [`serve`] and
//! [`rollout`] keep no state and are generic over a [`SciHost`]. Every
//! decision the home makes — head insertion on a miss, the list-order purge
//! on a write, the rollout splice on an eviction — is dispatched through the
//! guarded rule set [`crate::guarded::SCI_RULES`], so the protocol inherits
//! the totality/determinism lint and the dead-rule gate.
//!
//! One engine, three hosts:
//!
//! * the Table 1 experiment replays a reference stream through a
//!   [`SciDirectory`] (caches, sharing lists, ring layout and the
//!   [`TraversalReport`] tally);
//! * the timed `ringsim-core::SciRingSystem` serves each reference through
//!   its own [`SciDirectory`] at the home's serialisation point, then plays
//!   the step's latencies out in event time;
//! * the `ringsim-check` model is a [`SciHost`] over its compact state
//!   encoding; its fault fixtures override the provided
//!   [`SciHost::invalidate_sharer`] and [`SciHost::splice`] hooks.
//!
//! Traversal accounting is a provided hook too: its default counts
//! nothing, so the checker pays nothing for it.

use std::collections::HashMap;

use ringsim_cache::{AccessClass, Cache, CacheConfig, LineState};
use ringsim_ring::RingLayout;
use ringsim_types::{BlockAddr, ConfigError, MemRef, NodeId, Region};

use crate::guarded::{self, FireCounts};
use crate::ring_engine::TxnKind;
use crate::table1::TraversalReport;

/// A request at the SCI home's per-block serialisation point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SciRequest {
    /// Read miss: the requester wants to join the sharing list.
    Read,
    /// Write miss: the requester wants the block exclusively.
    Write,
    /// Upgrade of a still-listed read-shared copy (converted to
    /// [`SciRequest::Write`] if the copy was purged while queued).
    Upgrade,
    /// Rollout: an evicted copy splices itself out of the list.
    Rollout,
}

/// How the SCI home serves an admitted request (see
/// [`crate::guarded::SCI_RULES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SciAction {
    /// Read miss on an empty list: memory supplies; the requester becomes
    /// the list head.
    GrantFromMemory,
    /// Read miss on a non-empty list: forward to the head, which supplies
    /// (and downgrades if dirty); the requester prepends itself.
    ForwardToHead,
    /// Write miss on an empty list: memory supplies; the requester becomes
    /// the sole, dirty head.
    GrantClaim,
    /// Write miss on a non-empty list: the head supplies, then the whole
    /// list is purged by walking it in list order; the requester becomes
    /// the sole, dirty head.
    PurgeAndClaim,
    /// Upgrade with other list members: purge them in list order; the
    /// requester re-attaches as the sole, dirty head.
    PurgeOthersAndClaim,
    /// Upgrade by the sole list member: claim dirty, nothing moves.
    Claim,
    /// Rollout: splice the evicted node out of the sharing list.
    Splice,
}

/// Per-block sharing-list state: the distributed SCI list, head first,
/// plus the head-holds-dirty-data bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SciList {
    /// Sharing list, head first (new sharers prepend, as in SCI).
    pub list: Vec<NodeId>,
    /// The head's copy is modified; memory is stale.
    pub dirty: bool,
}

impl SciList {
    /// Whether `node` is on the list.
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        self.list.contains(&node)
    }

    /// List members other than `node`, in list order.
    pub fn others(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.list.iter().copied().filter(move |&p| p != node)
    }

    /// Splices `node` out (rollout); clears the dirty bit when the list
    /// empties (the rolled-out head wrote the data back).
    pub fn splice(&mut self, node: NodeId) {
        self.list.retain(|&p| p != node);
        if self.list.is_empty() {
            self.dirty = false;
        }
    }
}

/// What a host supplies to the engine: its state through the required
/// methods; the provided ones are the effects fault mutations override and
/// the accounting only some hosts keep.
pub trait SciHost {
    /// The per-node caches.
    fn caches(&mut self) -> &mut [Cache];
    /// `block`'s sharing list.
    fn list(&mut self, block: BlockAddr) -> &mut SciList;
    /// The home node of `block`.
    fn home_of(&self, block: BlockAddr) -> NodeId;

    /// Per-rule fire counters for guarded-rule dispatches, if kept.
    fn counts(&self) -> Option<&FireCounts> {
        None
    }

    /// Complete ring traversals of the closed message path `path`, the
    /// requester first; a path of the requester alone stays local. Only a
    /// host that tallies Table 1 counts them.
    fn traversals(&self, _path: impl Iterator<Item = NodeId>) -> usize {
        0
    }

    /// The purge walk invalidates a list member's copy.
    fn invalidate_sharer(&mut self, node: NodeId, block: BlockAddr) {
        self.caches()[node.index()].snoop_invalidate(block);
    }

    /// A rollout splices `node` out of `block`'s sharing list.
    fn splice(&mut self, block: BlockAddr, node: NodeId) {
        self.list(block).splice(node);
    }
}

/// What serving one transaction did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SciStep {
    /// The transaction as served (a stale upgrade is a `Write`).
    pub kind: TxnKind,
    /// The rule set's decision.
    pub action: SciAction,
    /// The state a miss fills the requester's line in; `None` for an
    /// upgrade, promoted in place.
    pub fill: Option<LineState>,
    /// Copies purged from other caches.
    pub invalidated: usize,
    /// Data was supplied by a dirty head cache rather than home memory.
    pub dirty_supply: bool,
    /// Complete ring traversals the transaction's message path needs, as
    /// [`SciHost::traversals`] counts them.
    pub traversals: usize,
}

/// The home serves `node`'s transaction of `kind` on `block` in one
/// indivisible step: it dispatches through [`crate::guarded::SCI_RULES`],
/// applies every list and cache effect but the fill (the host fills a
/// missing line in [`SciStep::fill`], rolling out any victim), and counts
/// the message path's traversals.
pub fn serve<H: SciHost + ?Sized>(
    h: &mut H,
    node: NodeId,
    block: BlockAddr,
    kind: TxnKind,
) -> SciStep {
    let kind = kind.served_as(h.caches()[node.index()].state_of(block));
    let req = match kind {
        TxnKind::Read => SciRequest::Read,
        TxnKind::Write => SciRequest::Write,
        TxnKind::Upgrade => SciRequest::Upgrade,
    };
    // The list leaves the host for the step (a move, not a copy), so the
    // host's hooks stay callable while the engine walks it.
    let mut e = std::mem::take(h.list(block));
    let action = guarded::sci_action(req, e.list.len(), e.contains(node), h.counts());
    let dirty_supply = e.dirty && !e.list.is_empty();
    let home = h.home_of(block);
    let via_home = || std::iter::once(node).chain((home != node).then_some(home));
    let traversals = match kind {
        // A non-empty list's head supplies.
        TxnKind::Read => h.traversals(via_home().chain(e.list.first().copied())),
        // The head supplies; the rest of the list is purged in list order.
        TxnKind::Write => h.traversals(via_home().chain(e.list.iter().copied())),
        // The writer first detaches and re-attaches as head via the home
        // (one round trip), then purges the other members in list order.
        TxnKind::Upgrade => {
            h.traversals(via_home()) + h.traversals(std::iter::once(node).chain(e.others(node)))
        }
    };
    let mut invalidated = 0;
    match action {
        SciAction::GrantFromMemory | SciAction::ForwardToHead => {
            // A dirty head supplies and downgrades; memory is fresh again.
            if e.dirty {
                if let Some(&head) = e.list.first() {
                    h.caches()[head.index()].snoop_downgrade(block);
                }
                e.dirty = false;
            }
            e.list.insert(0, node);
        }
        SciAction::GrantClaim | SciAction::PurgeAndClaim | SciAction::PurgeOthersAndClaim => {
            for p in e.others(node) {
                h.invalidate_sharer(p, block);
                invalidated += 1;
            }
            e.list.clear();
            e.list.push(node);
            e.dirty = true;
        }
        SciAction::Claim => e.dirty = true,
        SciAction::Splice => unreachable!("rollouts are served at eviction, not as requests"),
    }
    *h.list(block) = e;
    let fill = match kind {
        TxnKind::Read => Some(LineState::Rs),
        TxnKind::Write => Some(LineState::We),
        TxnKind::Upgrade => {
            let promoted = h.caches()[node.index()].promote(block);
            debug_assert!(promoted, "upgrade served on a stale line");
            None
        }
    };
    SciStep { kind, action, fill, invalidated, dirty_supply, traversals }
}

/// `node` replaced `victim`, held in `state`: a valid copy rolls out of the
/// victim's sharing list. A dirty head's rollout carries the data home with
/// it; the splice clears the dirty bit as the list empties.
pub fn rollout<H: SciHost + ?Sized>(h: &mut H, node: NodeId, victim: BlockAddr, state: LineState) {
    if !state.is_valid() {
        return;
    }
    let e = h.list(victim);
    let (len, listed) = (e.list.len(), e.contains(node));
    let action = guarded::sci_action(SciRequest::Rollout, len, listed, h.counts());
    debug_assert_eq!(action, SciAction::Splice);
    h.splice(victim, node);
}

/// The SCI linked-list directory over a ring: per-node caches, per-block
/// sharing lists, and the Table 1 traversal tally of shared-block
/// transactions. The Table 1 experiment and the timed `SciRingSystem` both
/// drive the engine through it.
#[derive(Debug)]
pub struct SciDirectory<H> {
    layout: RingLayout,
    home_of: H,
    caches: Vec<Cache>,
    lists: HashMap<u64, SciList>,
    report: TraversalReport,
}

impl<H: Fn(BlockAddr) -> NodeId> SciDirectory<H> {
    /// Creates the directory for the ring described by `layout`; `home_of`
    /// maps blocks to home nodes.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the layout has more than 64 nodes.
    pub fn new(layout: RingLayout, home_of: H) -> Result<Self, ConfigError> {
        if layout.nodes() > 64 {
            return Err(ConfigError::new("nodes", "at most 64 nodes supported"));
        }
        let caches = (0..layout.nodes())
            .map(|_| Cache::new(CacheConfig::paper_default()))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            layout,
            home_of,
            caches,
            lists: HashMap::new(),
            report: TraversalReport::default(),
        })
    }

    /// The traversal distributions of the shared-block misses and upgrades
    /// served so far.
    #[must_use]
    pub fn report(&self) -> TraversalReport {
        self.report
    }

    /// `node`'s cache-line state for `block`.
    #[must_use]
    pub fn state_of(&self, node: NodeId, block: BlockAddr) -> LineState {
        self.caches[node.index()].state_of(block)
    }

    /// Serves one reference. A hit returns `None`; a miss or upgrade is
    /// [`serve`]d, a missing line is filled (its victim rolls out), and a
    /// shared block's traversals are tallied.
    pub fn access(&mut self, r: MemRef) -> Option<SciStep> {
        let (node, block) = (r.node, r.addr.block(16));
        let kind = match self.caches[node.index()].classify(block, r.kind) {
            AccessClass::Hit => return None,
            AccessClass::Upgrade => TxnKind::Upgrade,
            AccessClass::Miss if r.kind.is_write() => TxnKind::Write,
            AccessClass::Miss => TxnKind::Read,
        };
        let step = serve(self, node, block, kind);
        if let Some((victim, state)) =
            step.fill.and_then(|state| self.caches[node.index()].fill(block, state))
        {
            rollout(self, node, victim, state);
        }
        if r.region == Region::Shared {
            let dist = match step.kind {
                TxnKind::Upgrade => &mut self.report.invalidate,
                TxnKind::Read | TxnKind::Write => &mut self.report.miss,
            };
            dist.record(step.traversals);
        }
        Some(step)
    }
}

impl<H: Fn(BlockAddr) -> NodeId> SciHost for SciDirectory<H> {
    fn caches(&mut self) -> &mut [Cache] {
        &mut self.caches
    }

    fn list(&mut self, block: BlockAddr) -> &mut SciList {
        self.lists.entry(block.raw()).or_default()
    }

    fn home_of(&self, block: BlockAddr) -> NodeId {
        (self.home_of)(block)
    }

    fn traversals(&self, path: impl Iterator<Item = NodeId>) -> usize {
        let mut path = path.peekable();
        let requester = path.next().expect("a path starts at its requester");
        if path.peek().is_none() {
            return 0;
        }
        self.layout.closed_path_traversals(std::iter::once(requester).chain(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table1::TraversalDist;
    use ringsim_ring::RingConfig;
    use ringsim_trace::{Workload, WorkloadSpec};
    use ringsim_types::{AccessKind, Addr};

    fn layout(n: usize) -> RingLayout {
        RingConfig::standard_500mhz(n).layout().unwrap()
    }

    /// A directory of `nodes` nodes whose every block is homed at node 0.
    fn homed_at_zero(nodes: usize) -> SciDirectory<impl Fn(BlockAddr) -> NodeId> {
        SciDirectory::new(layout(nodes), |_| NodeId::new(0)).unwrap()
    }

    fn shared(node: usize, addr: u64, kind: AccessKind) -> MemRef {
        MemRef { node: NodeId::new(node), addr: Addr::new(addr), kind, region: Region::Shared }
    }

    /// The pinned distributions are the ones the standalone Table 1
    /// accountant produced on this stream before the engine replaced it.
    #[test]
    fn engine_matches_the_accountant_on_a_demo_stream() {
        let mut w = Workload::new(WorkloadSpec::demo(16)).unwrap();
        let space = w.space();
        let mut dir = SciDirectory::new(layout(16), move |b| space.home_of_block(b)).unwrap();
        let mut fired = Vec::new();
        for r in w.round_robin(4_000) {
            if let Some(step) = dir.access(r) {
                if !fired.contains(&step.action) {
                    fired.push(step.action);
                }
            }
        }
        let pinned = TraversalReport {
            miss: TraversalDist { one: 5178, two: 3131, three_plus: 23 },
            invalidate: TraversalDist { one: 327, two: 1311, three_plus: 104 },
        };
        assert_eq!(dir.report(), pinned);
        // A busy demo stream exercises every non-rollout rule.
        assert!(fired.len() >= 5, "rules fired: {fired:?}");
    }

    #[test]
    fn worst_case_list_walk_matches_accountant() {
        use AccessKind::{Read, Write};
        let mut dir = homed_at_zero(16);
        // Join in ascending order => list is descending: [12, 8, 4].
        dir.access(shared(4, 0x300, Read));
        dir.access(shared(8, 0x300, Read));
        dir.access(shared(12, 0x300, Read));
        // P14 write: path 14 -> 0 -> 12 -> 8 -> 4 -> 14: each list hop wraps.
        let step = dir.access(shared(14, 0x300, Write)).expect("a write miss");
        assert_eq!(step.action, SciAction::PurgeAndClaim);
        assert!(step.traversals >= 3, "walking a descending list wraps: {step:?}");
        assert_eq!(step.invalidated, 3);
        assert_eq!(dir.report().miss.three_plus, 1, "report: {:?}", dir.report());
    }

    #[test]
    fn linked_list_can_exceed_two_traversals() {
        use AccessKind::{Read, Write};
        let mut dir = homed_at_zero(16);
        // Readers join in *descending* ring order so the sharing list (head
        // first) ends up in ascending order 4, 8, 12 ... walking it from the
        // writer crosses start many times.
        dir.access(shared(12, 0x200, Read));
        dir.access(shared(8, 0x200, Read));
        dir.access(shared(4, 0x200, Read));
        // List head-first: [4, 8, 12]. P8 upgrades: it first becomes head
        // via the home (8 -> 0 -> 8: one traversal), then purges [4, 12] in
        // list order (8 -> 4 -> 12 -> 8: two traversals) — three in total.
        let step = dir.access(shared(8, 0x200, Write)).expect("an upgrade");
        assert_eq!((step.kind, step.action), (TxnKind::Upgrade, SciAction::PurgeOthersAndClaim));
        assert_eq!(dir.report().invalidate.three_plus, 1, "report: {:?}", dir.report());
    }

    #[test]
    fn dirty_head_supplies_read_misses() {
        use AccessKind::{Read, Write};
        let mut dir = homed_at_zero(8);
        dir.access(shared(3, 0x40, Write));
        let step = dir.access(shared(5, 0x40, Read)).expect("a read miss");
        assert!(step.dirty_supply);
        assert_eq!(dir.state_of(NodeId::new(3), Addr::new(0x40).block(16)), LineState::Rs);
    }
}
