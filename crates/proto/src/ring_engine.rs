//! The untimed engine of the two ring protocols: snooping over probe slots
//! (paper §3.1) and the full-map directory with home serialisation
//! (paper §3.2).
//!
//! [`crate::guarded`] declares what each protocol *decides*; this module
//! makes every per-block state update those decisions imply — the probe
//! visit at one node, the home's lock, queue, reclaim, upgrade conversion,
//! presence and owner updates, forward service, multicast commit, poison
//! and unpoison, and victim write-backs. The timed `RingSystem` in
//! `ringsim-core` and the `ringsim-check` model checker both drive it, so
//! the checker verifies the effects the simulator runs.
//!
//! Each of them implements [`RingHost`], the narrow interface through which
//! the engine reaches caches ([`CacheSet`]), per-node transactions
//! ([`Txn`]), write-back buffers and message emission. The engine keeps no
//! notion of time: every step returns a small `Copy` value ([`SnoopVisit`],
//! [`HomeStep`], [`ProbeReturn`], ...) on which the simulator keys
//! latencies, retries and event classification. The checker's fault
//! mutations override [`RingHost`]'s provided hooks
//! ([`RingHost::invalidate_sharer`], [`RingHost::set_owner`],
//! [`RingHost::claim_dirty`], [`RingHost::parks_forward`]).
//!
//! Steps are free functions generic over the host, monomorphised per
//! host. A host may re-enter the engine from its hooks — the checker
//! delivers a local message inside [`RingHost::send`] and acts on an
//! admitted request inside [`RingHost::home_ready`] — because all engine
//! state is reached through the host on every access.

use ringsim_cache::{Cache, CacheBank, LineState};
use ringsim_types::{BlockAddr, CoherenceOp, FnvMap, NodeId};

use crate::guarded::{self, FireCounts};
use crate::transitions::{self, DirAction, DirRequest, HomeSnoopAction, SnoopAction};
use crate::{Directory, HomeMemory, MsgKind, ProtocolKind, RingMessage};

/// The processor operation a transaction performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnKind {
    /// Read miss.
    Read,
    /// Write miss (also an upgrade whose line went stale).
    Write,
    /// Write hit on a read-shared line.
    Upgrade,
}

impl TxnKind {
    /// The snooping probe that carries this transaction.
    #[inline]
    #[must_use]
    pub fn snoop_probe(self) -> MsgKind {
        match self {
            TxnKind::Read => MsgKind::SnoopRead,
            TxnKind::Write => MsgKind::SnoopWrite,
            TxnKind::Upgrade => MsgKind::SnoopUpgrade,
        }
    }

    /// The directory request that carries this transaction.
    #[inline]
    #[must_use]
    pub fn dir_request(self) -> MsgKind {
        match self {
            TxnKind::Read => MsgKind::DirRead,
            TxnKind::Write => MsgKind::DirWrite,
            TxnKind::Upgrade => MsgKind::DirUpgrade,
        }
    }

    /// What an atomic serialisation point (a bus grant, an SCI home) serves
    /// the transaction as: an upgrade whose line (now in `line`) was
    /// invalidated while it waited goes back to memory as a write miss.
    #[inline]
    #[must_use]
    pub fn served_as(self, line: LineState) -> TxnKind {
        if self == TxnKind::Upgrade && !line.is_valid() {
            TxnKind::Write
        } else {
            self
        }
    }
}

impl From<TxnKind> for CoherenceOp {
    #[inline]
    fn from(kind: TxnKind) -> Self {
        match kind {
            TxnKind::Read => CoherenceOp::Read,
            TxnKind::Write => CoherenceOp::Write,
            TxnKind::Upgrade => CoherenceOp::Upgrade,
        }
    }
}

/// A processor's in-flight transaction: the fields the engine reads and
/// updates, plus the host's own bookkeeping in `ext`.
#[derive(Debug, Clone, Copy)]
pub struct Txn<X> {
    /// The block the transaction concerns.
    pub block: BlockAddr,
    /// What the processor does (an unacknowledged snooping upgrade turns
    /// into a write).
    pub kind: TxnKind,
    /// A write overtook this read fill: it completes without caching.
    pub poisoned: bool,
    /// Snooping: the requester is the clean home and supplies itself.
    pub self_owner: bool,
    /// Host-specific fields (timing in the simulator, the scheduler
    /// phase in the checker).
    pub ext: X,
}

/// Per-node cache lines as the engine sees them. Implemented by the
/// simulator's [`CacheBank`] and the checker's `[Cache]`.
pub trait CacheSet {
    /// Coherence state of `block` at `node`.
    fn state_of(&self, node: usize, block: BlockAddr) -> LineState;
    /// Drops `node`'s copy of `block`.
    fn snoop_invalidate(&mut self, node: usize, block: BlockAddr);
    /// Downgrades `node`'s write-exclusive copy to read-shared.
    fn snoop_downgrade(&mut self, node: usize, block: BlockAddr);
}

impl CacheSet for CacheBank {
    #[inline]
    fn state_of(&self, node: usize, block: BlockAddr) -> LineState {
        CacheBank::state_of(self, node, block)
    }

    #[inline]
    fn snoop_invalidate(&mut self, node: usize, block: BlockAddr) {
        CacheBank::snoop_invalidate(self, node, block);
    }

    #[inline]
    fn snoop_downgrade(&mut self, node: usize, block: BlockAddr) {
        CacheBank::snoop_downgrade(self, node, block);
    }
}

impl CacheSet for [Cache] {
    #[inline]
    fn state_of(&self, node: usize, block: BlockAddr) -> LineState {
        self[node].state_of(block)
    }

    #[inline]
    fn snoop_invalidate(&mut self, node: usize, block: BlockAddr) {
        self[node].snoop_invalidate(block);
    }

    #[inline]
    fn snoop_downgrade(&mut self, node: usize, block: BlockAddr) {
        self[node].snoop_downgrade(block);
    }
}

/// What a host supplies to the engine.
///
/// The required methods expose the host's state; the provided ones are
/// the effects the checker's fault mutations override. A host must not
/// touch the engine's state between the steps of one engine call except
/// through these methods.
pub trait RingHost {
    /// The per-node caches.
    type Caches: CacheSet + ?Sized;
    /// Host fields carried in every [`Txn`].
    type TxnExt;

    /// The engine's home-side state.
    fn engine(&mut self) -> &mut RingEngine;
    /// The per-node caches.
    fn caches(&mut self) -> &mut Self::Caches;
    /// The snooping protocol's per-block dirty bits.
    fn memory(&mut self) -> &mut HomeMemory;
    /// The block's home node.
    fn home_of(&self, block: BlockAddr) -> NodeId;
    /// `node`'s in-flight transaction, if any.
    fn txn(&mut self, node: NodeId) -> Option<&mut Txn<Self::TxnExt>>;
    /// Directory: `node` holds `block`'s data in its write-back buffer.
    fn buffered(&self, node: NodeId, block: BlockAddr) -> bool;
    /// Directory: sets or clears `node`'s write-back buffer entry.
    fn set_buffered(&mut self, node: NodeId, block: BlockAddr, buffered: bool);
    /// Emits `msg` from `msg.src` (local messages, `dst == src`, included).
    fn send(&mut self, msg: RingMessage);
    /// `req` now holds its block's home context: call [`act`] once the
    /// home's memory and directory access completes.
    fn home_ready(&mut self, req: RingMessage);

    /// Per-rule fire counters for guarded-rule dispatches, if kept. A host
    /// with counters also evaluates the rules on the visits whose outcome
    /// is known without them.
    fn counts(&self) -> Option<&FireCounts> {
        None
    }

    /// A coherence invalidation of a sharer's copy (snoop, multicast, or
    /// the home's own copy).
    fn invalidate_sharer(&mut self, node: NodeId, block: BlockAddr) {
        self.caches().snoop_invalidate(node.index(), block);
    }

    /// The directory records `node` as the block's owner.
    fn set_owner(&mut self, block: BlockAddr, node: NodeId) {
        self.engine().dir.set_owner(block, node);
    }

    /// The snooping home sets the dirty bit on behalf of a claiming probe.
    fn claim_dirty(&mut self, block: BlockAddr) {
        self.memory().set_dirty(block);
    }

    /// Whether a forward waits for the fill the target has in flight on
    /// the same block. A buffered write-back always serves it: parking it
    /// would deadlock the home, which holds the lock for the forwarded
    /// requester, against the target's queued request.
    fn parks_forward(&self, buffered: bool) -> bool {
        !buffered
    }
}

/// What the directory home waits for after dispatching a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HomeStage {
    /// The multicast invalidation to return.
    AwaitInval,
    /// The dirty node's memory update.
    AwaitUpdate,
}

/// A block's locked home context: the admitted request and what it waits
/// for. The block is locked exactly while its context exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HomeTxn {
    /// The admitted request (`DirRead`/`DirWrite`/`DirUpgrade`/`WriteBack`).
    pub req: RingMessage,
    /// `None` until [`act`] dispatches the request.
    pub stage: Option<HomeStage>,
    /// An upgrade served as a write miss: its reply must carry data.
    pub converted: bool,
}

/// The engine's own state: the full-map directory, the per-block home
/// contexts and pending queues, and the forwards parked at each node.
#[derive(Debug, Clone)]
pub struct RingEngine {
    protocol: ProtocolKind,
    /// The full-map directory (directory protocol).
    pub dir: Directory,
    homes: FnvMap<u64, HomeTxn>,
    pending: FnvMap<u64, Vec<RingMessage>>,
    parked: Vec<Vec<RingMessage>>,
}

impl RingEngine {
    /// An idle engine for `protocol` on `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is 0 or exceeds 64 (the presence-bit width).
    #[must_use]
    pub fn new(protocol: ProtocolKind, nodes: usize) -> Self {
        Self {
            protocol,
            dir: Directory::new(nodes),
            homes: FnvMap::default(),
            pending: FnvMap::default(),
            parked: vec![Vec::new(); nodes],
        }
    }

    /// `block`'s home context; `Some` exactly while the block is locked.
    #[inline]
    #[must_use]
    pub fn context(&self, block: BlockAddr) -> Option<&HomeTxn> {
        self.homes.get(&block.raw())
    }

    /// Requests queued behind `block`'s lock, oldest first.
    #[inline]
    #[must_use]
    pub fn queued(&self, block: BlockAddr) -> &[RingMessage] {
        self.pending.get(&block.raw()).map_or(&[], Vec::as_slice)
    }

    /// Requests queued at all homes.
    #[must_use]
    pub fn queued_total(&self) -> usize {
        self.pending.values().map(Vec::len).sum()
    }

    /// Forwards parked at `node` behind its own fill.
    #[inline]
    #[must_use]
    pub fn parked(&self, node: NodeId) -> &[RingMessage] {
        &self.parked[node.index()]
    }

    /// Reinstates `block`'s context and queue (state decoding).
    pub fn restore_home(
        &mut self,
        block: BlockAddr,
        context: Option<HomeTxn>,
        queued: Vec<RingMessage>,
    ) {
        if let Some(ctx) = context {
            self.homes.insert(block.raw(), ctx);
        }
        if !queued.is_empty() {
            self.pending.insert(block.raw(), queued);
        }
    }

    /// Reinstates the forwards parked at `node` (state decoding).
    pub fn restore_parked(&mut self, node: NodeId, fwds: Vec<RingMessage>) {
        self.parked[node.index()] = fwds;
    }
}

// ------------------------------------------------------------- snooping

/// How a snooping transaction goes out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnoopIssue {
    /// A read at its own clean home: local memory supplies, no probe.
    LocalRead,
    /// Send this probe. A clean home's write or upgrade has claimed the
    /// dirty bit and set [`Txn::self_owner`].
    Probe(MsgKind),
}

/// The local-clean issue decision for `node`'s snooping transaction
/// (first attempt or retry).
///
/// # Panics
///
/// Panics if `node` has no transaction.
pub fn snoop_issue<H: RingHost + ?Sized>(h: &mut H, node: NodeId) -> SnoopIssue {
    let t = h.txn(node).expect("issue without a transaction");
    let (block, kind) = (t.block, t.kind);
    let local_clean = h.home_of(block) == node && !h.memory().is_dirty(block);
    match kind {
        TxnKind::Read if local_clean => return SnoopIssue::LocalRead,
        TxnKind::Read => {}
        TxnKind::Write | TxnKind::Upgrade => {
            if local_clean {
                h.txn(node).expect("issuing transaction").self_owner = true;
                h.memory().set_dirty(block);
            }
        }
    }
    SnoopIssue::Probe(kind.snoop_probe())
}

/// What one node did as a snooped message passed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnoopVisit {
    /// The cache side's action ([`SnoopAction::Ignore`] when the node sat
    /// the message out).
    pub cache: SnoopAction,
    /// The home memory's action (always [`HomeSnoopAction::Silent`] away
    /// from the block's home).
    pub home: HomeSnoopAction,
}

impl SnoopVisit {
    const NONE: SnoopVisit =
        SnoopVisit { cache: SnoopAction::Ignore, home: HomeSnoopAction::Silent };

    /// Whether the visit acknowledges a probe: a dirty owner or the clean
    /// home answered.
    #[inline]
    #[must_use]
    pub fn acked(self) -> bool {
        matches!(self.cache, SnoopAction::SupplyDowngrade | SnoopAction::SupplyInvalidate)
            || self.home != HomeSnoopAction::Silent
    }
}

/// `msg` passes `node` without being removed there: a snooping probe
/// (cache side plus, at `home`, the dirty-bit side) or another node's
/// multicast invalidation. Every other message passes untouched.
///
/// Data replies go out through [`RingHost::send`]: the cache side's first
/// (marked `from_dirty`, then the owner's write-back), the home's last.
/// `home` must be `msg.block`'s home for probes and is ignored otherwise.
#[inline]
pub fn snoop_at<H: RingHost + ?Sized>(
    h: &mut H,
    node: NodeId,
    home: NodeId,
    msg: &RingMessage,
) -> SnoopVisit {
    let block = msg.block;
    match msg.kind {
        MsgKind::SnoopRead | MsgKind::SnoopWrite | MsgKind::SnoopUpgrade => {
            debug_assert_ne!(msg.src, node, "source does not snoop its own probe");
            // A node with its own transaction in flight on this block does
            // not participate (home side included): conflicts resolve
            // through the home's dirty bit and the requester's retry. A
            // passing write still poisons its pending read.
            if let Some(t) = h.txn(node) {
                if t.block == block {
                    if msg.kind != MsgKind::SnoopRead && t.kind == TxnKind::Read {
                        t.poisoned = true;
                    }
                    return SnoopVisit::NONE;
                }
            }
            let state = h.caches().state_of(node.index(), block);
            // An `Inv` line ignores every probe and only the home's memory
            // answers: most passes end here, before any rule is evaluated
            // (or, with counters, counted).
            if state == LineState::Inv && node != home && h.counts().is_none() {
                return SnoopVisit::NONE;
            }
            probe_visit(h, node, home, msg, state)
        }
        MsgKind::DirInval if msg.requester != node => {
            let state = h.caches().state_of(node.index(), block);
            let mut visit = SnoopVisit::NONE;
            if state != LineState::Inv || h.counts().is_some() {
                visit.cache = inval_visit(h, node, block, state);
            }
            poison(h, node, block);
            visit
        }
        _ => SnoopVisit::NONE,
    }
}

/// A probe's visit at a node that takes part: the cache side (in `state`),
/// then, at the home, the dirty-bit side.
fn probe_visit<H: RingHost + ?Sized>(
    h: &mut H,
    node: NodeId,
    home: NodeId,
    msg: &RingMessage,
    state: LineState,
) -> SnoopVisit {
    let block = msg.block;
    debug_assert_eq!(home, h.home_of(block), "wrong home for {msg}");
    let data =
        RingMessage::for_requester(MsgKind::BlockData, block, node, msg.requester, msg.requester);
    let mut visit = SnoopVisit {
        cache: guarded::snooper_action(state, msg.kind, h.counts()),
        home: HomeSnoopAction::Silent,
    };
    match visit.cache {
        SnoopAction::SupplyDowngrade => {
            // Dirty owner: downgrade, supply, refresh memory. The
            // write-back travels even from the home itself: the dirty bit
            // answers Silent until it lands.
            h.caches().snoop_downgrade(node.index(), block);
            h.send(data.with_from_dirty(true));
            h.send(RingMessage::new(MsgKind::WriteBack, block, node, home));
        }
        SnoopAction::SupplyInvalidate => {
            h.caches().snoop_invalidate(node.index(), block);
            h.send(data.with_from_dirty(true));
        }
        SnoopAction::Invalidate => h.invalidate_sharer(node, block),
        SnoopAction::Ignore => {}
    }
    if node == home {
        let dirty = h.memory().is_dirty(block);
        visit.home = guarded::home_snoop_action(dirty, msg.kind, h.counts());
        match visit.home {
            HomeSnoopAction::Supply => h.send(data),
            HomeSnoopAction::SupplyClaim => {
                h.send(data);
                h.claim_dirty(block);
            }
            HomeSnoopAction::AckClaim => h.claim_dirty(block),
            HomeSnoopAction::Silent => {}
        }
    }
    visit
}

/// Another node's multicast invalidation passes `node`, whose copy is in
/// `state`. Presence bits are updated wholesale when the multicast returns
/// to the home.
fn inval_visit<H: RingHost + ?Sized>(
    h: &mut H,
    node: NodeId,
    block: BlockAddr,
    state: LineState,
) -> SnoopAction {
    let action = guarded::snooper_action(state, MsgKind::DirInval, h.counts());
    match action {
        SnoopAction::Invalidate => h.invalidate_sharer(node, block),
        SnoopAction::Ignore => {}
        SnoopAction::SupplyInvalidate | SnoopAction::SupplyDowngrade => {
            unreachable!("multicast invalidation never asks a cache for data")
        }
    }
    action
}

/// How a snooping probe's return settles the requester's transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeReturn {
    /// The probe belongs to a superseded attempt.
    Stale,
    /// Nobody acknowledged: retry. A `converted` upgrade has dropped its
    /// stale line and retries as a write miss.
    Retry {
        /// The upgrade became a write miss.
        converted: bool,
    },
    /// An acknowledged upgrade: promote the line in place.
    Promote,
    /// A clean home's own write: local memory supplies the data.
    SelfOwnedWrite,
    /// The data arrives in a block message.
    AwaitData,
}

/// `node`'s probe for `block` returned; `acked` is the probe's
/// acknowledgment field.
pub fn probe_returned<H: RingHost + ?Sized>(
    h: &mut H,
    node: NodeId,
    block: BlockAddr,
    acked: bool,
) -> ProbeReturn {
    let Some(t) = h.txn(node) else { return ProbeReturn::Stale };
    if t.block != block {
        return ProbeReturn::Stale;
    }
    if !acked && !t.self_owner {
        let converted = t.kind == TxnKind::Upgrade;
        if converted {
            // The requester's line is stale: drop it and retry as a write
            // miss.
            t.kind = TxnKind::Write;
            h.caches().snoop_invalidate(node.index(), block);
        }
        return ProbeReturn::Retry { converted };
    }
    match t.kind {
        TxnKind::Upgrade => ProbeReturn::Promote,
        TxnKind::Write if t.self_owner => ProbeReturn::SelfOwnedWrite,
        TxnKind::Read | TxnKind::Write => ProbeReturn::AwaitData,
    }
}

// ------------------------------------------------------ directory home

/// Whether a request reaching its home was admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// The block was free: the request holds the lock and
    /// [`RingHost::home_ready`] has been called.
    Act,
    /// The block is locked: the request waits in its queue.
    Queued,
}

/// A directory request (or write-back) reaches its home.
pub fn receive<H: RingHost + ?Sized>(h: &mut H, msg: RingMessage) -> Admit {
    let e = h.engine();
    let raw = msg.block.raw();
    if e.homes.contains_key(&raw) {
        e.pending.entry(raw).or_default().push(msg);
        return Admit::Queued;
    }
    e.homes.insert(raw, HomeTxn { req: msg, stage: None, converted: false });
    h.home_ready(msg);
    Admit::Act
}

/// A write-back reaches its home: the snooping home's memory is clean
/// again; the directory home serialises it like a request.
pub fn write_back_arrived<H: RingHost + ?Sized>(h: &mut H, msg: RingMessage) -> Option<Admit> {
    if h.engine().protocol == ProtocolKind::Directory {
        Some(receive(h, msg))
    } else {
        h.memory().clear_dirty(msg.block);
        None
    }
}

/// What [`act`] did with the locked request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HomeStep {
    /// A write-back was absorbed (or, if reclaimed meanwhile, dropped).
    WriteBack,
    /// A request was dispatched.
    Request {
        /// The node whose transaction the request serves.
        requester: NodeId,
        /// The request as served (a converted upgrade is a `Write`).
        req: DirRequest,
        /// An upgrade whose line went stale in the queue.
        converted: bool,
        /// The directory's decision.
        action: DirAction,
        /// Presence bits of the other sharers at dispatch.
        others: u64,
    },
}

/// The home's memory and directory access for `block`'s locked request
/// completes: dispatch it.
///
/// # Panics
///
/// Panics if `block` has no context.
pub fn act<H: RingHost + ?Sized>(h: &mut H, block: BlockAddr) -> HomeStep {
    let req = h.engine().homes.get(&block.raw()).expect("home context present").req;
    let home = req.dst;
    let requester = req.requester;
    if req.kind == MsgKind::WriteBack {
        // The buffer entry is the liveness token for an in-flight
        // write-back: `reclaim` clears it when the evictor's own re-miss
        // overtakes the message, and the home must then drop the stale
        // arrival — by the time it lands the block may already be granted
        // back to the evictor, and clearing the entry would orphan that
        // copy.
        let evictor = req.src;
        let live = h.buffered(evictor, block);
        h.set_buffered(evictor, block, false);
        let dir = &mut h.engine().dir;
        if live && dir.entry(block).owner == Some(evictor) {
            dir.remove_sharer(block, evictor);
        }
        unlock_and_drain(h, block);
        return HomeStep::WriteBack;
    }
    unpoison(h, requester, block);
    let mut kind = DirRequest::classify(req.kind).expect("home context holds a request");
    // An upgrader whose line was invalidated while the request waited is
    // served as a write miss.
    let converted = kind == DirRequest::Upgrade
        && transitions::upgrade_must_convert(&h.engine().dir.entry(block), requester);
    if converted {
        kind = DirRequest::Write;
    }
    if kind == DirRequest::Upgrade {
        debug_assert!(
            h.engine().dir.entry(block).owner.is_none(),
            "upgrader coexists with an owner"
        );
    } else {
        reclaim(h, block, requester);
    }
    let entry = h.engine().dir.entry(block);
    let action = guarded::dir_action(&entry, requester, kind, h.counts());
    let reply = |kind| RingMessage::for_requester(kind, block, home, requester, requester);
    match action {
        DirAction::ForwardRead { owner } | DirAction::ForwardWrite { owner } => {
            debug_assert_ne!(owner, requester, "requester misses on a block it owns");
            let fwd = if matches!(action, DirAction::ForwardRead { .. }) {
                // Record the requester now, not when the MemUpdate
                // returns: it can fill (data comes straight from the owner)
                // and evict again before the update reaches the home, and
                // its replacement hint must find the presence bit to clear.
                h.engine().dir.add_sharer(block, requester);
                MsgKind::DirFwdRead
            } else {
                MsgKind::DirFwdWrite
            };
            await_stage(h, block, HomeStage::AwaitUpdate, converted);
            h.send(RingMessage::for_requester(fwd, block, home, owner, requester));
        }
        DirAction::InvalidateSharers => {
            // The home observes its own multicast at once: it drops its
            // copy unless it is the (exempt) requester.
            if home != requester {
                h.invalidate_sharer(home, block);
                poison(h, home, block);
            }
            await_stage(h, block, HomeStage::AwaitInval, converted);
            h.send(RingMessage::for_requester(MsgKind::DirInval, block, home, home, requester));
        }
        DirAction::GrantData => {
            if kind == DirRequest::Read {
                h.engine().dir.add_sharer(block, requester);
            } else {
                h.set_owner(block, requester);
            }
            h.send(reply(MsgKind::BlockData));
            unlock_and_drain(h, block);
        }
        DirAction::GrantAck => {
            h.set_owner(block, requester);
            h.send(reply(MsgKind::DirAck));
            unlock_and_drain(h, block);
        }
    }
    HomeStep::Request {
        requester,
        req: kind,
        converted,
        action,
        others: entry.other_sharers(requester),
    }
}

/// The multicast invalidation returned to the home: the requester becomes
/// the owner and gets its reply.
///
/// # Panics
///
/// Panics if the block has no context.
pub fn inval_returned<H: RingHost + ?Sized>(h: &mut H, msg: RingMessage) {
    let block = msg.block;
    let ctx = *h.engine().homes.get(&block.raw()).expect("inval context");
    debug_assert_eq!(ctx.stage, Some(HomeStage::AwaitInval));
    let requester = ctx.req.requester;
    h.set_owner(block, requester);
    let reply = match ctx.req.kind {
        // A converted upgrade is served as a write miss: the requester's
        // line is gone, so the reply must carry the block.
        MsgKind::DirUpgrade if !ctx.converted => MsgKind::DirAck,
        _ => MsgKind::BlockData,
    };
    h.send(RingMessage::for_requester(reply, block, ctx.req.dst, requester, requester));
    unlock_and_drain(h, block);
}

/// The dirty node's memory/directory refresh arrived at the home.
///
/// # Panics
///
/// Panics if the block has no context.
pub fn update_received<H: RingHost + ?Sized>(h: &mut H, msg: RingMessage) {
    let block = msg.block;
    let ctx = *h.engine().homes.get(&block.raw()).expect("update context");
    debug_assert_eq!(ctx.stage, Some(HomeStage::AwaitUpdate));
    if ctx.req.kind == MsgKind::DirRead {
        // The requester's presence bit was set when the forward went out;
        // only the old owner's status needs settling here.
        let dir = &mut h.engine().dir;
        dir.clear_owner(block);
        if !msg.retained {
            dir.remove_sharer(block, msg.src);
        }
    } else {
        h.set_owner(block, ctx.req.requester);
    }
    unlock_and_drain(h, block);
}

/// A forward reached the (current or former) dirty node. Returns `true`
/// when it was served at once (its data and memory update sent), `false`
/// when it waits for the target's own fill.
pub fn forward_arrived<H: RingHost + ?Sized>(h: &mut H, fwd: RingMessage) -> bool {
    let node = fwd.dst;
    let own_txn = h.txn(node).is_some_and(|t| t.block == fwd.block);
    if own_txn && h.parks_forward(h.buffered(node, fwd.block)) {
        h.engine().parked[node.index()].push(fwd);
        false
    } else {
        serve_forward(h, fwd);
        true
    }
}

/// `node`'s transaction on `block` completed: serve the forwards that
/// waited for it.
pub fn release_forwards<H: RingHost + ?Sized>(h: &mut H, node: NodeId, block: BlockAddr) {
    if h.engine().parked[node.index()].is_empty() {
        return;
    }
    let fwds = std::mem::take(&mut h.engine().parked[node.index()]);
    for fwd in fwds {
        if fwd.block == block {
            serve_forward(h, fwd);
        } else {
            h.engine().parked[node.index()].push(fwd);
        }
    }
}

/// What a replacement did at the ring level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eviction {
    /// A clean line left silently (the directory's presence bit went with
    /// a zero-cost replacement hint).
    Clean,
    /// A dirty line wrote back. At its own home the write-back is handed
    /// over at once; `queued` says it waits behind the block's lock.
    WriteBack {
        /// The local write-back queued at a locked home.
        queued: bool,
    },
}

/// `node` replaced `victim` (held in `state`). A dirty victim writes back
/// to its home (the directory also keeps it in the write-back buffer).
pub fn victim<H: RingHost + ?Sized>(
    h: &mut H,
    node: NodeId,
    victim: BlockAddr,
    state: LineState,
) -> Eviction {
    let directory = h.engine().protocol == ProtocolKind::Directory;
    if !state.is_dirty() {
        if directory && state.is_valid() {
            h.engine().dir.remove_sharer(victim, node);
        }
        return Eviction::Clean;
    }
    if directory {
        h.set_buffered(node, victim, true);
    }
    let home = h.home_of(victim);
    let wb = RingMessage::new(MsgKind::WriteBack, victim, node, home);
    if home == node {
        let queued = write_back_arrived(h, wb) == Some(Admit::Queued);
        Eviction::WriteBack { queued }
    } else {
        h.send(wb);
        Eviction::WriteBack { queued: false }
    }
}

fn await_stage<H: RingHost + ?Sized>(
    h: &mut H,
    block: BlockAddr,
    stage: HomeStage,
    converted: bool,
) {
    let ctx = h.engine().homes.get_mut(&block.raw()).expect("home context present");
    ctx.stage = Some(stage);
    ctx.converted = converted;
}

fn unlock_and_drain<H: RingHost + ?Sized>(h: &mut H, block: BlockAddr) {
    let e = h.engine();
    let raw = block.raw();
    e.homes.remove(&raw);
    let Some(queue) = e.pending.get_mut(&raw) else { return };
    let next = queue.remove(0);
    if queue.is_empty() {
        e.pending.remove(&raw);
    }
    receive(h, next);
}

/// If the directory says the requester itself owns the block, its
/// write-back must be in flight: the home pulls it in place (clearing the
/// evictor's buffer models the acknowledgment) so the request proceeds
/// against clean memory.
fn reclaim<H: RingHost + ?Sized>(h: &mut H, block: BlockAddr, requester: NodeId) {
    if transitions::must_reclaim_writeback(&h.engine().dir.entry(block), requester) {
        debug_assert!(
            h.buffered(requester, block),
            "directory owner misses without a write-back in flight"
        );
        h.engine().dir.remove_sharer(block, requester);
        h.set_buffered(requester, block, false);
    }
}

/// The forward's target supplies the data and refreshes the home.
fn serve_forward<H: RingHost + ?Sized>(h: &mut H, fwd: RingMessage) {
    let node = fwd.dst;
    let block = fwd.block;
    let state = h.caches().state_of(node.index(), block);
    debug_assert!(
        state == LineState::We || h.buffered(node, block),
        "forward to a node without the data: {fwd} (state {state:?})"
    );
    if state != LineState::We {
        // Serving from the write-back buffer hands the data over; the
        // entry — and with it the still-circulating WriteBack — is
        // consumed, or the stale arrival could clear a later re-grant of
        // the block.
        h.set_buffered(node, block, false);
    }
    let retained = match fwd.kind {
        MsgKind::DirFwdRead if state == LineState::We => {
            h.caches().snoop_downgrade(node.index(), block);
            true
        }
        MsgKind::DirFwdWrite if state == LineState::We => {
            h.caches().snoop_invalidate(node.index(), block);
            false
        }
        MsgKind::DirFwdRead | MsgKind::DirFwdWrite => false,
        _ => unreachable!("serve_forward on non-forward"),
    };
    let home = fwd.src;
    h.send(
        RingMessage::for_requester(MsgKind::BlockData, block, node, fwd.requester, fwd.requester)
            .with_from_dirty(true),
    );
    h.send(RingMessage::new(MsgKind::MemUpdate, block, node, home).with_retained(retained));
}

/// A multicast invalidation overtook `node`'s pending read of `block`: the
/// load completes (ordered before the write) but must not cache the line.
fn poison<H: RingHost + ?Sized>(h: &mut H, node: NodeId, block: BlockAddr) {
    if let Some(t) = h.txn(node) {
        if t.block == block && t.kind == TxnKind::Read {
            t.poisoned = true;
        }
    }
}

/// The home is ordering `requester`'s transaction on `block` *now*: a
/// poison mark left by a multicast that completed before this
/// serialisation point is stale (the fill is ordered after that write and
/// may be cached). Only an invalidation arriving after this moment may
/// poison the fill.
fn unpoison<H: RingHost + ?Sized>(h: &mut H, requester: NodeId, block: BlockAddr) {
    if let Some(t) = h.txn(requester) {
        if t.block == block {
            t.poisoned = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use ringsim_cache::CacheConfig;

    use super::*;

    /// A host that records what the engine emits and admits, acting only
    /// when the test says so.
    struct Bench {
        engine: RingEngine,
        caches: Vec<Cache>,
        mem: HomeMemory,
        txns: Vec<Option<Txn<()>>>,
        sent: Vec<RingMessage>,
        admitted: Vec<RingMessage>,
    }

    impl Bench {
        fn new(nodes: usize) -> Self {
            let cfg = CacheConfig { size_bytes: 64, block_bytes: 16 };
            Self {
                engine: RingEngine::new(ProtocolKind::Directory, nodes),
                caches: (0..nodes).map(|_| Cache::new(cfg).unwrap()).collect(),
                mem: HomeMemory::new(),
                txns: vec![None; nodes],
                sent: Vec::new(),
                admitted: Vec::new(),
            }
        }
    }

    impl RingHost for Bench {
        type Caches = [Cache];
        type TxnExt = ();

        fn engine(&mut self) -> &mut RingEngine {
            &mut self.engine
        }

        fn caches(&mut self) -> &mut [Cache] {
            &mut self.caches
        }

        fn memory(&mut self) -> &mut HomeMemory {
            &mut self.mem
        }

        fn home_of(&self, _block: BlockAddr) -> NodeId {
            NodeId::new(0)
        }

        fn txn(&mut self, node: NodeId) -> Option<&mut Txn<()>> {
            self.txns[node.index()].as_mut()
        }

        fn buffered(&self, _node: NodeId, _block: BlockAddr) -> bool {
            false
        }

        fn set_buffered(&mut self, _node: NodeId, _block: BlockAddr, _buffered: bool) {}

        fn send(&mut self, msg: RingMessage) {
            self.sent.push(msg);
        }

        fn home_ready(&mut self, req: RingMessage) {
            self.admitted.push(req);
        }
    }

    fn request(kind: MsgKind, block: BlockAddr, from: usize) -> RingMessage {
        let node = NodeId::new(from);
        RingMessage::for_requester(kind, block, node, NodeId::new(0), node)
    }

    #[test]
    fn a_block_is_locked_exactly_while_its_context_exists() {
        let mut h = Bench::new(4);
        let b = BlockAddr::new(9);
        let read = request(MsgKind::DirRead, b, 1);
        let write = request(MsgKind::DirWrite, b, 2);
        assert_eq!(receive(&mut h, read), Admit::Act);
        assert_eq!(h.engine.context(b).map(|c| c.req), Some(read));
        assert_eq!(receive(&mut h, write), Admit::Queued);
        assert_eq!(h.engine.queued(b), &[write]);
        assert_eq!(h.admitted, [read], "a queued request is not admitted");

        // The clean read is granted at once: the lock passes to the write.
        let step = act(&mut h, b);
        assert!(matches!(step, HomeStep::Request { action: DirAction::GrantData, .. }));
        assert_eq!(h.admitted, [read, write]);
        assert_eq!(h.engine.context(b).map(|c| c.req), Some(write));
        assert_eq!(h.engine.queued_total(), 0);

        // The write must invalidate the reader: the lock holds until the
        // multicast returns.
        let step = act(&mut h, b);
        assert!(matches!(
            step,
            HomeStep::Request { action: DirAction::InvalidateSharers, others: 0b10, .. }
        ));
        assert_eq!(h.engine.context(b).and_then(|c| c.stage), Some(HomeStage::AwaitInval));
        let inval = *h.sent.last().unwrap();
        assert_eq!(inval.kind, MsgKind::DirInval);
        inval_returned(&mut h, inval);
        assert!(h.engine.context(b).is_none());
        assert_eq!(h.engine.dir.entry(b).owner, Some(NodeId::new(2)));
        assert_eq!(
            h.sent.last().map(|m| (m.kind, m.dst)),
            Some((MsgKind::BlockData, NodeId::new(2)))
        );
    }
}
