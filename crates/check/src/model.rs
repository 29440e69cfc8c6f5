//! The abstract protocol machine explored by the checker.
//!
//! The *state* is built from the very objects the timed simulators use —
//! [`Cache`], [`HomeMemory`], [`RingMessage`] and, for the two ring
//! protocols, the [`RingEngine`] with its `Directory`, home contexts and
//! queues. Every ring-protocol effect comes from
//! [`ringsim_proto::ring_engine`], the engine `RingSystem` drives too, and
//! every MESI and Dragon effect from [`ringsim_proto::bus_engine`], the
//! engine `BusSystem` drives, and every SCI effect from
//! [`ringsim_proto::sci`], the engine `SciRingSystem` and Table 1 drive:
//! this module only schedules the engines' steps, through [`Host`], the
//! model's `RingHost`, `BusHost` and `SciHost`. The fault fixtures override
//! that host's hooks.
//!
//! What the model abstracts away is *time*: slot rotation, latencies and
//! retry backoffs are replaced by a nondeterministic scheduler that explores
//! every ordering of the remaining atomic steps (issuing a reference,
//! circulating a snoop probe, delivering one network message, ...).
//!
//! Abstractions, and why they are sound:
//!
//! * **Atomic probe circulation.** A snooping probe (and the directory's
//!   multicast invalidation) visits all nodes in one step. Per-node effects
//!   are independent, and a reference issued "mid-circulation" at node `j`
//!   is indistinguishable from one issued just before or just after the
//!   probe's visit to `j`, both of which the scheduler explores as separate
//!   interleavings.
//! * **Folded home access.** The directory home's lock acquisition and its
//!   subsequent memory/directory access are one step (the host acts on an
//!   admitted request at once): the entry is locked for the whole window,
//!   so no same-block event can interleave.
//! * **Immediate local delivery.** A message a node sends itself arrives in
//!   the same step — except a write-back, which travels so the snooping
//!   home's dirty bit keeps answering until it lands.
//! * **Per-class FIFO network.** Messages with the same source,
//!   destination, slot class, and block arrive in insertion order (slots of
//!   one class preserve order on the ring); everything else reorders
//!   freely.
//! * **No conflict misses.** Caches are sized so every model block maps to
//!   its own line; replacements are modelled by explicit eviction steps,
//!   which drive the engine's victim handling just as `fill` displacement
//!   does in the simulator.

use std::sync::Arc;

use ringsim_cache::{Cache, CacheConfig, LineState};
use ringsim_proto::bus_engine::{self, BusAction, BusHost};
use ringsim_proto::guarded::FireCounts;
use ringsim_proto::ring_engine::{
    self, HomeStage, HomeTxn, ProbeReturn, RingEngine, RingHost, SnoopIssue, TxnKind,
};
use ringsim_proto::sci::{self, SciAction, SciHost, SciList};
use ringsim_proto::transitions::{DragonAction as D, MesiAction as M};
use ringsim_proto::{HomeMemory, MsgKind, ProtocolKind, RingMessage};
use ringsim_types::{BlockAddr, NodeId};

use crate::Fault;

fn kind_name(kind: TxnKind) -> &'static str {
    match kind {
        TxnKind::Read => "read miss",
        TxnKind::Write => "write miss",
        TxnKind::Upgrade => "upgrade",
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Snooping: the probe is ready to circulate (first attempt or retry).
    NeedProbe,
    /// Snooping: a local clean read completing from the home's own memory.
    WaitLocal,
    /// Waiting for a remote reply (snooping data, or any directory reply).
    WaitRemote,
}

/// A transaction in flight; the engine's fields plus the scheduler phase.
pub(crate) type Txn = ring_engine::Txn<Phase>;

/// One reachable protocol state.
#[derive(Debug, Clone)]
pub(crate) struct State {
    pub caches: Vec<Cache>,
    pub mem: HomeMemory,
    /// The ring protocols' engine: directory, home contexts and queues,
    /// parked forwards.
    pub engine: RingEngine,
    pub txns: Vec<Option<Txn>>,
    /// Directory mode: dirty-victim write-back in flight, per `[node][block]`.
    pub wb_buffer: Vec<Vec<bool>>,
    /// In-flight messages, insertion-ordered (FIFO within a class lane).
    pub net: Vec<RingMessage>,
    /// SCI mode: per-block sharing list (head first) plus dirty bit.
    pub sci: Vec<SciList>,
    /// MESI/Dragon mode: clean-exclusive (E) marker per `[node][block]` —
    /// the line is `We` in the cache but memory is still up to date.
    pub excl: Vec<Vec<bool>>,
    /// Dragon mode: per-block Sm owner (shared-modified supplier), if any.
    pub sm: Vec<Option<NodeId>>,
}

/// One scheduler step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Move {
    /// A processor issues a read (`write == false`) or write reference.
    Issue { node: usize, block: usize, write: bool },
    /// A cache replaces a valid line (conflict miss stand-in).
    Evict { node: usize, block: usize },
    /// A snooping local clean read completes from the home's own memory.
    LocalComplete { node: usize },
    /// A snooping probe circulates the full ring and returns.
    Circulate { node: usize },
    /// The `index`-th in-flight message arrives at its destination.
    Deliver { index: usize },
}

impl Move {
    /// Issue and Evict inject new work; everything else makes progress on
    /// outstanding work. Deadlock is judged on progress moves only.
    pub(crate) fn is_progress(self) -> bool {
        !matches!(self, Move::Issue { .. } | Move::Evict { .. })
    }

    /// Packs the move into 16 bits for the per-state side table (3-bit tag,
    /// 13-bit payload). Nodes fit in 3 bits and blocks in 2 by
    /// `CheckConfig::validate`; delivery indices are bounded by the number
    /// of in-flight messages, far below 2^13.
    pub(crate) fn pack(self) -> u16 {
        match self {
            Move::Issue { node, block, write } => {
                (node as u16) << 4 | (block as u16) << 1 | u16::from(write)
            }
            Move::Evict { node, block } => 1 << 13 | (node as u16) << 4 | (block as u16) << 1,
            Move::LocalComplete { node } => 2 << 13 | node as u16,
            Move::Circulate { node } => 3 << 13 | node as u16,
            Move::Deliver { index } => {
                debug_assert!(index < 1 << 13, "unpackable delivery index {index}");
                4 << 13 | index as u16
            }
        }
    }

    /// Inverse of [`Move::pack`].
    pub(crate) fn unpack(p: u16) -> Move {
        let payload = (p & 0x1FFF) as usize;
        match p >> 13 {
            0 => Move::Issue {
                node: payload >> 4,
                block: (payload >> 1) & 0b11,
                write: payload & 1 != 0,
            },
            1 => Move::Evict { node: payload >> 4, block: (payload >> 1) & 0b11 },
            2 => Move::LocalComplete { node: payload },
            3 => Move::Circulate { node: payload },
            4 => Move::Deliver { index: payload },
            tag => panic!("invalid packed move tag {tag}"),
        }
    }
}

/// The model: configuration plus the transition functions.
#[derive(Debug, Clone)]
pub(crate) struct Model {
    pub protocol: ProtocolKind,
    pub nodes: usize,
    pub blocks: usize,
    pub fault: Fault,
    pub evictions: bool,
    /// When set, every guarded-rule evaluation bumps its fire counter
    /// (`--stats`); `None` skips the accounting entirely.
    pub counts: Option<Arc<FireCounts>>,
}

pub(crate) fn kind_code(k: MsgKind) -> u8 {
    match k {
        MsgKind::SnoopRead => 0,
        MsgKind::SnoopWrite => 1,
        MsgKind::SnoopUpgrade => 2,
        MsgKind::DirRead => 3,
        MsgKind::DirWrite => 4,
        MsgKind::DirUpgrade => 5,
        MsgKind::DirFwdRead => 6,
        MsgKind::DirFwdWrite => 7,
        MsgKind::DirInval => 8,
        MsgKind::DirAck => 9,
        MsgKind::BlockData => 10,
        MsgKind::WriteBack => 11,
        MsgKind::MemUpdate => 12,
    }
}

fn code_kind(c: u8) -> MsgKind {
    match c {
        0 => MsgKind::SnoopRead,
        1 => MsgKind::SnoopWrite,
        2 => MsgKind::SnoopUpgrade,
        3 => MsgKind::DirRead,
        4 => MsgKind::DirWrite,
        5 => MsgKind::DirUpgrade,
        6 => MsgKind::DirFwdRead,
        7 => MsgKind::DirFwdWrite,
        8 => MsgKind::DirInval,
        9 => MsgKind::DirAck,
        10 => MsgKind::BlockData,
        11 => MsgKind::WriteBack,
        12 => MsgKind::MemUpdate,
        _ => panic!("invalid message-kind code {c}"),
    }
}

pub(crate) fn state_code(s: LineState) -> u8 {
    match s {
        LineState::Inv => 0,
        LineState::Rs => 1,
        LineState::We => 2,
    }
}

fn code_state(c: u8) -> LineState {
    match c {
        0 => LineState::Inv,
        1 => LineState::Rs,
        2 => LineState::We,
        _ => panic!("invalid line-state code {c}"),
    }
}

/// One-byte encoding of a transaction's kind/phase/flag bits (block
/// excluded), shared by the state encoding and the symmetry signatures.
pub(crate) fn txn_code(t: &Txn) -> u8 {
    let kind = match t.kind {
        TxnKind::Read => 0u8,
        TxnKind::Write => 1,
        TxnKind::Upgrade => 2,
    };
    let phase = match t.ext {
        Phase::NeedProbe => 0u8,
        Phase::WaitLocal => 1,
        Phase::WaitRemote => 2,
    };
    kind | (phase << 2) | (u8::from(t.poisoned) << 4) | (u8::from(t.self_owner) << 5)
}

/// The lane a message travels in: messages in the same lane stay FIFO.
fn lane(m: &RingMessage) -> (u8, u64, u16, u16) {
    let class = match m.class() {
        ringsim_proto::MsgClass::Probe => 0u8,
        ringsim_proto::MsgClass::Block => 1u8,
    };
    (class, m.block.raw(), m.src.index() as u16, m.dst.index() as u16)
}

fn encode_msg_under(out: &mut Vec<u8>, m: &RingMessage, node_map: &[usize], block_map: &[usize]) {
    out.push(kind_code(m.kind));
    out.push(block_map[m.block.raw() as usize] as u8);
    out.push(node_map[m.src.index()] as u8);
    out.push(node_map[m.dst.index()] as u8);
    out.push(node_map[m.requester.index()] as u8);
    out.push(u8::from(m.retained) | (u8::from(m.from_dirty) << 1));
}

fn decode_msg(bytes: &[u8], pos: &mut usize) -> RingMessage {
    let take = |pos: &mut usize| {
        let b = bytes[*pos];
        *pos += 1;
        b
    };
    let kind = code_kind(take(pos));
    let block = BlockAddr::new(u64::from(take(pos)));
    let src = NodeId::new(take(pos) as usize);
    let dst = NodeId::new(take(pos) as usize);
    let requester = NodeId::new(take(pos) as usize);
    let flags = take(pos);
    RingMessage::for_requester(kind, block, src, dst, requester)
        .with_retained(flags & 1 != 0)
        .with_from_dirty(flags & 2 != 0)
}

impl Model {
    pub(crate) fn new(
        protocol: ProtocolKind,
        nodes: usize,
        blocks: usize,
        fault: Fault,
        evictions: bool,
    ) -> Self {
        Self { protocol, nodes, blocks, fault, evictions, counts: None }
    }

    /// The guarded-rule dispatch counters, if stats are being collected.
    fn fire_counts(&self) -> Option<&FireCounts> {
        self.counts.as_deref()
    }

    fn cache_config(&self) -> CacheConfig {
        // Every model block gets its own line: replacement is modelled by
        // explicit Evict moves, not by accidental conflicts.
        CacheConfig { size_bytes: 16 * (self.blocks as u64).next_power_of_two(), block_bytes: 16 }
    }

    pub(crate) fn home_of(&self, block: BlockAddr) -> NodeId {
        NodeId::new(block.raw() as usize % self.nodes)
    }

    pub(crate) fn initial(&self) -> State {
        State {
            caches: (0..self.nodes)
                .map(|_| Cache::new(self.cache_config()).expect("valid model cache"))
                .collect(),
            mem: HomeMemory::new(),
            engine: RingEngine::new(self.protocol, self.nodes),
            txns: vec![None; self.nodes],
            wb_buffer: vec![vec![false; self.blocks]; self.nodes],
            net: Vec::new(),
            sci: vec![SciList::default(); self.blocks],
            excl: vec![vec![false; self.blocks]; self.nodes],
            sm: vec![None; self.blocks],
        }
    }

    /// Whether this protocol is one of the atomic-transaction models: the
    /// bus protocols (a bus transaction is indivisible) and SCI (the home
    /// serialises all list operations per block). For these, `Circulate`
    /// means "the pending transaction wins arbitration and is served in one
    /// step"; interleavings come from the order outstanding transactions
    /// and evictions are served in, not from in-flight messages.
    fn is_atomic(&self) -> bool {
        matches!(self.protocol, ProtocolKind::Sci | ProtocolKind::Mesi | ProtocolKind::Dragon)
    }

    pub(crate) fn is_quiescent(&self, s: &State) -> bool {
        s.txns.iter().all(Option::is_none)
            && s.net.is_empty()
            && self.blocks().all(|b| s.engine.context(b).is_none() && s.engine.queued(b).is_empty())
            && s.wb_buffer.iter().flatten().all(|&b| !b)
            && self.node_ids().all(|n| s.engine.parked(n).is_empty())
    }

    fn blocks(&self) -> impl Iterator<Item = BlockAddr> {
        (0..self.blocks as u64).map(BlockAddr::new)
    }

    fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        NodeId::all(self.nodes)
    }

    /// Forwards parked at any node, node by node.
    pub(crate) fn parked<'s>(&self, s: &'s State) -> impl Iterator<Item = &'s RingMessage> {
        self.node_ids().flat_map(|n| s.engine.parked(n))
    }

    /// Whether nothing at all is outstanding for `block` — the precondition
    /// for the strict directory–cache agreement check.
    pub(crate) fn block_quiescent(&self, s: &State, block: BlockAddr) -> bool {
        let b = block.raw() as usize;
        s.txns.iter().all(|t| t.as_ref().is_none_or(|t| t.block != block))
            && s.net.iter().all(|m| m.block != block)
            && s.engine.context(block).is_none()
            && s.engine.queued(block).is_empty()
            && s.wb_buffer.iter().all(|w| !w[b])
            && self.parked(s).all(|m| m.block != block)
    }

    // ------------------------------------------------------------ moves

    pub(crate) fn enumerate(&self, s: &State) -> Vec<Move> {
        let mut moves = Vec::new();
        for i in 0..self.nodes {
            match &s.txns[i] {
                None => {
                    for b in 0..self.blocks {
                        match s.caches[i].state_of(BlockAddr::new(b as u64)) {
                            LineState::Inv => {
                                moves.push(Move::Issue { node: i, block: b, write: false });
                                moves.push(Move::Issue { node: i, block: b, write: true });
                            }
                            LineState::Rs => {
                                moves.push(Move::Issue { node: i, block: b, write: true });
                            }
                            // A clean-exclusive (E) line promotes silently on
                            // a write hit — a real transition worth exploring.
                            LineState::We if s.excl[i][b] => {
                                moves.push(Move::Issue { node: i, block: b, write: true });
                            }
                            LineState::We => {}
                        }
                    }
                }
                Some(t) => match t.ext {
                    Phase::NeedProbe => moves.push(Move::Circulate { node: i }),
                    Phase::WaitLocal => moves.push(Move::LocalComplete { node: i }),
                    Phase::WaitRemote => {}
                },
            }
            if self.evictions {
                for b in 0..self.blocks {
                    let block = BlockAddr::new(b as u64);
                    let busy = s.txns[i].as_ref().is_some_and(|t| t.block == block);
                    // One write-back buffer entry per block, as in real
                    // hardware: a dirty line cannot be evicted again while a
                    // previous WriteBack from this node is still in flight.
                    // Without this bound stale write-backs (reclaimed by the
                    // evictor's own re-miss) pile up without limit and the
                    // state space is infinite.
                    let wb_in_flight = s.caches[i].state_of(block).is_dirty()
                        && (s.wb_buffer[i][b]
                            || s.net
                                .iter()
                                .chain(s.engine.queued(block))
                                .chain(self.parked(s))
                                .any(|m| {
                                    m.kind == MsgKind::WriteBack
                                        && m.block == block
                                        && m.src.index() == i
                                }));
                    if !busy && !wb_in_flight && s.caches[i].state_of(block).is_valid() {
                        moves.push(Move::Evict { node: i, block: b });
                    }
                }
            }
        }
        for (k, m) in s.net.iter().enumerate() {
            let key = lane(m);
            if s.net[..k].iter().all(|e| lane(e) != key) {
                moves.push(Move::Deliver { index: k });
            }
        }
        moves
    }

    /// Applies `mv` and returns a human-readable description of the step.
    pub(crate) fn apply(&self, s: &mut State, mv: Move) -> String {
        match mv {
            Move::Issue { node, block, write } => self.do_issue(s, node, block, write),
            Move::Evict { node, block } => self.do_evict(s, node, block),
            Move::LocalComplete { node } => self.do_local_complete(s, node),
            Move::Circulate { node } => self.do_circulate(s, node),
            Move::Deliver { index } => {
                let msg = s.net.remove(index);
                self.deliver(s, msg)
            }
        }
    }

    // ---------------------------------------------------- gated mutators

    /// A coherence invalidation observed at node `j` — the hook the
    /// `SkipInvalidate` mutation disables for the highest-index node.
    fn invalidate_at(&self, s: &mut State, j: usize, block: BlockAddr) {
        if self.fault == Fault::SkipInvalidate && j == self.nodes - 1 {
            return;
        }
        s.caches[j].snoop_invalidate(block);
    }

    /// The home claims the dirty bit — disabled by `ForgetOwner`.
    fn claim_dirty(&self, s: &mut State, block: BlockAddr) {
        if self.fault == Fault::ForgetOwner {
            return;
        }
        s.mem.set_dirty(block);
    }

    /// The protocol engines' view of `s`.
    fn host<'a>(&'a self, s: &'a mut State) -> Host<'a> {
        Host { model: self, s }
    }

    // ------------------------------------------------------ basic moves

    fn do_issue(&self, s: &mut State, i: usize, b: usize, write: bool) -> String {
        let block = BlockAddr::new(b as u64);
        let me = NodeId::new(i);
        let home = self.home_of(block);
        if s.caches[i].state_of(block) == LineState::We {
            // Only enumerated for MESI/Dragon on a clean-exclusive line: the
            // write hit promotes E to M without any bus traffic.
            debug_assert!(write);
            let promoted = bus_engine::write_hit(&mut self.host(s), me, block);
            debug_assert!(promoted, "write hit issued on a modified line");
            return format!("P{i} writes {block} in clean-exclusive; silent promotion to modified");
        }
        let kind = match (s.caches[i].state_of(block), write) {
            (LineState::Inv, false) => TxnKind::Read,
            (LineState::Inv, true) => TxnKind::Write,
            (LineState::Rs, true) => TxnKind::Upgrade,
            (state, _) => unreachable!("issue on a hitting access ({state:?})"),
        };
        let mut txn =
            Txn { block, kind, poisoned: false, self_owner: false, ext: Phase::WaitRemote };
        let label = format!("P{i} issues a {} on {block}", kind_name(kind));
        match self.protocol {
            ProtocolKind::Snooping => {
                s.txns[i] = Some(txn);
                let phase = match ring_engine::snoop_issue(&mut self.host(s), me) {
                    SnoopIssue::LocalRead => Phase::WaitLocal,
                    SnoopIssue::Probe(_) => Phase::NeedProbe,
                };
                s.txns[i].as_mut().expect("issued").ext = phase;
                label
            }
            ProtocolKind::Directory => {
                s.txns[i] = Some(txn);
                let req = RingMessage::new(kind.dir_request(), block, me, home);
                if home == me {
                    let outcome = receive_label(ring_engine::receive(&mut self.host(s), req));
                    format!("{label} ({outcome} at its own home)")
                } else {
                    s.net.push(req);
                    label
                }
            }
            ProtocolKind::Sci | ProtocolKind::Mesi | ProtocolKind::Dragon => {
                // Atomic-transaction protocols: the request sits pending
                // until a Circulate move serves it in one indivisible step.
                txn.ext = Phase::NeedProbe;
                s.txns[i] = Some(txn);
                label
            }
        }
    }

    fn do_evict(&self, s: &mut State, i: usize, b: usize) -> String {
        let block = BlockAddr::new(b as u64);
        let state = s.caches[i].evict(block);
        let dirty = state.is_dirty();
        self.handle_victim(s, i, block, state);
        format!("P{i} evicts {block} ({})", if dirty { "dirty" } else { "clean" })
    }

    /// Victim handling shared by Evict and `fill` displacement.
    fn handle_victim(&self, s: &mut State, i: usize, victim: BlockAddr, vstate: LineState) {
        let me = NodeId::new(i);
        match self.protocol {
            ProtocolKind::Snooping | ProtocolKind::Directory => {
                ring_engine::victim(&mut self.host(s), me, victim, vstate);
            }
            // A dirty head's rollout carries the data home with it, so
            // nothing stays in flight.
            ProtocolKind::Sci => sci::rollout(&mut self.host(s), me, victim, vstate),
            ProtocolKind::Mesi | ProtocolKind::Dragon => {
                // A write-back goes in the same bus transaction as the
                // replacement (atomic bus).
                bus_engine::retire(&mut self.host(s), me, victim, vstate);
            }
        }
    }

    fn fill(&self, s: &mut State, i: usize, block: BlockAddr, state: LineState) {
        if let Some((victim, vstate)) = s.caches[i].fill(block, state) {
            self.handle_victim(s, i, victim, vstate);
        }
    }

    fn do_local_complete(&self, s: &mut State, i: usize) -> String {
        let t = s.txns[i].expect("local completion without txn");
        debug_assert_eq!(t.ext, Phase::WaitLocal);
        if !t.poisoned {
            self.fill(s, i, t.block, LineState::Rs);
        }
        self.finish_txn(s, i);
        format!(
            "P{i} completes its local clean read of {}{}",
            t.block,
            if t.poisoned { " (poisoned, uncached)" } else { "" }
        )
    }

    // --------------------------------------------------- snooping probes

    fn do_circulate(&self, s: &mut State, i: usize) -> String {
        if self.is_atomic() {
            return self.do_serve(s, i);
        }
        let t = s.txns[i].expect("circulate without txn");
        debug_assert_eq!(t.ext, Phase::NeedProbe);
        let block = t.block;
        let me = NodeId::new(i);
        // A retry re-samples the local-clean condition, as the simulator's
        // re-issue does — without this a home-node requester whose probe
        // nobody can acknowledge would retry forever (its own write-back
        // clears the dirty bit between attempts).
        let probe = match ring_engine::snoop_issue(&mut self.host(s), me) {
            SnoopIssue::LocalRead => {
                s.txns[i].as_mut().expect("circulating").ext = Phase::WaitLocal;
                return format!("P{i}'s retried read of {block} re-issues on the local clean path");
            }
            SnoopIssue::Probe(probe) => probe,
        };
        let acked = self.circulate(s, RingMessage::new(probe, block, me, me));
        match ring_engine::probe_returned(&mut self.host(s), me, block, acked) {
            ProbeReturn::Stale => unreachable!("the circulating transaction is current"),
            ProbeReturn::Retry { converted } => format!(
                "P{i}'s {probe} probe for {block} circulates unacknowledged ({})",
                if converted { "upgrade converts to a write miss" } else { "will retry" }
            ),
            ProbeReturn::Promote => {
                if !s.caches[i].promote(block) {
                    // Only fault injection can remove the line mid-upgrade;
                    // fill so the invariant layer reports the damage.
                    self.fill(s, i, block, LineState::We);
                }
                self.finish_txn(s, i);
                format!("P{i}'s upgrade probe for {block} circulates; copies invalidated, line promoted")
            }
            ProbeReturn::SelfOwnedWrite => {
                self.fill(s, i, block, LineState::We);
                self.finish_txn(s, i);
                format!("P{i}'s write probe for {block} circulates; local memory supplies")
            }
            ProbeReturn::AwaitData => {
                s.txns[i].as_mut().expect("circulating").ext = Phase::WaitRemote;
                format!("P{i}'s {probe} probe for {block} circulates, acknowledged")
            }
        }
    }

    /// A probe (or the directory's multicast) visits every other node in
    /// ring order in one step — see the module docs. Returns whether any
    /// visit acknowledged it.
    fn circulate(&self, s: &mut State, msg: RingMessage) -> bool {
        let home = self.home_of(msg.block);
        let mut h = self.host(s);
        let mut acked = false;
        for step in 1..self.nodes {
            let node = NodeId::new((msg.src.index() + step) % self.nodes);
            acked |= ring_engine::snoop_at(&mut h, node, home, &msg).acked();
        }
        acked
    }

    // -------------------------------------- atomic transaction protocols

    /// Serves node `i`'s pending transaction in one indivisible step — the
    /// bus grant (MESI/Dragon) or the home's serialised list operation
    /// (SCI). See [`Model::is_atomic`].
    fn do_serve(&self, s: &mut State, i: usize) -> String {
        let t = s.txns[i].expect("serve without txn");
        debug_assert_eq!(t.ext, Phase::NeedProbe);
        let (me, block) = (NodeId::new(i), t.block);
        let (fill, label) = match self.protocol {
            ProtocolKind::Sci => {
                let step = sci::serve(&mut self.host(s), me, block, t.kind);
                let (home, kind, note) =
                    (self.home_of(block), kind_name(step.kind), sci_note(step.action));
                (step.fill, format!("home {home} serves P{i}'s {kind} on {block}; {note}"))
            }
            ProtocolKind::Mesi | ProtocolKind::Dragon => {
                let g = bus_engine::grant(&mut self.host(s), me, block, t.kind);
                let (kind, note) = (kind_name(g.kind), grant_note(g.action));
                (g.fill, format!("bus grants P{i}'s {kind} on {block}; {note}"))
            }
            _ => unreachable!("serve on a message-passing protocol"),
        };
        if let Some(state) = fill {
            self.fill(s, i, block, state);
        }
        self.finish_txn(s, i);
        label
    }

    // ------------------------------------------------------- deliveries

    /// Routes a message that reached its destination, as the simulator's
    /// `deliver` does.
    fn deliver(&self, s: &mut State, msg: RingMessage) -> String {
        let mut h = self.host(s);
        match msg.kind {
            MsgKind::SnoopRead | MsgKind::SnoopWrite | MsgKind::SnoopUpgrade => {
                unreachable!("snoop probes circulate atomically, never via the network")
            }
            MsgKind::DirRead | MsgKind::DirWrite | MsgKind::DirUpgrade => {
                format!("{msg} arrives ({})", receive_label(ring_engine::receive(&mut h, msg)))
            }
            MsgKind::DirFwdRead | MsgKind::DirFwdWrite => {
                if ring_engine::forward_arrived(&mut h, msg) {
                    format!("{msg} arrives and is served")
                } else {
                    format!("{msg} arrives; parked behind the target's own fill")
                }
            }
            MsgKind::DirInval => {
                // The multicast circulates the full ring and returns to the
                // home — atomic, like snoop probes (see module docs).
                self.circulate(s, msg);
                ring_engine::inval_returned(&mut self.host(s), msg);
                format!(
                    "{msg} circulates and returns; sharers invalidated, {} becomes owner",
                    msg.requester
                )
            }
            MsgKind::DirAck => self.ack_received(s, msg),
            MsgKind::BlockData => self.data_received(s, msg),
            MsgKind::WriteBack => match ring_engine::write_back_arrived(&mut h, msg) {
                None => format!("{msg} arrives; memory clean again"),
                Some(admit) => format!("{msg} arrives ({})", receive_label(admit)),
            },
            MsgKind::MemUpdate => {
                ring_engine::update_received(&mut h, msg);
                format!("{msg} arrives; directory refreshed, entry unlocked")
            }
        }
    }

    fn data_received(&self, s: &mut State, msg: RingMessage) -> String {
        let i = msg.dst.index();
        let Some(t) = s.txns[i] else {
            return format!("{msg} arrives (stale, dropped)");
        };
        if t.block != msg.block {
            return format!("{msg} arrives (stale, dropped)");
        }
        let note = match t.kind {
            TxnKind::Read => {
                if t.poisoned {
                    "poisoned read completes uncached"
                } else {
                    self.fill(s, i, t.block, LineState::Rs);
                    "read fills read-shared"
                }
            }
            TxnKind::Write | TxnKind::Upgrade => {
                self.fill(s, i, t.block, LineState::We);
                "write fills write-exclusive"
            }
        };
        self.finish_txn(s, i);
        format!("{msg} arrives; {note}")
    }

    fn ack_received(&self, s: &mut State, msg: RingMessage) -> String {
        let i = msg.dst.index();
        let Some(t) = s.txns[i] else {
            return format!("{msg} arrives (stale, dropped)");
        };
        if t.block != msg.block {
            return format!("{msg} arrives (stale, dropped)");
        }
        if !s.caches[i].promote(t.block) {
            // Only reachable under fault injection (see do_circulate).
            self.fill(s, i, t.block, LineState::We);
        }
        self.finish_txn(s, i);
        format!("{msg} arrives; line promoted")
    }

    fn finish_txn(&self, s: &mut State, i: usize) {
        let t = s.txns[i].take().expect("finishing absent txn");
        ring_engine::release_forwards(&mut self.host(s), NodeId::new(i), t.block);
    }

    // --------------------------------------------------------- encoding

    /// Canonical byte encoding of a state (scheduler-order independent).
    pub(crate) fn encode(&self, s: &State) -> Vec<u8> {
        let identity_nodes: [usize; 8] = core::array::from_fn(|i| i);
        let identity_blocks: [usize; 4] = core::array::from_fn(|b| b);
        let mut out = Vec::with_capacity(8 * self.nodes + 8 * self.blocks + 8 * s.net.len());
        self.encode_under(
            s,
            &identity_nodes[..self.nodes],
            &identity_blocks[..self.blocks],
            &mut out,
        );
        out
    }

    /// Byte encoding of the state relabelled by a symmetry-group element:
    /// node `i` becomes `node_map[i]` and block `b` becomes `block_map[b]`.
    /// Identity maps reproduce [`Model::encode`] exactly (that function
    /// delegates here); `crate::sym::Symmetry` minimises this over the
    /// protocol's symmetry group to pick the orbit representative.
    pub(crate) fn encode_under(
        &self,
        s: &State,
        node_map: &[usize],
        block_map: &[usize],
        out: &mut Vec<u8>,
    ) {
        out.clear();
        // Who lands in each relabelled slot (bounds are validate()'s 8/4).
        let mut inv_node = [0usize; 8];
        for (old, &new) in node_map.iter().enumerate() {
            inv_node[new] = old;
        }
        let mut inv_block = [0usize; 4];
        for (old, &new) in block_map.iter().enumerate() {
            inv_block[new] = old;
        }
        for &old_i in &inv_node[..self.nodes] {
            let cache = &s.caches[old_i];
            for &old_b in &inv_block[..self.blocks] {
                out.push(state_code(cache.state_of(BlockAddr::new(old_b as u64))));
            }
        }
        for &old_b in &inv_block[..self.blocks] {
            let block = BlockAddr::new(old_b as u64);
            out.push(u8::from(s.mem.is_dirty(block)));
            let entry = s.engine.dir.entry(block);
            let mut sharers = 0u8;
            for (j, &new_j) in node_map.iter().enumerate() {
                if entry.sharers & (1 << j) != 0 {
                    sharers |= 1 << new_j;
                }
            }
            out.push(sharers);
            out.push(entry.owner.map_or(0xFF, |o| node_map[o.index()] as u8));
            out.push(u8::from(s.engine.context(block).is_some()));
        }
        for &old_i in &inv_node[..self.nodes] {
            match &s.txns[old_i] {
                None => out.push(0xFF),
                Some(t) => {
                    out.push(txn_code(t));
                    out.push(block_map[t.block.raw() as usize] as u8);
                }
            }
        }
        for &old_i in &inv_node[..self.nodes] {
            let wb = &s.wb_buffer[old_i];
            let mut bits = 0u8;
            for (shift, &old_b) in inv_block[..self.blocks].iter().enumerate() {
                bits |= u8::from(wb[old_b]) << shift;
            }
            out.push(bits);
        }
        for &old_b in &inv_block[..self.blocks] {
            match s.engine.context(BlockAddr::new(old_b as u64)) {
                None => out.push(0xFF),
                Some(a) => {
                    let stage = match a.stage.expect("the checker acts on admission") {
                        HomeStage::AwaitInval => 0u8,
                        HomeStage::AwaitUpdate => 1,
                    };
                    out.push(stage | (u8::from(a.converted) << 1));
                    encode_msg_under(out, &a.req, node_map, block_map);
                }
            }
        }
        for &old_b in &inv_block[..self.blocks] {
            let q = s.engine.queued(BlockAddr::new(old_b as u64));
            out.push(q.len() as u8);
            for m in q {
                encode_msg_under(out, m, node_map, block_map);
            }
        }
        for &old_i in &inv_node[..self.nodes] {
            let fwds = s.engine.parked(NodeId::new(old_i));
            let mut sorted: Vec<&RingMessage> = fwds.iter().collect();
            sorted.sort_by_key(|m| (block_map[m.block.raw() as usize], kind_code(m.kind)));
            out.push(sorted.len() as u8);
            for m in sorted {
                encode_msg_under(out, m, node_map, block_map);
            }
        }
        // Extension state for the atomic protocols. Constant defaults for
        // the message-passing protocols, so their encodings stay unique.
        for &old_b in &inv_block[..self.blocks] {
            let e = &s.sci[old_b];
            out.push(e.list.len() as u8 | (u8::from(e.dirty) << 7));
            for p in &e.list {
                out.push(node_map[p.index()] as u8);
            }
        }
        for &old_i in &inv_node[..self.nodes] {
            let mut bits = 0u8;
            for (shift, &old_b) in inv_block[..self.blocks].iter().enumerate() {
                bits |= u8::from(s.excl[old_i][old_b]) << shift;
            }
            out.push(bits);
        }
        for &old_b in &inv_block[..self.blocks] {
            out.push(s.sm[old_b].map_or(0xFF, |o| node_map[o.index()] as u8));
        }
        // Lanes are mutually unordered: stable-sort by relabelled lane,
        // preserving FIFO order within each lane (lanes map to lanes under
        // any group element), so equivalent states encode identically.
        let mut net: Vec<&RingMessage> = s.net.iter().collect();
        net.sort_by_key(|m| {
            let (class, block, src, dst) = lane(m);
            (
                class,
                block_map[block as usize] as u64,
                node_map[src as usize] as u16,
                node_map[dst as usize] as u16,
            )
        });
        out.push(net.len() as u8);
        for m in net {
            encode_msg_under(out, m, node_map, block_map);
        }
    }

    /// Rebuilds a state from its encoding (inverse of [`Model::encode`] up
    /// to cache statistics, which the model never reads).
    pub(crate) fn decode(&self, bytes: &[u8]) -> State {
        let mut s = self.initial();
        let mut pos = 0usize;
        let take = |pos: &mut usize| {
            let b = bytes[*pos];
            *pos += 1;
            b
        };
        for i in 0..self.nodes {
            for b in 0..self.blocks {
                let st = code_state(take(&mut pos));
                if st.is_valid() {
                    s.caches[i].fill(BlockAddr::new(b as u64), st);
                }
            }
        }
        for b in 0..self.blocks {
            let block = BlockAddr::new(b as u64);
            if take(&mut pos) != 0 {
                s.mem.set_dirty(block);
            }
            let sharers = take(&mut pos);
            let owner = take(&mut pos);
            if owner != 0xFF {
                s.engine.dir.set_owner(block, NodeId::new(owner as usize));
            }
            for j in 0..self.nodes {
                if sharers & (1 << j) != 0 && owner != j as u8 {
                    s.engine.dir.add_sharer(block, NodeId::new(j));
                }
            }
            // The lock is the home context, decoded below.
            take(&mut pos);
        }
        for i in 0..self.nodes {
            let flags = take(&mut pos);
            if flags == 0xFF {
                continue;
            }
            let block = BlockAddr::new(u64::from(take(&mut pos)));
            s.txns[i] = Some(Txn {
                block,
                kind: match flags & 0b11 {
                    0 => TxnKind::Read,
                    1 => TxnKind::Write,
                    _ => TxnKind::Upgrade,
                },
                poisoned: flags & (1 << 4) != 0,
                self_owner: flags & (1 << 5) != 0,
                ext: match (flags >> 2) & 0b11 {
                    0 => Phase::NeedProbe,
                    1 => Phase::WaitLocal,
                    _ => Phase::WaitRemote,
                },
            });
        }
        for i in 0..self.nodes {
            let bits = take(&mut pos);
            for b in 0..self.blocks {
                s.wb_buffer[i][b] = bits & (1 << b) != 0;
            }
        }
        let contexts: Vec<Option<HomeTxn>> = (0..self.blocks)
            .map(|_| {
                let flags = take(&mut pos);
                (flags != 0xFF).then(|| HomeTxn {
                    req: decode_msg(bytes, &mut pos),
                    stage: Some(if flags & 1 == 0 {
                        HomeStage::AwaitInval
                    } else {
                        HomeStage::AwaitUpdate
                    }),
                    converted: flags & 2 != 0,
                })
            })
            .collect();
        for (block, context) in self.blocks().zip(contexts) {
            let len = take(&mut pos);
            let queued = (0..len).map(|_| decode_msg(bytes, &mut pos)).collect();
            s.engine.restore_home(block, context, queued);
        }
        for node in self.node_ids() {
            let len = take(&mut pos);
            let fwds = (0..len).map(|_| decode_msg(bytes, &mut pos)).collect();
            s.engine.restore_parked(node, fwds);
        }
        for b in 0..self.blocks {
            let header = take(&mut pos);
            s.sci[b].dirty = header & 0x80 != 0;
            for _ in 0..(header & 0x7F) {
                s.sci[b].list.push(NodeId::new(take(&mut pos) as usize));
            }
        }
        for i in 0..self.nodes {
            let bits = take(&mut pos);
            for b in 0..self.blocks {
                s.excl[i][b] = bits & (1 << b) != 0;
            }
        }
        for b in 0..self.blocks {
            let owner = take(&mut pos);
            if owner != 0xFF {
                s.sm[b] = Some(NodeId::new(owner as usize));
            }
        }
        let len = take(&mut pos);
        for _ in 0..len {
            s.net.push(decode_msg(bytes, &mut pos));
        }
        debug_assert_eq!(pos, bytes.len(), "trailing bytes in state encoding");
        s
    }

    /// Multi-line summary of a state, appended to counterexample traces.
    pub(crate) fn render(&self, s: &State) -> Vec<String> {
        let mut lines = Vec::new();
        for b in 0..self.blocks {
            let block = BlockAddr::new(b as u64);
            let states: Vec<String> = (0..self.nodes)
                .map(|i| format!("P{i}:{:?}", s.caches[i].state_of(block)))
                .collect();
            let home_side = match self.protocol {
                ProtocolKind::Snooping => {
                    format!("memory {}", if s.mem.is_dirty(block) { "dirty" } else { "clean" })
                }
                ProtocolKind::Directory => {
                    let e = s.engine.dir.entry(block);
                    format!(
                        "dir sharers {:#b} owner {} {}",
                        e.sharers,
                        e.owner.map_or_else(|| "-".to_owned(), |o| o.to_string()),
                        if s.engine.context(block).is_some() { "[locked]" } else { "" }
                    )
                }
                ProtocolKind::Sci => {
                    let e = &s.sci[b];
                    format!(
                        "sci list [{}]{}",
                        e.list.iter().map(ToString::to_string).collect::<Vec<_>>().join(" -> "),
                        if e.dirty { " dirty" } else { "" }
                    )
                }
                ProtocolKind::Mesi | ProtocolKind::Dragon => {
                    let excl: Vec<String> = (0..self.nodes)
                        .filter(|&j| s.excl[j][b])
                        .map(|j| format!("P{j}:E"))
                        .collect();
                    format!(
                        "memory {}{}{}",
                        if s.mem.is_dirty(block) { "dirty" } else { "clean" },
                        if excl.is_empty() {
                            String::new()
                        } else {
                            format!(" {}", excl.join(" "))
                        },
                        s.sm[b].map_or_else(String::new, |o| format!(" Sm:{o}")),
                    )
                }
            };
            lines.push(format!(
                "  {block} @home {}: {} | {home_side}",
                self.home_of(block),
                states.join(" ")
            ));
        }
        for (i, t) in s.txns.iter().enumerate() {
            if let Some(t) = t {
                lines.push(format!(
                    "  P{i} txn: {} on {} ({:?}{}{})",
                    kind_name(t.kind),
                    t.block,
                    t.ext,
                    if t.poisoned { ", poisoned" } else { "" },
                    if t.self_owner { ", self-owner" } else { "" },
                ));
            }
        }
        for m in &s.net {
            lines.push(format!("  in flight: {m}"));
        }
        for block in self.blocks() {
            for m in s.engine.queued(block) {
                lines.push(format!("  queued at home of {block}: {m}"));
            }
        }
        for node in self.node_ids() {
            for m in s.engine.parked(node) {
                lines.push(format!("  parked at {node}: {m}"));
            }
        }
        lines
    }
}

/// What a bus grant's action did, for a step label.
fn grant_note(action: BusAction) -> &'static str {
    use BusAction::{Dragon, Mesi};
    match action {
        Mesi(M::FillExclusive) | Dragon(D::FillExclusive) => {
            "memory supplies; fills clean-exclusive"
        }
        Mesi(M::FillShared) => "memory supplies; fills shared",
        Dragon(D::FillShared) => "memory supplies; fills shared-clean",
        Mesi(M::OwnerSuppliesShared) => "owner supplies and downgrades; memory refreshed",
        Dragon(D::OwnerSuppliesShared) => "owner supplies; stays shared-modified",
        Mesi(M::OwnerSuppliesModified) => "owner supplies modified data and invalidates itself",
        Mesi(M::InvalidateAndFillModified) => "sharers invalidated; fills modified",
        Mesi(M::FillModified) | Dragon(D::FillModified) => "memory supplies; fills modified",
        Mesi(M::InvalidateAndPromote) => "sharers invalidated; line promoted",
        Mesi(M::Promote) => "last copy; line promoted in place",
        Dragon(D::FillSharedOwnerUpdate) => {
            "copies updated in place; writer becomes shared-modified owner"
        }
        Dragon(D::BroadcastUpdate) => "update broadcast; writer becomes shared-modified owner",
        Dragon(D::PromoteToModified) => "last copy; promoted to modified",
        Mesi(M::PromoteSilently) | Dragon(D::PromoteSilently) => {
            unreachable!("exclusive write hits never reach the bus")
        }
    }
}

/// What the SCI home's action did, for a step label.
fn sci_note(action: SciAction) -> &'static str {
    match action {
        SciAction::GrantFromMemory => "memory supplies; requester heads the empty list",
        SciAction::ForwardToHead => "head supplies; requester prepends to the list",
        SciAction::GrantClaim => "memory supplies; requester claims the empty list",
        SciAction::PurgeAndClaim => "list purged in order; requester claims",
        SciAction::PurgeOthersAndClaim => "other members purged; sole survivor claims",
        SciAction::Claim => "sole member claims the list",
        SciAction::Splice => unreachable!("rollouts are served at eviction, not as requests"),
    }
}

/// Formats [`ring_engine::receive`]'s outcome for a step label.
fn receive_label(admit: ring_engine::Admit) -> &'static str {
    match admit {
        ring_engine::Admit::Act => "served",
        ring_engine::Admit::Queued => "queued behind the busy entry",
    }
}

/// The model state as the protocol engines' host. Messages to self deliver
/// at once and an admitted request acts at once (see the module docs); the
/// fault mutations hook the engines' effects here.
struct Host<'a> {
    model: &'a Model,
    s: &'a mut State,
}

impl RingHost for Host<'_> {
    type Caches = [Cache];
    type TxnExt = Phase;

    fn engine(&mut self) -> &mut RingEngine {
        &mut self.s.engine
    }

    fn caches(&mut self) -> &mut [Cache] {
        &mut self.s.caches
    }

    fn memory(&mut self) -> &mut HomeMemory {
        &mut self.s.mem
    }

    fn home_of(&self, block: BlockAddr) -> NodeId {
        self.model.home_of(block)
    }

    fn txn(&mut self, node: NodeId) -> Option<&mut Txn> {
        self.s.txns[node.index()].as_mut()
    }

    fn buffered(&self, node: NodeId, block: BlockAddr) -> bool {
        self.s.wb_buffer[node.index()][block.raw() as usize]
    }

    fn set_buffered(&mut self, node: NodeId, block: BlockAddr, buffered: bool) {
        self.s.wb_buffer[node.index()][block.raw() as usize] = buffered;
    }

    /// A write-back always travels, even to its own home: the snooping
    /// home's dirty bit keeps answering Silent until it lands, as the
    /// simulator's delayed local delivery does (a victim's local
    /// write-back never gets here, the engine hands it over at once).
    fn send(&mut self, msg: RingMessage) {
        if msg.dst == msg.src && !msg.kind.returns_to_source() && msg.kind != MsgKind::WriteBack {
            self.model.deliver(self.s, msg);
        } else {
            self.s.net.push(msg);
        }
    }

    fn home_ready(&mut self, req: RingMessage) {
        ring_engine::act(self, req.block);
    }

    fn counts(&self) -> Option<&FireCounts> {
        self.model.fire_counts()
    }

    fn invalidate_sharer(&mut self, node: NodeId, block: BlockAddr) {
        self.model.invalidate_at(self.s, node.index(), block);
    }

    /// `ForgetOwner` drops every directory ownership grant.
    fn set_owner(&mut self, block: BlockAddr, node: NodeId) {
        if self.model.fault != Fault::ForgetOwner {
            self.s.engine.dir.set_owner(block, node);
        }
    }

    fn claim_dirty(&mut self, block: BlockAddr) {
        self.model.claim_dirty(self.s, block);
    }

    /// `ParkBusyForwards` parks a forward behind the target's own fill
    /// even when the write-back buffer could serve it — the deadlock this
    /// checker found.
    fn parks_forward(&self, buffered: bool) -> bool {
        self.model.fault == Fault::ParkBusyForwards || !buffered
    }
}

/// The bus protocols' state: the E markers in `excl`, Dragon's Sm owner in
/// `sm`, and the dirty bit in `mem`. The owner a bus snoop finds is a
/// modified (`We`, not E) copy, else the Sm owner.
impl BusHost for Host<'_> {
    fn protocol(&self) -> ProtocolKind {
        self.model.protocol
    }

    fn caches(&mut self) -> &mut [Cache] {
        &mut self.s.caches
    }

    fn present(&self, _block: BlockAddr) -> u64 {
        (1 << self.model.nodes) - 1
    }

    fn exclusive(&self, node: NodeId, block: BlockAddr) -> bool {
        self.s.excl[node.index()][block.raw() as usize]
    }

    fn set_exclusive(&mut self, node: NodeId, block: BlockAddr, exclusive: bool) {
        self.s.excl[node.index()][block.raw() as usize] = exclusive;
    }

    fn owner(&self, block: BlockAddr) -> Option<NodeId> {
        let b = block.raw() as usize;
        (0..self.model.nodes)
            .find(|&j| self.s.caches[j].state_of(block) == LineState::We && !self.s.excl[j][b])
            .map(NodeId::new)
            .or(self.s.sm[b])
    }

    fn set_supplier(&mut self, block: BlockAddr, owner: Option<NodeId>) {
        self.s.sm[block.raw() as usize] = owner;
    }

    fn set_dirty(&mut self, block: BlockAddr, owner: Option<NodeId>) {
        if owner.is_some() {
            self.s.mem.set_dirty(block);
        } else {
            self.s.mem.clear_dirty(block);
        }
    }

    fn counts(&self) -> Option<&FireCounts> {
        self.model.fire_counts()
    }

    fn invalidate_sharer(&mut self, node: NodeId, block: BlockAddr) {
        self.model.invalidate_at(self.s, node.index(), block);
    }

    /// `ForgetOwner` loses the note that memory is stale.
    fn claim_dirty(&mut self, block: BlockAddr, _node: NodeId) {
        self.model.claim_dirty(self.s, block);
    }
}

/// SCI's state: the per-block sharing lists in `sci`.
impl SciHost for Host<'_> {
    fn caches(&mut self) -> &mut [Cache] {
        &mut self.s.caches
    }

    fn list(&mut self, block: BlockAddr) -> &mut SciList {
        &mut self.s.sci[block.raw() as usize]
    }

    fn home_of(&self, block: BlockAddr) -> NodeId {
        self.model.home_of(block)
    }

    fn counts(&self) -> Option<&FireCounts> {
        self.model.fire_counts()
    }

    fn invalidate_sharer(&mut self, node: NodeId, block: BlockAddr) {
        self.model.invalidate_at(self.s, node.index(), block);
    }

    /// `BreakListLink` reinstates a classic SCI implementation bug: the
    /// splice writes the departing node's *own* forward pointer into its
    /// predecessor instead of the successor's, losing the successor — the
    /// list forgets a cache that still holds a valid copy.
    fn splice(&mut self, block: BlockAddr, node: NodeId) {
        let e = &mut self.s.sci[block.raw() as usize];
        if self.model.fault == Fault::BreakListLink {
            if let Some(pos) = e.list.iter().position(|&p| p == node) {
                if pos + 1 < e.list.len() {
                    e.list.remove(pos + 1);
                }
            }
        }
        e.splice(node);
    }
}
