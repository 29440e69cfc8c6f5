//! The timed slotted-ring system simulator: processors, caches, the slot
//! machine, and the snooping or full-map directory coherence protocol.
//!
//! One `RingSystem` owns everything; [`RingSystem::run`] steps the ring one
//! clock at a time. Per cycle it (1) dispatches due delayed events (memory
//! accesses completing, retries), (2) lets each processor issue references
//! until it blocks or catches up with the clock, and (3) lets each node act
//! on the slot header arriving at its interface — snoop it, remove it, or
//! claim an empty slot for a queued message.
//!
//! ### Conflict handling
//!
//! * **Snooping** uses ack/retry, as slotted-ring snooping hardware did: a
//!   probe that returns to its requester without the owner's acknowledgment
//!   (owner busy, write-back in flight, conflicting transaction pending) is
//!   re-issued after a short backoff. An unacknowledged *invalidation*
//!   additionally drops the requester's stale line and converts into a write
//!   miss.
//! * **Directory** homes serialise transactions per block: the entry is
//!   locked from request arrival to commit, and conflicting requests queue
//!   at the home. A read fill overtaken by a multicast invalidation is
//!   "poisoned": the blocked load still completes (it is ordered before the
//!   write) but the line is not cached.

use std::collections::{HashMap, HashSet, VecDeque};

use ringsim_cache::{AccessClass, CacheBank, LineState};
use ringsim_obs::Obs;
use ringsim_proto::ring_engine::{
    self, Admit, Eviction, HomeStep, ProbeReturn, RingEngine, RingHost, SnoopIssue, TxnKind,
};
use ringsim_proto::transitions::{DirAction, DirRequest, HomeSnoopAction, SnoopAction};
use ringsim_proto::{HomeMemory, MsgClass, MsgKind, ProtocolKind, RingMessage};
use ringsim_ring::{RingStats, SlotId, SlotKind, SlotRing};
use ringsim_trace::{AddressSpace, Workload, BLOCK_BYTES};
use ringsim_types::{
    AccessKind, BlockAddr, CoherenceEvents, CoherenceOp, ConfigError, DirtySplit, NodeId, Region,
    Time,
};

use crate::config::SystemConfig;
use crate::front_end::{FrontEnd, Step};
use crate::report::{LatencyBook, SimReport, TxnClass};
use crate::sanitize;
use crate::simulator::{RunOptions, RunOutcome, Simulator};

/// The simulator's own fields of an in-flight transaction.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    region: Region,
    start: Time,
    /// Fully local transaction (no ring use at all): local clean read.
    local_path: bool,
    /// Local memory read finishes at this time (self-owner writes).
    local_data_ready: Time,
    /// Remote copies invalidated on behalf of this transaction (snooping).
    invalidated: u64,
    retries: u32,
}

type Txn = ring_engine::Txn<Timing>;

#[derive(Debug)]
struct Node {
    txn: Option<Txn>,
    probe_q: VecDeque<RingMessage>,
    block_q: VecDeque<RingMessage>,
    /// Dirty blocks evicted but not yet acknowledged by the home
    /// (directory mode): forwards are served from here.
    wb_buffer: HashSet<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// A purely local transaction completes.
    Complete { node: usize },
    /// `node` puts `msg` in its transmit queue (or delivers it locally when
    /// `dst == src`).
    Send { node: usize, msg: RingMessage },
    /// Directory home finishes its memory/directory access for the locked
    /// transaction on `block`.
    HomeAct { block: u64 },
    /// Snooping: re-issue a nacked transaction.
    Retry { node: usize },
}

/// The assembled timed simulator for one ring-based system and one
/// workload.
///
/// # Examples
///
/// ```
/// use ringsim_core::{RingSystem, SystemConfig};
/// use ringsim_proto::ProtocolKind;
/// use ringsim_trace::{Workload, WorkloadSpec};
///
/// let cfg = SystemConfig::ring_500mhz(ProtocolKind::Snooping, 4);
/// let workload = Workload::new(WorkloadSpec::demo(4).with_refs(2_000)).unwrap();
/// let mut sys = RingSystem::new(cfg, workload).unwrap();
/// let report = sys.run();
/// assert!(report.proc_util > 0.0 && report.proc_util <= 1.0);
/// ```
#[derive(Debug)]
pub struct RingSystem {
    cfg: SystemConfig,
    ring: SlotRing<RingMessage>,
    front: FrontEnd,
    nodes: Vec<Node>,
    /// Every node's cache, line-interleaved: a probe passing all nodes
    /// reads one short run of memory.
    caches: CacheBank,
    /// Home of the block each snooping probe in flight concerns, indexed by
    /// slot and written when the probe is inserted, so the nodes it passes
    /// do not hash the address again.
    slot_home: Vec<NodeId>,
    /// Bit `i` set while node `i`'s probe queue holds a message: an empty
    /// slot passing a node with nothing queued for its class returns
    /// without touching the queues (a ring has at most 64 nodes).
    queued_probe: u64,
    /// Bit `i` set while node `i`'s block queue holds a message.
    queued_block: u64,
    space: AddressSpace,
    // Snooping memory state.
    mem: HomeMemory,
    /// The protocol engine: directory, home contexts and queues, parked
    /// forwards.
    engine: RingEngine,
    /// Messages the engine sent during its current step, scheduled by the
    /// caller with the step's timing.
    outbox: Vec<RingMessage>,
    queue: crate::EventQueue<Event>,
    book: LatencyBook<RingStats>,
    retries: u64,
    // Telemetry (no-op unless a run asked for it).
    obs: Obs,
    obs_ring_tl: usize,
    /// Whether retire boundaries run the coherence sanitizer.
    sanitize: bool,
    last_progress_cycle: u64,
    /// Per-home memory bank availability (used when
    /// `model_bank_contention` is on).
    bank_free_at: Vec<Time>,
    /// Phase-indexed header arrivals: `arrival_sched[cycle % stages]` holds
    /// exactly the `(node, slot)` pairs with an arrival that cycle, in
    /// ascending node order — the inner loop visits only those instead of
    /// querying every node every cycle.
    arrival_sched: Vec<Vec<(NodeId, SlotId)>>,
    /// Earliest ring cycle at which each processor could issue again
    /// (`u64::MAX` while a transaction is in flight or the node has
    /// finished). Lets the per-cycle processor pass skip blocked nodes
    /// from one compact array instead of touching every `Node`.
    wake_at: Vec<u64>,
    /// A lower bound on every `wake_at`: while the cycle is below it, no
    /// processor can act and the processor pass is skipped whole.
    min_wake: u64,
    /// Bit `i` set when `wake_at[i]` is finite: the processor pass visits
    /// only these nodes (a ring has at most 64).
    runnable: u64,
}

impl RingSystem {
    /// Builds the system.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the configuration is invalid or the
    /// workload's processor count does not match the ring's node count.
    pub fn new(cfg: SystemConfig, workload: Workload) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let space = workload.space();
        let ring = SlotRing::new(cfg.ring)?;
        let front = FrontEnd::new(workload, cfg.nodes(), cfg.proc_cycle)?;
        let n = front.len();
        let nodes = (0..n)
            .map(|_| Node {
                txn: None,
                probe_q: VecDeque::new(),
                block_q: VecDeque::new(),
                wb_buffer: HashSet::new(),
            })
            .collect();
        let arrival_sched = ring.layout().arrival_schedule();
        let slot_home = vec![NodeId::new(0); ring.layout().slot_count()];
        Ok(Self {
            caches: CacheBank::new(cfg.cache, n)?,
            engine: RingEngine::new(cfg.protocol, n),
            slot_home,
            queued_probe: 0,
            queued_block: 0,
            cfg,
            ring,
            front,
            nodes,
            space,
            mem: HomeMemory::new(),
            outbox: Vec::new(),
            queue: crate::EventQueue::new(),
            book: LatencyBook::default(),
            retries: 0,
            obs: Obs::disabled(),
            obs_ring_tl: usize::MAX,
            sanitize: sanitize::enabled(false),
            last_progress_cycle: 0,
            bank_free_at: vec![Time::ZERO; n],
            arrival_sched,
            wake_at: vec![0; n],
            min_wake: 0,
            runnable: if n == 64 { u64::MAX } else { (1 << n) - 1 },
        })
    }

    fn schedule(&mut self, at: Time, ev: Event) {
        self.queue.schedule(at, ev);
    }

    /// When a memory access started at `now` at `home` completes. With bank
    /// contention modelling on, accesses to the same bank serialise; off
    /// (the paper's assumption), every access takes exactly `mem_latency`.
    fn mem_done(&mut self, home: usize, now: Time) -> Time {
        if self.cfg.model_bank_contention {
            let start = self.bank_free_at[home].max(now);
            let done = start + self.cfg.mem_latency;
            self.bank_free_at[home] = done;
            done
        } else {
            now + self.cfg.mem_latency
        }
    }

    /// Runs to completion and reports.
    ///
    /// # Panics
    ///
    /// Panics if the simulation makes no progress for a very long stretch
    /// (a protocol deadlock — a bug, caught loudly rather than hanging).
    pub fn run(&mut self) -> SimReport {
        loop {
            let now = self.ring.now();
            // 1. dispatch due events.
            while let Some((_, ev)) = self.queue.pop_due(now) {
                self.dispatch(ev, now);
            }
            // 2. processors (only the ones that could act this cycle —
            // `step_processor` is a no-op for the rest by its own guard —
            // and none at all below the earliest wake cycle).
            let cycle = self.ring.cycle();
            if cycle >= self.min_wake {
                self.min_wake = u64::MAX;
                let mut rest = self.runnable;
                while rest != 0 {
                    let i = rest.trailing_zeros() as usize;
                    if self.wake_at[i] <= cycle {
                        self.step_processor(i, now);
                        self.refresh_wake(i);
                    }
                    self.min_wake = self.min_wake.min(self.wake_at[i]);
                    rest = self.runnable & (u64::MAX << i << 1);
                }
            }
            // 3. slot arrivals — only the nodes with a header this phase.
            let phase = (cycle % self.arrival_sched.len() as u64) as usize;
            // Moved out for the loop (handling a slot never reads the
            // schedule), so the arrivals are one plain slice walk.
            let sched = std::mem::take(&mut self.arrival_sched);
            for &(n, slot) in &sched[phase] {
                self.handle_slot(n, slot, now);
            }
            self.arrival_sched = sched;
            // 4. telemetry gauges (no-op unless attached).
            if self.obs.sample_due(now) {
                let values = vec![
                    self.ring.in_flight() as f64 / self.ring.layout().slot_count().max(1) as f64,
                    self.ring.in_flight_probe() as f64 / self.ring.probe_slots().max(1) as f64,
                    self.ring.in_flight_block() as f64 / self.ring.block_slots().max(1) as f64,
                    self.engine.queued_total() as f64,
                    self.nodes.iter().map(|n| n.probe_q.len() + n.block_q.len()).sum::<usize>()
                        as f64,
                ];
                self.obs.sample(self.obs_ring_tl, now, values);
            }
            // 5. termination / watchdog.
            if self.front.all_finished() {
                break;
            }
            if self.ring.cycle() - self.last_progress_cycle > 4_000_000 {
                panic!(
                    "ring simulation deadlock at cycle {}: {:?}",
                    self.ring.cycle(),
                    self.diagnostics()
                );
            }
            self.ring.advance();
            // Start the measured ring-utilisation window once every node has
            // warmed up.
            self.book.open_window(&self.front, || (self.ring.stats(), self.ring.now()));
        }
        let total = self.ring.stats();
        self.book.report(
            self.cfg.protocol.name().to_owned(),
            &self.front,
            self.retries,
            |base, _| {
                let window = RingStats {
                    cycles: total.cycles - base.cycles,
                    inserted: total.inserted - base.inserted,
                    removed: total.removed - base.removed,
                    occupied_slot_cycles: total.occupied_slot_cycles - base.occupied_slot_cycles,
                    occupied_probe_cycles: total.occupied_probe_cycles - base.occupied_probe_cycles,
                    occupied_block_cycles: total.occupied_block_cycles - base.occupied_block_cycles,
                };
                (
                    window.slot_utilization(self.ring.layout().slot_count()),
                    window.probe_utilization(self.ring.probe_slots()),
                    window.block_utilization(self.ring.block_slots()),
                )
            },
        )
    }

    fn diagnostics(&self) -> Vec<String> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| {
                n.txn.as_ref().map(|t| {
                    format!(
                        "P{i}: txn {:?} on {} since {} retries {} (probe_q {}, block_q {})",
                        t.kind,
                        t.block,
                        t.ext.start,
                        t.ext.retries,
                        n.probe_q.len(),
                        n.block_q.len()
                    )
                })
            })
            .collect()
    }

    // ----------------------------------------------------------- processors

    /// Recomputes `wake_at[i]` from the node's blocking state. Must be
    /// called after anything that clears a transaction or moves
    /// `ready_at` (i.e. [`Self::step_processor`] and
    /// [`Self::finish_txn_at`]); skipping a node whose wake cycle has not
    /// arrived is then exactly equivalent to `step_processor`'s own
    /// early-return guard. It also keeps `min_wake` a lower bound of every
    /// `wake_at`, so skipping the whole pass below it is equivalent too.
    fn refresh_wake(&mut self, i: usize) {
        self.wake_at[i] = if self.nodes[i].txn.is_some() || self.front.finished(i) {
            u64::MAX
        } else {
            let period = self.ring.config().clock_period.as_ps();
            self.front.ready_at(i).as_ps().div_ceil(period)
        };
        self.min_wake = self.min_wake.min(self.wake_at[i]);
        if self.wake_at[i] == u64::MAX {
            self.runnable &= !(1 << i);
        } else {
            self.runnable |= 1 << i;
        }
    }

    fn step_processor(&mut self, i: usize, now: Time) {
        if self.nodes[i].txn.is_some() {
            return;
        }
        while let Step::Ref(r) = self.front.next(i, now, now, &mut self.book.events) {
            let block = r.addr.block(BLOCK_BYTES);
            let kind = match (self.caches.classify(i, block, r.kind), r.kind) {
                (AccessClass::Hit, _) => continue,
                (AccessClass::Upgrade, _) => TxnKind::Upgrade,
                (AccessClass::Miss, AccessKind::Read) => TxnKind::Read,
                (AccessClass::Miss, AccessKind::Write) => TxnKind::Write,
            };
            let start = self.front.ready_at(i);
            self.nodes[i].txn = Some(Txn {
                block,
                kind,
                poisoned: false,
                self_owner: false,
                ext: Timing {
                    region: r.region,
                    start,
                    local_path: false,
                    local_data_ready: Time::ZERO,
                    invalidated: 0,
                    retries: 0,
                },
            });
            let op = match kind {
                TxnKind::Read => "read",
                TxnKind::Write => "write",
                TxnKind::Upgrade => "upgrade",
            };
            self.obs.txn_begin(i, op, block.raw(), start);
            self.issue_txn(i, now.max(start));
            return;
        }
    }

    /// Queues `msg` for transmission no earlier than `at` (a transaction's
    /// messages must not enter the ring before the processor has actually
    /// issued the reference).
    fn send_no_earlier(&mut self, i: usize, msg: RingMessage, at: Time) {
        if at > self.ring.now() {
            self.schedule(at, Event::Send { node: i, msg });
        } else {
            self.enqueue_msg(i, msg, at);
        }
    }

    fn issue_txn(&mut self, i: usize, now: Time) {
        let me = NodeId::new(i);
        let (block, kind) = {
            let t = self.nodes[i].txn.as_mut().expect("issue without txn");
            t.self_owner = false;
            t.ext.local_path = false;
            (t.block, t.kind)
        };
        match self.cfg.protocol {
            ProtocolKind::Snooping => match ring_engine::snoop_issue(self, me) {
                SnoopIssue::LocalRead => {
                    self.txn_timing(i).local_path = true;
                    let done = self.mem_done(i, now);
                    self.schedule(done, Event::Complete { node: i });
                }
                SnoopIssue::Probe(probe) => {
                    if kind == TxnKind::Write && self.nodes[i].txn.is_some_and(|t| t.self_owner) {
                        let ready = self.mem_done(i, now);
                        self.txn_timing(i).local_data_ready = ready;
                    }
                    self.send_no_earlier(i, RingMessage::new(probe, block, me, me), now);
                }
            },
            ProtocolKind::Directory => {
                let home = self.home_of(block);
                let req = RingMessage::new(kind.dir_request(), block, me, home);
                if home == me {
                    if now > self.ring.now() {
                        // Deliver to our own home side once the reference
                        // actually issues.
                        self.schedule(now, Event::Send { node: i, msg: req });
                    } else {
                        self.home_receive(req);
                    }
                } else {
                    self.send_no_earlier(i, req, now);
                }
            }
            // SCI and the bus protocols run on their own backends.
            ProtocolKind::Sci | ProtocolKind::Msi | ProtocolKind::Mesi | ProtocolKind::Dragon => {
                unreachable!("rejected by SystemConfig::validate")
            }
        }
    }

    fn txn_timing(&mut self, i: usize) -> &mut Timing {
        &mut self.nodes[i].txn.as_mut().expect("transaction in flight").ext
    }

    // ------------------------------------------------------------- events

    fn dispatch(&mut self, ev: Event, now: Time) {
        match ev {
            Event::Complete { node } => self.complete_local(node, now),
            Event::Send { node, msg } => self.enqueue_msg(node, msg, now),
            Event::HomeAct { block } => self.home_act(BlockAddr::new(block), now),
            Event::Retry { node } => {
                if self.nodes[node].txn.is_some() {
                    self.issue_txn(node, now);
                }
            }
        }
    }

    /// Completes a transaction that needed no reply message (local clean
    /// read, or self-owned write waiting for memory + probe return).
    fn complete_local(&mut self, i: usize, now: Time) {
        let Some(t) = self.nodes[i].txn else { return };
        match t.kind {
            TxnKind::Read => {
                if !t.poisoned {
                    self.fill(i, t.block, LineState::Rs, now);
                }
                self.finish_txn_at(i, now, None);
            }
            TxnKind::Write => {
                self.fill(i, t.block, LineState::We, now);
                self.finish_txn_at(i, now, None);
            }
            TxnKind::Upgrade => {
                let ok = self.caches.promote(i, t.block);
                debug_assert!(ok, "self-owned upgrade failed to promote");
                self.finish_txn_at(i, now, None);
            }
        }
    }

    fn enqueue_msg(&mut self, i: usize, msg: RingMessage, now: Time) {
        if msg.dst == msg.src && !msg.kind.returns_to_source() {
            // Local delivery (home == requester replies, local write-backs).
            self.deliver(i, msg, now);
            return;
        }
        match msg.class() {
            MsgClass::Probe => {
                self.nodes[i].probe_q.push_back(msg);
                self.queued_probe |= 1 << i;
            }
            MsgClass::Block => {
                self.nodes[i].block_q.push_back(msg);
                self.queued_block |= 1 << i;
            }
        }
    }

    // ------------------------------------------------------------- slots

    fn handle_slot(&mut self, me: NodeId, slot: SlotId, now: Time) {
        let i = me.index();
        match self.ring.peek(slot) {
            Some(&msg) => {
                let removes = msg.dst == me && (!msg.kind.returns_to_source() || msg.src == me);
                if removes {
                    let msg = self.ring.remove(slot, me);
                    self.last_progress_cycle = self.ring.cycle();
                    self.deliver(i, msg, now);
                } else {
                    self.snoop(me, slot, msg);
                }
            }
            None => self.try_transmit(me, slot),
        }
    }

    fn try_transmit(&mut self, me: NodeId, slot: SlotId) {
        let i = me.index();
        let bit = 1u64 << i;
        // Nothing queued at all: the common case for an empty slot.
        if (self.queued_probe | self.queued_block) & bit == 0 {
            return;
        }
        let kind = self.ring.kind_of(slot);
        let queued = match kind {
            SlotKind::Block => self.queued_block,
            _ => self.queued_probe,
        };
        if queued & bit == 0 {
            return;
        }
        let q = match kind {
            SlotKind::Block => &mut self.nodes[i].block_q,
            _ => &mut self.nodes[i].probe_q,
        };
        // First queued message that fits this slot (parity filter for
        // probes).
        let pos = q.iter().position(|m| m.fits(kind));
        if let Some(pos) = pos {
            let msg = q.remove(pos).expect("position valid");
            let drained = q.is_empty();
            if self.ring.try_insert(slot, me, msg).is_err() {
                // Anti-starvation rule: put it back, try next slot.
                let q = match kind {
                    SlotKind::Block => &mut self.nodes[i].block_q,
                    _ => &mut self.nodes[i].probe_q,
                };
                q.push_front(msg);
            } else {
                if drained {
                    match kind {
                        SlotKind::Block => self.queued_block &= !bit,
                        _ => self.queued_probe &= !bit,
                    }
                }
                if msg.kind.is_snoop_probe() {
                    self.slot_home[slot.index()] = self.home_of(msg.block);
                }
                self.last_progress_cycle = self.ring.cycle();
            }
        }
    }

    /// A message passes node `me` without being removed: the engine's
    /// snoop visit, timed here. The owner's replies leave after the supply
    /// latency, the home memory's after its access.
    fn snoop(&mut self, me: NodeId, slot: SlotId, msg: RingMessage) {
        // Most passes carry data or directory traffic, which nobody snoops.
        if !msg.kind.is_snoop_probe() && msg.kind != MsgKind::DirInval {
            return;
        }
        let i = me.index();
        let home = self.slot_home[slot.index()];
        let visit = ring_engine::snoop_at(self, me, home, &msg);
        if visit.acked() {
            if let Some(m) = self.ring.peek_mut(slot) {
                m.acked = true;
            }
        }
        if visit.cache == SnoopAction::Invalidate {
            if let Some(t) = self.nodes[msg.requester.index()].txn.as_mut() {
                if t.block == msg.block {
                    t.ext.invalidated += 1;
                }
            }
        }
        if self.outbox.is_empty() {
            return;
        }
        let now = self.ring.now();
        for k in 0..self.outbox.len() {
            let reply = self.outbox[k];
            let at = if reply.from_dirty || reply.kind == MsgKind::WriteBack {
                now + self.cfg.supply_latency
            } else if visit.home == HomeSnoopAction::Supply {
                self.mem_done(i, now)
            } else {
                now + self.cfg.mem_latency
            };
            self.schedule(at, Event::Send { node: i, msg: reply });
        }
        self.outbox.clear();
    }

    /// Schedules every message the engine just sent for `at`.
    fn flush_at(&mut self, at: Time) {
        for k in 0..self.outbox.len() {
            let msg = self.outbox[k];
            self.schedule(at, Event::Send { node: msg.src.index(), msg });
        }
        self.outbox.clear();
    }

    /// Schedules the replies of the forwards the engine just served: the
    /// dirty node supplies after the supply latency.
    fn flush_forwards(&mut self, now: Time) {
        let at = now + self.cfg.supply_latency;
        for k in 0..self.outbox.len() {
            let msg = self.outbox[k];
            if msg.kind == MsgKind::BlockData {
                self.obs.txn_mark(msg.requester.index(), "forward", at);
            }
        }
        self.flush_at(at);
    }

    // ----------------------------------------------------------- delivery

    fn deliver(&mut self, i: usize, msg: RingMessage, now: Time) {
        match msg.kind {
            MsgKind::SnoopRead | MsgKind::SnoopWrite | MsgKind::SnoopUpgrade => {
                self.probe_returned(i, msg, now);
            }
            MsgKind::DirRead | MsgKind::DirWrite | MsgKind::DirUpgrade => self.home_receive(msg),
            MsgKind::DirFwdRead | MsgKind::DirFwdWrite => {
                if ring_engine::forward_arrived(self, msg) {
                    self.flush_forwards(now);
                }
            }
            MsgKind::DirInval => {
                ring_engine::inval_returned(self, msg);
                self.flush_at(now);
            }
            MsgKind::DirAck => self.ack_received(i, msg, now),
            MsgKind::BlockData => self.data_received(i, msg, now),
            MsgKind::WriteBack => {
                if ring_engine::write_back_arrived(self, msg) == Some(Admit::Queued) {
                    self.retries += 1;
                }
            }
            MsgKind::MemUpdate => ring_engine::update_received(self, msg),
        }
    }

    /// A snooping probe returned to its requester.
    fn probe_returned(&mut self, i: usize, msg: RingMessage, now: Time) {
        match ring_engine::probe_returned(self, NodeId::new(i), msg.block, msg.acked) {
            ProbeReturn::Stale => {} // a superseded attempt
            ProbeReturn::Retry { .. } => {
                self.retries += 1;
                self.obs.instant(i, "retry", now);
                self.txn_timing(i).retries += 1;
                let backoff = self.cfg.ring.clock_period * self.cfg.retry_backoff_cycles;
                self.schedule(now + backoff, Event::Retry { node: i });
            }
            ProbeReturn::Promote => {
                self.obs.txn_mark(i, "probe", now);
                // Ack observed in the following probe slot of the same type.
                let self_owner = self.nodes[i].txn.is_some_and(|t| t.self_owner);
                let delay = if self_owner {
                    Time::ZERO
                } else {
                    self.cfg.ring.clock_period * self.cfg.ring.frame_stages() as u64
                };
                let ok = self.caches.promote(i, msg.block);
                debug_assert!(ok, "acked upgrade failed to promote");
                self.finish_txn_at(i, now + delay, None);
            }
            ProbeReturn::SelfOwnedWrite => {
                self.obs.txn_mark(i, "probe", now);
                let done = now.max(self.txn_timing(i).local_data_ready);
                self.schedule(done, Event::Complete { node: i });
            }
            // Data will arrive in a block message.
            ProbeReturn::AwaitData => self.obs.txn_mark(i, "probe", now),
        }
    }

    /// Data reply arrives at the requester.
    fn data_received(&mut self, i: usize, msg: RingMessage, now: Time) {
        let Some(t) = self.nodes[i].txn else { return };
        if t.block != msg.block {
            return;
        }
        match t.kind {
            TxnKind::Read => {
                if !t.poisoned {
                    self.fill(i, t.block, LineState::Rs, now);
                }
            }
            TxnKind::Write | TxnKind::Upgrade => {
                // Upgrades converted to write misses by the home also land
                // here; either way the block arrives write-exclusive.
                self.fill(i, t.block, LineState::We, now);
            }
        }
        self.finish_txn_at(i, now, Some(msg));
    }

    /// Directory upgrade grant arrives at the requester.
    fn ack_received(&mut self, i: usize, msg: RingMessage, now: Time) {
        let Some(t) = self.nodes[i].txn else { return };
        if t.block != msg.block {
            return;
        }
        debug_assert_eq!(t.kind, TxnKind::Upgrade);
        let ok = self.caches.promote(i, t.block);
        debug_assert!(
            ok,
            "directory granted an upgrade for an absent line: node {i}, {msg}, state {:?}, dir {:?}",
            self.caches.state_of(i, t.block),
            self.engine.dir.entry(t.block),
        );
        self.finish_txn_at(i, now, Some(msg));
    }

    /// Install a block and handle the victim it displaces.
    fn fill(&mut self, i: usize, block: BlockAddr, state: LineState, now: Time) {
        let me = NodeId::new(i);
        if let Some((victim, vstate)) = self.caches.fill(i, block, state) {
            if let Eviction::WriteBack { queued } = ring_engine::victim(self, me, victim, vstate) {
                self.retries += u64::from(queued);
                for k in 0..self.outbox.len() {
                    let wb = self.outbox[k];
                    self.enqueue_msg(i, wb, now);
                }
                self.outbox.clear();
                if self.front.measuring(i) {
                    self.book.events.record_writeback(self.home_of(victim) == me);
                }
            }
        }
    }

    /// Finish the in-flight transaction for node `i` at time `done`.
    fn finish_txn_at(&mut self, i: usize, done: Time, reply: Option<RingMessage>) {
        let t = self.nodes[i].txn.take().expect("finishing absent txn");
        // Serve any forwards that waited for this fill (directory mode).
        ring_engine::release_forwards(self, NodeId::new(i), t.block);
        self.flush_forwards(done);
        if self.sanitize {
            self.sanitize_retired_block(t.block);
        }
        self.front.resume(i, done);
        self.last_progress_cycle = self.ring.cycle();
        // Class bucket from the requester's observations. A reply whose
        // source is the requester itself came from the local home
        // (directory mode serves local misses without the ring).
        let me = NodeId::new(i);
        let class = if t.kind == TxnKind::Upgrade {
            TxnClass::Upgrade
        } else if t.ext.local_path || reply.is_some_and(|m| m.src == me && !m.from_dirty) {
            TxnClass::Local
        } else if reply.is_some_and(|m| m.from_dirty) {
            TxnClass::Dirty
        } else {
            TxnClass::CleanRemote
        };
        self.book.record(&mut self.front, &mut self.obs, i, class, t.ext.start, done);
        if self.front.measuring(i) && self.cfg.protocol == ProtocolKind::Snooping {
            self.classify_snooping(i, &t, reply);
        }
        self.refresh_wake(i);
    }

    /// Snooping-mode event classification, performed at completion from the
    /// transaction's own observations (who supplied, what got invalidated).
    fn classify_snooping(&mut self, i: usize, t: &Txn, reply: Option<RingMessage>) {
        let me = NodeId::new(i);
        let private = t.ext.region == Region::Private;
        let invalidated = t.ext.invalidated;
        // A private upgrade is counted only when it invalidated nothing.
        if private && t.kind == TxnKind::Upgrade && invalidated > 0 {
            return;
        }
        let home = self.home_of(t.block);
        let owner = reply.and_then(|m| m.from_dirty.then_some(m.src));
        // Reads and private misses invalidate nothing, and neither does a
        // dirty write miss: the owner hands its copy over.
        let counted = match t.kind {
            TxnKind::Read => 0,
            TxnKind::Write if private || owner.is_some() => 0,
            TxnKind::Write | TxnKind::Upgrade => invalidated,
        };
        self.book.events.record(
            t.kind.into(),
            t.ext.region,
            home == me,
            DirtySplit::on_path(me, home, owner, self.cfg.nodes()),
            invalidated > 0,
            counted,
        );
    }

    // ------------------------------------------------ directory home side

    fn home_receive(&mut self, msg: RingMessage) {
        if ring_engine::receive(self, msg) == Admit::Queued {
            self.retries += 1;
        }
    }

    /// The home's memory access for `block`'s locked request completed:
    /// the engine dispatches it, replies leave now, and measured requests
    /// are classified (Fig. 5 buckets).
    fn home_act(&mut self, block: BlockAddr, now: Time) {
        let step = ring_engine::act(self, block);
        self.flush_at(now);
        let HomeStep::Request { requester, req, converted, action, others } = step else {
            return;
        };
        self.obs.txn_mark(requester.index(), "home", now);
        if !self.front.measuring(requester.index()) {
            return;
        }
        let private =
            self.nodes[requester.index()].txn.is_some_and(|t| t.ext.region == Region::Private);
        let (op, owner) = match (req, action) {
            (DirRequest::Read, DirAction::ForwardRead { owner }) => {
                (CoherenceOp::Read, Some(owner))
            }
            (DirRequest::Read, _) => (CoherenceOp::Read, None),
            (DirRequest::Write, DirAction::ForwardWrite { owner }) => {
                (CoherenceOp::Write, Some(owner))
            }
            (DirRequest::Write, _) => (CoherenceOp::Write, None),
            (DirRequest::Upgrade, _) => (CoherenceOp::Upgrade, None),
        };
        // Not counted: a converted private upgrade that found no owner, and
        // a private upgrade that found sharers.
        let uncounted = match op {
            CoherenceOp::Read => false,
            CoherenceOp::Write => converted && owner.is_none(),
            CoherenceOp::Upgrade => others != 0,
        };
        if private && uncounted {
            return;
        }
        // Reads and private misses invalidate nothing, and neither does a
        // dirty write miss: the owner hands its copy over.
        let invalidated = match op {
            CoherenceOp::Read => 0,
            CoherenceOp::Write if private || owner.is_some() => 0,
            CoherenceOp::Write | CoherenceOp::Upgrade => u64::from(others.count_ones()),
        };
        let home = self.home_of(block);
        self.book.events.record(
            op,
            if private { Region::Private } else { Region::Shared },
            home == requester,
            DirtySplit::on_path(requester, home, owner, self.cfg.nodes()),
            others != 0,
            invalidated,
        );
    }

    // ------------------------------------------------------------ report

    /// Coherence state of `block` in node `i`'s cache (inspection hook for
    /// tests and tools).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn cache_state(&self, i: usize, block: BlockAddr) -> LineState {
        self.caches.state_of(i, block)
    }

    /// Accumulated event counts so far (also available in the final
    /// report).
    #[must_use]
    pub fn events(&self) -> CoherenceEvents {
        self.book.events
    }

    /// Runtime sanitizer hook: re-checks the shared coherence invariants
    /// for one block at a transaction-retire boundary. The carve-outs match
    /// the `ringsim-check` model checker, so these hold at any instant.
    fn sanitize_retired_block(&self, block: BlockAddr) {
        let states: Vec<LineState> =
            (0..self.nodes.len()).map(|i| self.caches.state_of(i, block)).collect();
        let conflicting: Vec<bool> =
            self.nodes.iter().map(|n| n.txn.as_ref().is_some_and(|t| t.block == block)).collect();
        sanitize::check_swmr(block, &states, &conflicting);
        if self.cfg.protocol == ProtocolKind::Snooping {
            sanitize::check_we_implies_dirty(block, &states, self.mem.is_dirty(block));
        }
    }

    /// Checks global single-writer / reader-consistency invariants over all
    /// caches (test helper; O(cache lines × nodes)).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_coherence(&self) -> Result<(), String> {
        let mut writers: HashMap<u64, NodeId> = HashMap::new();
        let mut readers: HashMap<u64, Vec<NodeId>> = HashMap::new();
        for i in 0..self.nodes.len() {
            for (block, state) in self.caches.resident_blocks(i) {
                match state {
                    LineState::We => {
                        if let Some(prev) = writers.insert(block.raw(), NodeId::new(i)) {
                            return Err(format!("{block}: two writers {prev} and P{i}"));
                        }
                    }
                    LineState::Rs => readers.entry(block.raw()).or_default().push(NodeId::new(i)),
                    LineState::Inv => {}
                }
            }
        }
        for (&raw, &w) in &writers {
            // A writer may coexist with readers only transiently while those
            // readers hold in-flight conflicting transactions; at quiescence
            // (when this is called) there must be none.
            if let Some(rs) = readers.get(&raw) {
                let stale: Vec<_> = rs
                    .iter()
                    .filter(|r| {
                        self.nodes[r.index()].txn.as_ref().is_none_or(|t| t.block.raw() != raw)
                    })
                    .collect();
                if !stale.is_empty() {
                    return Err(format!(
                        "B{raw:#x}: writer {w} coexists with settled readers {stale:?}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// A run records per-transaction trace events plus a `"ring"` gauge
/// timeline (slot/probe/block occupancy, home queue depth, transmit queue
/// depth) when `opts.obs` asks for them.
impl Simulator for RingSystem {
    fn run(&mut self, opts: &RunOptions) -> RunOutcome {
        self.sanitize = sanitize::enabled(opts.sanitize);
        if let Some(cfg) = opts.obs {
            self.obs = Obs::enabled(cfg, self.nodes.len());
            self.obs_ring_tl = self.obs.add_timeline(
                "ring",
                &["slot_occ", "probe_occ", "block_occ", "home_queue", "tx_queue"],
            );
        }
        let report = RingSystem::run(self);
        RunOutcome { report, obs: std::mem::take(&mut self.obs).into_recorder() }
    }
}

/// The simulator as the engine's host: the engine's messages collect in
/// the outbox, which each caller schedules with its step's timing, and an
/// admitted home request acts once the home's memory access completes.
impl RingHost for RingSystem {
    type Caches = CacheBank;
    type TxnExt = Timing;

    fn engine(&mut self) -> &mut RingEngine {
        &mut self.engine
    }

    fn caches(&mut self) -> &mut CacheBank {
        &mut self.caches
    }

    fn memory(&mut self) -> &mut HomeMemory {
        &mut self.mem
    }

    fn home_of(&self, block: BlockAddr) -> NodeId {
        self.space.home_of_block(block)
    }

    fn txn(&mut self, node: NodeId) -> Option<&mut Txn> {
        self.nodes[node.index()].txn.as_mut()
    }

    fn buffered(&self, node: NodeId, block: BlockAddr) -> bool {
        self.nodes[node.index()].wb_buffer.contains(&block.raw())
    }

    fn set_buffered(&mut self, node: NodeId, block: BlockAddr, buffered: bool) {
        let wb = &mut self.nodes[node.index()].wb_buffer;
        if buffered {
            wb.insert(block.raw());
        } else {
            wb.remove(&block.raw());
        }
    }

    fn send(&mut self, msg: RingMessage) {
        self.outbox.push(msg);
    }

    fn home_ready(&mut self, req: RingMessage) {
        let done = self.mem_done(req.dst.index(), self.ring.now());
        self.schedule(done, Event::HomeAct { block: req.block.raw() });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringsim_trace::WorkloadSpec;

    fn run(protocol: ProtocolKind, procs: usize, refs: u64) -> (SimReport, RingSystem) {
        let cfg = SystemConfig::ring_500mhz(protocol, procs);
        let workload = Workload::new(WorkloadSpec::demo(procs).with_refs(refs)).unwrap();
        let mut sys = RingSystem::new(cfg, workload).unwrap();
        let report = sys.run();
        (report, sys)
    }

    #[test]
    fn snooping_runs_to_completion() {
        let (report, sys) = run(ProtocolKind::Snooping, 4, 3_000);
        assert!(report.proc_util > 0.0 && report.proc_util <= 1.0);
        assert!(report.ring_util > 0.0 && report.ring_util < 1.0);
        assert!(report.miss_latency.count() > 0);
        assert!(
            report.miss_latency.mean() > 100.0,
            "miss latency {} ns",
            report.miss_latency.mean()
        );
        sys.check_coherence().unwrap();
    }

    #[test]
    fn directory_runs_to_completion() {
        let (report, sys) = run(ProtocolKind::Directory, 4, 3_000);
        assert!(report.proc_util > 0.0 && report.proc_util <= 1.0);
        assert!(report.miss_latency.count() > 0);
        sys.check_coherence().unwrap();
    }

    #[test]
    fn events_match_reference_mix() {
        let (report, _) = run(ProtocolKind::Snooping, 4, 4_000);
        assert_eq!(report.events.data_refs(), 4 * 4_000);
        assert!(report.events.shared_misses() > 0);
    }

    #[test]
    fn protocols_agree_on_event_counts_roughly() {
        let (snoop, _) = run(ProtocolKind::Snooping, 4, 4_000);
        let (dir, _) = run(ProtocolKind::Directory, 4, 4_000);
        let s = snoop.events.shared_misses() as f64;
        let d = dir.events.shared_misses() as f64;
        let rel = (s - d).abs() / s.max(d);
        assert!(rel < 0.15, "snoop {s} vs dir {d} misses differ by {rel}");
    }

    #[test]
    fn snooping_miss_latency_exceeds_floor() {
        // Round trip (30 cycles = 60 ns) + memory 140 ns is the absolute
        // floor for a remote miss on an 8-node ring.
        let (report, _) = run(ProtocolKind::Snooping, 8, 2_000);
        assert!(report.miss_latency.min().unwrap_or(0.0) >= 139.0);
    }

    #[test]
    fn faster_processors_load_the_ring_more() {
        let mk = |cycle_ns| {
            let cfg = SystemConfig::ring_500mhz(ProtocolKind::Snooping, 8)
                .with_proc_cycle(Time::from_ns(cycle_ns));
            let w = Workload::new(WorkloadSpec::demo(8).with_refs(3_000)).unwrap();
            RingSystem::new(cfg, w).unwrap().run()
        };
        let slow = mk(20);
        let fast = mk(2);
        assert!(
            fast.ring_util > slow.ring_util,
            "fast {} <= slow {}",
            fast.ring_util,
            slow.ring_util
        );
    }

    #[test]
    fn directory_fig5_classes_populated() {
        let (report, _) = run(ProtocolKind::Directory, 8, 4_000);
        let (c1, d1, c2) = report.fig5_percentages();
        assert!(c1 > 0.0);
        assert!(d1 + c2 > 0.0, "demo workload has read-write sharing");
        assert!((c1 + d1 + c2 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _) = run(ProtocolKind::Snooping, 4, 2_000);
        let (b, _) = run(ProtocolKind::Snooping, 4, 2_000);
        assert_eq!(a.sim_end, b.sim_end);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn rejects_mismatched_workload() {
        let cfg = SystemConfig::ring_500mhz(ProtocolKind::Snooping, 8);
        let w = Workload::new(WorkloadSpec::demo(4)).unwrap();
        assert!(RingSystem::new(cfg, w).is_err());
    }
}
