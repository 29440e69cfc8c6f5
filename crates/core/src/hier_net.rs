//! Message-level timed simulation of a tree of slotted rings.
//!
//! This validates the hierarchical analytical model
//! (`ringsim_analytic::HierRingModel`) by actually circulating messages
//! through real [`SlotRing`]s: every ring of a [`RingTopology`] — flat,
//! two-level or three-level — is a slotted ring on one shared clock,
//! [`Bridge`] junctions forward between a ring and its parent, and nodes
//! run a closed loop of *think → transact → wait for reply*. Coherence
//! details are abstracted to a single request/reply transaction shape (the
//! protocol level is validated separately by the flat-ring system
//! simulator); what is measured here is exactly what the hierarchy model
//! predicts — slot contention and multi-level latency.
//!
//! The simulation steps only on header arrivals that can act. Every
//! message in flight holds one *stop*: the nearest downstream interface
//! whose handler acts on its header (its home's snoop, its removal, a
//! bridge copy or transfer), recomputed after each visit because
//! deflection marks and age tags change the header in place. Every
//! non-empty injection queue holds a stop at the next arrival of a slot
//! its front message fits. Stops sit on a timing wheel, and the run jumps
//! from one cycle with a stop, a node wake-up, a maturing reply or a gauge
//! sample to the next; [`SlotRing::advance_to`] books the skipped cycles'
//! occupancy in one step. An arrival that is no stop would find an empty
//! slot with nothing to insert, or a message no handler there acts on, so
//! leaving it out changes nothing; visiting an arrival that then does
//! nothing is harmless, so a stop may over-approximate. Within a cycle the
//! visits keep the cycle-by-cycle order: nodes, matured replies, leaf
//! rings, then each upper level, rings and positions ascending.
//!
//! Transaction shapes (KSR1-style bridge filters):
//!
//! * **intra-ring**: a probe makes one full leaf revolution (snooped by
//!   the home on the way), the home replies after the 140 ns access with a
//!   block message to the requester.
//! * **inter-ring**: the probe makes a full revolution of every ring on
//!   the tree path — its own leaf (the uplink bridge copies it as it
//!   passes), each ring up to the meet point, and each ring back down to
//!   the home leaf; the reply hops home → bridges → requester through
//!   block slots.
//!
//! Bridges come in two flavours selected by
//! [`HierNetConfig::bridge_buffer`]:
//!
//! * `None` (classic): unbounded transfer queues, the original two-level
//!   interface behaviour — for two-level trees this path is bit-for-bit
//!   identical to the pre-topology `hier` backend.
//! * `Some(depth)` (HiRD-style deflection): transfer queues are capped at
//!   `depth.max(1)` entries (0 ⇒ a single-entry bufferless latch). A
//!   message that loses arbitration at a full bridge is *deflected*: it
//!   stays on its current ring, re-circulates, and retries one revolution
//!   later. Each deflection bumps a deterministic age tag in the message
//!   header; aged messages may claim the last queue entry that fresh
//!   messages (at depth ≥ 2) must leave free, and a message deflected
//!   [`ESCAPE_AGE`] times is admitted even into a full queue (which then
//!   transiently exceeds its cap) — without that escape, fully occupied
//!   bridges on opposite sides of a ring can enter a circular wait. Every
//!   message is therefore eventually delivered. Per-bridge
//!   occupancy/deflection gauges are recorded when a run asks for telemetry.

use std::collections::VecDeque;

use ringsim_obs::{LatencyHistogram, Obs};
use ringsim_proto::{MsgKind, RingMessage};
use ringsim_ring::{RingLayout, RingTopology, SlotId, SlotKind, SlotRing};
use ringsim_types::rng::Xoshiro256;
use ringsim_types::stats::RunningMean;
use ringsim_types::{BlockAddr, CoherenceEvents, ConfigError, NodeId, Time};

use crate::report::{summarize_nodes, ClassLatencies, NodeMeasure, SimReport};
use crate::sanitize;
use crate::simulator::{RunOptions, RunOutcome, Simulator};

/// Block-address bit layout. Bits 0–31 carry the per-transaction id,
/// bits 32–47 the home leaf ring and bits 48–53 the origin leaf ring + 1
/// (0 = untagged) — all of which route the message. Bits 54+ only exist
/// in deflection mode: bit 54 marks "crossed its bridge on this ring" and
/// bits 55–62 count deflections (the age tag). The classic path never
/// sets them, which is what keeps it bit-identical to the pre-topology
/// backend.
const HOME_SHIFT: u32 = 32;
const ORIGIN_SHIFT: u32 = 48;
const ORIGIN_MASK: u64 = 0x3F;
const CROSSED_BIT: u64 = 1 << 54;
const AGE_SHIFT: u32 = 55;
const AGE_MASK: u64 = 0xFF;
/// Everything that routes: txn id, home ring, origin tag.
const ROUTE_MASK: u64 = CROSSED_BIT - 1;

/// Configuration of a hierarchy network simulation.
#[derive(Debug, Clone)]
pub struct HierNetConfig {
    /// The ring tree (flat, two-level or three-level).
    pub topo: RingTopology,
    /// Mean think time between a node's transactions.
    pub think_time: Time,
    /// Probability that a transaction's home is in the requester's ring
    /// (uniform placement would be `1 / leaf_rings`).
    pub locality: f64,
    /// Memory access time at the home (paper: 140 ns).
    pub mem_latency: Time,
    /// Transactions each node completes (after which it stops).
    pub txns_per_node: u64,
    /// PRNG seed for think times, home choices and block parities.
    pub seed: u64,
    /// Bridge transfer-queue depth: `None` for the classic unbounded
    /// queues, `Some(depth)` for HiRD-style deflection routing with
    /// `depth.max(1)`-entry queues (0 ⇒ bufferless latch).
    pub bridge_buffer: Option<usize>,
}

impl HierNetConfig {
    /// A baseline configuration for the given ring tree.
    #[must_use]
    pub fn new(topo: RingTopology) -> Self {
        let locality = topo.uniform_locality();
        Self {
            topo,
            think_time: Time::from_ns(400),
            locality,
            mem_latency: Time::from_ns(140),
            txns_per_node: 400,
            seed: 0xB10C,
            bridge_buffer: None,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for out-of-range values.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.think_time.is_zero() {
            return Err(ConfigError::new("think_time", "must be non-zero"));
        }
        if !(0.0..=1.0).contains(&self.locality) {
            return Err(ConfigError::new("locality", "must be in [0, 1]"));
        }
        if self.txns_per_node == 0 {
            return Err(ConfigError::new("txns_per_node", "must be non-zero"));
        }
        if let Some(depth) = self.bridge_buffer {
            if depth > 1024 {
                return Err(ConfigError::new("bridge_buffer", "at most 1024 entries"));
            }
        }
        Ok(())
    }
}

/// Results of a hierarchy network simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct HierNetReport {
    /// Mean end-to-end transaction latency (ns), issue to reply.
    pub latency: RunningMean,
    /// Full latency distribution (log2 buckets) over the same samples.
    pub latency_hist: LatencyHistogram,
    /// Combined slot utilisation of the leaf rings.
    pub local_util: f64,
    /// Combined slot utilisation of every ring above the leaves (0 for a
    /// flat topology).
    pub global_util: f64,
    /// Completed transactions.
    pub completed: u64,
    /// Simulated time.
    pub sim_end: Time,
    /// Total bridge deflections (always 0 with unbounded bridges).
    pub deflections: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Thinking {
        until: Time,
    },
    /// Waiting to insert the initial probe / waiting for the reply.
    Waiting,
    Done,
}

#[derive(Debug)]
struct NetNode {
    phase: Phase,
    issued: u64,
    started: Time,
    /// Cumulative issue-to-reply wait over all its transactions.
    wait_total: Time,
    /// When the node retired (entered [`Phase::Done`]).
    finished: Time,
    /// Its own end-to-end latency distribution.
    lat_hist: LatencyHistogram,
    /// Pending leaf-ring insertions for this node.
    out_q: VecDeque<RingMessage>,
    rng: Xoshiro256,
}

/// A junction between a ring and its parent: the generalisation of the
/// two-level inter-ring interface (IRI). `bridges[level][ring]` connects
/// ring `ring` of `level` to the parent ring above it; routing is encoded
/// in the message header (`block`'s bits carry the home/origin leaf rings)
/// so bridges need no per-transaction state.
#[derive(Debug)]
struct Bridge {
    /// Messages waiting to enter the parent ring.
    up: VecDeque<RingMessage>,
    /// Messages waiting to enter this bridge's own (child) ring.
    down: VecDeque<RingMessage>,
    /// `None`: unbounded classic queues. `Some(cap)`: deflection mode,
    /// at most `cap` entries per direction.
    cap: Option<usize>,
    /// Messages this bridge turned away (deflection mode only).
    deflections: u64,
    /// Messages this bridge accepted (both directions).
    transfers: u64,
}

/// After this many lost arbitrations a message is admitted regardless of
/// queue occupancy (the queue transiently exceeds its cap). Finite bridge
/// queues alone can deadlock: with every queue full, a circulating message
/// that must cross before it can be removed holds the very ring slot the
/// opposing queue needs to drain into — a circular wait the age priority
/// cannot break when the cap leaves no reserved entry. The escape bound
/// turns that wait into bounded extra occupancy (at most one in-flight
/// message per node exists system-wide), restoring guaranteed delivery.
const ESCAPE_AGE: u64 = 8;

impl Bridge {
    fn new(cap: Option<usize>) -> Self {
        Self { up: VecDeque::new(), down: VecDeque::new(), cap, deflections: 0, transfers: 0 }
    }

    /// Arbitration for one queue entry. Unbounded bridges always admit.
    /// Bounded bridges admit while there is room, but (at depth ≥ 2) hold
    /// the last entry back for aged messages; a message deflected
    /// [`ESCAPE_AGE`] times is admitted unconditionally — the deterministic
    /// priority that guarantees a deflected message eventually wins.
    fn admits(&self, queue_len: usize, age: u64) -> bool {
        match self.cap {
            None => true,
            Some(_) if age >= ESCAPE_AGE => true,
            Some(cap) => queue_len < cap && (queue_len + 1 < cap || age > 0 || cap == 1),
        }
    }

    fn occupancy(&self) -> usize {
        self.up.len() + self.down.len()
    }
}

/// The message-level hierarchy simulator.
///
/// # Examples
///
/// ```
/// use ringsim_core::{HierNetConfig, HierNetSim};
/// use ringsim_ring::RingTopology;
///
/// let mut cfg = HierNetConfig::new(RingTopology::two_level(4, 4).unwrap());
/// cfg.txns_per_node = 50;
/// let report = HierNetSim::new(cfg).unwrap().run();
/// assert_eq!(report.completed, 16 * 50);
/// assert!(report.latency.mean() > 140.0);
/// ```
#[derive(Debug)]
pub struct HierNetSim {
    cfg: HierNetConfig,
    /// `rings[level][ring]`; level 0 holds the leaf rings.
    rings: Vec<Vec<SlotRing<RingMessage>>>,
    /// `bridges[level][ring]` joins that ring to its parent; empty at the
    /// root level (and entirely for a flat topology).
    bridges: Vec<Vec<Bridge>>,
    nodes: Vec<NetNode>,
    latency: RunningMean,
    latency_hist: LatencyHistogram,
    intra_hist: LatencyHistogram,
    inter_hist: LatencyHistogram,
    completed: u64,
    max_cycles: u64,
    obs: Obs,
    obs_hier_tl: usize,
    obs_bridge_tl: usize,
    /// Whether retire boundaries run the coherence sanitizer.
    sanitize: bool,
    /// Earliest cycle each node could act in the think/issue step
    /// (`u64::MAX` while waiting on a reply or finished).
    wake_at: Vec<u64>,
    /// Slot timing per level (all rings of a level are identically
    /// configured), for the queue stops.
    fit_waits: Vec<FitWait>,
}

/// A queue that feeds a ring: a node's `out_q`, or one direction of
/// `bridges[level][index]`.
#[derive(Debug, Clone, Copy)]
enum Queue {
    Node(usize),
    Up(usize, usize),
    Down(usize, usize),
}

/// Which slots a queued message may enter: block slots, even probe slots or
/// odd probe slots ([`RingMessage::fits`] on a representative message).
const FIT_CLASSES: usize = 3;

fn fit_class(msg: &RingMessage) -> usize {
    if msg.fits(SlotKind::Block) {
        0
    } else if msg.fits(SlotKind::ProbeEven) {
        1
    } else {
        2
    }
}

/// For each fit class, the cycles from each ring phase until a slot of
/// that class next reaches position 0 (0 = it is there this phase). Every
/// position sees the same arrivals shifted by its stage, so one table per
/// class serves the whole level.
#[derive(Debug)]
struct FitWait {
    layout: RingLayout,
    wait: [Vec<u64>; FIT_CLASSES],
}

impl FitWait {
    fn new(layout: &RingLayout) -> Self {
        let stages = layout.stages() as u64;
        let probe = |block| {
            RingMessage::for_requester(
                MsgKind::SnoopRead,
                BlockAddr::new(block),
                NodeId::new(0),
                NodeId::new(0),
                NodeId::new(0),
            )
        };
        let reps = [RingMessage { kind: MsgKind::BlockData, ..probe(0) }, probe(0), probe(1)];
        let wait = reps.map(|rep| {
            (0..stages)
                .map(|phase| {
                    (0..stages)
                        .find(|&d| {
                            layout
                                .arrival_at(NodeId::new(0), phase + d)
                                .is_some_and(|slot| rep.fits(layout.slot_spec(slot).kind))
                        })
                        .expect("every slot kind circulates")
                })
                .collect()
        });
        Self { layout: layout.clone(), wait }
    }

    /// The first cycle at or after `from` in which a slot that `msg` fits
    /// reaches position `pos`.
    fn next_fit(&self, msg: &RingMessage, pos: usize, from: u64) -> u64 {
        let stages = self.layout.stages() as u64;
        let shift = self.layout.node_stage(NodeId::new(pos)) as u64;
        let phase = (from % stages + stages - shift) % stages;
        from + self.wait[fit_class(msg)][phase as usize]
    }
}

/// Packs a header arrival `(level, ring, position)` into one integer whose
/// order is the within-cycle visit order: levels bottom-up, rings and
/// positions ascending. The slot follows from the position and the cycle.
fn stop_key(level: usize, ring: usize, pos: usize) -> u64 {
    ((level as u64) << 48) | ((ring as u64) << 24) | pos as u64
}

fn unpack_stop(key: u64) -> (usize, usize, usize) {
    ((key >> 48) as usize, ((key >> 24) & 0xFF_FFFF) as usize, (key & 0xFF_FFFF) as usize)
}

/// The stops still to visit: a timing wheel of per-cycle buckets, plus the
/// current cycle's bucket, sorted into visit order.
#[derive(Debug)]
struct Wheel {
    buckets: Vec<Vec<u64>>,
    mask: u64,
    /// Entries across all buckets (the current cycle's excluded).
    pending: usize,
    cycle: u64,
    current: Vec<u64>,
    /// Index in `current` of the next stop to visit.
    next: usize,
}

impl Wheel {
    /// A wheel for stops at most `horizon` cycles ahead.
    fn new(horizon: u64) -> Self {
        let size = (horizon + 1).next_power_of_two();
        Self {
            buckets: vec![Vec::new(); size as usize],
            mask: size - 1,
            pending: 0,
            cycle: 0,
            current: Vec::new(),
            next: 0,
        }
    }

    /// Makes `cycle`'s bucket the current one, sorted and without
    /// duplicates (two reasons to visit one arrival make one visit).
    fn start(&mut self, cycle: u64) {
        self.cycle = cycle;
        let bucket = &mut self.buckets[(cycle & self.mask) as usize];
        self.current.clear();
        std::mem::swap(&mut self.current, bucket);
        self.pending -= self.current.len();
        self.current.sort_unstable();
        self.current.dedup();
        self.next = 0;
    }

    /// Whether `key` comes after every stop already visited this cycle.
    fn still_ahead(&self, key: u64) -> bool {
        self.next == 0 || key > self.current[self.next - 1]
    }

    /// Schedules a visit of `key` in cycle `at`. A stop in the current
    /// cycle must lie ahead of the visits already made.
    fn push(&mut self, at: u64, key: u64) {
        if at == self.cycle {
            debug_assert!(self.still_ahead(key));
            let ahead = &self.current[self.next..];
            if let Err(i) = ahead.binary_search(&key) {
                self.current.insert(self.next + i, key);
            }
        } else {
            debug_assert!(at > self.cycle && at - self.cycle <= self.mask);
            self.buckets[(at & self.mask) as usize].push(key);
            self.pending += 1;
        }
    }

    /// The next stop of the current cycle.
    fn pop(&mut self) -> Option<u64> {
        let key = *self.current.get(self.next)?;
        self.next += 1;
        Some(key)
    }

    /// The first cycle after the current one that holds a stop, if it
    /// comes before `limit`; `limit` otherwise.
    fn next_busy(&self, limit: u64) -> u64 {
        if self.pending > 0 {
            let end = limit.min(self.cycle + self.mask + 1);
            for at in self.cycle + 1..end {
                if !self.buckets[(at & self.mask) as usize].is_empty() {
                    return at;
                }
            }
        }
        limit
    }
}

impl HierNetSim {
    /// Builds the simulator.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the configuration is invalid.
    pub fn new(cfg: HierNetConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let levels = cfg.topo.levels();
        let cap = cfg.bridge_buffer.map(|d| d.max(1));
        let mut rings = Vec::with_capacity(levels);
        let mut bridges = Vec::with_capacity(levels.saturating_sub(1));
        for level in 0..levels {
            let ring_cfg = cfg.topo.level_config(level);
            rings.push(
                (0..cfg.topo.rings_at(level))
                    .map(|_| SlotRing::new(ring_cfg))
                    .collect::<Result<Vec<_>, _>>()?,
            );
            if level + 1 < levels {
                bridges.push((0..cfg.topo.rings_at(level)).map(|_| Bridge::new(cap)).collect());
            }
        }
        let fit_waits = rings.iter().map(|l| FitWait::new(l[0].layout())).collect();
        let mut root = Xoshiro256::seed_from_u64(cfg.seed);
        let nodes = (0..cfg.topo.total_nodes())
            .map(|i| NetNode {
                phase: Phase::Thinking { until: Time::from_ps(1 + i as u64 * 137) },
                issued: 0,
                started: Time::ZERO,
                wait_total: Time::ZERO,
                finished: Time::ZERO,
                lat_hist: LatencyHistogram::new(),
                out_q: VecDeque::new(),
                rng: root.fork(i as u64),
            })
            .collect();
        let cfg_total_nodes = cfg.topo.total_nodes();
        Ok(Self {
            cfg,
            rings,
            bridges,
            nodes,
            latency: RunningMean::default(),
            latency_hist: LatencyHistogram::new(),
            intra_hist: LatencyHistogram::new(),
            inter_hist: LatencyHistogram::new(),
            completed: 0,
            max_cycles: 500_000_000,
            obs: Obs::disabled(),
            sanitize: sanitize::enabled(false),
            obs_hier_tl: usize::MAX,
            obs_bridge_tl: usize::MAX,
            wake_at: vec![0; cfg_total_nodes],
            fit_waits,
        })
    }

    /// Encodes routing into a message: requester in `requester`, the home
    /// leaf ring in the upper block bits, and a per-transaction id in the
    /// lower bits (parity varies so both probe slots are exercised).
    fn make_probe(req: NodeId, home_ring: usize, txn: u64) -> RingMessage {
        let block = BlockAddr::new(((home_ring as u64) << HOME_SHIFT) | txn);
        RingMessage::for_requester(MsgKind::SnoopRead, block, req, req, req)
    }

    fn home_ring_of(msg: &RingMessage) -> usize {
        // Mask off the origin-ring tag and deflection bits above bit 47.
        ((msg.block.raw() >> HOME_SHIFT) & 0xFFFF) as usize
    }

    /// Origin leaf ring + 1; 0 while untagged (intra-ring transactions).
    fn origin_of(msg: &RingMessage) -> usize {
        ((msg.block.raw() >> ORIGIN_SHIFT) & ORIGIN_MASK) as usize
    }

    /// Whether the message already crossed its bridge on this ring
    /// (deflection mode only; always false on the classic path).
    fn crossed(msg: &RingMessage) -> bool {
        msg.block.raw() & CROSSED_BIT != 0
    }

    fn age_of(msg: &RingMessage) -> u64 {
        (msg.block.raw() >> AGE_SHIFT) & AGE_MASK
    }

    /// Strips the deflection-mode bits so a message enters a bridge queue
    /// (and thus its next ring) fresh. Identity on the classic path.
    fn strip_deflect(mut msg: RingMessage) -> RingMessage {
        msg.block = BlockAddr::new(msg.block.raw() & ROUTE_MASK);
        msg
    }

    /// Marks the slot's in-flight message as having crossed its bridge
    /// (deflection mode only — the classic path never mutates a message
    /// in place).
    fn mark_crossed(ring: &mut SlotRing<RingMessage>, slot: SlotId) {
        if let Some(m) = ring.peek_mut(slot) {
            m.block = BlockAddr::new(m.block.raw() | CROSSED_BIT);
        }
    }

    /// Bumps the slot's in-flight message age tag after a lost
    /// arbitration (deflection mode only; saturating).
    fn bump_age(ring: &mut SlotRing<RingMessage>, slot: SlotId) {
        if let Some(m) = ring.peek_mut(slot) {
            let raw = m.block.raw();
            if (raw >> AGE_SHIFT) & AGE_MASK < AGE_MASK {
                m.block = BlockAddr::new(raw + (1 << AGE_SHIFT));
            }
        }
    }

    /// Runs to completion.
    ///
    /// The loop visits only the cycles with work: a node waking, a reply
    /// leaving memory, a gauge sample, or a stop on the timing wheel (see
    /// the module docs for the stop rule).
    ///
    /// # Panics
    ///
    /// Panics when nodes still wait but nothing can move any more, or the
    /// run exceeds its cycle bound.
    pub fn run(&mut self) -> HierNetReport {
        let period = self.cfg.topo.base().clock_period;
        let mem_cycles = self.cfg.mem_latency.as_ps().div_ceil(period.as_ps());
        let per_ring = self.cfg.topo.leaf_procs();
        let leaf_rings = self.cfg.topo.leaf_rings();
        // Replies waiting for the home's memory access:
        // (ready_cycle, home_global_node, msg). Every reply waits
        // `mem_cycles`, so they mature in queueing order.
        let mut pending_replies: VecDeque<(u64, usize, RingMessage)> = VecDeque::new();
        // A stop is at most one revolution ahead.
        let horizon = self.fit_waits.iter().map(|f| f.layout.stages() as u64).max().unwrap_or(1);
        let mut wheel = Wheel::new(horizon);
        let mut cycle: u64 = 0;
        // The earliest `wake_at` entry.
        let mut min_wake: u64 = 0;
        // Nodes that have entered `Phase::Done` (termination check without
        // an all-nodes scan every cycle).
        let mut done_nodes: usize = 0;
        loop {
            let now = period * cycle;
            wheel.start(cycle);
            // 1. nodes think / issue.
            if min_wake <= cycle {
                min_wake = u64::MAX;
                for i in 0..self.nodes.len() {
                    if self.wake_at[i] <= cycle {
                        self.step_node(i, cycle, per_ring, leaf_rings, &mut done_nodes, &mut wheel);
                    }
                    min_wake = min_wake.min(self.wake_at[i]);
                }
            }
            // 2. release matured replies into the home nodes' send queues.
            while let Some(&(ready, home_node, msg)) = pending_replies.front() {
                if ready > cycle {
                    break;
                }
                pending_replies.pop_front();
                self.nodes[home_node].out_q.push_back(msg);
                if self.nodes[home_node].out_q.len() == 1 {
                    self.schedule_queue(&mut wheel, Queue::Node(home_node), cycle);
                }
            }
            // 3. the header arrivals that can act, leaf rings first, then
            // each upper level.
            while let Some(key) = wheel.pop() {
                let (level, ring_idx, pos) = unpack_stop(key);
                self.visit(
                    &mut wheel,
                    level,
                    ring_idx,
                    pos,
                    cycle,
                    mem_cycles,
                    &mut pending_replies,
                );
                if level == 0 && pos < per_ring {
                    // A delivered reply sets its requester thinking.
                    min_wake = min_wake.min(self.wake_at[ring_idx * per_ring + pos]);
                }
            }
            if self.obs.sample_due(now) {
                let (mut occ, mut cap) = (0.0, 0.0);
                for r in &self.rings[0] {
                    occ += r.in_flight() as f64;
                    cap += r.layout().slot_count() as f64;
                }
                let (mut gocc, mut gcap) = (0.0, 0.0);
                for level in &self.rings[1..] {
                    for r in level {
                        gocc += r.in_flight() as f64;
                        gcap += r.layout().slot_count() as f64;
                    }
                }
                let iri_q: usize = self.bridges.iter().flatten().map(Bridge::occupancy).sum();
                let values = vec![
                    if cap > 0.0 { occ / cap } else { 0.0 },
                    if gcap > 0.0 { gocc / gcap } else { 0.0 },
                    iri_q as f64,
                ];
                self.obs.sample(self.obs_hier_tl, now, values);
                if self.obs_bridge_tl != usize::MAX {
                    let mut gauges = Vec::new();
                    for row in &self.bridges {
                        for b in row {
                            gauges.push(b.occupancy() as f64);
                            gauges.push(b.deflections as f64);
                            gauges.push(b.transfers as f64);
                        }
                    }
                    self.obs.sample(self.obs_bridge_tl, now, gauges);
                }
            }
            if done_nodes == self.nodes.len() {
                cycle += 1;
                break;
            }
            // 4. jump to the next cycle with work.
            let mut next = min_wake;
            if let Some(&(ready, ..)) = pending_replies.front() {
                next = next.min(ready.max(cycle + 1));
            }
            if let Some(at) = self.obs.next_sample() {
                next = next.min(at.as_ps().div_ceil(period.as_ps()));
            }
            cycle = wheel.next_busy(next);
            if cycle >= self.max_cycles {
                panic!("hierarchy network simulation ran away (deadlock?)");
            }
        }
        for level in &mut self.rings {
            for ring in level {
                ring.advance_to(cycle);
            }
        }
        let sim_end = period * cycle;
        let local_util = {
            let mut occupied = 0u64;
            let mut capacity = 0u64;
            for r in &self.rings[0] {
                occupied += r.stats().occupied_slot_cycles;
                capacity += r.stats().cycles * r.layout().slot_count() as u64;
            }
            if capacity == 0 {
                0.0
            } else {
                occupied as f64 / capacity as f64
            }
        };
        let global_util = {
            let mut occupied = 0u64;
            let mut capacity = 0u64;
            for level in &self.rings[1..] {
                for r in level {
                    occupied += r.stats().occupied_slot_cycles;
                    capacity += r.stats().cycles * r.layout().slot_count() as u64;
                }
            }
            if capacity == 0 {
                0.0
            } else {
                occupied as f64 / capacity as f64
            }
        };
        HierNetReport {
            latency: self.latency,
            latency_hist: self.latency_hist.clone(),
            local_util,
            global_util,
            completed: self.completed,
            sim_end,
            deflections: self.bridges.iter().flatten().map(|b| b.deflections).sum(),
        }
    }

    /// Node `i`'s think/issue step in `cycle` (its `wake_at` is due).
    fn step_node(
        &mut self,
        i: usize,
        cycle: u64,
        per_ring: usize,
        leaf_rings: usize,
        done_nodes: &mut usize,
        wheel: &mut Wheel,
    ) {
        let now = self.cfg.topo.base().clock_period * cycle;
        let node = &mut self.nodes[i];
        let Phase::Thinking { until } = node.phase else {
            self.wake_at[i] = u64::MAX;
            return;
        };
        if until > now {
            self.wake_at[i] = until.as_ps().div_ceil(self.cfg.topo.base().clock_period.as_ps());
            return;
        }
        if node.issued == self.cfg.txns_per_node {
            node.phase = Phase::Done;
            node.finished = now;
            *done_nodes += 1;
            self.wake_at[i] = u64::MAX;
            return;
        }
        node.issued += 1;
        node.started = now;
        let my_ring = i / per_ring;
        let home_ring = if leaf_rings == 1 {
            // Flat topology: everything is local.
            my_ring
        } else if node.rng.chance(self.cfg.locality) {
            my_ring
        } else {
            // A uniformly chosen *other* ring.
            let k = leaf_rings as u64 - 1;
            let pick = node.rng.next_below(k) as usize;
            if pick >= my_ring {
                pick + 1
            } else {
                pick
            }
        };
        let probe = Self::make_probe(NodeId::new(i % per_ring), home_ring, node.issued);
        let block = probe.block.raw();
        node.out_q.push_back(probe);
        node.phase = Phase::Waiting;
        self.wake_at[i] = u64::MAX;
        self.obs.txn_begin(i, "probe", block, now);
        if self.nodes[i].out_q.len() == 1 {
            self.schedule_queue(wheel, Queue::Node(i), cycle);
        }
    }

    /// Visits the header arrival at position `pos` of ring `ring_idx` of
    /// `level` in `cycle`, then re-arms the stops the visit may have
    /// moved: the slot's message (new or changed), the position's own
    /// queue, and the queue the visit may have started to fill.
    #[allow(clippy::too_many_arguments)]
    fn visit(
        &mut self,
        wheel: &mut Wheel,
        level: usize,
        ring_idx: usize,
        pos: usize,
        cycle: u64,
        mem_cycles: u64,
        pending_replies: &mut VecDeque<(u64, usize, RingMessage)>,
    ) {
        let ring = &mut self.rings[level][ring_idx];
        ring.advance_to(cycle);
        let node = NodeId::new(pos);
        let slot = ring.arrival(node).expect("a stop is a header arrival");
        let output = self.output_queue(level, ring_idx, pos);
        let output_was_empty = output.is_some_and(|q| self.queue(q).is_empty());
        if level == 0 {
            self.handle_leaf_arrival(ring_idx, node, slot, cycle, mem_cycles, pending_replies);
        } else {
            self.handle_upper_arrival(level, ring_idx, node, slot);
        }
        if let Some(q) = output {
            if output_was_empty && !self.queue(q).is_empty() {
                self.schedule_queue(wheel, q, cycle);
            }
        }
        if let Some(msg) = self.rings[level][ring_idx].peek(slot).copied() {
            if let Some((stop, distance)) = self.message_stop(level, ring_idx, pos, &msg) {
                wheel.push(cycle + distance, stop_key(level, ring_idx, stop));
            }
        }
        let input = self.input_queue(level, ring_idx, pos);
        if let Some(&front) = self.queue(input).front() {
            let at = self.fit_waits[level].next_fit(&front, pos, cycle + 1);
            wheel.push(at, stop_key(level, ring_idx, pos));
        }
    }

    fn queue(&self, q: Queue) -> &VecDeque<RingMessage> {
        match q {
            Queue::Node(i) => &self.nodes[i].out_q,
            Queue::Up(level, i) => &self.bridges[level][i].up,
            Queue::Down(level, i) => &self.bridges[level][i].down,
        }
    }

    /// The position of a level's rings that joins it to its parent.
    fn uplink_pos(&self, level: usize) -> usize {
        if level == 0 {
            self.cfg.topo.leaf_procs()
        } else {
            self.cfg.topo.children_at(level)
        }
    }

    /// The queue position `pos` of ring `ring_idx` of `level` injects from
    /// into an empty slot.
    fn input_queue(&self, level: usize, ring_idx: usize, pos: usize) -> Queue {
        let uplink = self.uplink_pos(level);
        match level {
            0 if pos < uplink => Queue::Node(ring_idx * uplink + pos),
            0 => Queue::Down(0, ring_idx),
            _ if pos < uplink => Queue::Up(level - 1, ring_idx * uplink + pos),
            _ => Queue::Down(level, ring_idx),
        }
    }

    /// The bridge queue the handler at that position copies or moves
    /// messages into (a leaf processor's replies wait in memory first).
    fn output_queue(&self, level: usize, ring_idx: usize, pos: usize) -> Option<Queue> {
        let uplink = self.uplink_pos(level);
        match level {
            0 if pos < uplink => None,
            0 => Some(Queue::Up(0, ring_idx)),
            _ if pos < uplink => Some(Queue::Down(level - 1, ring_idx * uplink + pos)),
            _ => Some(Queue::Up(level, ring_idx)),
        }
    }

    /// `(level, ring, position)` of the interface that drains `q`.
    fn consumer(&self, q: Queue) -> (usize, usize, usize) {
        match q {
            Queue::Node(i) => {
                let per_ring = self.cfg.topo.leaf_procs();
                (0, i / per_ring, i % per_ring)
            }
            Queue::Up(level, i) => {
                let children = self.cfg.topo.children_at(level + 1);
                (level + 1, i / children, i % children)
            }
            Queue::Down(level, i) => (level, i, self.uplink_pos(level)),
        }
    }

    /// Arms the stop of queue `q`, which just became non-empty in `cycle`:
    /// the next arrival of a slot its front fits at the draining position,
    /// this very cycle if that position's visit is still ahead.
    fn schedule_queue(&self, wheel: &mut Wheel, q: Queue, cycle: u64) {
        let (level, ring_idx, pos) = self.consumer(q);
        let key = stop_key(level, ring_idx, pos);
        let from = if wheel.still_ahead(key) { cycle } else { cycle + 1 };
        let front = self.queue(q).front().expect("scheduled queue is non-empty");
        wheel.push(self.fit_waits[level].next_fit(front, pos, from), key);
    }

    /// The nearest position downstream of `pos` (a full revolution back to
    /// `pos` included) whose handler acts on `msg`'s header, on ring
    /// `ring_idx` of `level`, with the cycles until the message's slot
    /// reaches it; `None` if no interface of the ring acts on it. The
    /// conditions mirror [`HierNetSim::handle_leaf_arrival`] and
    /// [`HierNetSim::handle_upper_arrival`]; naming a position that then
    /// does nothing only costs a visit, but missing one would change the
    /// run.
    fn message_stop(
        &self,
        level: usize,
        ring_idx: usize,
        pos: usize,
        msg: &RingMessage,
    ) -> Option<(usize, u64)> {
        let topo = &self.cfg.topo;
        let deflect = self.cfg.bridge_buffer.is_some();
        let has_uplink = level + 1 < topo.levels();
        let uplink = self.uplink_pos(level);
        let crossed = Self::crossed(msg);
        let mut acts: [Option<usize>; 3] = [None; 3];
        match msg.kind {
            MsgKind::SnoopRead if level == 0 => {
                let home = Self::home_ring_of(msg);
                if home == ring_idx {
                    // The home snoop.
                    acts[0] = Some((msg.block.raw() & ROUTE_MASK) as usize % uplink);
                }
                let src = msg.src.index();
                if src == uplink || !(deflect && home != ring_idx) || crossed {
                    // Removal at the source.
                    acts[1] = Some(src);
                }
                if has_uplink && home != ring_idx && Self::origin_of(msg) == 0 && !crossed {
                    // The uplink copies the probe towards the parent.
                    acts[2] = Some(uplink);
                }
            }
            MsgKind::SnoopRead => {
                let home_leaf = Self::home_ring_of(msg);
                if !crossed {
                    // A copy down to the home's subtree, or up.
                    acts[0] = self.subtree_exit(level, ring_idx, home_leaf);
                }
                if !deflect || crossed {
                    acts[1] = Some(msg.src.index());
                }
            }
            MsgKind::BlockData if level == 0 => acts[0] = Some(msg.dst.index()),
            MsgKind::BlockData => {
                let origin = Self::origin_of(msg);
                if origin >= 1 {
                    acts[0] = self.subtree_exit(level, ring_idx, origin - 1);
                }
            }
            _ => {}
        }
        let layout = &self.fit_waits[level].layout;
        acts.into_iter()
            .flatten()
            .map(|q| (q, layout.stage_distance(NodeId::new(pos), NodeId::new(q)) as u64))
            .min_by_key(|&(_, distance)| distance)
    }

    /// On upper ring `ring_idx` of `level`, the position where a message
    /// bound for leaf ring `leaf` leaves: the child interface whose
    /// subtree holds it, else the uplink (`None` at the root, which holds
    /// every leaf).
    fn subtree_exit(&self, level: usize, ring_idx: usize, leaf: usize) -> Option<usize> {
        let topo = &self.cfg.topo;
        let per_self = topo.leafs_per_subtree(level);
        let self_lo = ring_idx * per_self;
        if (self_lo..self_lo + per_self).contains(&leaf) {
            Some((leaf - self_lo) / topo.leafs_per_subtree(level - 1))
        } else if level + 1 < topo.levels() {
            Some(topo.children_at(level))
        } else {
            None
        }
    }

    /// Folds a finished run into the interconnect-neutral [`SimReport`]
    /// shape the ring and bus simulators produce, so the hierarchy backend
    /// can ride the same [`crate::Simulator`] dispatch, CLI printing and
    /// metrics export.
    ///
    /// Field mapping (this simulator abstracts coherence to one
    /// request/reply transaction shape):
    ///
    /// * `proc_cycle` — the mean think time (the closest analogue of
    ///   "execution speed" in the closed-loop workload);
    /// * `ring_util`/`probe_util` — combined leaf-ring slot utilisation,
    ///   `block_util` — combined upper-ring slot utilisation;
    /// * `miss_*` — end-to-end transaction latency;
    /// * `class_latencies.local` / `.clean_remote` — intra-ring vs
    ///   inter-ring transactions (mirrored in `events` so
    ///   `events.misses()` equals the completed-transaction count);
    /// * `retries` — total bridge deflections (0 with unbounded bridges).
    #[must_use]
    pub fn sim_report(&self, rep: &HierNetReport) -> SimReport {
        let measures = self.nodes.iter().map(|n| NodeMeasure {
            finished_at: n.finished,
            measure_start: Time::ZERO,
            busy: n.finished.saturating_sub(n.wait_total),
            misses: n.issued,
            miss_lat: &n.lat_hist,
        });
        let (per_node, proc_util, _) = summarize_nodes(measures);
        let events = CoherenceEvents {
            read_clean_local: self.intra_hist.count(),
            read_clean_remote: self.inter_hist.count(),
            ..CoherenceEvents::default()
        };
        let class_latencies = ClassLatencies {
            local: self.intra_hist.clone(),
            clean_remote: self.inter_hist.clone(),
            ..ClassLatencies::default()
        };
        SimReport {
            protocol: "hier-net".to_owned(),
            nodes: self.nodes.len(),
            proc_cycle: self.cfg.think_time,
            sim_end: rep.sim_end,
            proc_util,
            ring_util: rep.local_util,
            probe_util: rep.local_util,
            block_util: rep.global_util,
            miss_latency: rep.latency,
            miss_histogram: rep.latency_hist.clone(),
            upgrade_latency: RunningMean::default(),
            class_latencies,
            events,
            retries: rep.deflections,
            per_node,
        }
    }

    /// Handles one header arrival on leaf ring `ring_idx`: `pos` below
    /// `leaf_procs()` is a processor interface, the last position (absent
    /// on a flat topology) is the ring's uplink bridge.
    #[allow(clippy::too_many_lines)]
    fn handle_leaf_arrival(
        &mut self,
        ring_idx: usize,
        pos: NodeId,
        slot: SlotId,
        cycle: u64,
        mem_cycles: u64,
        pending_replies: &mut VecDeque<(u64, usize, RingMessage)>,
    ) {
        let now = self.cfg.topo.base().clock_period * cycle;
        let per_ring = self.cfg.topo.leaf_procs();
        let deflect = self.cfg.bridge_buffer.is_some();
        let iri_pos = NodeId::new(per_ring); // last interface on the leaf ring
        let ring = &mut self.rings[0][ring_idx];
        if pos.index() < per_ring {
            // Processor position.
            let p = pos.index();
            let global_node = ring_idx * per_ring + p;
            if let Some(&msg) = ring.peek(slot) {
                #[allow(clippy::collapsible_match)] // symmetry with the probe arm
                match msg.kind {
                    MsgKind::SnoopRead => {
                        // Home snoop: the home of an intra/remote probe is a
                        // fixed pseudo-position — we model "some node in the
                        // home ring responds": the probe's requester field
                        // names the requester *within its own ring*; the
                        // responder is the node whose index matches the
                        // transaction id.
                        if Self::home_ring_of(&msg) == ring_idx
                            && ((msg.block.raw() & ROUTE_MASK) as usize % per_ring) == p
                        {
                            // Schedule the reply after the memory access.
                            // Inter-ring replies first head to this ring's
                            // bridge; intra-ring replies go straight to the
                            // requester.
                            let origin_ring = Self::origin_of(&msg);
                            let dst = if origin_ring == 0 { msg.requester } else { iri_pos };
                            let reply = Self::strip_deflect(RingMessage {
                                kind: MsgKind::BlockData,
                                src: pos,
                                dst,
                                ..msg
                            });
                            pending_replies.push_back((
                                cycle + mem_cycles,
                                ring_idx * per_ring + p,
                                reply,
                            ));
                        }
                        // The probe continues; its *source* removes it.
                        if msg.src == pos && msg.kind.returns_to_source() {
                            // Full revolution completed at the requester's
                            // interface — but only in the ring it was
                            // inserted into, and (deflection mode) only
                            // once its bridge copy actually went through.
                            let needs_cross = deflect && Self::home_ring_of(&msg) != ring_idx;
                            if !needs_cross || Self::crossed(&msg) {
                                let _ = ring.remove(slot, pos);
                            }
                        }
                    }
                    MsgKind::BlockData => {
                        if msg.dst == pos {
                            let m = ring.remove(slot, pos);
                            // Reply reached the requester: transaction done
                            // (only when this is the requester's own ring —
                            // i.e. the message was re-injected here).
                            let origin_ring = Self::origin_of(&m);
                            let home_ring = Self::home_ring_of(&m);
                            let is_final = if origin_ring == 0 {
                                // Intra-ring transactions never leave their
                                // ring, so arriving at dst is final.
                                home_ring == ring_idx
                            } else {
                                origin_ring - 1 == ring_idx
                            };
                            debug_assert!(is_final, "reply removed in the wrong ring: {m}");
                            if is_final {
                                let node = &mut self.nodes[global_node];
                                debug_assert_eq!(node.phase, Phase::Waiting);
                                let lat = now.saturating_sub(node.started);
                                node.wait_total += lat;
                                node.lat_hist.record_time(lat);
                                self.latency.push_time_ns(lat);
                                self.latency_hist.record_time(lat);
                                if origin_ring == 0 {
                                    self.intra_hist.record_time(lat);
                                } else {
                                    self.inter_hist.record_time(lat);
                                }
                                self.completed += 1;
                                let think =
                                    (node.rng.next_f64() * 2.0 * self.cfg.think_time.as_ns_f64())
                                        .max(0.1);
                                let until = now + Time::from_ns_f64(think);
                                node.phase = Phase::Thinking { until };
                                let period_ps = self.cfg.topo.base().clock_period.as_ps();
                                self.wake_at[global_node] = until.as_ps().div_ceil(period_ps);
                                let class = if origin_ring == 0 { "intra" } else { "inter" };
                                self.obs.txn_end(global_node, "txn", class, now);
                                if self.sanitize {
                                    let issued: u64 = self.nodes.iter().map(|n| n.issued).sum();
                                    sanitize::check_conservation(
                                        "hier-net",
                                        issued,
                                        self.completed,
                                    );
                                }
                            }
                        }
                    }
                    _ => {}
                }
            } else if let Some(msg) = self.nodes[global_node].out_q.front().copied() {
                let ok = msg.fits(ring.kind_of(slot));
                if ok && ring.try_insert(slot, pos, msg).is_ok() {
                    self.nodes[global_node].out_q.pop_front();
                }
            }
        } else {
            // Uplink bridge position: copy inter-ring probes towards the
            // parent, inject queued messages.
            if let Some(&msg) = ring.peek(slot) {
                #[allow(clippy::collapsible_match)] // symmetry with the probe arm
                match msg.kind {
                    MsgKind::SnoopRead => {
                        let home_ring = Self::home_ring_of(&msg);
                        if home_ring != ring_idx
                            && Self::origin_of(&msg) == 0
                            && !Self::crossed(&msg)
                        {
                            // First pass of an inter-ring probe: tag its
                            // origin ring (+1 so 0 means "untagged") and
                            // forward a copy towards the parent ring.
                            let bridge = &self.bridges[0][ring_idx];
                            if bridge.admits(bridge.up.len(), Self::age_of(&msg)) {
                                let mut copy = msg;
                                copy.block = BlockAddr::new(
                                    (msg.block.raw() & ROUTE_MASK)
                                        | ((ring_idx as u64 + 1) << ORIGIN_SHIFT),
                                );
                                let bridge = &mut self.bridges[0][ring_idx];
                                bridge.up.push_back(copy);
                                bridge.transfers += 1;
                                if deflect {
                                    Self::mark_crossed(ring, slot);
                                }
                            } else {
                                // Deflected: the original keeps circulating
                                // and retries next revolution, aged.
                                self.bridges[0][ring_idx].deflections += 1;
                                Self::bump_age(ring, slot);
                            }
                        }
                        if msg.src == iri_pos {
                            // A probe the bridge injected into this ring has
                            // completed its revolution here.
                            let _ = ring.remove(slot, iri_pos);
                        }
                    }
                    MsgKind::BlockData => {
                        if msg.dst == iri_pos {
                            // Reply leaving this ring towards the requester.
                            let bridge = &self.bridges[0][ring_idx];
                            if bridge.admits(bridge.up.len(), Self::age_of(&msg)) {
                                let m = Self::strip_deflect(ring.remove(slot, iri_pos));
                                let bridge = &mut self.bridges[0][ring_idx];
                                bridge.up.push_back(m);
                                bridge.transfers += 1;
                            } else {
                                self.bridges[0][ring_idx].deflections += 1;
                                Self::bump_age(ring, slot);
                            }
                        }
                    }
                    _ => {}
                }
            } else if let Some(msg) = self.bridges[0][ring_idx].down.front().copied() {
                let ok = msg.fits(ring.kind_of(slot));
                // Re-address the message for this ring.
                let mut m = msg;
                match m.kind {
                    MsgKind::SnoopRead => {
                        // Probe injected by the bridge circles this ring
                        // once.
                        m.src = iri_pos;
                        m.dst = iri_pos;
                    }
                    MsgKind::BlockData => {
                        m.src = iri_pos;
                        // dst stays: the requester position (final ring) or
                        // was already set by the home (reply in home ring
                        // heads to the bridge when inter-ring).
                    }
                    _ => {}
                }
                if ok && ring.try_insert(slot, iri_pos, m).is_ok() {
                    self.bridges[0][ring_idx].down.pop_front();
                }
            }
        }
    }

    /// Handles one header arrival on ring `ring_idx` of `level` ≥ 1:
    /// positions below `children_at(level)` are child-bridge interfaces,
    /// the next position (absent at the root) is the ring's own uplink.
    #[allow(clippy::too_many_lines)]
    fn handle_upper_arrival(&mut self, level: usize, ring_idx: usize, pos: NodeId, slot: SlotId) {
        let topo = &self.cfg.topo;
        let children = topo.children_at(level);
        // Leaf rings covered by one child subtree / by this whole ring.
        let per_child = topo.leafs_per_subtree(level - 1);
        let per_self = topo.leafs_per_subtree(level);
        let self_lo = ring_idx * per_self;
        let deflect = self.cfg.bridge_buffer.is_some();
        let uplink_pos = NodeId::new(children);
        let ring = &mut self.rings[level][ring_idx];
        let at_uplink = pos.index() == children;
        debug_assert!(at_uplink || pos.index() < children);
        if let Some(&msg) = ring.peek(slot) {
            #[allow(clippy::collapsible_match)] // symmetry with the probe arm
            match msg.kind {
                MsgKind::SnoopRead => {
                    let home_leaf = Self::home_ring_of(&msg);
                    if at_uplink {
                        // Probe still hunting outside this subtree: copy it
                        // up (it is already origin-tagged).
                        if !(self_lo..self_lo + per_self).contains(&home_leaf)
                            && !Self::crossed(&msg)
                        {
                            let bridge = &self.bridges[level][ring_idx];
                            if bridge.admits(bridge.up.len(), Self::age_of(&msg)) {
                                let copy = Self::strip_deflect(msg);
                                let bridge = &mut self.bridges[level][ring_idx];
                                bridge.up.push_back(copy);
                                bridge.transfers += 1;
                                if deflect {
                                    Self::mark_crossed(ring, slot);
                                }
                            } else {
                                self.bridges[level][ring_idx].deflections += 1;
                                Self::bump_age(ring, slot);
                            }
                        }
                    } else {
                        // Child-bridge interface: copy the probe down when
                        // the home leaf lives in that child's subtree.
                        let child_ring = ring_idx * children + pos.index();
                        let child_lo = child_ring * per_child;
                        if (child_lo..child_lo + per_child).contains(&home_leaf)
                            && !Self::crossed(&msg)
                        {
                            let bridge = &self.bridges[level - 1][child_ring];
                            if bridge.admits(bridge.down.len(), Self::age_of(&msg)) {
                                let copy = Self::strip_deflect(msg);
                                let bridge = &mut self.bridges[level - 1][child_ring];
                                bridge.down.push_back(copy);
                                bridge.transfers += 1;
                                if deflect {
                                    Self::mark_crossed(ring, slot);
                                }
                            } else {
                                self.bridges[level - 1][child_ring].deflections += 1;
                                Self::bump_age(ring, slot);
                            }
                        }
                    }
                    if msg.src == pos {
                        // Revolution complete at the inserting interface —
                        // in deflection mode only once the copy went
                        // through (every upper-level probe must cross
                        // exactly once, up or down).
                        if !deflect || Self::crossed(&msg) {
                            let _ = ring.remove(slot, pos);
                        }
                    }
                }
                MsgKind::BlockData => {
                    // Replies descend at the child subtree holding their
                    // origin leaf and ascend everywhere else.
                    let origin = Self::origin_of(&msg);
                    if origin >= 1 {
                        let origin_leaf = origin - 1;
                        if at_uplink {
                            if !(self_lo..self_lo + per_self).contains(&origin_leaf) {
                                let bridge = &self.bridges[level][ring_idx];
                                if bridge.admits(bridge.up.len(), Self::age_of(&msg)) {
                                    let m = Self::strip_deflect(ring.remove(slot, pos));
                                    let bridge = &mut self.bridges[level][ring_idx];
                                    bridge.up.push_back(m);
                                    bridge.transfers += 1;
                                } else {
                                    self.bridges[level][ring_idx].deflections += 1;
                                    Self::bump_age(ring, slot);
                                }
                            }
                        } else {
                            let child_ring = ring_idx * children + pos.index();
                            let child_lo = child_ring * per_child;
                            if (child_lo..child_lo + per_child).contains(&origin_leaf) {
                                let bridge = &self.bridges[level - 1][child_ring];
                                if bridge.admits(bridge.down.len(), Self::age_of(&msg)) {
                                    let mut m = Self::strip_deflect(ring.remove(slot, pos));
                                    if level == 1 {
                                        // Down into the requester's leaf
                                        // ring.
                                        m.dst = m.requester;
                                    }
                                    let bridge = &mut self.bridges[level - 1][child_ring];
                                    bridge.down.push_back(m);
                                    bridge.transfers += 1;
                                } else {
                                    self.bridges[level - 1][child_ring].deflections += 1;
                                    Self::bump_age(ring, slot);
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
        } else {
            // Empty slot: each position injects from exactly one queue —
            // child bridges drain their child's up-queue, the uplink
            // drains this ring's own down-queue.
            let queued = if at_uplink {
                self.bridges[level][ring_idx].down.front().copied()
            } else {
                let child_ring = ring_idx * children + pos.index();
                self.bridges[level - 1][child_ring].up.front().copied()
            };
            if let Some(msg) = queued {
                let ok = msg.fits(ring.kind_of(slot));
                let mut m = msg;
                if m.kind == MsgKind::SnoopRead {
                    // Probes circle this ring exactly once.
                    m.src = pos;
                    m.dst = pos;
                } else if at_uplink && m.kind == MsgKind::BlockData {
                    // Mirror the leaf-side down-insertion: mark the bridge
                    // as the inserter; dst is set at the origin's level-1
                    // descent.
                    m.src = uplink_pos;
                }
                if ok && ring.try_insert(slot, pos, m).is_ok() {
                    if at_uplink {
                        self.bridges[level][ring_idx].down.pop_front();
                    } else {
                        let child_ring = ring_idx * children + pos.index();
                        self.bridges[level - 1][child_ring].up.pop_front();
                    }
                }
            }
        }
    }
}

/// A run records per-transaction trace events, a `"hier"` gauge timeline
/// (combined leaf-ring occupancy, combined upper-ring occupancy, total
/// bridge queue depth) and — for trees with at least one bridge — a
/// `"bridges"` timeline with per-bridge occupancy, cumulative deflection
/// and cumulative transfer columns, when `opts.obs` asks for them.
impl Simulator for HierNetSim {
    fn run(&mut self, opts: &RunOptions) -> RunOutcome {
        self.sanitize = sanitize::enabled(opts.sanitize);
        if let Some(cfg) = opts.obs {
            let mut obs = Obs::enabled(cfg, self.nodes.len());
            self.obs_hier_tl = obs.add_timeline("hier", &["local_occ", "global_occ", "iri_queue"]);
            if self.cfg.topo.levels() > 1 {
                let mut names = Vec::new();
                for (level, row) in self.bridges.iter().enumerate() {
                    for ring in 0..row.len() {
                        for gauge in ["occ", "defl", "xfer"] {
                            names.push(format!("L{level}R{ring}_{gauge}"));
                        }
                    }
                }
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                self.obs_bridge_tl = obs.add_timeline("bridges", &refs);
            }
            self.obs = obs;
        }
        let rep = HierNetSim::run(self);
        let report = self.sim_report(&rep);
        RunOutcome { report, obs: std::mem::take(&mut self.obs).into_recorder() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rings: usize, per: usize, think_ns: u64, locality: f64, txns: u64) -> HierNetReport {
        let mut cfg = HierNetConfig::new(RingTopology::two_level(rings, per).unwrap());
        cfg.think_time = Time::from_ns(think_ns);
        cfg.locality = locality;
        cfg.txns_per_node = txns;
        HierNetSim::new(cfg).unwrap().run()
    }

    fn run_topo(
        topo: RingTopology,
        think_ns: u64,
        locality: f64,
        txns: u64,
        bridge_buffer: Option<usize>,
    ) -> HierNetReport {
        let mut cfg = HierNetConfig::new(topo);
        cfg.think_time = Time::from_ns(think_ns);
        cfg.locality = locality;
        cfg.txns_per_node = txns;
        cfg.bridge_buffer = bridge_buffer;
        HierNetSim::new(cfg).unwrap().run()
    }

    #[test]
    fn completes_all_transactions() {
        let r = run(4, 4, 400, 0.25, 80);
        assert_eq!(r.completed, 16 * 80);
        assert_eq!(r.latency.count(), 16 * 80);
    }

    #[test]
    fn latency_floor_is_memory_plus_travel() {
        let r = run(4, 4, 2_000, 1.0, 60);
        // Fully local: probe revolution (local ring: 5 interfaces -> 20
        // stages -> 40 ns) + 140 ns memory + reply — never below ~180 ns.
        assert!(r.latency.min().unwrap_or(0.0) >= 180.0, "min {:?}", r.latency.min());
        // And with long think times, contention is negligible: the mean
        // stays close to the floor.
        assert!(r.latency.mean() < 320.0, "mean {}", r.latency.mean());
    }

    #[test]
    fn inter_ring_costs_more_than_intra() {
        let local = run(4, 4, 1_500, 1.0, 60);
        let remote = run(4, 4, 1_500, 0.0, 60);
        assert!(
            remote.latency.mean() > local.latency.mean() + 50.0,
            "remote {} vs local {}",
            remote.latency.mean(),
            local.latency.mean()
        );
        assert!(remote.global_util > local.global_util);
    }

    #[test]
    fn load_raises_utilisation_and_latency() {
        let light = run(4, 4, 2_000, 0.25, 60);
        let heavy = run(4, 4, 150, 0.25, 60);
        assert!(heavy.global_util > light.global_util);
        assert!(heavy.latency.mean() > light.latency.mean());
    }

    #[test]
    fn deterministic() {
        let a = run(2, 4, 500, 0.5, 40);
        let b = run(2, 4, 500, 0.5, 40);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.sim_end, b.sim_end);
    }

    #[test]
    fn flat_topology_completes_without_bridges() {
        let topo = RingTopology::flat(8).unwrap();
        let r = run_topo(topo, 500, 1.0, 50, None);
        assert_eq!(r.completed, 8 * 50);
        // One ring, nothing above it.
        assert!(r.global_util == 0.0);
        assert_eq!(r.deflections, 0);
    }

    #[test]
    fn three_level_completes_and_pays_for_depth() {
        let three = RingTopology::three_level(2, 2, 4).unwrap();
        let r3 = run_topo(three, 1_500, 0.0, 40, None);
        assert_eq!(r3.completed, 16 * 40);
        // Cross-group transactions traverse five rings; with the same leaf
        // count a two-level tree traverses three.
        let two = RingTopology::two_level(4, 4).unwrap();
        let r2 = run_topo(two, 1_500, 0.0, 40, None);
        assert_eq!(r2.completed, 16 * 40);
        assert!(
            r3.latency.mean() > r2.latency.mean(),
            "3-level {} vs 2-level {}",
            r3.latency.mean(),
            r2.latency.mean()
        );
    }

    #[test]
    fn deflection_mode_completes_and_counts() {
        // A bufferless latch under all-remote traffic at a short think
        // time: bridges contend, deflections happen, nothing is lost.
        let topo = RingTopology::two_level(4, 4).unwrap();
        let r = run_topo(topo, 150, 0.0, 60, Some(0));
        assert_eq!(r.completed, 16 * 60);
        assert!(r.deflections > 0, "expected contention at bufferless bridges");
        // A generous buffer deflects less.
        let roomy = run_topo(RingTopology::two_level(4, 4).unwrap(), 150, 0.0, 60, Some(64));
        assert_eq!(roomy.completed, 16 * 60);
        assert!(roomy.deflections <= r.deflections);
    }

    #[test]
    fn deflection_mode_is_deterministic() {
        let a = run_topo(RingTopology::three_level(2, 2, 2).unwrap(), 200, 0.0, 40, Some(1));
        let b = run_topo(RingTopology::three_level(2, 2, 2).unwrap(), 200, 0.0, 40, Some(1));
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.sim_end, b.sim_end);
        assert_eq!(a.deflections, b.deflections);
    }

    #[test]
    fn unbounded_bridges_never_deflect() {
        let r = run(4, 4, 150, 0.0, 60);
        assert_eq!(r.deflections, 0);
    }

    #[test]
    #[should_panic(expected = "ran away")]
    fn a_wait_nothing_can_end_panics_at_once() {
        let mut cfg = HierNetConfig::new(RingTopology::two_level(2, 2).unwrap());
        cfg.txns_per_node = 2;
        let mut sim = HierNetSim::new(cfg).unwrap();
        // Waiting for a reply no message carries: once the other nodes are
        // done, nothing is scheduled, and the run stops there instead of
        // spinning to `max_cycles`.
        sim.nodes[0].phase = Phase::Waiting;
        sim.run();
    }

    #[test]
    fn sim_report_mirrors_run_totals() {
        let mut cfg = HierNetConfig::new(RingTopology::two_level(4, 4).unwrap());
        cfg.txns_per_node = 40;
        let mut sim = HierNetSim::new(cfg).unwrap();
        let rep = sim.run();
        let sr = sim.sim_report(&rep);
        assert_eq!(sr.protocol, "hier-net");
        assert_eq!(sr.nodes, 16);
        assert_eq!(sr.sim_end, rep.sim_end);
        assert_eq!(sr.events.misses(), rep.completed);
        assert_eq!(sr.miss_histogram.count(), rep.completed);
        assert_eq!(
            sr.class_latencies.local.count() + sr.class_latencies.clean_remote.count(),
            rep.completed
        );
        assert_eq!(sr.per_node.len(), 16);
        assert!(sr.per_node.iter().all(|n| n.misses == 40));
        assert!(sr.proc_util > 0.0 && sr.proc_util <= 1.0);
        assert!((sr.miss_latency.mean() - rep.latency.mean()).abs() < 1e-9);
    }
}
