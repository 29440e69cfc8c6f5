//! Ring access-control comparison: **slotted** versus **register-insertion**
//! rings (paper §2).
//!
//! The paper chooses the slotted ring but leaves the performance question
//! open: *"Which one of slotted or register insertion rings offers the best
//! performance is not clear. Intuitively, under light loads, the register
//! insertion ring has a faster access time since a message does not wait
//! for a proper slot to pass by. Under medium to heavy loads, the
//! simplicity of enforcing fairness on the slotted ring may yield better
//! performance. The delay of transmitting a message in the register
//! insertion ring can vary significantly depending on the activity of other
//! nodes in the message path."*
//!
//! This module tests that conjecture with two message-level closed-loop
//! simulators sharing one workload shape (think → request probe → home
//! access → block reply → think):
//!
//! * [`SlottedNetSim`] — a flat slotted ring built on the real
//!   [`SlotRing`] machinery (frames, parity, anti-starvation);
//! * [`InsertionNetSim`] — a register-insertion ring: one flit per link per
//!   cycle, cut-through forwarding, a bypass FIFO that buffers ring traffic
//!   while a node transmits, and the SCI rule that a node may only insert
//!   its own message while its bypass FIFO is empty.
//!
//! Message sizes match the slotted ring's slots (probe = 2 flits, block =
//! 6 flits for 32-bit links) so the raw bandwidth demand is identical; only
//! the access-control discipline differs.

use std::collections::VecDeque;

use ringsim_proto::{MsgClass, MsgKind, RingMessage};
use ringsim_ring::{RingConfig, SlotRing};
use ringsim_types::rng::Xoshiro256;
use ringsim_types::stats::RunningMean;
use ringsim_types::{BlockAddr, ConfigError, NodeId, Time};

/// Shared configuration of the two access-control simulators.
#[derive(Debug, Clone, Copy)]
pub struct AccessNetConfig {
    /// Nodes on the ring.
    pub nodes: usize,
    /// Mean think time between a node's transactions (the load knob).
    pub think_time: Time,
    /// Memory access time at the home.
    pub mem_latency: Time,
    /// Transactions per node.
    pub txns_per_node: u64,
    /// PRNG seed.
    pub seed: u64,
}

impl AccessNetConfig {
    /// A baseline configuration.
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        Self {
            nodes,
            think_time: Time::from_ns(500),
            mem_latency: Time::from_ns(140),
            txns_per_node: 300,
            seed: 0xACCE,
        }
    }

    fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes < 2 || self.nodes > 64 {
            return Err(ConfigError::new("nodes", "need 2..=64 nodes"));
        }
        if self.think_time.is_zero() {
            return Err(ConfigError::new("think_time", "must be non-zero"));
        }
        if self.txns_per_node == 0 {
            return Err(ConfigError::new("txns_per_node", "must be non-zero"));
        }
        Ok(())
    }
}

/// Results of an access-control run.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessNetReport {
    /// Time from "message ready" to "message fully on the ring" — the
    /// access-delay metric the paper's §2 argument is about.
    pub access_delay: RunningMean,
    /// End-to-end transaction latency.
    pub latency: RunningMean,
    /// Link/slot utilisation.
    pub util: f64,
    /// Completed transactions.
    pub completed: u64,
    /// Simulated time.
    pub sim_end: Time,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Thinking { until: Time },
    Waiting,
    Done,
}

#[derive(Debug, Clone, Copy)]
struct OutMsg {
    msg: RingMessage,
    ready_at: Time,
}

#[derive(Debug)]
struct LoopNode {
    phase: Phase,
    issued: u64,
    started: Time,
    out_q: VecDeque<OutMsg>,
    rng: Xoshiro256,
}

fn make_nodes(cfg: &AccessNetConfig) -> Vec<LoopNode> {
    let mut root = Xoshiro256::seed_from_u64(cfg.seed);
    (0..cfg.nodes)
        .map(|i| LoopNode {
            phase: Phase::Thinking { until: Time::from_ps(1 + i as u64 * 131) },
            issued: 0,
            started: Time::ZERO,
            out_q: VecDeque::new(),
            rng: root.fork(i as u64),
        })
        .collect()
}

/// Node behaviour shared by both simulators: think, then issue a probe to a
/// uniformly random *other* node. Returns how many nodes retired (entered
/// [`Phase::Done`]) this call, so callers can keep a running total instead
/// of scanning every node every cycle.
fn step_think(nodes: &mut [LoopNode], cfg: &AccessNetConfig, now: Time) -> usize {
    let mut newly_done = 0;
    for (i, node) in nodes.iter_mut().enumerate() {
        if let Phase::Thinking { until } = node.phase {
            if until <= now {
                if node.issued == cfg.txns_per_node {
                    node.phase = Phase::Done;
                    newly_done += 1;
                    continue;
                }
                node.issued += 1;
                node.started = now;
                let other = {
                    let pick = node.rng.next_below(cfg.nodes as u64 - 1) as usize;
                    if pick >= i {
                        pick + 1
                    } else {
                        pick
                    }
                };
                let probe = RingMessage::for_requester(
                    MsgKind::DirRead,
                    BlockAddr::new(node.issued),
                    NodeId::new(i),
                    NodeId::new(other),
                    NodeId::new(i),
                );
                node.out_q.push_back(OutMsg { msg: probe, ready_at: now });
                node.phase = Phase::Waiting;
            }
        }
    }
    newly_done
}

fn complete(
    nodes: &mut [LoopNode],
    latency: &mut RunningMean,
    cfg: &AccessNetConfig,
    i: usize,
    now: Time,
) {
    let node = &mut nodes[i];
    debug_assert_eq!(node.phase, Phase::Waiting);
    latency.push_time_ns(now.saturating_sub(node.started));
    let think = (node.rng.next_f64() * 2.0 * cfg.think_time.as_ns_f64()).max(0.1);
    node.phase = Phase::Thinking { until: now + Time::from_ns_f64(think) };
}

// --------------------------------------------------------------- slotted

/// The slotted-ring side of the comparison.
#[derive(Debug)]
pub struct SlottedNetSim {
    cfg: AccessNetConfig,
    ring: SlotRing<RingMessage>,
    nodes: Vec<LoopNode>,
}

impl SlottedNetSim {
    /// Builds the simulator on the paper's standard 500 MHz 32-bit ring.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the configuration is invalid.
    pub fn new(cfg: AccessNetConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let ring = SlotRing::new(RingConfig::standard_500mhz(cfg.nodes))?;
        let nodes = make_nodes(&cfg);
        Ok(Self { cfg, ring, nodes })
    }

    /// Runs to completion.
    ///
    /// # Panics
    ///
    /// Panics on a runaway simulation (internal bug guard).
    pub fn run(&mut self) -> AccessNetReport {
        let period = self.ring.config().clock_period;
        let mem_cycles = self.cfg.mem_latency.as_ps().div_ceil(period.as_ps());
        let mut access = RunningMean::default();
        let mut latency = RunningMean::default();
        let mut completed = 0u64;
        // (ready_cycle, node, reply message)
        let mut pending: Vec<(u64, usize, RingMessage)> = Vec::new();
        let mut cycle = 0u64;
        let mut done_nodes = 0usize;
        // `(position, slot)` header arrivals per ring phase — the inner
        // loop below visits only the nodes with an arrival this cycle.
        let sched = self.ring.layout().arrival_schedule();
        loop {
            let now = period * cycle;
            done_nodes += step_think(&mut self.nodes, &self.cfg, now);
            pending.retain(|&(ready, node, msg)| {
                if ready <= cycle {
                    self.nodes[node].out_q.push_back(OutMsg { msg, ready_at: period * ready });
                    false
                } else {
                    true
                }
            });
            let phase = (cycle % sched.len() as u64) as usize;
            for &(pos, slot) in &sched[phase] {
                let i = pos.index();
                if self.ring.peek(slot).is_some() {
                    let msg = *self.ring.peek(slot).expect("occupied");
                    if msg.dst == pos {
                        let m = self.ring.remove(slot, pos);
                        match m.kind {
                            MsgKind::DirRead => {
                                // Home: reply with a block after the access.
                                let reply = RingMessage {
                                    kind: MsgKind::BlockData,
                                    src: pos,
                                    dst: m.requester,
                                    ..m
                                };
                                pending.push((cycle + mem_cycles, i, reply));
                            }
                            MsgKind::BlockData => {
                                completed += 1;
                                complete(&mut self.nodes, &mut latency, &self.cfg, i, now);
                            }
                            _ => unreachable!("unexpected message kind"),
                        }
                    }
                } else if let Some(&out) = self.nodes[i].out_q.front() {
                    if out.msg.fits(self.ring.kind_of(slot))
                        && self.ring.try_insert(slot, pos, out.msg).is_ok()
                    {
                        self.nodes[i].out_q.pop_front();
                        access.push_time_ns(now.saturating_sub(out.ready_at));
                    }
                }
            }
            self.ring.advance();
            cycle += 1;
            if done_nodes == self.nodes.len() {
                break;
            }
            assert!(cycle < 2_000_000_000, "slotted access simulation ran away");
        }
        AccessNetReport {
            access_delay: access,
            latency,
            util: self.ring.stats().slot_utilization(self.ring.layout().slot_count()),
            completed,
            sim_end: period * cycle,
        }
    }
}

// --------------------------------------------------- register insertion

/// One flit on a link: which message it belongs to and whether it is the
/// tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Flit {
    msg: RingMessage,
    last: bool,
}

/// What a node's output port is currently committed to (messages must stay
/// contiguous on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutState {
    Idle,
    /// Forwarding a pass-through message arriving from upstream.
    Through {
        remaining: u32,
    },
    /// Draining the bypass FIFO or sending an own message.
    Sending {
        from_fifo: bool,
        remaining: u32,
    },
}

/// The register-insertion ring (SCI-style access control).
#[derive(Debug)]
pub struct InsertionNetSim {
    cfg: AccessNetConfig,
    nodes: Vec<LoopNode>,
    probe_flits: u32,
    block_flits: u32,
    period: Time,
}

impl InsertionNetSim {
    /// Builds the simulator with flit sizes matching the slotted ring's
    /// slots on 32-bit links (probe = 2 flits, block = 6 flits, 2 ns each).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the configuration is invalid.
    pub fn new(cfg: AccessNetConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let base = RingConfig::standard_500mhz(cfg.nodes);
        let nodes = make_nodes(&cfg);
        Ok(Self {
            cfg,
            nodes,
            probe_flits: base.probe_stages() as u32,
            block_flits: base.block_slot_stages() as u32,
            period: base.clock_period,
        })
    }

    fn flits_of(&self, msg: &RingMessage) -> u32 {
        match msg.class() {
            MsgClass::Probe => self.probe_flits,
            MsgClass::Block => self.block_flits,
        }
    }

    /// Runs to completion.
    ///
    /// # Panics
    ///
    /// Panics on a runaway simulation (internal bug guard).
    #[allow(clippy::too_many_lines)]
    pub fn run(&mut self) -> AccessNetReport {
        let n = self.cfg.nodes;
        // Each node keeps 3 pipeline stages like the slotted ring; model the
        // inter-node wire as a 3-deep shift register of flits.
        const STAGES: usize = 3;
        let mut wires: Vec<VecDeque<Option<Flit>>> =
            (0..n).map(|_| (0..STAGES).map(|_| None).collect()).collect();
        let mut fifos: Vec<VecDeque<Flit>> = (0..n).map(|_| VecDeque::new()).collect();
        let mut out_state = vec![OutState::Idle; n];
        // Progress of the message each node is currently emitting.
        let mut emitting: Vec<Option<(RingMessage, u32, Time)>> = vec![None; n];
        let mem_cycles = self.cfg.mem_latency.as_ps().div_ceil(self.period.as_ps());
        let mut pending: Vec<(u64, usize, RingMessage)> = Vec::new();
        let mut access = RunningMean::default();
        let mut latency = RunningMean::default();
        let mut completed = 0u64;
        let mut busy_flits = 0u64;
        let mut cycle = 0u64;
        let mut done_nodes = 0usize;
        loop {
            let now = self.period * cycle;
            done_nodes += step_think(&mut self.nodes, &self.cfg, now);
            pending.retain(|&(ready, node, msg)| {
                if ready <= cycle {
                    self.nodes[node].out_q.push_back(OutMsg { msg, ready_at: self.period * ready });
                    false
                } else {
                    true
                }
            });
            // One cycle: every node consumes the flit arriving on its input
            // wire (from upstream) and produces at most one flit on its
            // output wire.
            let mut arrivals: Vec<Option<Flit>> = Vec::with_capacity(n);
            for i in 0..n {
                // Input of node i is the wire from its upstream neighbour.
                let upstream = (i + n - 1) % n;
                arrivals.push(wires[upstream].pop_front().expect("wire stage"));
            }
            for i in 0..n {
                // 1. handle the arriving flit.
                if let Some(flit) = arrivals[i] {
                    if flit.msg.dst == NodeId::new(i) {
                        // Strip from the ring; deliver on the tail flit.
                        if flit.last {
                            match flit.msg.kind {
                                MsgKind::DirRead => {
                                    let reply = RingMessage {
                                        kind: MsgKind::BlockData,
                                        src: NodeId::new(i),
                                        dst: flit.msg.requester,
                                        ..flit.msg
                                    };
                                    pending.push((cycle + mem_cycles, i, reply));
                                }
                                MsgKind::BlockData => {
                                    completed += 1;
                                    complete(&mut self.nodes, &mut latency, &self.cfg, i, now);
                                }
                                _ => unreachable!("unexpected message kind"),
                            }
                        }
                    } else if out_state[i] == OutState::Idle && fifos[i].is_empty() {
                        // Cut through: forward immediately and stay locked
                        // to this message until its tail passes.
                        if !flit.last {
                            out_state[i] = OutState::Through { remaining: 0 };
                        }
                        wires[i].push_back(Some(flit));
                        busy_flits += 1;
                        continue;
                    } else if matches!(out_state[i], OutState::Through { .. }) {
                        // Continuation of the message we are forwarding.
                        wires[i].push_back(Some(flit));
                        busy_flits += 1;
                        if flit.last {
                            out_state[i] = OutState::Idle;
                        }
                        continue;
                    } else {
                        // We are busy sending: buffer the through-traffic.
                        fifos[i].push_back(flit);
                    }
                }
                // 2. choose what to emit this cycle.
                match out_state[i] {
                    OutState::Through { .. } => {
                        // The through message stalled upstream this cycle
                        // (no arriving flit): emit a bubble.
                        wires[i].push_back(None);
                    }
                    OutState::Sending { from_fifo, mut remaining } => {
                        if from_fifo {
                            if let Some(flit) = fifos[i].pop_front() {
                                let done = flit.last;
                                wires[i].push_back(Some(flit));
                                busy_flits += 1;
                                if done {
                                    out_state[i] = OutState::Idle;
                                }
                            } else {
                                wires[i].push_back(None);
                            }
                        } else {
                            let (msg, total, _) = emitting[i].expect("emitting");
                            remaining -= 1;
                            let last = remaining == 0;
                            wires[i].push_back(Some(Flit { msg, last }));
                            busy_flits += 1;
                            if last {
                                // Access delay was recorded at start.
                                emitting[i] = None;
                                out_state[i] = OutState::Idle;
                                let _ = total;
                            } else {
                                out_state[i] = OutState::Sending { from_fifo: false, remaining };
                            }
                        }
                    }
                    OutState::Idle => {
                        if let Some(head) = fifos[i].front().copied() {
                            // Drain the bypass FIFO first (ring traffic has
                            // priority; also the SCI anti-starvation rule:
                            // no own insertion while the FIFO is occupied).
                            fifos[i].pop_front();
                            let done = head.last;
                            wires[i].push_back(Some(head));
                            busy_flits += 1;
                            if !done {
                                out_state[i] = OutState::Sending { from_fifo: true, remaining: 0 };
                            }
                        } else if let Some(&out) = self.nodes[i].out_q.front() {
                            // Insert an own message.
                            self.nodes[i].out_q.pop_front();
                            access.push_time_ns(now.saturating_sub(out.ready_at));
                            let flits = self.flits_of(&out.msg);
                            let last = flits == 1;
                            wires[i].push_back(Some(Flit { msg: out.msg, last }));
                            busy_flits += 1;
                            if last {
                                out_state[i] = OutState::Idle;
                            } else {
                                emitting[i] = Some((out.msg, flits, out.ready_at));
                                out_state[i] =
                                    OutState::Sending { from_fifo: false, remaining: flits - 1 };
                            }
                        } else {
                            wires[i].push_back(None);
                        }
                    }
                }
            }
            cycle += 1;
            if done_nodes == self.nodes.len() {
                break;
            }
            assert!(cycle < 2_000_000_000, "insertion-ring simulation ran away");
        }
        let total_link_cycles = cycle * (n as u64);
        AccessNetReport {
            access_delay: access,
            latency,
            util: if total_link_cycles == 0 {
                0.0
            } else {
                busy_flits as f64 / total_link_cycles as f64
            },
            completed,
            sim_end: self.period * cycle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_pair(nodes: usize, think_ns: u64, txns: u64) -> (AccessNetReport, AccessNetReport) {
        let mut cfg = AccessNetConfig::new(nodes);
        cfg.think_time = Time::from_ns(think_ns);
        cfg.txns_per_node = txns;
        let slotted = SlottedNetSim::new(cfg).unwrap().run();
        let insertion = InsertionNetSim::new(cfg).unwrap().run();
        (slotted, insertion)
    }

    #[test]
    fn both_complete_all_transactions() {
        let (s, r) = run_pair(8, 500, 100);
        assert_eq!(s.completed, 800);
        assert_eq!(r.completed, 800);
    }

    #[test]
    fn light_load_favours_register_insertion_access() {
        // Paper §2's intuition: with an idle ring, insertion is immediate
        // while the slotted ring waits for a matching slot to pass.
        let (s, r) = run_pair(8, 3_000, 80);
        assert!(
            r.access_delay.mean() < s.access_delay.mean(),
            "insertion {} !< slotted {}",
            r.access_delay.mean(),
            s.access_delay.mean()
        );
        assert!(r.access_delay.mean() < 2.0, "insertion should be near-immediate");
    }

    #[test]
    fn heavy_load_narrows_or_reverses_the_gap() {
        // Under load, insertion-ring senders must drain their bypass FIFOs;
        // access is no longer free and varies with upstream activity.
        let (_, light) = run_pair(8, 3_000, 80);
        let (_, heavy) = run_pair(8, 60, 80);
        assert!(
            heavy.access_delay.mean() > light.access_delay.mean() + 1.0,
            "insertion access should degrade with load: {} vs {}",
            heavy.access_delay.mean(),
            light.access_delay.mean()
        );
    }

    #[test]
    fn latencies_have_sane_floors() {
        let (s, r) = run_pair(8, 2_000, 60);
        // Both include at least memory (140 ns) plus some travel.
        assert!(s.latency.min().unwrap_or(0.0) >= 150.0);
        assert!(r.latency.min().unwrap_or(0.0) >= 150.0);
    }

    #[test]
    fn deterministic() {
        let (a1, b1) = run_pair(6, 400, 50);
        let (a2, b2) = run_pair(6, 400, 50);
        assert_eq!(a1.latency, a2.latency);
        assert_eq!(b1.latency, b2.latency);
    }
}
