use core::fmt;

use serde::{Deserialize, Serialize};

use ringsim_types::{NodeId, Time};

use crate::config::RingConfig;
use crate::layout::{RingLayout, SlotId, SlotKind};

/// Why a transmission attempt into a slot was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InsertError {
    /// The slot already carries a message.
    Occupied,
    /// The slot header is not at this node's interface this cycle.
    NotAtNode,
    /// The node removed a message from this slot this very cycle and the
    /// anti-starvation rule forbids immediate reuse.
    JustFreed,
}

impl fmt::Display for InsertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InsertError::Occupied => "slot occupied",
            InsertError::NotAtNode => "slot header not at node",
            InsertError::JustFreed => "slot just freed by this node (anti-starvation)",
        })
    }
}

impl std::error::Error for InsertError {}

/// Aggregate ring activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingStats {
    /// Ring cycles simulated.
    pub cycles: u64,
    /// Messages inserted into slots.
    pub inserted: u64,
    /// Messages removed from slots.
    pub removed: u64,
    /// Sum over cycles of occupied slots (all kinds).
    pub occupied_slot_cycles: u64,
    /// Sum over cycles of occupied probe slots.
    pub occupied_probe_cycles: u64,
    /// Sum over cycles of occupied block slots.
    pub occupied_block_cycles: u64,
}

impl RingStats {
    /// Average fraction of occupied slots — the paper's "ring slot
    /// utilization".
    #[must_use]
    pub fn slot_utilization(&self, total_slots: usize) -> f64 {
        if self.cycles == 0 || total_slots == 0 {
            0.0
        } else {
            self.occupied_slot_cycles as f64 / (self.cycles as f64 * total_slots as f64)
        }
    }

    /// Average fraction of occupied probe slots.
    #[must_use]
    pub fn probe_utilization(&self, probe_slots: usize) -> f64 {
        if self.cycles == 0 || probe_slots == 0 {
            0.0
        } else {
            self.occupied_probe_cycles as f64 / (self.cycles as f64 * probe_slots as f64)
        }
    }

    /// Average fraction of occupied block slots.
    #[must_use]
    pub fn block_utilization(&self, block_slots: usize) -> f64 {
        if self.cycles == 0 || block_slots == 0 {
            0.0
        } else {
            self.occupied_block_cycles as f64 / (self.cycles as f64 * block_slots as f64)
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct SlotState<M> {
    msg: Option<M>,
    /// Set when a node removed a message this cycle; blocks immediate reuse
    /// by the same node when the anti-starvation rule is active.
    just_freed: Option<(u64, NodeId)>,
}

impl<M> Default for SlotState<M> {
    fn default() -> Self {
        Self { msg: None, just_freed: None }
    }
}

/// The cycle-stepped slotted ring.
///
/// Driving protocol (per ring cycle):
///
/// 1. for each node, call [`SlotRing::arrival`]; if a slot header is at the
///    node, inspect it with [`SlotRing::peek`], optionally
///    [`SlotRing::remove`] the message, snoop it, or
///    [`SlotRing::try_insert`] a pending message into an empty slot;
/// 2. call [`SlotRing::advance`] to move every slot one stage downstream.
///
/// The ring records occupancy statistics on every `advance`, which yield the
/// paper's ring-utilisation metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotRing<M> {
    cfg: RingConfig,
    layout: RingLayout,
    slots: Vec<SlotState<M>>,
    cycle: u64,
    occupied_probe: usize,
    occupied_block: usize,
    stats: RingStats,
}

impl<M> SlotRing<M> {
    /// Builds an empty ring from `cfg`.
    ///
    /// # Errors
    ///
    /// Returns a [`ringsim_types::ConfigError`] when the configuration is
    /// invalid.
    pub fn new(cfg: RingConfig) -> Result<Self, ringsim_types::ConfigError> {
        let layout = cfg.layout()?;
        let slots = (0..layout.slot_count()).map(|_| SlotState::default()).collect();
        Ok(Self {
            cfg,
            layout,
            slots,
            cycle: 0,
            occupied_probe: 0,
            occupied_block: 0,
            stats: RingStats::default(),
        })
    }

    /// The ring geometry.
    #[must_use]
    pub fn layout(&self) -> &RingLayout {
        &self.layout
    }

    /// The configuration the ring was built from.
    #[must_use]
    pub fn config(&self) -> &RingConfig {
        &self.cfg
    }

    /// Current ring cycle (number of `advance` calls so far).
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Current simulated time (`cycle × clock period`).
    #[must_use]
    pub fn now(&self) -> Time {
        self.cfg.clock_period * self.cycle
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> RingStats {
        self.stats
    }

    /// Messages currently circulating.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.occupied_probe + self.occupied_block
    }

    /// Probe messages currently circulating (instantaneous occupancy, for
    /// utilization gauges).
    #[must_use]
    pub fn in_flight_probe(&self) -> usize {
        self.occupied_probe
    }

    /// Block messages currently circulating (instantaneous occupancy, for
    /// utilization gauges).
    #[must_use]
    pub fn in_flight_block(&self) -> usize {
        self.occupied_block
    }

    /// The kind of slot `id`.
    #[must_use]
    pub fn kind_of(&self, id: SlotId) -> SlotKind {
        self.layout.slot_spec(id).kind
    }

    /// Which slot header (if any) is at node `n`'s interface this cycle.
    #[must_use]
    pub fn arrival(&self, n: NodeId) -> Option<SlotId> {
        self.layout.arrival_at(n, self.cycle)
    }

    /// The message currently in slot `id`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn peek(&self, id: SlotId) -> Option<&M> {
        self.slots[id.index()].msg.as_ref()
    }

    /// Mutable access to the message in slot `id`, if any — used by snooping
    /// nodes to set the acknowledgment field of a passing probe.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn peek_mut(&mut self, id: SlotId) -> Option<&mut M> {
        self.slots[id.index()].msg.as_mut()
    }

    /// Removes and returns the message in slot `id`; the caller must be the
    /// node at whose interface the slot header currently sits.
    ///
    /// Under the anti-starvation rule the slot cannot be reused by `node`
    /// during this same cycle.
    ///
    /// # Panics
    ///
    /// Panics if the slot is empty or its header is not at `node` this
    /// cycle — both are protocol bugs in the caller.
    pub fn remove(&mut self, id: SlotId, node: NodeId) -> M {
        assert_eq!(self.arrival(node), Some(id), "slot {id:?} header is not at {node}");
        let slot = &mut self.slots[id.index()];
        let msg = slot.msg.take().expect("removing from empty slot");
        slot.just_freed = Some((self.cycle, node));
        if self.layout.slot_spec(id).kind.is_probe() {
            self.occupied_probe -= 1;
        } else {
            self.occupied_block -= 1;
        }
        self.stats.removed += 1;
        msg
    }

    /// Attempts to claim slot `id` for a message from `node`.
    ///
    /// # Errors
    ///
    /// Returns [`InsertError::NotAtNode`] when the slot header is not at
    /// `node`'s interface this cycle, [`InsertError::Occupied`] when the
    /// slot is full, and [`InsertError::JustFreed`] when `node` removed a
    /// message from this slot this cycle and the anti-starvation rule is
    /// active.
    pub fn try_insert(&mut self, id: SlotId, node: NodeId, msg: M) -> Result<(), InsertError> {
        if self.arrival(node) != Some(id) {
            return Err(InsertError::NotAtNode);
        }
        let reuse_ok = self.cfg.reuse_after_remove;
        let slot = &mut self.slots[id.index()];
        if slot.msg.is_some() {
            return Err(InsertError::Occupied);
        }
        if !reuse_ok {
            if let Some((cycle, freer)) = slot.just_freed {
                if cycle == self.cycle && freer == node {
                    return Err(InsertError::JustFreed);
                }
            }
        }
        slot.msg = Some(msg);
        if self.layout.slot_spec(id).kind.is_probe() {
            self.occupied_probe += 1;
        } else {
            self.occupied_block += 1;
        }
        self.stats.inserted += 1;
        Ok(())
    }

    /// Advances every slot one stage downstream and accumulates occupancy
    /// statistics for the cycle that just completed.
    pub fn advance(&mut self) {
        self.stats.cycles += 1;
        self.stats.occupied_probe_cycles += self.occupied_probe as u64;
        self.stats.occupied_block_cycles += self.occupied_block as u64;
        self.stats.occupied_slot_cycles += (self.occupied_probe + self.occupied_block) as u64;
        self.cycle += 1;
    }

    /// Advances to ring cycle `cycle` in one step. The slots' occupancy
    /// cannot change between calls, so this accumulates exactly the
    /// statistics `cycle - self.cycle()` calls to [`SlotRing::advance`]
    /// would; a simulator that skips idle cycles catches a ring up with it.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is behind the ring's current cycle.
    pub fn advance_to(&mut self, cycle: u64) {
        assert!(cycle >= self.cycle, "ring at cycle {} cannot move back to {cycle}", self.cycle);
        let skipped = cycle - self.cycle;
        self.stats.cycles += skipped;
        self.stats.occupied_probe_cycles += skipped * self.occupied_probe as u64;
        self.stats.occupied_block_cycles += skipped * self.occupied_block as u64;
        self.stats.occupied_slot_cycles +=
            skipped * (self.occupied_probe + self.occupied_block) as u64;
        self.cycle = cycle;
    }

    /// Probe-slot count (all parities).
    #[must_use]
    pub fn probe_slots(&self) -> usize {
        self.layout.slot_count() - self.block_slots()
    }

    /// Block-slot count.
    #[must_use]
    pub fn block_slots(&self) -> usize {
        self.layout.slots_of_kind(SlotKind::Block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> SlotRing<u32> {
        SlotRing::new(RingConfig::standard_500mhz(8)).unwrap()
    }

    /// Runs the ring until a slot satisfying `want` arrives at `node`,
    /// returning the slot id. Panics after a full revolution without one.
    fn wait_for(
        r: &mut SlotRing<u32>,
        node: NodeId,
        want: impl Fn(&SlotRing<u32>, SlotId) -> bool,
    ) -> SlotId {
        for _ in 0..=r.layout().stages() {
            if let Some(id) = r.arrival(node) {
                if want(r, id) {
                    return id;
                }
            }
            r.advance();
        }
        panic!("no matching slot within one revolution");
    }

    #[test]
    fn message_travels_to_downstream_node() {
        let mut r = ring();
        let src = NodeId::new(1);
        let dst = NodeId::new(5);
        let id =
            wait_for(&mut r, src, |r, id| r.kind_of(id) == SlotKind::Block && r.peek(id).is_none());
        r.try_insert(id, src, 42).unwrap();
        let sent_at = r.cycle();
        // The message reaches dst exactly stage_distance(src,dst) cycles later.
        let dist = r.layout().stage_distance(src, dst) as u64;
        while r.cycle() < sent_at + dist {
            r.advance();
        }
        assert_eq!(r.arrival(dst), Some(id));
        assert_eq!(r.peek(id), Some(&42));
        assert_eq!(r.remove(id, dst), 42);
        assert_eq!(r.in_flight(), 0);
    }

    #[test]
    fn full_revolution_returns_to_sender() {
        let mut r = ring();
        let src = NodeId::new(3);
        let id = wait_for(&mut r, src, |r, id| r.kind_of(id).is_probe() && r.peek(id).is_none());
        r.try_insert(id, src, 7).unwrap();
        let sent_at = r.cycle();
        let s = r.layout().stages() as u64;
        while r.cycle() < sent_at + s {
            r.advance();
        }
        assert_eq!(r.arrival(src), Some(id));
        assert_eq!(r.remove(id, src), 7);
    }

    #[test]
    fn insert_requires_header_at_node() {
        let mut r = ring();
        let src = NodeId::new(0);
        let id = wait_for(&mut r, src, |r, id| r.peek(id).is_none());
        // Another node cannot claim the slot this cycle.
        let other = NodeId::new(4);
        assert_eq!(r.try_insert(id, other, 1), Err(InsertError::NotAtNode));
        r.try_insert(id, src, 1).unwrap();
    }

    #[test]
    fn occupied_slot_rejects_insert() {
        let mut r = ring();
        let src = NodeId::new(0);
        let id = wait_for(&mut r, src, |r, id| r.peek(id).is_none());
        r.try_insert(id, src, 1).unwrap();
        // Move to the next node that sees this slot: it must not claim it.
        let s = r.layout().stage_distance(src, NodeId::new(1)) as u64;
        let start = r.cycle();
        while r.cycle() < start + s {
            r.advance();
        }
        assert_eq!(r.arrival(NodeId::new(1)), Some(id));
        assert_eq!(r.try_insert(id, NodeId::new(1), 2), Err(InsertError::Occupied));
    }

    #[test]
    fn anti_starvation_blocks_immediate_reuse() {
        let mut r = ring();
        let src = NodeId::new(2);
        let id = wait_for(&mut r, src, |r, id| r.peek(id).is_none());
        r.try_insert(id, src, 9).unwrap();
        // One full revolution later the sender removes it...
        let start = r.cycle();
        let s = r.layout().stages() as u64;
        while r.cycle() < start + s {
            r.advance();
        }
        assert_eq!(r.remove(id, src), 9);
        // ...and may not immediately refill the same slot.
        assert_eq!(r.try_insert(id, src, 10), Err(InsertError::JustFreed));
        // The next node downstream may use it, though.
        let d = r.layout().stage_distance(src, NodeId::new(3)) as u64;
        let start = r.cycle();
        while r.cycle() < start + d {
            r.advance();
        }
        r.try_insert(id, NodeId::new(3), 11).unwrap();
    }

    #[test]
    fn reuse_allowed_when_rule_disabled() {
        let cfg = RingConfig { reuse_after_remove: true, ..RingConfig::standard_500mhz(8) };
        let mut r: SlotRing<u32> = SlotRing::new(cfg).unwrap();
        let src = NodeId::new(2);
        let id = wait_for(&mut r, src, |r, id| r.peek(id).is_none());
        r.try_insert(id, src, 9).unwrap();
        let start = r.cycle();
        let s = r.layout().stages() as u64;
        while r.cycle() < start + s {
            r.advance();
        }
        assert_eq!(r.remove(id, src), 9);
        r.try_insert(id, src, 10).unwrap();
    }

    #[test]
    fn utilization_accounting() {
        let mut r = ring();
        let src = NodeId::new(0);
        let id =
            wait_for(&mut r, src, |r, id| r.kind_of(id) == SlotKind::Block && r.peek(id).is_none());
        let warmup = r.stats().cycles;
        r.try_insert(id, src, 1).unwrap();
        for _ in 0..100 {
            r.advance();
        }
        let st = r.stats();
        assert_eq!(st.cycles, warmup + 100);
        assert_eq!(st.occupied_block_cycles, 100);
        assert_eq!(st.occupied_probe_cycles, 0);
        let util = st.block_utilization(r.block_slots());
        // One of three block slots occupied during the non-warmup cycles.
        assert!(util > 0.0 && util <= 1.0 / 3.0 + 1e-9, "util = {util}");
    }

    #[test]
    fn advance_to_matches_repeated_advance() {
        let mut stepped = ring();
        // One probe and one block message in flight.
        let src = NodeId::new(0);
        let id =
            wait_for(&mut stepped, src, |r, id| r.kind_of(id).is_probe() && r.peek(id).is_none());
        stepped.try_insert(id, src, 1).unwrap();
        let id = wait_for(&mut stepped, src, |r, id| {
            r.kind_of(id) == SlotKind::Block && r.peek(id).is_none()
        });
        stepped.try_insert(id, src, 2).unwrap();
        let mut jumped = stepped.clone();
        for _ in 0..37 {
            stepped.advance();
        }
        jumped.advance_to(jumped.cycle() + 37);
        assert_eq!(jumped.cycle(), stepped.cycle());
        assert_eq!(jumped.stats(), stepped.stats());
        assert_eq!(jumped, stepped);
    }

    #[test]
    fn advance_to_the_current_cycle_is_a_no_op() {
        let mut r = ring();
        let src = NodeId::new(3);
        let id = wait_for(&mut r, src, |r, id| r.peek(id).is_none());
        r.try_insert(id, src, 5).unwrap();
        let before = r.clone();
        r.advance_to(r.cycle());
        assert_eq!(r, before);
    }

    #[test]
    #[should_panic(expected = "cannot move back")]
    fn advance_to_rejects_a_backwards_target() {
        let mut r = ring();
        r.advance_to(10);
        r.advance_to(9);
    }

    #[test]
    fn now_tracks_clock() {
        let mut r = ring();
        for _ in 0..5 {
            r.advance();
        }
        assert_eq!(r.now(), Time::from_ns(10));
    }

    #[test]
    #[should_panic(expected = "not at")]
    fn remove_requires_header_at_node() {
        let mut r = ring();
        let src = NodeId::new(0);
        let id = wait_for(&mut r, src, |r, id| r.peek(id).is_none());
        r.try_insert(id, src, 1).unwrap();
        r.advance();
        let _ = r.remove(id, src);
    }
}
