use serde::{Deserialize, Serialize};

use ringsim_types::NodeId;

use crate::config::{Parity, RingConfig};

/// What a slot may carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SlotKind {
    /// A probe slot for even-numbered blocks.
    ProbeEven,
    /// A probe slot for odd-numbered blocks.
    ProbeOdd,
    /// A probe slot that accepts either parity (single-probe frames).
    ProbeAny,
    /// A block slot (header + cache block).
    Block,
}

impl SlotKind {
    /// `true` for any of the probe kinds.
    #[must_use]
    pub const fn is_probe(self) -> bool {
        !matches!(self, SlotKind::Block)
    }

    /// The parity filter of a probe slot (`Any` for block slots, which do not
    /// filter by parity).
    #[must_use]
    pub const fn parity(self) -> Parity {
        match self {
            SlotKind::ProbeEven => Parity::Even,
            SlotKind::ProbeOdd => Parity::Odd,
            SlotKind::ProbeAny | SlotKind::Block => Parity::Any,
        }
    }
}

/// Index of a slot in the circulating frame structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SlotId(pub(crate) usize);

impl SlotId {
    /// Raw index, in `0..layout.slot_count()`.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

/// Static description of one slot: kind, starting stage (at cycle 0) and
/// length in stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotSpec {
    /// What the slot carries.
    pub kind: SlotKind,
    /// Stage occupied by the slot header at ring cycle 0.
    pub start_stage: usize,
    /// Slot length in pipeline stages.
    pub stages: usize,
}

/// Derived geometry of a slotted ring: total stages, node interface
/// positions, and the slot map.
///
/// The ring pipeline circulates: the header of slot `s` is at stage
/// `(s.start_stage + cycle) mod stages`. Node `i`'s interface sits at stage
/// `i * stages_per_node`, so a slot header "arrives at" node `i` on every
/// cycle where those coincide.
///
/// # Examples
///
/// ```
/// use ringsim_ring::RingConfig;
/// use ringsim_types::NodeId;
///
/// let layout = RingConfig::standard_500mhz(8).layout().unwrap();
/// assert_eq!(layout.stages(), 30);
/// assert_eq!(layout.frames(), 3);
/// // A probe inserted at P1 returns to P1 after a full round trip:
/// assert_eq!(layout.stage_distance(NodeId::new(1), NodeId::new(1)), 30);
/// assert_eq!(layout.stage_distance(NodeId::new(1), NodeId::new(4)), 9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingLayout {
    stages: usize,
    frame_stages: usize,
    frames: usize,
    nodes: usize,
    stages_per_node: usize,
    slots: Vec<SlotSpec>,
    /// `start_stage -> slot id` lookup.
    header_at_stage: Vec<Option<SlotId>>,
}

impl RingLayout {
    pub(crate) fn from_config(cfg: &RingConfig) -> Self {
        let frame_stages = cfg.frame_stages();
        let node_stages = cfg.nodes * cfg.stages_per_node;
        // Pad to an integer number of frames (paper: 24 node stages + 6
        // padding stages = 3 frames for the 8-node ring).
        let frames = node_stages.div_ceil(frame_stages);
        let stages = frames * frame_stages;

        let probe_stages = cfg.probe_stages();
        let block_stages = cfg.block_slot_stages();
        let mut slots =
            Vec::with_capacity(frames * (cfg.probe_slots_per_frame + cfg.block_slots_per_frame));
        for f in 0..frames {
            let mut cursor = f * frame_stages;
            for p in 0..cfg.probe_slots_per_frame {
                let kind = if cfg.probe_slots_per_frame == 1 {
                    SlotKind::ProbeAny
                } else if p % 2 == 0 {
                    SlotKind::ProbeEven
                } else {
                    SlotKind::ProbeOdd
                };
                slots.push(SlotSpec { kind, start_stage: cursor, stages: probe_stages });
                cursor += probe_stages;
            }
            for _ in 0..cfg.block_slots_per_frame {
                slots.push(SlotSpec {
                    kind: SlotKind::Block,
                    start_stage: cursor,
                    stages: block_stages,
                });
                cursor += block_stages;
            }
        }

        let mut header_at_stage = vec![None; stages];
        for (i, spec) in slots.iter().enumerate() {
            header_at_stage[spec.start_stage] = Some(SlotId(i));
        }

        Self {
            stages,
            frame_stages,
            frames,
            nodes: cfg.nodes,
            stages_per_node: cfg.stages_per_node,
            slots,
            header_at_stage,
        }
    }

    /// Total pipeline stages around the ring.
    #[must_use]
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Stages per frame.
    #[must_use]
    pub fn frame_stages(&self) -> usize {
        self.frame_stages
    }

    /// Number of frames circulating.
    #[must_use]
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Number of nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Ring cycles for one complete revolution (equals [`RingLayout::stages`]).
    #[must_use]
    pub fn round_trip_cycles(&self) -> usize {
        self.stages
    }

    /// Number of slots circulating.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of slots of each probe kind / block kind that match `kind`.
    #[must_use]
    pub fn slots_of_kind(&self, kind: SlotKind) -> usize {
        self.slots.iter().filter(|s| s.kind == kind).count()
    }

    /// Static description of slot `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn slot_spec(&self, id: SlotId) -> SlotSpec {
        self.slots[id.0]
    }

    /// All slot specs, in frame order.
    #[must_use]
    pub fn slot_specs(&self) -> &[SlotSpec] {
        &self.slots
    }

    /// Stage of node `n`'s interface.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a node of this ring.
    #[must_use]
    pub fn node_stage(&self, n: NodeId) -> usize {
        assert!(n.index() < self.nodes, "{n} not on this ring");
        n.index() * self.stages_per_node
    }

    /// Which slot's header sits at node `n`'s interface at ring cycle
    /// `cycle`, if any.
    #[must_use]
    pub fn arrival_at(&self, n: NodeId, cycle: u64) -> Option<SlotId> {
        let pos = self.node_stage(n);
        let stage = (pos + self.stages - (cycle % self.stages as u64) as usize) % self.stages;
        self.header_at_stage[stage]
    }

    /// Precomputed arrival lists: entry `phase` holds every
    /// `(node, slot)` pair for which a slot header sits at the node's
    /// interface when `cycle % stages() == phase`, in ascending node
    /// order.
    ///
    /// [`RingLayout::arrival_at`] is periodic in the stage count, so a
    /// cycle-stepped simulator can replace its per-cycle all-nodes arrival
    /// scan with one indexed lookup into this table — iterating only the
    /// slots that actually arrive somewhere (≈ `slot_count()` entries per
    /// cycle instead of `nodes()` probes). The table is derived state, not
    /// part of the layout's identity; it is rebuilt on demand and never
    /// serialised.
    #[must_use]
    pub fn arrival_schedule(&self) -> Vec<Vec<(NodeId, SlotId)>> {
        (0..self.stages as u64)
            .map(|phase| {
                (0..self.nodes)
                    .filter_map(|n| {
                        let node = NodeId::new(n);
                        self.arrival_at(node, phase).map(|slot| (node, slot))
                    })
                    .collect()
            })
            .collect()
    }

    /// Stages a message travels from node `from` to node `to`; a full
    /// revolution (`stages()`) when `from == to` (e.g. a snooping probe that
    /// is removed by its requester).
    #[must_use]
    pub fn stage_distance(&self, from: NodeId, to: NodeId) -> usize {
        let d = (self.node_stage(to) + self.stages - self.node_stage(from)) % self.stages;
        if d == 0 {
            self.stages
        } else {
            d
        }
    }

    /// Number of complete ring traversals needed by a closed message path
    /// (`path[0] -> path[1] -> ... -> path[last] -> path[0]`), given as any
    /// sequence of nodes (an array, or an iterator that builds the path
    /// without allocating).
    ///
    /// Each hop between distinct nodes costs its ring distance; a hop from a
    /// node to itself counts as a deliberate full revolution (matching
    /// [`RingLayout::stage_distance`]), so `[r]` describes a snooping probe
    /// that circles back to its requester (1 traversal) and `[r, h, h]`
    /// describes a request to home plus a home-initiated multicast round
    /// (2 traversals). This is the quantity tabulated in the paper's
    /// Table 1. Because the path returns to its starting node, the total
    /// stage distance is always a whole number of revolutions. A path that
    /// names one node twice in a row by accident pays that revolution too,
    /// although the timed ring delivers such a message locally: a dirty miss
    /// whose owner is the remote home counts 2 in Table 1's full-map column,
    /// and SCI's detour via a home that heads its own list pays the same.
    ///
    /// # Panics
    ///
    /// Panics if the path is empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use ringsim_ring::RingConfig;
    /// use ringsim_types::NodeId;
    ///
    /// let layout = RingConfig::standard_500mhz(16).layout().unwrap();
    /// let (r, h, d) = (NodeId::new(2), NodeId::new(7), NodeId::new(12));
    /// // requester -> home -> dirty -> requester, nodes in ring order: 1 traversal
    /// assert_eq!(layout.closed_path_traversals([r, h, d]), 1);
    /// // dirty node "on the path" between requester and home: 2 traversals
    /// assert_eq!(layout.closed_path_traversals([r, d, h]), 2);
    /// ```
    #[must_use]
    pub fn closed_path_traversals(&self, path: impl IntoIterator<Item = NodeId>) -> usize {
        let mut path = path.into_iter();
        let first = path.next().expect("path must contain at least one node");
        let (open, last) =
            path.fold((0, first), |(total, from), to| (total + self.stage_distance(from, to), to));
        let total = open + self.stage_distance(last, first);
        debug_assert_eq!(total % self.stages, 0, "closed path must be whole revolutions");
        total / self.stages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(nodes: usize) -> RingLayout {
        RingConfig::standard_500mhz(nodes).layout().unwrap()
    }

    #[test]
    fn paper_ring_sizes() {
        // Paper §4.2: 8 nodes -> 24 stages padded with 6 to 30 (3 frames).
        assert_eq!(layout(8).stages(), 30);
        assert_eq!(layout(8).frames(), 3);
        assert_eq!(layout(16).stages(), 50);
        assert_eq!(layout(32).stages(), 100);
        assert_eq!(layout(64).stages(), 200);
    }

    #[test]
    fn slot_map_covers_frames() {
        let l = layout(8);
        assert_eq!(l.slot_count(), 9); // 3 frames x (2 probes + 1 block)
        assert_eq!(l.slots_of_kind(SlotKind::ProbeEven), 3);
        assert_eq!(l.slots_of_kind(SlotKind::ProbeOdd), 3);
        assert_eq!(l.slots_of_kind(SlotKind::Block), 3);
        // Headers at expected stage offsets within each frame (0, 2, 4).
        let starts: Vec<usize> = l.slot_specs().iter().map(|s| s.start_stage).collect();
        assert_eq!(starts, vec![0, 2, 4, 10, 12, 14, 20, 22, 24]);
    }

    #[test]
    fn arrival_rotation() {
        let l = layout(8);
        // At cycle 0, slot 0's header is at stage 0 = node 0's interface.
        assert_eq!(l.arrival_at(NodeId::new(0), 0), Some(SlotId(0)));
        // One cycle later the header has moved downstream by one stage, so
        // it is no longer at any node boundary adjacent to stage 1 3-stage
        // spacing; node 1 (stage 3) sees it at cycle 3.
        assert_eq!(l.arrival_at(NodeId::new(1), 3), Some(SlotId(0)));
        // A full revolution brings it back.
        assert_eq!(l.arrival_at(NodeId::new(0), 30), Some(SlotId(0)));
    }

    #[test]
    fn every_slot_visits_every_node_once_per_revolution() {
        let l = layout(8);
        for n in 0..8 {
            let node = NodeId::new(n);
            let mut seen = vec![0usize; l.slot_count()];
            for c in 0..l.stages() as u64 {
                if let Some(s) = l.arrival_at(node, c) {
                    seen[s.index()] += 1;
                }
            }
            assert!(seen.iter().all(|&k| k == 1), "node {n}: {seen:?}");
        }
    }

    #[test]
    fn arrival_schedule_matches_pointwise_queries() {
        for nodes in [8, 16] {
            let l = layout(nodes);
            let sched = l.arrival_schedule();
            assert_eq!(sched.len(), l.stages());
            // Identical pairs, in ascending node order, for three full
            // revolutions (periodicity included).
            for cycle in 0..(3 * l.stages()) as u64 {
                let phase = (cycle % l.stages() as u64) as usize;
                let direct: Vec<(NodeId, SlotId)> = (0..nodes)
                    .filter_map(|n| {
                        let node = NodeId::new(n);
                        l.arrival_at(node, cycle).map(|s| (node, s))
                    })
                    .collect();
                assert_eq!(sched[phase], direct, "nodes={nodes} cycle={cycle}");
            }
        }
    }

    #[test]
    fn distances_sum_to_revolutions() {
        let l = layout(16);
        let a = NodeId::new(3);
        let b = NodeId::new(11);
        assert_eq!(l.stage_distance(a, b) + l.stage_distance(b, a), l.stages());
        assert_eq!(l.stage_distance(a, a), l.stages());
    }

    #[test]
    fn traversal_counting_matches_paper_figure2() {
        let l = layout(16);
        let requester = NodeId::new(0);
        let home = NodeId::new(6);
        let dirty_far = NodeId::new(11); // beyond home: fortunate
        let dirty_near = NodeId::new(3); // between requester and home: unfortunate
        assert_eq!(l.closed_path_traversals([requester, home]), 1);
        assert_eq!(l.closed_path_traversals([requester, home, dirty_far]), 1);
        assert_eq!(l.closed_path_traversals([requester, home, dirty_near]), 2);
        // Multicast invalidation: requester -> home -> full circle -> home -> requester.
        assert_eq!(l.closed_path_traversals([requester, home, home]), 2);
        // Snooping probe: full circle back to the requester.
        assert_eq!(l.closed_path_traversals([requester]), 1);
    }

    #[test]
    fn single_probe_frames_use_any_parity() {
        let cfg = RingConfig { probe_slots_per_frame: 1, ..RingConfig::standard_500mhz(8) };
        let l = cfg.layout().unwrap();
        assert!(l.slots_of_kind(SlotKind::ProbeAny) > 0);
        assert_eq!(l.slots_of_kind(SlotKind::ProbeEven), 0);
    }
}
