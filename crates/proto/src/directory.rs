use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use ringsim_types::{BlockAddr, NodeId};

/// One full-map directory entry: presence bits and a dirty bit (paper §3.2).
///
/// The presence bits are a `u64` mask (the paper evaluates up to 64
/// processors). When `owner` is set the block is dirty in that cache and the
/// presence bits list exactly that node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirEntry {
    /// Bitmask of nodes holding a valid copy.
    pub sharers: u64,
    /// Write-exclusive holder, if the block is dirty.
    pub owner: Option<NodeId>,
}

impl DirEntry {
    /// Presence-bit mask for `node`, checked against the map width.
    ///
    /// A full-map entry has exactly 64 presence bits; shifting by a larger
    /// index would silently wrap in release builds (`1u64 << 65 == 2`), so a
    /// 65-node misconfiguration must fail loudly here instead.
    #[must_use]
    pub fn mask(node: NodeId) -> u64 {
        debug_assert!(node.index() < 64, "{node} exceeds the 64-bit full-map presence mask");
        1u64 << (node.index() % 64)
    }

    /// Presence bit for `node`.
    #[must_use]
    pub fn has_sharer(&self, node: NodeId) -> bool {
        self.sharers & Self::mask(node) != 0
    }

    /// Whether any node other than `node` holds a copy.
    #[must_use]
    pub fn has_other_sharers(&self, node: NodeId) -> bool {
        self.sharers & !Self::mask(node) != 0
    }

    /// Nodes holding a copy, excluding `node`.
    #[must_use]
    pub fn other_sharers(&self, node: NodeId) -> u64 {
        self.sharers & !Self::mask(node)
    }

    /// Number of sharers.
    #[must_use]
    pub fn sharer_count(&self) -> u32 {
        self.sharers.count_ones()
    }

    /// `true` when no cache holds the block.
    #[must_use]
    pub fn is_uncached(&self) -> bool {
        self.sharers == 0
    }
}

/// The full-map directory of the whole system. Per-block serialisation
/// (the home's lock and pending queue) lives in
/// [`RingEngine`](crate::ring_engine::RingEngine).
///
/// Entries are stored sparsely: a block nobody ever cached has an implicit
/// all-clear entry. The directory is *logically* distributed across the home
/// nodes; storing it in one map is an implementation convenience — every
/// access in the simulator goes through the block's home node.
///
/// # Examples
///
/// ```
/// use ringsim_proto::Directory;
/// use ringsim_types::{BlockAddr, NodeId};
///
/// let mut dir = Directory::new(16);
/// let b = BlockAddr::new(3);
/// dir.add_sharer(b, NodeId::new(4));
/// dir.add_sharer(b, NodeId::new(9));
/// assert_eq!(dir.entry(b).sharer_count(), 2);
/// dir.set_owner(b, NodeId::new(4));
/// assert_eq!(dir.entry(b).owner, Some(NodeId::new(4)));
/// assert!(!dir.entry(b).has_sharer(NodeId::new(9)));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Directory {
    nodes: usize,
    entries: HashMap<u64, DirEntry>,
}

impl Directory {
    /// Creates an empty directory for `nodes` processors.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is 0 or exceeds 64 (the presence-bit width).
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        assert!((1..=64).contains(&nodes), "full map supports 1..=64 nodes");
        Self { nodes, entries: HashMap::new() }
    }

    /// The entry for `block` (all-clear if never cached).
    #[must_use]
    pub fn entry(&self, block: BlockAddr) -> DirEntry {
        self.entries.get(&block.raw()).copied().unwrap_or_default()
    }

    /// Adds `node` to the presence bits.
    pub fn add_sharer(&mut self, block: BlockAddr, node: NodeId) {
        assert!(node.index() < self.nodes, "{node} out of range");
        let e = self.entries.entry(block.raw()).or_default();
        e.sharers |= DirEntry::mask(node);
    }

    /// Removes `node` from the presence bits; clears the owner if `node`
    /// owned the block. Returns the updated entry.
    pub fn remove_sharer(&mut self, block: BlockAddr, node: NodeId) -> DirEntry {
        let e = self.entries.entry(block.raw()).or_default();
        e.sharers &= !DirEntry::mask(node);
        if e.owner == Some(node) {
            e.owner = None;
        }
        let snapshot = *e;
        if snapshot == DirEntry::default() {
            self.entries.remove(&block.raw());
        }
        snapshot
    }

    /// Makes `node` the write-exclusive owner (presence bits collapse to
    /// that node).
    pub fn set_owner(&mut self, block: BlockAddr, node: NodeId) {
        assert!(node.index() < self.nodes, "{node} out of range");
        let e = self.entries.entry(block.raw()).or_default();
        e.owner = Some(node);
        e.sharers = DirEntry::mask(node);
    }

    /// Clears the dirty state after a downgrade (`keep` nodes remain
    /// sharers).
    pub fn clear_owner(&mut self, block: BlockAddr) {
        if let Some(e) = self.entries.get_mut(&block.raw()) {
            e.owner = None;
        }
    }

    /// Number of tracked (non-default) entries.
    #[must_use]
    pub fn tracked_blocks(&self) -> usize {
        self.entries.len()
    }

    /// Iterates over all tracked entries.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, DirEntry)> + '_ {
        self.entries.iter().map(|(&raw, &e)| (BlockAddr::new(raw), e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharer_bits() {
        let mut d = Directory::new(8);
        let b = BlockAddr::new(1);
        d.add_sharer(b, NodeId::new(2));
        d.add_sharer(b, NodeId::new(5));
        let e = d.entry(b);
        assert!(e.has_sharer(NodeId::new(2)));
        assert!(e.has_sharer(NodeId::new(5)));
        assert!(!e.has_sharer(NodeId::new(3)));
        assert!(e.has_other_sharers(NodeId::new(2)));
        assert_eq!(e.other_sharers(NodeId::new(2)), 1 << 5);
    }

    #[test]
    fn owner_collapses_sharers() {
        let mut d = Directory::new(8);
        let b = BlockAddr::new(2);
        d.add_sharer(b, NodeId::new(1));
        d.add_sharer(b, NodeId::new(3));
        d.set_owner(b, NodeId::new(3));
        let e = d.entry(b);
        assert_eq!(e.owner, Some(NodeId::new(3)));
        assert_eq!(e.sharer_count(), 1);
        assert!(e.has_sharer(NodeId::new(3)));
    }

    #[test]
    fn remove_sharer_clears_owner() {
        let mut d = Directory::new(8);
        let b = BlockAddr::new(3);
        d.set_owner(b, NodeId::new(4));
        let e = d.remove_sharer(b, NodeId::new(4));
        assert_eq!(e.owner, None);
        assert!(e.is_uncached());
        assert_eq!(d.tracked_blocks(), 0, "default entries are reclaimed");
    }

    #[test]
    fn mask_matches_bit_position() {
        for i in [0usize, 1, 7, 63] {
            assert_eq!(DirEntry::mask(NodeId::new(i)), 1u64 << i);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exceeds the 64-bit full-map presence mask")]
    fn mask_rejects_out_of_range_node() {
        let _ = DirEntry::mask(NodeId::new(64));
    }

    #[test]
    fn clear_owner_keeps_sharers() {
        let mut d = Directory::new(4);
        let b = BlockAddr::new(5);
        d.set_owner(b, NodeId::new(1));
        d.add_sharer(b, NodeId::new(2));
        d.clear_owner(b);
        let e = d.entry(b);
        assert_eq!(e.owner, None);
        assert_eq!(e.sharer_count(), 2);
    }
}
