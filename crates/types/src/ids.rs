use core::fmt;

use serde::{Deserialize, Serialize};

/// Identity of a processing element (processor + cache + memory partition +
/// ring/bus interface).
///
/// Nodes are numbered `0..n` in ring order: node `i` forwards messages to
/// node `(i + 1) % n`.
///
/// # Examples
///
/// ```
/// use ringsim_types::NodeId;
///
/// let n = NodeId::new(5);
/// assert_eq!(n.index(), 5);
/// assert_eq!(n.to_string(), "P5");
/// assert_eq!(n.successor(8), NodeId::new(6));
/// assert_eq!(NodeId::new(7).successor(8), NodeId::new(0));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(u16);

impl NodeId {
    /// Creates a node id from its position on the ring.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u16` (systems are at most a few
    /// hundred nodes).
    #[must_use]
    pub fn new(index: usize) -> Self {
        Self(u16::try_from(index).expect("node index exceeds u16"))
    }

    /// Position of this node on the ring, in `0..n`.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// The next node downstream on a unidirectional ring of `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `self` is not a valid node of an `n`-node
    /// ring.
    #[must_use]
    pub fn successor(self, n: usize) -> Self {
        assert!(n > 0 && self.index() < n, "node {self} not in 0..{n}");
        Self::new((self.index() + 1) % n)
    }

    /// Iterator over all node ids of an `n`-node system, in ring order.
    ///
    /// # Examples
    ///
    /// ```
    /// use ringsim_types::NodeId;
    /// let ids: Vec<_> = NodeId::all(3).collect();
    /// assert_eq!(ids, [NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
    /// ```
    pub fn all(n: usize) -> impl Iterator<Item = NodeId> {
        (0..n).map(NodeId::new)
    }

    /// Number of downstream hops from `self` to `to` on an `n`-node
    /// unidirectional ring. Zero when `self == to`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ringsim_types::NodeId;
    /// assert_eq!(NodeId::new(2).hops_to(NodeId::new(5), 8), 3);
    /// assert_eq!(NodeId::new(5).hops_to(NodeId::new(2), 8), 5);
    /// assert_eq!(NodeId::new(4).hops_to(NodeId::new(4), 8), 0);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if either node is not a valid node of an `n`-node ring.
    #[must_use]
    pub fn hops_to(self, to: NodeId, n: usize) -> usize {
        assert!(self.index() < n && to.index() < n, "node out of range for ring of {n}");
        (to.index() + n - self.index()) % n
    }

    /// `true` when a miss by requester `self` on a block homed at `home`
    /// and dirty at `dirty` needs two ring traversals: the dirty node lies
    /// strictly between the requester and the home on the downstream path,
    /// so the request reaches it before the home does (paper Figure 2b).
    /// Never true for a local home or a dirty home.
    ///
    /// # Examples
    ///
    /// ```
    /// use ringsim_types::NodeId;
    /// let (requester, home) = (NodeId::new(1), NodeId::new(5));
    /// // P3 sits on the P1 → P5 path: the unfortunate placement.
    /// assert!(requester.dirty_on_path(home, NodeId::new(3), 8));
    /// // P6 lies past the home: one traversal suffices.
    /// assert!(!requester.dirty_on_path(home, NodeId::new(6), 8));
    /// assert!(!requester.dirty_on_path(requester, NodeId::new(3), 8));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if any node is not a valid node of an `n`-node ring.
    #[must_use]
    pub fn dirty_on_path(self, home: NodeId, dirty: NodeId, n: usize) -> bool {
        if home == self || dirty == home {
            return false;
        }
        self.hops_to(dirty, n) < self.hops_to(home, n)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<u16> for NodeId {
    fn from(v: u16) -> Self {
        Self(v)
    }
}

impl From<NodeId> for usize {
    fn from(v: NodeId) -> Self {
        v.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        for i in [0usize, 1, 7, 63, 255] {
            assert_eq!(NodeId::new(i).index(), i);
        }
    }

    #[test]
    fn successor_wraps() {
        assert_eq!(NodeId::new(15).successor(16), NodeId::new(0));
        assert_eq!(NodeId::new(0).successor(16), NodeId::new(1));
    }

    #[test]
    #[should_panic(expected = "not in")]
    fn successor_rejects_out_of_range() {
        let _ = NodeId::new(16).successor(16);
    }

    #[test]
    fn hops_are_ring_distances() {
        let n = 8;
        for a in 0..n {
            for b in 0..n {
                let d = NodeId::new(a).hops_to(NodeId::new(b), n);
                assert!(d < n);
                assert_eq!((a + d) % n, b);
            }
        }
    }

    #[test]
    fn display_is_paper_style() {
        assert_eq!(NodeId::new(11).to_string(), "P11");
    }

    #[test]
    fn all_enumerates_in_order() {
        let v: Vec<usize> = NodeId::all(5).map(NodeId::index).collect();
        assert_eq!(v, vec![0, 1, 2, 3, 4]);
    }
}
