//! Untimed ring-traversal accounting for the full-map and linked-list
//! directory protocols (paper Table 1).
//!
//! Table 1 asks a purely geometric question: for each shared miss and each
//! invalidation, how many complete ring traversals does the transaction's
//! message path need? The answer depends only on coherence state and node
//! positions, never on timing, so both columns replay a reference stream
//! through an untimed protocol state machine and tally [`TraversalDist`]
//! histograms into a [`TraversalReport`].
//!
//! * [`FullMapAccountant`] — the paper's full-map directory, idealised: at
//!   most two traversals per transaction (request + optional
//!   forward/multicast round).
//! * [`crate::sci::SciDirectory`] — the SCI-like linked-list directory,
//!   served by the one SCI engine the timed `SciRingSystem` and the model
//!   checker also run: misses detour via the list head, and invalidations
//!   walk the sharing list in list order, which costs up to *n* traversals
//!   when the list order conflicts with the ring direction.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use ringsim_cache::{AccessClass, Cache, CacheConfig, LineState};
use ringsim_ring::RingLayout;
use ringsim_types::{AccessKind, BlockAddr, ConfigError, MemRef, NodeId, Region};

use crate::directory::DirEntry;

/// Histogram of transactions by ring-traversal count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraversalDist {
    /// Transactions needing exactly one traversal.
    pub one: u64,
    /// Transactions needing exactly two traversals.
    pub two: u64,
    /// Transactions needing three or more traversals.
    pub three_plus: u64,
}

impl TraversalDist {
    /// Records a transaction needing `n` traversals. Zero-traversal (fully
    /// local) transactions are not tabulated, matching the paper.
    pub fn record(&mut self, n: usize) {
        match n {
            0 => {}
            1 => self.one += 1,
            2 => self.two += 1,
            _ => self.three_plus += 1,
        }
    }

    /// Total tabulated transactions.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.one + self.two + self.three_plus
    }

    /// Percentages `(1, 2, 3+)`, each in 0–100.
    #[must_use]
    pub fn percentages(&self) -> (f64, f64, f64) {
        let t = self.total();
        if t == 0 {
            return (0.0, 0.0, 0.0);
        }
        let t = t as f64;
        (
            100.0 * self.one as f64 / t,
            100.0 * self.two as f64 / t,
            100.0 * self.three_plus as f64 / t,
        )
    }
}

/// Result of a traversal-accounting run: distributions for misses and for
/// invalidations (the paper's two column groups).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraversalReport {
    /// Shared misses.
    pub miss: TraversalDist,
    /// Invalidations (upgrades).
    pub invalidate: TraversalDist,
}

/// Full-map directory traversal accountant.
///
/// # Examples
///
/// ```
/// use ringsim_proto::table1::FullMapAccountant;
/// use ringsim_ring::RingConfig;
/// use ringsim_trace::{Workload, WorkloadSpec};
///
/// let mut w = Workload::new(WorkloadSpec::demo(8)).unwrap();
/// let layout = RingConfig::standard_500mhz(8).layout().unwrap();
/// let space = w.space();
/// let mut acct = FullMapAccountant::new(layout, move |b| space.home_of_block(b)).unwrap();
/// for r in w.round_robin(2_000) {
///     acct.process(r);
/// }
/// let rep = acct.report();
/// // The full map never needs three or more traversals.
/// assert_eq!(rep.miss.three_plus, 0);
/// assert_eq!(rep.invalidate.three_plus, 0);
/// ```
#[derive(Debug, Clone)]
pub struct FullMapAccountant<H> {
    layout: RingLayout,
    home_of: H,
    caches: Vec<Cache>,
    entries: HashMap<u64, DirEntry>,
    report: TraversalReport,
}

impl<H: Fn(BlockAddr) -> NodeId> FullMapAccountant<H> {
    /// Creates the accountant for the ring described by `layout`; `home_of`
    /// maps blocks to home nodes.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the default cache geometry is invalid
    /// (it is not) or the layout has more than 64 nodes.
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
            entries: HashMap::new(),
            report: TraversalReport::default(),
        })
    }

    /// The accumulated distributions.
    #[must_use]
    pub fn report(&self) -> TraversalReport {
        self.report
    }

    /// Replays one reference.
    pub fn process(&mut self, r: MemRef) {
        let node = r.node;
        let block = r.addr.block(16);
        match self.caches[node.index()].classify(block, r.kind) {
            AccessClass::Hit => {}
            AccessClass::Upgrade => {
                let home = (self.home_of)(block);
                let entry = self.entries.entry(block.raw()).or_default();
                let others = entry.other_sharers(node);
                let n = if others == 0 {
                    usize::from(home != node)
                } else if home == node {
                    // Home-local multicast: one full circle.
                    1
                } else {
                    // Request to home + multicast round + grant: two circles.
                    2
                };
                if r.region == Region::Shared {
                    self.report.invalidate.record(n);
                }
                entry.sharers = 1 << node.index();
                entry.owner = Some(node);
                for peer in 0..self.caches.len() {
                    if others & (1 << peer) != 0 {
                        self.caches[peer].snoop_invalidate(block);
                    }
                }
                self.caches[node.index()].promote(block);
            }
            AccessClass::Miss => {
                let home = (self.home_of)(block);
                let entry = *self.entries.get(&block.raw()).unwrap_or(&DirEntry::default());
                let n = match entry.owner {
                    Some(d) => {
                        // Request to home, forward to the dirty node, reply.
                        if home == node {
                            self.layout.closed_path_traversals([node, d])
                        } else {
                            self.layout.closed_path_traversals([node, home, d])
                        }
                    }
                    None => {
                        let others = entry.other_sharers(node);
                        let multicast = r.kind.is_write() && others != 0;
                        match (home == node, multicast) {
                            (true, false) => 0,
                            (true, true) => 1,
                            (false, false) => 1,
                            (false, true) => 2,
                        }
                    }
                };
                if r.region == Region::Shared {
                    self.report.miss.record(n);
                }
                self.apply_miss(node, block, r.kind);
            }
        }
    }

    fn apply_miss(&mut self, node: NodeId, block: BlockAddr, kind: AccessKind) {
        let entry = self.entries.entry(block.raw()).or_default();
        match kind {
            AccessKind::Read => {
                if let Some(d) = entry.owner.take() {
                    self.caches[d.index()].snoop_downgrade(block);
                }
                entry.sharers |= 1 << node.index();
            }
            AccessKind::Write => {
                let victims = entry.other_sharers(node);
                entry.owner = Some(node);
                entry.sharers = 1 << node.index();
                for peer in 0..self.caches.len() {
                    if victims & (1 << peer) != 0 {
                        self.caches[peer].snoop_invalidate(block);
                    }
                }
            }
        }
        let state = if kind.is_write() { LineState::We } else { LineState::Rs };
        if let Some((victim, _)) = self.caches[node.index()].fill(block, state) {
            if let Some(v) = self.entries.get_mut(&victim.raw()) {
                v.sharers &= !(1 << node.index());
                if v.owner == Some(node) {
                    v.owner = None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sci::SciDirectory;
    use ringsim_ring::RingConfig;
    use ringsim_trace::{Workload, WorkloadSpec};

    fn layout(n: usize) -> RingLayout {
        RingConfig::standard_500mhz(n).layout().unwrap()
    }

    #[test]
    fn dist_records_and_percentages() {
        let mut d = TraversalDist::default();
        d.record(0); // ignored
        d.record(1);
        d.record(1);
        d.record(2);
        d.record(5);
        assert_eq!(d.total(), 4);
        let (p1, p2, p3) = d.percentages();
        assert!((p1 - 50.0).abs() < 1e-9);
        assert!((p2 - 25.0).abs() < 1e-9);
        assert!((p3 - 25.0).abs() < 1e-9);
        assert_eq!(TraversalDist::default().percentages(), (0.0, 0.0, 0.0));
    }

    /// A deterministic micro-scenario exercising the textbook cases.
    #[test]
    fn full_map_micro_scenario() {
        use ringsim_types::{AccessKind::*, Addr, MemRef, Region::Shared};
        let l = layout(16);
        // Home fixed at node 6 for every block.
        let mut acct = FullMapAccountant::new(l, |_| NodeId::new(6)).unwrap();
        let mk = |node: usize, kind| MemRef {
            node: NodeId::new(node),
            addr: Addr::new(0x100),
            kind,
            region: Shared,
        };
        // P0 read miss on uncached block: 1 traversal.
        acct.process(mk(0, Read));
        assert_eq!(acct.report().miss.one, 1);
        // P0 upgrade (no other sharers, remote home): 1 traversal.
        acct.process(mk(0, Write));
        assert_eq!(acct.report().invalidate.one, 1);
        // P12 read miss on dirty block owned by P0. Path 12 -> 6 -> 0 -> 12:
        // home at 6 is "behind" 12, dirty node 0 beyond it: one traversal?
        // hops(12,6)=10, hops(12,0)=4: dirty node on the path -> 2 traversals.
        acct.process(mk(12, Read));
        assert_eq!(acct.report().miss.two, 1);
        // P3 write miss on a block now shared by {0, 12}: multicast -> 2.
        acct.process(mk(3, Write));
        assert_eq!(acct.report().miss.two, 2);
        assert_eq!(acct.report().miss.three_plus, 0);
    }

    /// Table 1's linked-list column: a write miss that purges a sharing
    /// list lying against the ring direction is tallied as 3+ traversals.
    #[test]
    fn linked_list_worst_case_is_n_traversals() {
        use ringsim_types::{AccessKind::*, Addr, MemRef, Region::Shared};
        let mut dir = SciDirectory::new(layout(16), |_| NodeId::new(0)).unwrap();
        let mk = |node: usize, kind| MemRef {
            node: NodeId::new(node),
            addr: Addr::new(0x300),
            kind,
            region: Shared,
        };
        // Join in ascending order => list is descending: [12, 8, 4].
        dir.access(mk(4, Read));
        dir.access(mk(8, Read));
        dir.access(mk(12, Read));
        // P14 write: path 14 -> 0 -> 12 -> 8 -> 4 -> 14: each list hop wraps.
        dir.access(mk(14, Write));
        let rep = dir.report();
        assert_eq!(rep.miss.three_plus, 1, "report: {rep:?}");
    }

    #[test]
    fn workload_distributions_are_sane() {
        let mut w = Workload::new(WorkloadSpec::demo(16)).unwrap();
        let space = w.space();
        let mut full = FullMapAccountant::new(layout(16), move |b| space.home_of_block(b)).unwrap();
        let space2 = w.space();
        let mut ll = SciDirectory::new(layout(16), move |b| space2.home_of_block(b)).unwrap();
        for r in w.round_robin(4_000) {
            full.process(r);
            ll.access(r);
        }
        let f = full.report();
        let l = ll.report();
        assert!(f.miss.total() > 100);
        assert_eq!(f.miss.three_plus, 0);
        assert_eq!(f.invalidate.three_plus, 0);
        // The linked list should show some 3+ transactions and no fewer
        // 2-traversal invalidations than the full map, percentage-wise.
        assert!(l.miss.total() > 100);
        assert!(l.invalidate.three_plus + l.miss.three_plus > 0);
    }
}
