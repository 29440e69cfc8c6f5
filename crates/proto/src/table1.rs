//! Ring-traversal histograms for the paper's Table 1.
//!
//! Table 1 asks a purely geometric question: for each shared miss and each
//! invalidation, how many complete ring traversals does the transaction's
//! message path need? The answer depends only on coherence state and node
//! positions, never on timing, so both columns replay a reference stream
//! through an untimed protocol state machine and tally [`TraversalDist`]
//! histograms into a [`TraversalReport`]:
//!
//! * the full-map column replays through `ringsim_trace::RefInterpreter`,
//!   the idealised full-map directory (at most two traversals per
//!   transaction: request + optional forward/multicast round); the Table 1
//!   experiment in `ringsim-bench` turns what each miss or upgrade found
//!   into traversals;
//! * the linked-list column replays through [`crate::sci::SciDirectory`],
//!   served by the one SCI engine the timed `SciRingSystem` and the model
//!   checker also run: misses detour via the list head, and invalidations
//!   walk the sharing list in list order, which costs up to *n* traversals
//!   when the list order conflicts with the ring direction.

use serde::{Deserialize, Serialize};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sci::SciDirectory;
    use ringsim_ring::{RingConfig, RingLayout};
    use ringsim_types::NodeId;

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
}
