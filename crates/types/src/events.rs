use core::ops::{Add, AddAssign};

use serde::{Deserialize, Serialize};

use crate::{AccessKind, NodeId, Region};

/// What a finished transaction did, as [`CoherenceEvents::record`] buckets
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoherenceOp {
    /// A read miss.
    Read,
    /// A write miss.
    Write,
    /// A write hit on a read-shared line.
    Upgrade,
}

impl From<AccessKind> for CoherenceOp {
    #[inline]
    fn from(kind: AccessKind) -> Self {
        match kind {
            AccessKind::Read => CoherenceOp::Read,
            AccessKind::Write => CoherenceOp::Write,
        }
    }
}

/// Whether a miss found the block dirty in another cache, and if so how
/// many ring traversals that cost (the `_1` / `_2` of the dirty buckets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirtySplit {
    /// No cache held the block dirty.
    Clean,
    /// Dirty, resolved in one traversal.
    OneCycle,
    /// Dirty, needing two traversals.
    TwoCycle,
}

impl DirtySplit {
    /// The split by position on the ring: two cycles when the dirty `owner`
    /// lies on the `requester` → `home` path ([`NodeId::dirty_on_path`]
    /// over `nodes` nodes), one otherwise.
    #[inline]
    #[must_use]
    pub fn on_path(requester: NodeId, home: NodeId, owner: Option<NodeId>, nodes: usize) -> Self {
        match owner {
            None => DirtySplit::Clean,
            Some(d) if requester.dirty_on_path(home, d, nodes) => DirtySplit::TwoCycle,
            Some(_) => DirtySplit::OneCycle,
        }
    }
}

/// Counts of every coherence-relevant event class in a run.
///
/// The classes are chosen so that each of the paper's protocols can derive
/// its transaction mix from them:
///
/// * the **snooping** ring cares about "local clean read miss" (no ring
///   traffic) versus everything else (one probe traversal + a block reply);
/// * the **full-map directory** ring cares about the geometry classes of
///   Figure 5 — 1-cycle clean, 1-cycle dirty and 2-cycle misses — and about
///   whether invalidations need a multicast round;
/// * the **bus** broadcasts every miss and upgrade.
///
/// `local` / `remote` refers to the position of the block's *home* node
/// relative to the requester. `_1` / `_2` on dirty-miss classes is the ring
/// traversal count: `_1` when the dirty node is *not* on the requester→home
/// path (the "fortunate" placement of paper Figure 2), `_2` otherwise.
///
/// Every backend classifies a finished miss or upgrade through
/// [`CoherenceEvents::record`] and a dirty victim through
/// [`CoherenceEvents::record_writeback`]; only the inputs it passes differ.
///
/// # Examples
///
/// ```
/// use ringsim_types::CoherenceEvents;
///
/// let mut e = CoherenceEvents::default();
/// e.shared_reads = 80;
/// e.read_clean_remote = 8;
/// e.read_dirty_1 = 2;
/// assert_eq!(e.shared_misses(), 10);
/// assert_eq!(e.fig5_one_cycle_clean(), 8);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)] // field names are the documentation; see type docs
pub struct CoherenceEvents {
    // Reference mix.
    pub private_reads: u64,
    pub private_writes: u64,
    pub shared_reads: u64,
    pub shared_writes: u64,

    // Private misses (homes are always local for private pages).
    pub private_misses: u64,

    // Shared read misses.
    pub read_clean_local: u64,
    pub read_clean_remote: u64,
    pub read_dirty_1: u64,
    pub read_dirty_2: u64,

    // Shared write misses.
    pub write_nosharers_local: u64,
    pub write_nosharers_remote: u64,
    pub write_sharers_local: u64,
    pub write_sharers_remote: u64,
    pub write_dirty_1: u64,
    pub write_dirty_2: u64,

    // Upgrades (write hits on read-shared lines; the paper's
    // "invalidations").
    pub upgrade_nosharers_local: u64,
    pub upgrade_nosharers_remote: u64,
    pub upgrade_sharers_local: u64,
    pub upgrade_sharers_remote: u64,

    // Write-backs of dirty victims, by home locality.
    pub writeback_local: u64,
    pub writeback_remote: u64,

    /// Total remote cache lines invalidated by writes/upgrades.
    pub invalidated_copies: u64,
}

impl CoherenceEvents {
    /// Counts one finished miss or upgrade in exactly one bucket and adds
    /// `invalidated` to `invalidated_copies`.
    ///
    /// * An upgrade lands in `upgrade_{sharers,nosharers}_{local,remote}`,
    ///   whatever its region and dirty split.
    /// * A private miss lands in `private_misses`.
    /// * A shared read miss lands in `read_dirty_1`/`read_dirty_2` when
    ///   `dirty`, else in `read_clean_{local,remote}`; `sharers` is unused.
    /// * A shared write miss lands in `write_dirty_1`/`write_dirty_2` when
    ///   `dirty`, else in `write_{sharers,nosharers}_{local,remote}`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ringsim_types::{CoherenceEvents, CoherenceOp, DirtySplit, Region};
    ///
    /// let mut e = CoherenceEvents::default();
    /// e.record(CoherenceOp::Write, Region::Shared, false, DirtySplit::Clean, true, 3);
    /// assert_eq!((e.write_sharers_remote, e.invalidated_copies), (1, 3));
    /// ```
    #[inline]
    pub fn record(
        &mut self,
        op: CoherenceOp,
        region: Region,
        local: bool,
        dirty: DirtySplit,
        sharers: bool,
        invalidated: u64,
    ) {
        let bucket = match (op, region, dirty) {
            (CoherenceOp::Upgrade, ..) => match (sharers, local) {
                (false, true) => &mut self.upgrade_nosharers_local,
                (false, false) => &mut self.upgrade_nosharers_remote,
                (true, true) => &mut self.upgrade_sharers_local,
                (true, false) => &mut self.upgrade_sharers_remote,
            },
            (_, Region::Private, _) => &mut self.private_misses,
            (CoherenceOp::Read, _, DirtySplit::OneCycle) => &mut self.read_dirty_1,
            (CoherenceOp::Read, _, DirtySplit::TwoCycle) => &mut self.read_dirty_2,
            (CoherenceOp::Read, _, DirtySplit::Clean) if local => &mut self.read_clean_local,
            (CoherenceOp::Read, _, DirtySplit::Clean) => &mut self.read_clean_remote,
            (CoherenceOp::Write, _, DirtySplit::OneCycle) => &mut self.write_dirty_1,
            (CoherenceOp::Write, _, DirtySplit::TwoCycle) => &mut self.write_dirty_2,
            (CoherenceOp::Write, _, DirtySplit::Clean) => match (sharers, local) {
                (false, true) => &mut self.write_nosharers_local,
                (false, false) => &mut self.write_nosharers_remote,
                (true, true) => &mut self.write_sharers_local,
                (true, false) => &mut self.write_sharers_remote,
            },
        };
        *bucket += 1;
        self.invalidated_copies += invalidated;
    }

    /// Counts one write-back of a dirty victim, by its home's locality.
    #[inline]
    pub fn record_writeback(&mut self, local: bool) {
        if local {
            self.writeback_local += 1;
        } else {
            self.writeback_remote += 1;
        }
    }

    /// All data references.
    #[must_use]
    pub fn data_refs(&self) -> u64 {
        self.private_reads + self.private_writes + self.shared_reads + self.shared_writes
    }

    /// References to private data.
    #[must_use]
    pub fn private_refs(&self) -> u64 {
        self.private_reads + self.private_writes
    }

    /// References to shared data.
    #[must_use]
    pub fn shared_refs(&self) -> u64 {
        self.shared_reads + self.shared_writes
    }

    /// Shared read misses.
    #[must_use]
    pub fn shared_read_misses(&self) -> u64 {
        self.read_clean_local + self.read_clean_remote + self.read_dirty_1 + self.read_dirty_2
    }

    /// Shared write misses.
    #[must_use]
    pub fn shared_write_misses(&self) -> u64 {
        self.write_nosharers_local
            + self.write_nosharers_remote
            + self.write_sharers_local
            + self.write_sharers_remote
            + self.write_dirty_1
            + self.write_dirty_2
    }

    /// All shared misses.
    #[must_use]
    pub fn shared_misses(&self) -> u64 {
        self.shared_read_misses() + self.shared_write_misses()
    }

    /// All misses.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.private_misses + self.shared_misses()
    }

    /// All upgrades.
    #[must_use]
    pub fn upgrades(&self) -> u64 {
        self.upgrade_nosharers_local
            + self.upgrade_nosharers_remote
            + self.upgrade_sharers_local
            + self.upgrade_sharers_remote
    }

    /// All write-backs.
    #[must_use]
    pub fn writebacks(&self) -> u64 {
        self.writeback_local + self.writeback_remote
    }

    /// Miss rate over all data references (upgrades are accesses, not
    /// misses — matches Table 2).
    #[must_use]
    pub fn total_miss_rate(&self) -> f64 {
        ratio(self.misses(), self.data_refs())
    }

    /// Miss rate over shared references.
    #[must_use]
    pub fn shared_miss_rate(&self) -> f64 {
        ratio(self.shared_misses(), self.shared_refs())
    }

    /// Miss rate over private references.
    #[must_use]
    pub fn private_miss_rate(&self) -> f64 {
        ratio(self.private_misses, self.private_refs())
    }

    /// Fraction of shared references that write.
    #[must_use]
    pub fn shared_write_frac(&self) -> f64 {
        ratio(self.shared_writes, self.shared_refs())
    }

    /// Fraction of private references that write.
    #[must_use]
    pub fn private_write_frac(&self) -> f64 {
        ratio(self.private_writes, self.private_refs())
    }

    /// Remote shared misses: every shared miss that must use the
    /// interconnect under the directory protocol (home remote, or dirty
    /// copy / sharers elsewhere).
    #[must_use]
    pub fn remote_misses(&self) -> u64 {
        self.fig5_one_cycle_clean() + self.fig5_one_cycle_dirty() + self.fig5_two_cycle()
    }

    /// Figure 5 class: misses satisfied by a remote home in one traversal
    /// with no third party (clean remote misses, plus local-home multicasts
    /// which also take one traversal).
    #[must_use]
    pub fn fig5_one_cycle_clean(&self) -> u64 {
        self.read_clean_remote + self.write_nosharers_remote + self.write_sharers_local
    }

    /// Figure 5 class: dirty misses resolved in one traversal thanks to the
    /// fortunate position of the dirty node.
    #[must_use]
    pub fn fig5_one_cycle_dirty(&self) -> u64 {
        self.read_dirty_1 + self.write_dirty_1
    }

    /// Figure 5 class: misses needing two ring traversals (unfortunate dirty
    /// node, or a multicast invalidation round before the reply).
    #[must_use]
    pub fn fig5_two_cycle(&self) -> u64 {
        self.read_dirty_2 + self.write_dirty_2 + self.write_sharers_remote
    }

    /// Fraction of shared misses that found the block dirty in a remote
    /// cache.
    #[must_use]
    pub fn dirty_miss_frac(&self) -> f64 {
        ratio(
            self.read_dirty_1 + self.read_dirty_2 + self.write_dirty_1 + self.write_dirty_2,
            self.shared_misses(),
        )
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Add for CoherenceEvents {
    type Output = CoherenceEvents;
    fn add(mut self, rhs: CoherenceEvents) -> CoherenceEvents {
        self += rhs;
        self
    }
}

impl AddAssign for CoherenceEvents {
    fn add_assign(&mut self, rhs: CoherenceEvents) {
        self.private_reads += rhs.private_reads;
        self.private_writes += rhs.private_writes;
        self.shared_reads += rhs.shared_reads;
        self.shared_writes += rhs.shared_writes;
        self.private_misses += rhs.private_misses;
        self.read_clean_local += rhs.read_clean_local;
        self.read_clean_remote += rhs.read_clean_remote;
        self.read_dirty_1 += rhs.read_dirty_1;
        self.read_dirty_2 += rhs.read_dirty_2;
        self.write_nosharers_local += rhs.write_nosharers_local;
        self.write_nosharers_remote += rhs.write_nosharers_remote;
        self.write_sharers_local += rhs.write_sharers_local;
        self.write_sharers_remote += rhs.write_sharers_remote;
        self.write_dirty_1 += rhs.write_dirty_1;
        self.write_dirty_2 += rhs.write_dirty_2;
        self.upgrade_nosharers_local += rhs.upgrade_nosharers_local;
        self.upgrade_nosharers_remote += rhs.upgrade_nosharers_remote;
        self.upgrade_sharers_local += rhs.upgrade_sharers_local;
        self.upgrade_sharers_remote += rhs.upgrade_sharers_remote;
        self.writeback_local += rhs.writeback_local;
        self.writeback_remote += rhs.writeback_remote;
        self.invalidated_copies += rhs.invalidated_copies;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CoherenceEvents {
        CoherenceEvents {
            private_reads: 700,
            private_writes: 300,
            shared_reads: 160,
            shared_writes: 40,
            private_misses: 5,
            read_clean_local: 2,
            read_clean_remote: 10,
            read_dirty_1: 3,
            read_dirty_2: 4,
            write_nosharers_local: 1,
            write_nosharers_remote: 2,
            write_sharers_local: 1,
            write_sharers_remote: 3,
            write_dirty_1: 1,
            write_dirty_2: 2,
            upgrade_nosharers_local: 1,
            upgrade_nosharers_remote: 2,
            upgrade_sharers_local: 3,
            upgrade_sharers_remote: 4,
            writeback_local: 6,
            writeback_remote: 7,
            invalidated_copies: 11,
        }
    }

    #[test]
    fn totals_add_up() {
        let e = sample();
        assert_eq!(e.data_refs(), 1200);
        assert_eq!(e.shared_read_misses(), 19);
        assert_eq!(e.shared_write_misses(), 10);
        assert_eq!(e.shared_misses(), 29);
        assert_eq!(e.misses(), 34);
        assert_eq!(e.upgrades(), 10);
        assert_eq!(e.writebacks(), 13);
    }

    #[test]
    fn rates() {
        let e = sample();
        assert!((e.total_miss_rate() - 34.0 / 1200.0).abs() < 1e-12);
        assert!((e.shared_miss_rate() - 29.0 / 200.0).abs() < 1e-12);
        assert!((e.shared_write_frac() - 0.2).abs() < 1e-12);
        assert!((e.private_write_frac() - 0.3).abs() < 1e-12);
        assert_eq!(CoherenceEvents::default().total_miss_rate(), 0.0);
    }

    #[test]
    fn fig5_partition_covers_remote_misses() {
        let e = sample();
        let remote = e.fig5_one_cycle_clean() + e.fig5_one_cycle_dirty() + e.fig5_two_cycle();
        assert_eq!(remote, e.remote_misses());
        // Every shared miss is either local-clean or in a Figure 5 class.
        assert_eq!(e.shared_misses(), remote + e.read_clean_local + e.write_nosharers_local);
    }

    #[test]
    fn addition_is_fieldwise() {
        let e = sample();
        let sum = e + e;
        assert_eq!(sum.data_refs(), 2 * e.data_refs());
        assert_eq!(sum.misses(), 2 * e.misses());
        assert_eq!(sum.invalidated_copies, 22);
    }

    /// Every combination of inputs lands in exactly one bucket, adds exactly
    /// its invalidated count, and keeps the Figure 5 partition whole.
    #[test]
    fn record_classifies_every_input_once() {
        use CoherenceOp::{Read, Upgrade, Write};
        use DirtySplit::{Clean, OneCycle, TwoCycle};

        let mut total = CoherenceEvents::default();
        let mut invalidated = 0;
        for op in [Read, Write, Upgrade] {
            for region in [Region::Private, Region::Shared] {
                for local in [false, true] {
                    for dirty in [Clean, OneCycle, TwoCycle] {
                        for sharers in [false, true] {
                            let input = format!("{op:?} {region:?} {local} {dirty:?} {sharers}");
                            let before = total;
                            invalidated += 1;
                            total.record(op, region, local, dirty, sharers, invalidated);
                            let moved = |f: fn(&CoherenceEvents) -> u64| f(&total) - f(&before);
                            assert_eq!(moved(|e| e.misses() + e.upgrades()), 1, "{input}");
                            assert_eq!(
                                moved(CoherenceEvents::upgrades),
                                u64::from(op == Upgrade),
                                "{input}"
                            );
                            let private_miss = op != Upgrade && region == Region::Private;
                            assert_eq!(
                                moved(|e| e.private_misses),
                                u64::from(private_miss),
                                "{input}"
                            );
                            assert_eq!(moved(|e| e.invalidated_copies), invalidated, "{input}");
                            assert_eq!(
                                total.shared_misses(),
                                total.remote_misses()
                                    + total.read_clean_local
                                    + total.write_nosharers_local,
                                "{input}"
                            );
                        }
                    }
                }
            }
        }
        // 3 ops x 2 regions x 2 localities x 3 dirty splits x 2 sharer bits.
        assert_eq!(total.misses() + total.upgrades(), 72);
        assert_eq!(total.private_misses, 24);
    }

    #[test]
    fn dirty_split_follows_the_ring_path() {
        let n = NodeId::new;
        assert_eq!(DirtySplit::on_path(n(0), n(2), None, 4), DirtySplit::Clean);
        assert_eq!(DirtySplit::on_path(n(0), n(2), Some(n(1)), 4), DirtySplit::TwoCycle);
        assert_eq!(DirtySplit::on_path(n(0), n(2), Some(n(3)), 4), DirtySplit::OneCycle);
        assert_eq!(DirtySplit::on_path(n(0), n(2), Some(n(2)), 4), DirtySplit::OneCycle);
    }

    #[test]
    fn record_writeback_splits_by_home() {
        let mut e = CoherenceEvents::default();
        e.record_writeback(true);
        e.record_writeback(false);
        e.record_writeback(false);
        assert_eq!((e.writeback_local, e.writeback_remote, e.writebacks()), (1, 2, 3));
    }

    #[test]
    fn dirty_fraction() {
        let e = sample();
        assert!((e.dirty_miss_frac() - 10.0 / 29.0).abs() < 1e-12);
    }
}
