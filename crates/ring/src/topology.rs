//! Recursive trees of slotted rings: flat, two-level and three-level
//! topologies over one [`RingConfig`]/[`RingLayout`] machinery.
//!
//! A [`RingTopology`] generalises the fixed local/global pair of a
//! two-level hierarchy: level 0 holds the leaf rings carrying the
//! processors, every level above connects the rings one level down through
//! bridge positions, and the root ring closes the tree. The shape vector
//! `[procs_per_leaf, fanout₁, …, fanout_root]` fully determines the
//! geometry; `ring_of`/path queries and the contention-free probe/reply
//! times are computed over the tree path instead of two hard-coded levels.
//!
//! The most-balanced-factorisation heuristic (how a processor count splits
//! into ring dimensions) and the closed-loop transaction-budget heuristic
//! (one coherence transaction per ~50 references) live here so the
//! simulator registry and the network engine share one definition.

use serde::{Deserialize, Serialize};

use ringsim_types::{ConfigError, NodeId, Time};

use crate::config::RingConfig;
use crate::layout::RingLayout;

/// References per coherence transaction used by [`RingTopology::txn_budget`]
/// to map an open-loop reference budget onto the closed-loop workload.
pub const REFS_PER_TXN: u64 = 50;

/// A tree of slotted rings sharing one link configuration.
///
/// # Examples
///
/// ```
/// use ringsim_ring::RingTopology;
///
/// // 64 processors as 4 groups of 4 rings of 4 processors.
/// let t = RingTopology::three_level(4, 4, 4).unwrap();
/// assert_eq!(t.total_nodes(), 64);
/// assert_eq!(t.levels(), 3);
/// assert_eq!(t.leaf_rings(), 16);
/// // Deeper trees shorten every revolution on the probe path.
/// assert!(t.intra_ring_probe_time() < t.flat_equivalent_round_trip());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingTopology {
    /// `shape[0]` is processors per leaf ring; `shape[l]` for `l ≥ 1` is the
    /// child-ring fanout of every level-`l` ring.
    shape: Vec<usize>,
    base: RingConfig,
    /// One geometry per level (all rings of a level are identical).
    layouts: Vec<RingLayout>,
    flat_layout: RingLayout,
}

impl RingTopology {
    /// A single flat ring of `procs` processors (no bridges).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for fewer than 2 or more than 64 processors.
    pub fn flat(procs: usize) -> Result<Self, ConfigError> {
        Self::from_shape(&[procs], RingConfig::standard_500mhz(2))
    }

    /// `rings` leaf rings of `per` processors under one global ring — the
    /// classic two-level hierarchy.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when a dimension is below 2 or the total
    /// exceeds 64 processors.
    pub fn two_level(rings: usize, per: usize) -> Result<Self, ConfigError> {
        Self::from_shape(&[per, rings], RingConfig::standard_500mhz(2))
    }

    /// `groups` mid-level rings of `rings` leaf rings of `per` processors
    /// under one root ring.
    ///
    /// # Errors
    ///
    /// See [`RingTopology::two_level`].
    pub fn three_level(groups: usize, rings: usize, per: usize) -> Result<Self, ConfigError> {
        Self::from_shape(&[per, rings, groups], RingConfig::standard_500mhz(2))
    }

    /// Builds a topology from an explicit shape vector with custom link
    /// parameters (node counts in `base` are ignored). `shape[0]` is
    /// processors per leaf ring; each later entry is a level's fanout.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the shape is empty or deeper than 4
    /// levels, any dimension is below 2, or the total exceeds 64 processors
    /// (the workspace-wide sharer-mask limit).
    pub fn from_shape(shape: &[usize], base: RingConfig) -> Result<Self, ConfigError> {
        if shape.is_empty() || shape.len() > 4 {
            return Err(ConfigError::new("shape", "need between 1 and 4 levels"));
        }
        if shape.iter().any(|&d| d < 2) {
            return Err(ConfigError::new("shape", "every dimension needs at least 2"));
        }
        let total: usize = shape.iter().product();
        if total > 64 {
            return Err(ConfigError::new("total_nodes", "at most 64 processors supported"));
        }
        let levels = shape.len();
        let mut layouts = Vec::with_capacity(levels);
        for (level, &dim) in shape.iter().enumerate() {
            // Leaf rings of a multi-level tree and every mid ring carry one
            // extra uplink position; the root (and a flat ring) do not.
            let nodes = if level + 1 == levels { dim.max(2) } else { dim + 1 };
            layouts.push(RingConfig { nodes, ..base }.layout()?);
        }
        let flat_layout = RingConfig { nodes: total, ..base }.layout()?;
        Ok(Self { shape: shape.to_vec(), base, layouts, flat_layout })
    }

    /// The most balanced split of `procs` into `levels` ring dimensions,
    /// every dimension at least 2, larger dimensions towards the leaves.
    /// One level means a flat ring; two levels reproduce the classic
    /// `local rings × nodes per ring` factorisation.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `procs` has no such factorisation
    /// (e.g. a prime count at 2 levels) or `levels` is out of range.
    pub fn balanced(levels: usize, procs: usize) -> Result<Self, ConfigError> {
        Self::balanced_with_base(levels, procs, RingConfig::standard_500mhz(2))
    }

    /// [`RingTopology::balanced`] with custom link parameters.
    ///
    /// # Errors
    ///
    /// See [`RingTopology::balanced`].
    pub fn balanced_with_base(
        levels: usize,
        procs: usize,
        base: RingConfig,
    ) -> Result<Self, ConfigError> {
        let dims = balanced_dims(levels, procs)?;
        Self::from_shape(&dims, base)
    }

    /// Number of tree levels (1 = flat).
    #[must_use]
    pub fn levels(&self) -> usize {
        self.shape.len()
    }

    /// The shape vector: processors per leaf ring, then per-level fanouts.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Processors per leaf ring.
    #[must_use]
    pub fn leaf_procs(&self) -> usize {
        self.shape[0]
    }

    /// Total processors.
    #[must_use]
    pub fn total_nodes(&self) -> usize {
        self.shape.iter().product()
    }

    /// Number of leaf rings.
    #[must_use]
    pub fn leaf_rings(&self) -> usize {
        self.shape[1..].iter().product()
    }

    /// Number of rings at `level` (0 = leaves, `levels() - 1` = root).
    #[must_use]
    pub fn rings_at(&self, level: usize) -> usize {
        self.shape[level + 1..].iter().product()
    }

    /// Child-ring fanout of a ring at `level` (≥ 1).
    #[must_use]
    pub fn children_at(&self, level: usize) -> usize {
        assert!(level >= 1, "leaf rings have no child rings");
        self.shape[level]
    }

    /// The ring geometry at `level`.
    #[must_use]
    pub fn layout(&self, level: usize) -> &RingLayout {
        &self.layouts[level]
    }

    /// The ring configuration `layout(level)` was built from: the level's
    /// dimension plus one uplink position (except at the root, which is
    /// only widened to the 2-node ring minimum).
    #[must_use]
    pub fn level_config(&self, level: usize) -> RingConfig {
        let dim = self.shape[level];
        let nodes = if level + 1 == self.shape.len() { dim.max(2) } else { dim + 1 };
        RingConfig { nodes, ..self.base }
    }

    /// The link/slot parameters the topology was built from.
    #[must_use]
    pub fn base(&self) -> &RingConfig {
        &self.base
    }

    /// How many leaf rings one level-`level` subtree covers.
    #[must_use]
    pub fn leafs_per_subtree(&self, level: usize) -> usize {
        self.shape[1..=level].iter().product()
    }

    /// Which leaf ring hosts `node` (nodes are numbered ring-major).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn ring_of(&self, node: NodeId) -> usize {
        assert!(node.index() < self.total_nodes(), "{node} out of range");
        node.index() / self.shape[0]
    }

    /// Whether two nodes share a leaf ring.
    #[must_use]
    pub fn same_ring(&self, a: NodeId, b: NodeId) -> bool {
        self.ring_of(a) == self.ring_of(b)
    }

    /// The index of the level-`level` ring whose subtree contains
    /// `leaf_ring`.
    #[must_use]
    pub fn ancestor_at(&self, leaf_ring: usize, level: usize) -> usize {
        leaf_ring / self.leafs_per_subtree(level)
    }

    /// The path of ring indices containing `leaf_ring`, one per level,
    /// leaves first.
    #[must_use]
    pub fn path_of(&self, leaf_ring: usize) -> Vec<usize> {
        (0..self.levels()).map(|l| self.ancestor_at(leaf_ring, l)).collect()
    }

    /// The lowest tree level whose rings cover both leaf rings (0 when they
    /// are the same ring).
    #[must_use]
    pub fn meet_level(&self, leaf_a: usize, leaf_b: usize) -> usize {
        (0..self.levels())
            .find(|&l| self.ancestor_at(leaf_a, l) == self.ancestor_at(leaf_b, l))
            .expect("the root covers every leaf")
    }

    /// Round-trip time of one ring at `level`.
    #[must_use]
    pub fn round_trip(&self, level: usize) -> Time {
        self.base.clock_period * self.layouts[level].stages() as u64
    }

    /// Round-trip time of the equivalent flat ring with the same total
    /// processor count (the baseline every tree competes against).
    #[must_use]
    pub fn flat_equivalent_round_trip(&self) -> Time {
        self.base.clock_period * self.flat_layout.stages() as u64
    }

    /// Contention-free time for a snooping probe to resolve a transaction
    /// whose home shares the requester's leaf ring: one leaf revolution.
    #[must_use]
    pub fn intra_ring_probe_time(&self) -> Time {
        self.round_trip(0)
    }

    /// Contention-free probe time between two leaf rings under KSR1-style
    /// bridge filters: a full revolution of every ring on the tree path —
    /// the origin leaf, each ring up to and including their meet ring, and
    /// each ring back down to the home leaf.
    #[must_use]
    pub fn probe_time_between(&self, leaf_a: usize, leaf_b: usize) -> Time {
        let meet = self.meet_level(leaf_a, leaf_b);
        if meet == 0 {
            return self.intra_ring_probe_time();
        }
        let mut t = self.round_trip(meet);
        for level in 0..meet {
            t += self.round_trip(level) * 2;
        }
        t
    }

    /// Contention-free probe time for the farthest leaf pair (the path
    /// through the root). Matches the classic two-level
    /// `local + global + local` figure.
    #[must_use]
    pub fn inter_ring_probe_time(&self) -> Time {
        self.probe_time_between(0, self.leaf_rings() - 1)
    }

    /// Probability that a uniformly placed home lands in the requester's
    /// leaf ring (1.0 for a flat ring).
    #[must_use]
    pub fn uniform_locality(&self) -> f64 {
        1.0 / self.leaf_rings() as f64
    }

    /// Maps an open-loop per-processor reference budget onto the closed-loop
    /// transaction budget the network engine runs: one coherence transaction
    /// per [`REFS_PER_TXN`] references, at least one.
    #[must_use]
    pub fn txn_budget(&self, data_refs_per_proc: u64) -> u64 {
        (data_refs_per_proc / REFS_PER_TXN).max(1)
    }
}

/// Most balanced factorisation of `procs` into `levels` dimensions ≥ 2,
/// sorted descending so larger dimensions sit towards the leaves. For two
/// levels this reproduces the historical `balanced_split` (largest divisor
/// `d ≤ √procs`, returned as `[procs / d, d]`).
fn balanced_dims(levels: usize, procs: usize) -> Result<Vec<usize>, ConfigError> {
    match levels {
        1 => {
            if procs < 2 {
                return Err(ConfigError::new("procs", "a flat ring needs at least 2 processors"));
            }
            Ok(vec![procs])
        }
        2 => {
            let mut best = None;
            let mut d = 2;
            while d * d <= procs {
                if procs.is_multiple_of(d) {
                    best = Some(vec![procs / d, d]);
                }
                d += 1;
            }
            best.ok_or_else(|| {
                ConfigError::new(
                    "procs",
                    "the hierarchy network needs a composite processor count \
                     (local rings × nodes per ring, both at least 2)",
                )
            })
        }
        3 => {
            // Smallest spread between the extreme dimensions wins; ties go
            // to the flattest leaf (largest per-leaf count).
            let mut best: Option<Vec<usize>> = None;
            let mut a = 2;
            while a * a * a <= procs {
                if procs.is_multiple_of(a) {
                    let rest = procs / a;
                    let mut b = a;
                    while b * b <= rest {
                        if rest.is_multiple_of(b) {
                            let cand = vec![rest / b, b, a];
                            let spread = |v: &Vec<usize>| v[0] - v[2];
                            if best.as_ref().is_none_or(|cur| spread(&cand) < spread(cur)) {
                                best = Some(cand);
                            }
                        }
                        b += 1;
                    }
                }
                a += 1;
            }
            best.ok_or_else(|| {
                ConfigError::new(
                    "procs",
                    "a three-level hierarchy needs a processor count expressible \
                     as a product of three factors, each at least 2",
                )
            })
        }
        _ => Err(ConfigError::new("levels", "balanced topologies support 1 to 3 levels")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_is_one_ring_without_bridges() {
        let t = RingTopology::flat(16).unwrap();
        assert_eq!(t.levels(), 1);
        assert_eq!(t.leaf_rings(), 1);
        assert_eq!(t.total_nodes(), 16);
        // No uplink position: the single ring is exactly the flat ring.
        assert_eq!(t.layout(0).nodes(), 16);
        assert_eq!(t.round_trip(0), t.flat_equivalent_round_trip());
        assert!((t.uniform_locality() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_level_matches_the_classic_hierarchy_geometry() {
        let t = RingTopology::two_level(8, 8).unwrap();
        assert_eq!(t.total_nodes(), 64);
        // Leaf rings: 9 interfaces -> 30 stages; root: 8 bridges -> 30.
        assert_eq!(t.layout(0).stages(), 30);
        assert_eq!(t.layout(1).stages(), 30);
        assert_eq!(t.round_trip(0), Time::from_ns(60));
        assert_eq!(t.inter_ring_probe_time(), Time::from_ns(180));
        assert_eq!(t.flat_equivalent_round_trip(), Time::from_ns(400));
        // Three short revolutions still beat one 64-node revolution.
        assert!(t.inter_ring_probe_time() < t.flat_equivalent_round_trip());
        // A uniformly placed home shares the requester's ring 1/k of the time.
        let wide = RingTopology::two_level(4, 16).unwrap();
        assert!((wide.uniform_locality() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn three_level_paths_and_subtrees() {
        let t = RingTopology::three_level(4, 4, 4).unwrap();
        assert_eq!(t.total_nodes(), 64);
        assert_eq!(t.leaf_rings(), 16);
        assert_eq!(t.rings_at(1), 4);
        assert_eq!(t.rings_at(2), 1);
        // Leaf ring 13 sits in group 3.
        assert_eq!(t.path_of(13), vec![13, 3, 0]);
        assert_eq!(t.meet_level(13, 12), 1); // same group
        assert_eq!(t.meet_level(13, 2), 2); // through the root
        assert_eq!(t.meet_level(5, 5), 0);
        // Mid rings carry 4 bridge positions + 1 uplink.
        assert_eq!(t.layout(1).nodes(), 5);
        // Cross-group probe: leaf + mid + root + mid + leaf revolutions.
        let full = t.round_trip(2) + (t.round_trip(0) + t.round_trip(1)) * 2;
        assert_eq!(t.inter_ring_probe_time(), full);
        // Same-group inter-ring probe is cheaper than cross-group.
        assert!(t.probe_time_between(12, 13) < t.inter_ring_probe_time());
    }

    #[test]
    fn balanced_reproduces_the_historic_two_level_split() {
        assert_eq!(RingTopology::balanced(2, 16).unwrap().shape(), &[4, 4]);
        assert_eq!(RingTopology::balanced(2, 8).unwrap().shape(), &[4, 2]);
        assert_eq!(RingTopology::balanced(2, 12).unwrap().shape(), &[4, 3]);
        assert!(RingTopology::balanced(2, 13).is_err());
        assert!(RingTopology::balanced(2, 2).is_err());
    }

    #[test]
    fn balanced_three_level_prefers_cubes() {
        assert_eq!(RingTopology::balanced(3, 64).unwrap().shape(), &[4, 4, 4]);
        assert_eq!(RingTopology::balanced(3, 8).unwrap().shape(), &[2, 2, 2]);
        assert_eq!(RingTopology::balanced(3, 16).unwrap().shape(), &[4, 2, 2]);
        assert_eq!(RingTopology::balanced(3, 24).unwrap().shape(), &[4, 3, 2]);
        assert!(RingTopology::balanced(3, 4).is_err());
        assert!(RingTopology::balanced(3, 6).is_err()); // only two prime factors
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        assert!(RingTopology::from_shape(&[], RingConfig::standard_500mhz(2)).is_err());
        assert!(RingTopology::two_level(1, 8).is_err());
        assert!(RingTopology::two_level(8, 1).is_err());
        assert!(RingTopology::two_level(9, 8).is_err()); // 72 > 64
        assert!(RingTopology::three_level(2, 2, 1).is_err());
        assert!(RingTopology::two_level(2, 2).is_ok());
    }

    #[test]
    fn txn_budget_floor_is_one() {
        let t = RingTopology::two_level(2, 2).unwrap();
        assert_eq!(t.txn_budget(4_000), 80);
        assert_eq!(t.txn_budget(10), 1);
    }

    #[test]
    fn ring_membership() {
        let t = RingTopology::two_level(4, 4).unwrap();
        assert_eq!(t.ring_of(NodeId::new(0)), 0);
        assert_eq!(t.ring_of(NodeId::new(15)), 3);
        assert!(t.same_ring(NodeId::new(5), NodeId::new(6)));
        assert!(!t.same_ring(NodeId::new(3), NodeId::new(4)));
    }
}
