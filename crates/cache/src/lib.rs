//! Direct-mapped write-back coherent cache model.
//!
//! The paper evaluates 128 KB direct-mapped data caches with 16-byte blocks
//! and a three-state write-invalidate protocol. A cache line is in one of
//! three states ([`LineState`]): `Inv` (not present), `Rs` (read-shared) or
//! `We` (write-exclusive, i.e. dirty). This crate models only the
//! processor-side array; the coherence *protocol* (who supplies data, when
//! invalidations travel) lives in `ringsim-proto` and drives the cache
//! through the snoop methods.
//!
//! [`CacheBank`] holds the caches of all nodes of a system in one
//! allocation, line-interleaved and packed one `u64` per line; [`Cache`] is
//! its one-node case.
//!
//! The access path is split in two because the simulators are timed: a
//! [`Cache::classify`] call decides hit/upgrade/miss without mutating
//! anything, and the fill ([`Cache::fill`]) or promotion
//! ([`Cache::promote`]) happens later, when the coherence transaction
//! completes.
//!
//! # Examples
//!
//! ```
//! use ringsim_cache::{Cache, CacheConfig, LineState, AccessClass};
//! use ringsim_types::{AccessKind, BlockAddr};
//!
//! let mut cache = Cache::new(CacheConfig::paper_default()).unwrap();
//! let b = BlockAddr::new(0x10);
//! assert_eq!(cache.classify(b, AccessKind::Read), AccessClass::Miss);
//! cache.fill(b, LineState::Rs);
//! assert_eq!(cache.classify(b, AccessKind::Read), AccessClass::Hit);
//! assert_eq!(cache.classify(b, AccessKind::Write), AccessClass::Upgrade);
//! cache.promote(b);
//! assert_eq!(cache.classify(b, AccessKind::Write), AccessClass::Hit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

use ringsim_types::{AccessKind, BlockAddr, ConfigError};

/// Coherence state of one cache line (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LineState {
    /// Block not present.
    Inv,
    /// Read-Shared: present read-only, memory is up to date.
    Rs,
    /// Write-Exclusive: present read-write; this cache owns the only valid
    /// copy and must supply it / write it back.
    We,
}

impl LineState {
    /// `true` for any valid (non-`Inv`) state.
    #[must_use]
    pub const fn is_valid(self) -> bool {
        !matches!(self, LineState::Inv)
    }

    /// `true` for `We`.
    #[must_use]
    pub const fn is_dirty(self) -> bool {
        matches!(self, LineState::We)
    }
}

/// Classification of a processor access against the current cache contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessClass {
    /// Read hit on `Rs`/`We`, or write hit on `We`: no coherence action.
    Hit,
    /// Write to a block held in `Rs`: the processor must obtain write
    /// permission (an *invalidation* transaction in the paper's terminology)
    /// but no data transfer is needed.
    Upgrade,
    /// Block absent (or present under a conflicting tag): a miss that needs
    /// a data transfer.
    Miss,
}

/// Geometry of a direct-mapped cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Cache block (line) size in bytes.
    pub block_bytes: u64,
}

impl CacheConfig {
    /// The configuration used throughout the paper's evaluation: 128 KB
    /// direct-mapped with 16-byte blocks.
    #[must_use]
    pub const fn paper_default() -> Self {
        Self { size_bytes: 128 * 1024, block_bytes: 16 }
    }

    /// Number of lines in the cache.
    #[must_use]
    pub const fn lines(&self) -> u64 {
        self.size_bytes / self.block_bytes
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if either size is zero or not a power of
    /// two, the block does not fit in the cache, or the cache is so small
    /// that a tag would not fit a packed line (a 64-bit byte address keeps
    /// `64 - log2(size_bytes)` tag bits, and a line has room for 62; see
    /// [`MAX_TAG`]).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.size_bytes == 0 || !self.size_bytes.is_power_of_two() {
            return Err(ConfigError::new("size_bytes", "must be a non-zero power of two"));
        }
        if self.block_bytes == 0 || !self.block_bytes.is_power_of_two() {
            return Err(ConfigError::new("block_bytes", "must be a non-zero power of two"));
        }
        if self.block_bytes > self.size_bytes {
            return Err(ConfigError::new("block_bytes", "block larger than cache"));
        }
        if u64::MAX >> self.size_bytes.trailing_zeros() > MAX_TAG {
            return Err(ConfigError::new(
                "size_bytes",
                format!(
                    "must be at least {} bytes, or tags overflow a packed line",
                    1 << STATE_BITS
                ),
            ));
        }
        Ok(())
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Per-cache event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Read or write hits.
    pub hits: u64,
    /// Misses (including cold and conflict misses).
    pub misses: u64,
    /// Write hits on `Rs` lines (coherence upgrades).
    pub upgrades: u64,
    /// Lines invalidated by remote coherence activity.
    pub snoop_invalidations: u64,
    /// `We` lines downgraded to `Rs` by remote read misses.
    pub snoop_downgrades: u64,
    /// Dirty lines evicted (write-backs).
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio over all classified accesses (upgrades count as accesses
    /// but not as misses, matching the paper's Table 2).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.upgrades;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Bits of a packed line that hold the state; the tag sits above them.
const STATE_BITS: u32 = 2;

/// The largest tag a packed line can hold. [`CacheConfig::validate`] admits
/// only geometries whose tags (the address bits above the line index of a
/// 64-bit byte address) stay within it.
pub const MAX_TAG: u64 = u64::MAX >> STATE_BITS;

/// Packs a valid line: the tag above [`STATE_BITS`] state bits. `Rs` and
/// `We` encode as 1 and 2, so an all-zero word is an invalid line and a
/// freshly zeroed allocation is an empty cache.
#[inline]
const fn pack(tag: u64, state: LineState) -> u64 {
    let code = match state {
        LineState::Inv => 0,
        LineState::Rs => 1,
        LineState::We => 2,
    };
    tag << STATE_BITS | code
}

/// State of a packed line that holds `tag`: `Inv` when the line is empty or
/// holds another tag.
#[inline]
const fn unpack(line: u64, tag: u64) -> LineState {
    if line >> STATE_BITS != tag {
        return LineState::Inv;
    }
    match line & ((1 << STATE_BITS) - 1) {
        0 => LineState::Inv,
        1 => LineState::Rs,
        _ => LineState::We,
    }
}

/// `nodes` direct-mapped write-back caches of one geometry in a single
/// allocation.
///
/// The lines are stored line-major: all nodes' copies of line `idx` sit
/// next to each other, so a probe that visits every node on the ring walks
/// one short run of memory rather than one cache array per node. Each line
/// is one `u64` packing tag and state (see [`MAX_TAG`]); zero is invalid,
/// so a new bank is a zero-initialised allocation that costs nothing until
/// a line is written.
///
/// # Examples
///
/// ```
/// use ringsim_cache::{CacheBank, CacheConfig, LineState};
/// use ringsim_types::BlockAddr;
///
/// let mut bank = CacheBank::new(CacheConfig::paper_default(), 4).unwrap();
/// let b = BlockAddr::new(0x10);
/// bank.fill(2, b, LineState::We);
/// assert_eq!(bank.state_of(2, b), LineState::We);
/// assert_eq!(bank.state_of(1, b), LineState::Inv);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheBank {
    cfg: CacheConfig,
    nodes: usize,
    /// `log2(lines)`: a block's line index is its low `shift` bits, its tag
    /// the rest.
    shift: u32,
    /// `lines[idx * nodes + node]`.
    lines: Vec<u64>,
    stats: Vec<CacheStats>,
}

impl CacheBank {
    /// Creates `nodes` empty (all-`Inv`) caches.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is invalid (see
    /// [`CacheConfig::validate`]) or `nodes` is zero.
    pub fn new(cfg: CacheConfig, nodes: usize) -> Result<Self, ConfigError> {
        cfg.validate()?;
        if nodes == 0 {
            return Err(ConfigError::new("nodes", "a cache bank needs at least one node"));
        }
        // Both sizes are validated powers of two, so the line count is one
        // as well: index and tag are a mask and a shift, avoiding two u64
        // divisions on a path every access classification goes through.
        let shift = cfg.size_bytes.trailing_zeros() - cfg.block_bytes.trailing_zeros();
        debug_assert_eq!(1u64 << shift, cfg.lines());
        let lines = vec![0; cfg.lines() as usize * nodes];
        Ok(Self { cfg, nodes, shift, lines, stats: vec![CacheStats::default(); nodes] })
    }

    /// The geometry every cache in the bank shares.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Accumulated event counters of `node`'s cache.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range (as do all per-node methods).
    #[must_use]
    #[inline]
    pub fn stats(&self, node: usize) -> CacheStats {
        self.stats[node]
    }

    /// Position of `node`'s copy of `block`'s line, and `block`'s tag.
    #[inline]
    fn slot(&self, node: usize, block: BlockAddr) -> (usize, u64) {
        // An out-of-range node would silently alias another node's line.
        assert!(node < self.nodes, "node {node} out of range for {} caches", self.nodes);
        let idx = (block.raw() & ((1u64 << self.shift) - 1)) as usize;
        let tag = block.raw() >> self.shift;
        assert!(tag <= MAX_TAG, "{block}: tag {tag:#x} exceeds the packed line's {MAX_TAG:#x}");
        (idx * self.nodes + node, tag)
    }

    /// The block held in line `idx` under `tag`.
    #[inline]
    fn block_at(&self, idx: usize, tag: u64) -> BlockAddr {
        BlockAddr::new(tag << self.shift | idx as u64)
    }

    /// Current state of `block` in `node`'s cache (`Inv` when absent).
    #[must_use]
    #[inline]
    pub fn state_of(&self, node: usize, block: BlockAddr) -> LineState {
        let (pos, tag) = self.slot(node, block);
        unpack(self.lines[pos], tag)
    }

    /// Classifies an access *without* changing cache contents, and updates
    /// `node`'s hit/miss/upgrade counters.
    ///
    /// The caller performs the resulting coherence transaction (if any) and
    /// then calls [`CacheBank::fill`] or [`CacheBank::promote`].
    #[inline]
    pub fn classify(&mut self, node: usize, block: BlockAddr, kind: AccessKind) -> AccessClass {
        let class = self.peek(node, block, kind);
        let stats = &mut self.stats[node];
        match class {
            AccessClass::Hit => stats.hits += 1,
            AccessClass::Miss => stats.misses += 1,
            AccessClass::Upgrade => stats.upgrades += 1,
        }
        class
    }

    /// Like [`CacheBank::classify`] but without touching the statistics —
    /// used by lookahead code paths that only want to know whether an
    /// access would stall.
    #[must_use]
    #[inline]
    pub fn peek(&self, node: usize, block: BlockAddr, kind: AccessKind) -> AccessClass {
        match (self.state_of(node, block), kind) {
            (LineState::Inv, _) => AccessClass::Miss,
            (LineState::Rs, AccessKind::Write) => AccessClass::Upgrade,
            _ => AccessClass::Hit,
        }
    }

    /// Installs `block` in `state` in `node`'s cache, returning the victim
    /// line (block number and state) if a valid line had to be evicted. A
    /// `We` victim must be written back by the caller; the `writebacks`
    /// counter is bumped here.
    ///
    /// # Panics
    ///
    /// Panics if `state` is `Inv` (filling a line as invalid is a protocol
    /// bug).
    #[inline]
    pub fn fill(
        &mut self,
        node: usize,
        block: BlockAddr,
        state: LineState,
    ) -> Option<(BlockAddr, LineState)> {
        assert!(state.is_valid(), "cannot fill a line in Inv state");
        let (pos, tag) = self.slot(node, block);
        let old = self.lines[pos];
        self.lines[pos] = pack(tag, state);
        if old == 0 || old >> STATE_BITS == tag {
            return None;
        }
        let old_tag = old >> STATE_BITS;
        let victim_state = unpack(old, old_tag);
        if victim_state.is_dirty() {
            self.stats[node].writebacks += 1;
        }
        Some((self.block_at(pos / self.nodes, old_tag), victim_state))
    }

    /// Promotes an `Rs` line to `We` after a successful upgrade transaction.
    ///
    /// Returns `false` (and leaves the cache unchanged) when the line is no
    /// longer present — a remote write may have invalidated it while the
    /// upgrade was in flight, in which case the access must be retried as a
    /// write miss.
    #[inline]
    pub fn promote(&mut self, node: usize, block: BlockAddr) -> bool {
        let (pos, tag) = self.slot(node, block);
        if !unpack(self.lines[pos], tag).is_valid() {
            return false;
        }
        self.lines[pos] = pack(tag, LineState::We);
        true
    }

    /// Invalidates `block` in `node`'s cache if present (remote write miss /
    /// invalidation observed). Returns the state the line was in.
    #[inline]
    pub fn snoop_invalidate(&mut self, node: usize, block: BlockAddr) -> LineState {
        let (pos, tag) = self.slot(node, block);
        let state = unpack(self.lines[pos], tag);
        if state.is_valid() {
            self.lines[pos] = 0;
            self.stats[node].snoop_invalidations += 1;
        }
        state
    }

    /// Downgrades a `We` line in `node`'s cache to `Rs` (remote read miss
    /// observed by the dirty node). Returns `true` when the line was indeed
    /// `We`.
    #[inline]
    pub fn snoop_downgrade(&mut self, node: usize, block: BlockAddr) -> bool {
        let (pos, tag) = self.slot(node, block);
        if !unpack(self.lines[pos], tag).is_dirty() {
            return false;
        }
        self.lines[pos] = pack(tag, LineState::Rs);
        self.stats[node].snoop_downgrades += 1;
        true
    }

    /// Evicts `block` from `node`'s cache if present without recording a
    /// write-back (used by tests and by protocol paths that account for the
    /// write-back themselves). Returns the prior state.
    #[inline]
    pub fn evict(&mut self, node: usize, block: BlockAddr) -> LineState {
        let (pos, tag) = self.slot(node, block);
        let state = unpack(self.lines[pos], tag);
        if state.is_valid() {
            self.lines[pos] = 0;
        }
        state
    }

    /// Iterates over all valid blocks currently in `node`'s cache, with
    /// their states, in line order.
    pub fn resident_blocks(
        &self,
        node: usize,
    ) -> impl Iterator<Item = (BlockAddr, LineState)> + '_ {
        self.node_lines(node).enumerate().filter_map(move |(idx, &line)| {
            let tag = line >> STATE_BITS;
            (line != 0).then(|| (self.block_at(idx, tag), unpack(line, tag)))
        })
    }

    /// Number of valid lines in `node`'s cache.
    #[must_use]
    pub fn valid_lines(&self, node: usize) -> usize {
        self.node_lines(node).filter(|&&line| line != 0).count()
    }

    /// `node`'s lines, in line order.
    fn node_lines(&self, node: usize) -> impl Iterator<Item = &u64> {
        assert!(node < self.nodes, "node {node} out of range for {} caches", self.nodes);
        self.lines.iter().skip(node).step_by(self.nodes)
    }
}

/// A direct-mapped write-back cache with three-state lines: the one-node
/// case of [`CacheBank`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cache {
    bank: CacheBank,
}

impl Cache {
    /// Creates an empty (all-`Inv`) cache.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is invalid (see
    /// [`CacheConfig::validate`]).
    pub fn new(cfg: CacheConfig) -> Result<Self, ConfigError> {
        Ok(Self { bank: CacheBank::new(cfg, 1)? })
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.bank.config()
    }

    /// Accumulated event counters.
    #[must_use]
    #[inline]
    pub fn stats(&self) -> CacheStats {
        self.bank.stats(0)
    }

    /// Current state of `block` in this cache (`Inv` when absent).
    #[must_use]
    #[inline]
    pub fn state_of(&self, block: BlockAddr) -> LineState {
        self.bank.state_of(0, block)
    }

    /// Classifies an access *without* changing cache contents, and updates
    /// the hit/miss/upgrade counters (see [`CacheBank::classify`]).
    #[inline]
    pub fn classify(&mut self, block: BlockAddr, kind: AccessKind) -> AccessClass {
        self.bank.classify(0, block, kind)
    }

    /// Like [`Cache::classify`] but without touching the statistics.
    #[must_use]
    #[inline]
    pub fn peek(&self, block: BlockAddr, kind: AccessKind) -> AccessClass {
        self.bank.peek(0, block, kind)
    }

    /// Installs `block` in `state`, returning the evicted victim if any
    /// (see [`CacheBank::fill`]).
    ///
    /// # Panics
    ///
    /// Panics if `state` is `Inv`.
    #[inline]
    pub fn fill(&mut self, block: BlockAddr, state: LineState) -> Option<(BlockAddr, LineState)> {
        self.bank.fill(0, block, state)
    }

    /// Promotes an `Rs` line to `We`; `false` when the line is gone (see
    /// [`CacheBank::promote`]).
    #[inline]
    pub fn promote(&mut self, block: BlockAddr) -> bool {
        self.bank.promote(0, block)
    }

    /// Invalidates `block` if present. Returns the state the line was in.
    #[inline]
    pub fn snoop_invalidate(&mut self, block: BlockAddr) -> LineState {
        self.bank.snoop_invalidate(0, block)
    }

    /// Downgrades a `We` line to `Rs`. Returns `true` when the line was
    /// indeed `We`.
    #[inline]
    pub fn snoop_downgrade(&mut self, block: BlockAddr) -> bool {
        self.bank.snoop_downgrade(0, block)
    }

    /// Evicts `block` if present without recording a write-back. Returns
    /// the prior state.
    #[inline]
    pub fn evict(&mut self, block: BlockAddr) -> LineState {
        self.bank.evict(0, block)
    }

    /// Iterates over all valid blocks currently cached, with their states.
    pub fn resident_blocks(&self) -> impl Iterator<Item = (BlockAddr, LineState)> + '_ {
        self.bank.resident_blocks(0)
    }

    /// Number of valid lines.
    #[must_use]
    pub fn valid_lines(&self) -> usize {
        self.bank.valid_lines(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringsim_types::AccessKind::{Read, Write};

    fn small() -> Cache {
        Cache::new(CacheConfig { size_bytes: 256, block_bytes: 16 }).unwrap()
    }

    #[test]
    fn paper_default_geometry() {
        let cfg = CacheConfig::paper_default();
        assert_eq!(cfg.lines(), 8192);
        cfg.validate().unwrap();
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(CacheConfig { size_bytes: 100, block_bytes: 16 }.validate().is_err());
        assert!(CacheConfig { size_bytes: 128, block_bytes: 0 }.validate().is_err());
        assert!(CacheConfig { size_bytes: 16, block_bytes: 64 }.validate().is_err());
        // Too small for the tag of a 64-bit address to fit a packed line.
        assert!(CacheConfig { size_bytes: 2, block_bytes: 2 }.validate().is_err());
        assert!(CacheConfig { size_bytes: 2, block_bytes: 1 }.validate().is_err());
        assert!(CacheConfig { size_bytes: 1, block_bytes: 1 }.validate().is_err());
        CacheConfig { size_bytes: 4, block_bytes: 4 }.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "exceeds the packed line")]
    fn tag_beyond_the_packing_panics_instead_of_aliasing() {
        let c = Cache::new(CacheConfig { size_bytes: 16, block_bytes: 16 }).unwrap();
        let _ = c.state_of(BlockAddr::new(MAX_TAG + 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_beyond_the_bank_panics_instead_of_aliasing() {
        let bank = CacheBank::new(CacheConfig { size_bytes: 256, block_bytes: 16 }, 3).unwrap();
        let _ = bank.state_of(3, BlockAddr::new(0));
    }

    #[test]
    fn rejects_an_empty_bank() {
        assert!(CacheBank::new(CacheConfig::paper_default(), 0).is_err());
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        let b = BlockAddr::new(3);
        assert_eq!(c.classify(b, Read), AccessClass::Miss);
        assert_eq!(c.fill(b, LineState::Rs), None);
        assert_eq!(c.classify(b, Read), AccessClass::Hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn write_on_rs_is_upgrade() {
        let mut c = small();
        let b = BlockAddr::new(7);
        c.fill(b, LineState::Rs);
        assert_eq!(c.classify(b, Write), AccessClass::Upgrade);
        assert!(c.promote(b));
        assert_eq!(c.classify(b, Write), AccessClass::Hit);
        assert_eq!(c.state_of(b), LineState::We);
    }

    #[test]
    fn promote_fails_after_remote_invalidation() {
        let mut c = small();
        let b = BlockAddr::new(9);
        c.fill(b, LineState::Rs);
        assert_eq!(c.snoop_invalidate(b), LineState::Rs);
        assert!(!c.promote(b));
        assert_eq!(c.state_of(b), LineState::Inv);
    }

    #[test]
    fn conflict_eviction_reports_victim() {
        let mut c = small(); // 16 lines
        let a = BlockAddr::new(5);
        let b = BlockAddr::new(5 + 16); // same index, different tag
        c.fill(a, LineState::We);
        let victim = c.fill(b, LineState::Rs);
        assert_eq!(victim, Some((a, LineState::We)));
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.state_of(a), LineState::Inv);
        assert_eq!(c.state_of(b), LineState::Rs);
    }

    #[test]
    fn refill_same_block_is_not_eviction() {
        let mut c = small();
        let a = BlockAddr::new(5);
        c.fill(a, LineState::Rs);
        assert_eq!(c.fill(a, LineState::We), None);
        assert_eq!(c.stats().writebacks, 0);
        assert_eq!(c.state_of(a), LineState::We);
    }

    #[test]
    fn snoop_downgrade_only_hits_we() {
        let mut c = small();
        let a = BlockAddr::new(2);
        c.fill(a, LineState::Rs);
        assert!(!c.snoop_downgrade(a));
        c.promote(a);
        assert!(c.snoop_downgrade(a));
        assert_eq!(c.state_of(a), LineState::Rs);
        assert_eq!(c.stats().snoop_downgrades, 1);
    }

    #[test]
    fn snoop_invalidate_misses_are_noops() {
        let mut c = small();
        assert_eq!(c.snoop_invalidate(BlockAddr::new(77)), LineState::Inv);
        assert_eq!(c.stats().snoop_invalidations, 0);
    }

    #[test]
    fn resident_blocks_roundtrip() {
        let mut c = small();
        c.fill(BlockAddr::new(1), LineState::Rs);
        c.fill(BlockAddr::new(2), LineState::We);
        let mut resident: Vec<_> = c.resident_blocks().collect();
        resident.sort_by_key(|(b, _)| b.raw());
        assert_eq!(
            resident,
            vec![(BlockAddr::new(1), LineState::Rs), (BlockAddr::new(2), LineState::We)]
        );
        assert_eq!(c.valid_lines(), 2);
    }

    #[test]
    fn miss_rate_counts_upgrades_as_accesses() {
        let mut c = small();
        let b = BlockAddr::new(0);
        c.classify(b, Read); // miss
        c.fill(b, LineState::Rs);
        c.classify(b, Read); // hit
        c.classify(b, Write); // upgrade
        assert!((c.stats().miss_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn peek_does_not_count() {
        let mut c = small();
        let b = BlockAddr::new(0);
        assert_eq!(c.peek(b, Read), AccessClass::Miss);
        assert_eq!(c.stats().misses, 0);
        c.fill(b, LineState::Rs);
        assert_eq!(c.peek(b, Write), AccessClass::Upgrade);
        assert_eq!(c.stats().upgrades, 0);
    }

    #[test]
    fn evict_returns_prior_state() {
        let mut c = small();
        let b = BlockAddr::new(4);
        c.fill(b, LineState::We);
        assert_eq!(c.evict(b), LineState::We);
        assert_eq!(c.evict(b), LineState::Inv);
        assert_eq!(c.stats().writebacks, 0);
    }
}
