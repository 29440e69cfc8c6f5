//! Murphi-style exhaustive model checker for ringsim's coherence protocols.
//!
//! For small configurations the checker enumerates *every* reachable
//! protocol state by breadth-first search over an abstract machine (the
//! `model` module's docs explain the abstractions and why they are sound).
//! The machine is built from the same [`ringsim_cache::Cache`],
//! [`ringsim_proto::Directory`] and [`ringsim_proto::HomeMemory`] objects the
//! timed simulators use, drives the same protocol engines
//! ([`ringsim_proto::ring_engine`], [`ringsim_proto::bus_engine`]) and
//! consults the shared guarded rule sets in [`ringsim_proto::guarded`] — so
//! the states explored here are the states the simulator can actually
//! produce, not a re-implementation.
//!
//! Three scaling levers keep exhaustive runs tractable past 4 nodes:
//! symmetry reduction (only one representative per node/block-permutation
//! orbit is stored — `sym`'s docs derive the sound group), a
//! hash-compacted visited set (64-bit fingerprints instead of full state
//! encodings, Murphi's classic trade of a ~`n²/2⁶⁴` collision risk for an
//! order-of-magnitude memory saving), and a level-synchronous parallel BFS
//! ([`CheckConfig::jobs`]) whose deterministic merge keeps every report
//! byte-identical regardless of worker count.
//!
//! [`explore`] accepts 2..=8 nodes and 1..=4 blocks, but what is
//! *practically* exhaustive differs sharply per protocol — the
//! directory's home-side queues and write-back buffers multiply states far
//! faster than the snooping dirty bit does. Measured complete state-space
//! sizes (fault-free, with evictions):
//!
//! | configuration | Snooping | Directory |
//! |---------------|---------:|----------:|
//! | 3 nodes / 1 block | ~2.5 k | ~243 k |
//! | 4 nodes / 1 block | ~38 k  | > 35 M (truncated) |
//! | 4 nodes / 2 blocks | > 10 M | ~100 M+ |
//!
//! With symmetry reduction on (the default), snooping is exhaustive
//! through 5 nodes / 1 block in under a second (33 838 canonical states)
//! and 4 nodes / 2 blocks in minutes (5 437 317 canonical states);
//! the directory protocol reaches 5 nodes / 1 block in seconds with
//! `evictions` off (172 589 states — the replacement-free protocol core),
//! but with evictions on it exceeds 13 M canonical states already at
//! 4 nodes. At 6 nodes / 2 blocks both protocols exceed 30 M canonical
//! states even without evictions; there, set `max_states` and treat the
//! truncated run as a bounded smoke test (CI does exactly this).
//!
//! On every reachable state the checker evaluates the shared
//! [`ringsim_proto::invariants`]:
//!
//! * **SWMR** — at most one writable copy, no readers alongside it,
//! * **dirty-data reachability** — a dirty block always has a live owner,
//!   an in-flight write-back, or an in-progress transaction accounting
//!   for it,
//! * **directory–cache agreement** — at quiescence the presence bits and
//!   owner pointer match the caches exactly,
//! * **deadlock freedom** — every non-quiescent state has an enabled
//!   protocol step, and (optionally) **livelock freedom** — every state can
//!   reach a quiescent one.
//!
//! A violation is reported as a shortest-path counterexample: the BFS
//! spanning tree gives the sequence of scheduler steps from the initial
//! state, followed by a rendering of the offending state.
//!
//! Mutation testing is built in: [`Fault`] reinstates known-bad behaviours
//! (skipping an invalidation, forgetting the owner pointer, parking
//! forwards behind a buffered write-back) so the test suite can prove the
//! checker *would* catch each class of bug.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::str::FromStr;

use ringsim_proto::guarded::RuleFire;
use ringsim_proto::ProtocolKind;
use ringsim_types::ConfigError;

mod explore;
mod model;
mod store;
mod sym;

/// A deliberately injected protocol bug, for mutation-testing the checker.
///
/// Each fault reinstates a concrete wrong behaviour; `explore` must flag a
/// violation under every fault, proving the invariants have teeth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fault {
    /// No fault: the protocols as shipped.
    #[default]
    None,
    /// The highest-numbered node ignores invalidations, so a stale reader
    /// survives a write — a SWMR violation.
    SkipInvalidate,
    /// The home never records the new owner (directory) / never sets the
    /// dirty bit (snooping), so dirty data becomes unaccounted for.
    ForgetOwner,
    /// Directory forwards park behind *any* transaction of the target node,
    /// even when the target's write-back buffer could serve them — the
    /// deadlock this checker found in the seed `RingSystem::deliver`.
    ParkBusyForwards,
    /// The SCI rollout splice drops the departing node's *successor* from
    /// the sharing list instead of relinking it — a classic linked-list
    /// pointer bug. Only the SCI list–cache agreement invariant can see it;
    /// every other protocol ignores the fault entirely.
    BreakListLink,
}

impl Fault {
    /// All faults, including [`Fault::None`].
    pub const ALL: [Fault; 5] = [
        Fault::None,
        Fault::SkipInvalidate,
        Fault::ForgetOwner,
        Fault::ParkBusyForwards,
        Fault::BreakListLink,
    ];

    /// The CLI spelling of this fault.
    pub fn name(self) -> &'static str {
        match self {
            Fault::None => "none",
            Fault::SkipInvalidate => "skip-invalidate",
            Fault::ForgetOwner => "forget-owner",
            Fault::ParkBusyForwards => "park-busy-forwards",
            Fault::BreakListLink => "break-list-link",
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Failure to parse a [`Fault`] from its CLI spelling (the same shape as
/// `ringsim-core`'s `SimKindError`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultError {
    /// The name matches no known fault.
    Unknown {
        /// The spelling that failed to parse.
        name: String,
    },
}

impl FaultError {
    /// Every accepted spelling, for error messages and usage text.
    pub fn known_names() -> Vec<&'static str> {
        Fault::ALL.iter().map(|f| f.name()).collect()
    }
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::Unknown { name } => {
                write!(
                    f,
                    "unknown fault `{name}`; valid faults: {}",
                    Self::known_names().join(", ")
                )
            }
        }
    }
}

impl std::error::Error for FaultError {}

impl FromStr for Fault {
    type Err = FaultError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Fault::ALL
            .into_iter()
            .find(|f| f.name() == s)
            .ok_or_else(|| FaultError::Unknown { name: s.to_owned() })
    }
}

/// One model-checking run: a protocol, a tiny configuration, and options.
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// Which protocol's transition tables to drive.
    pub protocol: ProtocolKind,
    /// Ring size; exhaustive exploration is feasible up to about 4.
    pub nodes: usize,
    /// Distinct cache blocks in play (homes assigned round-robin).
    pub blocks: usize,
    /// Injected bug, if any (mutation testing).
    pub fault: Fault,
    /// Cap on stored states; exploration past the cap marks the report
    /// incomplete instead of aborting.
    pub max_states: usize,
    /// Also prove every state can reach quiescence (reverse reachability
    /// over the full graph; requires a complete exploration).
    pub check_liveness: bool,
    /// Include explicit eviction moves (conflict-miss stand-ins).
    pub evictions: bool,
    /// Worker threads for frontier expansion on the shared pool
    /// ([`ringsim_types::par`]); `0` = [`par::default_jobs`](ringsim_types::par::default_jobs),
    /// as for the sweep. Reports are byte-identical for any value.
    pub jobs: usize,
    /// Store one representative per symmetry orbit instead of every state.
    /// Off, the checker degenerates to the plain (slower, larger) BFS —
    /// useful for validating the reduction itself.
    pub symmetry: bool,
    /// Collect exploration statistics: raw-vs-canonical state counts and
    /// per-rule fire counts (filled into [`CheckReport::stats`]).
    pub stats: bool,
}

impl CheckConfig {
    /// A configuration with the defaults used by `ringsim check`.
    pub fn new(protocol: ProtocolKind, nodes: usize, blocks: usize) -> Self {
        CheckConfig {
            protocol,
            nodes,
            blocks,
            fault: Fault::None,
            max_states: 4_000_000,
            check_liveness: true,
            evictions: true,
            jobs: 0,
            symmetry: true,
            stats: false,
        }
    }

    fn validate(&self) -> Result<(), ConfigError> {
        if !(2..=8).contains(&self.nodes) {
            return Err(ConfigError::new("nodes", "exhaustive checking needs 2..=8 nodes"));
        }
        if !(1..=4).contains(&self.blocks) {
            return Err(ConfigError::new("blocks", "exhaustive checking needs 1..=4 blocks"));
        }
        if self.max_states == 0 {
            return Err(ConfigError::new("max_states", "must be positive"));
        }
        Ok(())
    }
}

/// A counterexample: what went wrong and how to get there.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The invariant that failed, with block and node detail.
    pub message: String,
    /// Human-readable shortest path from the initial state, ending with a
    /// rendering of the offending state.
    pub trace: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "violation: {}", self.message)?;
        for (i, step) in self.trace.iter().enumerate() {
            writeln!(f, "  {i:3}. {step}")?;
        }
        Ok(())
    }
}

/// The outcome of one exhaustive exploration.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Protocol checked.
    pub protocol: ProtocolKind,
    /// Nodes in the configuration.
    pub nodes: usize,
    /// Blocks in the configuration.
    pub blocks: usize,
    /// Injected fault, if any.
    pub fault: Fault,
    /// Distinct reachable states discovered.
    pub states: usize,
    /// Transitions (edges) taken, including duplicates into known states.
    pub transitions: u64,
    /// States with no outstanding transactions or in-flight messages.
    pub quiescent_states: usize,
    /// Longest shortest-path distance from the initial state.
    pub depth: usize,
    /// Whether the whole graph fit under `max_states`.
    pub complete: bool,
    /// Whether the quiescence-reachability (livelock) pass ran.
    pub livelock_checked: bool,
    /// The first invariant violation found, if any.
    pub violation: Option<Violation>,
    /// Exploration statistics, when [`CheckConfig::stats`] was set (omitted
    /// on violation runs: the counterexample replay would distort counts).
    pub stats: Option<CheckStats>,
}

/// Exploration statistics for `ringsim check --stats`: the observed orbit
/// reduction and the guarded-rule exhaustiveness (dead-rule) report.
///
/// Deterministic for any [`CheckConfig::jobs`]: every BFS level is fully
/// expanded before its successors are merged, so the same edges are
/// evaluated no matter how they are sharded.
#[derive(Debug, Clone)]
pub struct CheckStats {
    /// Distinct *raw* (uncanonicalized) successor states observed. With
    /// symmetry on, `raw_states / states` is the achieved orbit reduction —
    /// a lower bound, since only successors of stored representatives are
    /// counted.
    pub raw_states: u64,
    /// The symmetry group's order — the theoretical maximum reduction.
    pub group_order: u64,
    /// Fire count per guarded rule, in (rule-set, declaration) order.
    pub rule_fires: Vec<RuleFire>,
}

impl CheckStats {
    /// The achieved orbit reduction factor (`raw_states / states`).
    pub fn reduction(&self, states: usize) -> f64 {
        if states == 0 {
            return 1.0;
        }
        let raw = self.raw_states.max(states as u64);
        raw as f64 / states as f64
    }

    /// Rules that never fired but should have under `protocol` — dead
    /// weight or a reachability bug at this configuration size.
    pub fn dead_rules(&self, protocol: ProtocolKind) -> Vec<&RuleFire> {
        self.rule_fires.iter().filter(|r| r.fires_under == protocol && r.fired == 0).collect()
    }

    /// Renders the stats block printed under a report by
    /// `ringsim check --stats`.
    pub fn render(&self, states: usize, protocol: ProtocolKind) -> Vec<String> {
        let mut lines = vec![format!(
            "  orbit reduction: {} raw successors -> {states} canonical states (x{:.2}, group order {})",
            self.raw_states,
            self.reduction(states),
            self.group_order,
        )];
        // MSI's rule set, the newest, is left out of the other protocols'
        // lists only so that their output stays as it was before MSI had
        // one; an MSI run lists every rule set.
        let listed =
            |r: &&RuleFire| r.fires_under != ProtocolKind::Msi || protocol == r.fires_under;
        for r in self.rule_fires.iter().filter(listed) {
            let applicable = r.fires_under == protocol;
            lines.push(format!(
                "  rule {}/{}: fired {}{}",
                r.ruleset,
                r.rule,
                r.fired,
                if applicable { "" } else { " (other protocol)" },
            ));
        }
        let dead = self.dead_rules(protocol);
        if dead.is_empty() {
            lines.push("  dead rules: none".to_owned());
        } else {
            for r in dead {
                lines.push(format!("  dead rule: {}/{} never fired", r.ruleset, r.rule));
            }
        }
        lines
    }
}

impl CheckReport {
    /// True when the exploration finished with no violation.
    pub fn passed(&self) -> bool {
        self.violation.is_none()
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} {}n/{}b: {} states, {} transitions, {} quiescent, depth {}{}{}",
            self.protocol,
            self.nodes,
            self.blocks,
            self.states,
            self.transitions,
            self.quiescent_states,
            self.depth,
            if self.complete { "" } else { " (truncated)" },
            if self.livelock_checked { ", livelock-free" } else { "" },
        )?;
        if self.fault != Fault::None {
            write!(f, " [fault: {}]", self.fault)?;
        }
        match &self.violation {
            None => write!(f, " — OK"),
            Some(v) => write!(f, " — FAILED: {}", v.message),
        }
    }
}

/// Exhaustively explores the configuration and checks every invariant.
///
/// Returns `Err` only for nonsensical configurations; a protocol bug is
/// reported inside the [`CheckReport`] as a [`Violation`].
pub fn explore(cfg: &CheckConfig) -> Result<CheckReport, ConfigError> {
    cfg.validate()?;
    Ok(explore::run(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_names_round_trip() {
        for f in Fault::ALL {
            assert_eq!(f.name().parse::<Fault>().unwrap(), f);
        }
        assert!("bogus".parse::<Fault>().is_err());
    }

    #[test]
    fn config_bounds_are_enforced() {
        let mut c = CheckConfig::new(ProtocolKind::Snooping, 1, 1);
        assert!(explore(&c).is_err());
        c.nodes = 2;
        c.blocks = 0;
        assert!(explore(&c).is_err());
        c.blocks = 1;
        c.max_states = 0;
        assert!(explore(&c).is_err());
    }
}
