//! Cache-coherence protocol building blocks for the slotted ring.
//!
//! This crate provides, protocol by protocol, everything that is not timing:
//!
//! * [`RingMessage`] / [`MsgKind`] — the message vocabulary shared by the
//!   snooping and directory protocols (probes and block messages, paper §2),
//! * [`HomeMemory`] — the memory-side state of the snooping protocol: one
//!   dirty bit per block (paper §3.1),
//! * [`Directory`] — the full-map directory: presence bits + dirty bit per
//!   block (paper §3.2),
//! * [`table1`] — the traversal histograms that regenerate Table 1, and
//!   the idealised full-map accountant beside the linked-list column,
//! * [`sci`] — the SCI-like linked-list directory's engine, driven by
//!   Table 1, the timed `SciRingSystem` and the model checker,
//! * [`guarded`] — the declarative guarded-action rule sets both protocols'
//!   transition tables are expressed in, with a totality/determinism lint
//!   and per-rule fire counts (dead-rule detection),
//! * [`transitions`] — the actions the rules return and the directory's
//!   admission predicates,
//! * [`ring_engine`] — the untimed engine of the two ring protocols: every
//!   per-block state update the rules imply, driven by both the timed
//!   `RingSystem` and the `ringsim-check` model checker,
//! * [`bus_engine`] — the same for the three bus protocols (MSI, MESI and
//!   Dragon), driven by the timed `BusSystem` and the model checker,
//! * [`invariants`] — the coherence-invariant evaluators shared by the
//!   runtime sanitizer and the model checker.
//!
//! The timed semantics (who waits for which slot when) live in
//! `ringsim-core`; the untimed reference semantics live in
//! `ringsim-trace::RefInterpreter`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus_engine;
mod directory;
pub mod guarded;
pub mod invariants;
mod memory;
mod msg;
pub mod ring_engine;
pub mod sci;
pub mod table1;
pub mod transitions;

pub use directory::{DirEntry, Directory};
pub use memory::HomeMemory;
pub use msg::{MsgClass, MsgKind, RingMessage};

use serde::{Deserialize, Serialize};

/// Which coherence protocol a ring system runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// Broadcast snooping over probe slots (paper §3.1).
    Snooping,
    /// Full-map directory at the home nodes (paper §3.2).
    Directory,
    /// SCI-like linked-list directory at the home nodes (paper Table 1,
    /// now a first-class timed and checked protocol).
    Sci,
    /// The paper's 3-state MSI write-invalidate protocol on the bus
    /// backend (the bus baseline, paper §4.3).
    Msi,
    /// Classic 4-state MESI on the bus backend (silent E→M promotion).
    Mesi,
    /// Dragon update-based protocol on the bus backend (write updates
    /// instead of invalidations; an Sm owner supplies shared data).
    Dragon,
}

impl ProtocolKind {
    /// Short lowercase label used in tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Snooping => "snooping",
            ProtocolKind::Directory => "directory",
            ProtocolKind::Sci => "sci",
            ProtocolKind::Msi => "msi",
            ProtocolKind::Mesi => "mesi",
            ProtocolKind::Dragon => "dragon",
        }
    }

    /// Whether the protocol runs on the snooping bus: MSI, MESI or Dragon.
    /// Exhaustive, so a new protocol must say where it runs.
    #[must_use]
    pub fn is_bus(self) -> bool {
        match self {
            ProtocolKind::Msi | ProtocolKind::Mesi | ProtocolKind::Dragon => true,
            ProtocolKind::Snooping | ProtocolKind::Directory | ProtocolKind::Sci => false,
        }
    }
}

impl core::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}
