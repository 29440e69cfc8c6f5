use core::fmt;

use serde::{Deserialize, Serialize};

use ringsim_ring::SlotKind;
use ringsim_types::{BlockAddr, NodeId};

/// Which slot class a message needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MsgClass {
    /// Fits a probe slot (address + control).
    Probe,
    /// Fits a block slot (header + cache block).
    Block,
}

/// Every message kind used by the two ring protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MsgKind {
    // --- snooping probes: broadcast, snooped en route, removed by requester
    /// Read-miss probe.
    SnoopRead,
    /// Write-miss probe (invalidates copies as it passes).
    SnoopWrite,
    /// Invalidation probe (requester already holds the block read-shared).
    SnoopUpgrade,

    // --- directory probes: unicast, removed by destination
    /// Read-miss request to the home node.
    DirRead,
    /// Write-miss request to the home node.
    DirWrite,
    /// Upgrade (invalidation) request to the home node.
    DirUpgrade,
    /// Home forwards a read miss to the dirty node (carries the requester).
    DirFwdRead,
    /// Home forwards a write miss to the dirty node (carries the requester).
    DirFwdWrite,
    /// Home-initiated multicast invalidation; travels the full ring and is
    /// removed by the home when it returns.
    DirInval,
    /// Home grants an upgrade (no data needed).
    DirAck,

    // --- block messages: removed by destination
    /// Data reply from the owner to the requester.
    BlockData,
    /// Dirty-victim write-back to the home.
    WriteBack,
    /// Directory mode: the dirty node refreshes memory/directory at the
    /// home after supplying data.
    MemUpdate,
}

impl MsgKind {
    /// The slot class this message occupies.
    #[must_use]
    pub const fn class(self) -> MsgClass {
        match self {
            MsgKind::BlockData | MsgKind::WriteBack | MsgKind::MemUpdate => MsgClass::Block,
            _ => MsgClass::Probe,
        }
    }

    /// `true` for snooping-protocol probes, which circulate the whole ring
    /// and are removed by their source.
    #[must_use]
    pub const fn is_snoop_probe(self) -> bool {
        matches!(self, MsgKind::SnoopRead | MsgKind::SnoopWrite | MsgKind::SnoopUpgrade)
    }

    /// `true` for the multicast invalidation, which also circles back to its
    /// source.
    #[must_use]
    pub const fn returns_to_source(self) -> bool {
        self.is_snoop_probe() || matches!(self, MsgKind::DirInval)
    }
}

impl fmt::Display for MsgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MsgKind::SnoopRead => "snoop-read",
            MsgKind::SnoopWrite => "snoop-write",
            MsgKind::SnoopUpgrade => "snoop-upgrade",
            MsgKind::DirRead => "dir-read",
            MsgKind::DirWrite => "dir-write",
            MsgKind::DirUpgrade => "dir-upgrade",
            MsgKind::DirFwdRead => "dir-fwd-read",
            MsgKind::DirFwdWrite => "dir-fwd-write",
            MsgKind::DirInval => "dir-inval",
            MsgKind::DirAck => "dir-ack",
            MsgKind::BlockData => "block-data",
            MsgKind::WriteBack => "write-back",
            MsgKind::MemUpdate => "mem-update",
        };
        f.write_str(s)
    }
}

/// One message on the ring.
///
/// `src` inserted the message; `dst` removes it (for messages that return to
/// their source, `dst == src`). `requester` is the node whose processor is
/// blocked on the transaction — forwards and replies carry it so the final
/// data reply can be routed without a directory lookup.
///
/// # Examples
///
/// ```
/// use ringsim_proto::{MsgKind, RingMessage};
/// use ringsim_types::{BlockAddr, NodeId};
///
/// let probe = RingMessage::new(
///     MsgKind::SnoopRead,
///     BlockAddr::new(0x40),
///     NodeId::new(2),
///     NodeId::new(2), // snoop probes return to their source
/// );
/// assert!(probe.kind.is_snoop_probe());
/// assert!(!probe.acked);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingMessage {
    /// Message kind (decides slot class and routing discipline).
    pub kind: MsgKind,
    /// The cache block concerned.
    pub block: BlockAddr,
    /// Inserting node.
    pub src: NodeId,
    /// Removing node.
    pub dst: NodeId,
    /// The node whose transaction this message serves.
    pub requester: NodeId,
    /// Snooping ack field: set by the owner as the probe passes, observed
    /// by the requester on return (modelled on the paper's "acknowledgment
    /// field in the following probe slot").
    pub acked: bool,
    /// On [`MsgKind::BlockData`]: the data came from a dirty cache rather
    /// than from memory at the home (used to classify miss latencies).
    pub from_dirty: bool,
    /// On [`MsgKind::MemUpdate`]: the supplying dirty node kept a
    /// read-shared copy (it had not evicted the line).
    pub retained: bool,
}

impl RingMessage {
    /// Creates a message with `requester == src` and all flags clear.
    #[must_use]
    pub fn new(kind: MsgKind, block: BlockAddr, src: NodeId, dst: NodeId) -> Self {
        Self {
            kind,
            block,
            src,
            dst,
            requester: src,
            acked: false,
            from_dirty: false,
            retained: false,
        }
    }

    /// Creates a message on behalf of another node (forwards and replies).
    #[must_use]
    pub fn for_requester(
        kind: MsgKind,
        block: BlockAddr,
        src: NodeId,
        dst: NodeId,
        requester: NodeId,
    ) -> Self {
        Self { kind, block, src, dst, requester, acked: false, from_dirty: false, retained: false }
    }

    /// Builder-style `from_dirty` flag.
    #[must_use]
    pub fn with_from_dirty(mut self, v: bool) -> Self {
        self.from_dirty = v;
        self
    }

    /// Builder-style `retained` flag.
    #[must_use]
    pub fn with_retained(mut self, v: bool) -> Self {
        self.retained = v;
        self
    }

    /// The slot class the message needs.
    #[must_use]
    pub const fn class(&self) -> MsgClass {
        self.kind.class()
    }

    /// Whether the message may take an empty slot of `kind`: a block
    /// message only a block slot, a probe only a probe slot whose parity
    /// accepts its block.
    #[inline]
    #[must_use]
    pub fn fits(&self, kind: SlotKind) -> bool {
        match (self.class(), kind) {
            (MsgClass::Probe, SlotKind::Block) => false,
            (MsgClass::Probe, k) => k.parity().accepts(self.block.is_even()),
            (MsgClass::Block, SlotKind::Block) => true,
            (MsgClass::Block, _) => false,
        }
    }
}

impl fmt::Display for RingMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}→{} (req {})", self.kind, self.block, self.src, self.dst, self.requester)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes() {
        assert_eq!(MsgKind::SnoopRead.class(), MsgClass::Probe);
        assert_eq!(MsgKind::DirAck.class(), MsgClass::Probe);
        assert_eq!(MsgKind::DirInval.class(), MsgClass::Probe);
        assert_eq!(MsgKind::BlockData.class(), MsgClass::Block);
        assert_eq!(MsgKind::WriteBack.class(), MsgClass::Block);
        assert_eq!(MsgKind::MemUpdate.class(), MsgClass::Block);
    }

    #[test]
    fn slot_fit() {
        let msg = |kind, block| {
            RingMessage::new(kind, BlockAddr::new(block), NodeId::new(0), NodeId::new(1))
        };
        let even_probe = msg(MsgKind::SnoopRead, 2);
        assert!(even_probe.fits(SlotKind::ProbeEven) && even_probe.fits(SlotKind::ProbeAny));
        assert!(!even_probe.fits(SlotKind::ProbeOdd) && !even_probe.fits(SlotKind::Block));
        assert!(msg(MsgKind::DirAck, 3).fits(SlotKind::ProbeOdd));
        let data = msg(MsgKind::BlockData, 2);
        assert!(data.fits(SlotKind::Block));
        assert!(!data.fits(SlotKind::ProbeEven) && !data.fits(SlotKind::ProbeAny));
    }

    #[test]
    fn routing_predicates() {
        assert!(MsgKind::SnoopUpgrade.returns_to_source());
        assert!(MsgKind::DirInval.returns_to_source());
        assert!(!MsgKind::DirRead.returns_to_source());
        assert!(!MsgKind::BlockData.is_snoop_probe());
    }

    #[test]
    fn constructors() {
        let m = RingMessage::for_requester(
            MsgKind::DirFwdRead,
            BlockAddr::new(1),
            NodeId::new(0),
            NodeId::new(3),
            NodeId::new(5),
        );
        assert_eq!(m.requester, NodeId::new(5));
        assert_eq!(m.to_string(), "dir-fwd-read B0x1 P0→P3 (req P5)");
    }
}
