//! The unidirectional slotted ring interconnect (paper §2).
//!
//! A slotted ring divides its circulating pipeline stages into fixed-size
//! message slots grouped into *frames*. The paper's frame holds one probe
//! slot for even-numbered blocks, one probe slot for odd-numbered blocks and
//! one block slot; with 32-bit links and 16-byte cache blocks a frame is 10
//! stages — 20 ns at 500 MHz — which is exactly the snooping inter-arrival
//! constraint of Table 3.
//!
//! The crate is split into:
//!
//! * [`RingConfig`] — physical parameters (link width, clock, slot mix),
//! * [`RingLayout`] — derived geometry: stage counts, slot positions, node
//!   positions, distance and traversal arithmetic,
//! * [`SlotRing`] — the cycle-stepped slot machine that the system simulator
//!   drives: per ring cycle, each node may observe the slot header arriving
//!   at its interface, snoop it, remove it, or claim it for transmission.
//!
//! The ring is generic over the message payload `M`; coherence semantics
//! live in `ringsim-proto`.
//!
//! # Examples
//!
//! ```
//! use ringsim_ring::{RingConfig, SlotRing, SlotKind};
//! use ringsim_types::NodeId;
//!
//! let cfg = RingConfig::standard_500mhz(8);
//! let layout = cfg.layout().unwrap();
//! assert_eq!(layout.stages(), 30);             // 24 node stages padded to 3 frames
//! assert_eq!(layout.round_trip_cycles(), 30);  // 60 ns at 2 ns/cycle
//!
//! let mut ring: SlotRing<&'static str> = SlotRing::new(cfg).unwrap();
//! // Find the first cycle at which a probe slot header reaches node 0 and use it.
//! let node = NodeId::new(0);
//! loop {
//!     if let Some(slot) = ring.arrival(node) {
//!         if ring.kind_of(slot) != SlotKind::Block && ring.try_insert(slot, node, "probe").is_ok() {
//!             break;
//!         }
//!     }
//!     ring.advance();
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod layout;
mod ring;
pub mod topology;

pub use config::{Parity, RingConfig};
pub use layout::{RingLayout, SlotId, SlotKind, SlotSpec};
pub use ring::{InsertError, RingStats, SlotRing};
pub use topology::RingTopology;
