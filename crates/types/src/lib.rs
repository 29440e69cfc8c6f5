//! Shared vocabulary types for the `ringsim` simulator family.
//!
//! This crate defines the small, dependency-free building blocks used by
//! every other crate in the workspace:
//!
//! * [`NodeId`] — identity of a processing element on the ring or bus,
//! * [`Addr`] / [`BlockAddr`] / [`PageAddr`] — physical addresses at byte,
//!   cache-block and page granularity,
//! * [`Time`] — simulated time in integer picoseconds,
//! * [`AccessKind`] / [`MemRef`] — memory-reference vocabulary shared by the
//!   trace generator and the simulators,
//! * [`rng`] — a small deterministic PRNG ([`rng::Xoshiro256`]) so that every
//!   simulation is exactly reproducible across platforms,
//! * [`CoherenceEvents`] — the Figure 5 event buckets, filled by one
//!   classifier, [`CoherenceEvents::record`],
//! * [`stats`] — the running mean used for latency and delay metrics,
//! * [`fnv1a`] / [`FnvMap`] — the FNV-1a hash for digests and block-keyed
//!   maps,
//! * [`par`] — the ordered worker pool the sweep engine and the model
//!   checker run on.
//!
//! # Examples
//!
//! ```
//! use ringsim_types::{Addr, BlockAddr, NodeId, Time};
//!
//! let addr = Addr::new(0x1234);
//! let block = addr.block(16);
//! assert_eq!(block, BlockAddr::new(0x123));
//! assert!(!block.is_even());
//!
//! let t = Time::from_ns(140);
//! assert_eq!(t.as_ps(), 140_000);
//! assert_eq!(NodeId::new(3).index(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod error;
mod events;
mod hash;
mod ids;
mod mem;
pub mod par;
pub mod rng;
pub mod stats;
mod time;

pub use addr::{Addr, BlockAddr, PageAddr};
pub use error::ConfigError;
pub use events::{CoherenceEvents, CoherenceOp, DirtySplit};
pub use hash::{fnv1a, FnvBuildHasher, FnvHasher, FnvMap};
pub use ids::NodeId;
pub use mem::{AccessKind, MemRef, Region};
pub use time::Time;
