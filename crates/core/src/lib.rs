//! The assembled timed simulators: processors + caches + coherence protocol
//! + interconnect, driven by synthetic workloads.
//!
//! This crate is the paper's primary artifact: the evaluation machinery for
//! cache-coherent slotted-ring multiprocessors. It contains
//!
//! * [`SystemConfig`] — one struct describing an entire ring system,
//! * [`RingSystem`] — the cycle-stepped slotted-ring simulator running
//!   either the snooping or the full-map directory protocol,
//! * [`SimReport`] — processor utilisation, ring utilisation and miss
//!   latencies in the paper's terms.
//!
//! The split-transaction-bus baseline lives in `ringsim-bus` and its system
//! simulator is [`BusSystem`]; the analytical models that extrapolate
//! simulator outputs across the design space live in `ringsim-analytic`.
//!
//! # Examples
//!
//! ```
//! use ringsim_core::{RingSystem, SystemConfig};
//! use ringsim_proto::ProtocolKind;
//! use ringsim_trace::{Workload, WorkloadSpec};
//!
//! let cfg = SystemConfig::ring_500mhz(ProtocolKind::Directory, 4);
//! let workload = Workload::new(WorkloadSpec::demo(4).with_refs(2_000)).unwrap();
//! let report = RingSystem::new(cfg, workload).unwrap().run();
//! println!("processor utilisation: {:.1}%", 100.0 * report.proc_util);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access_net;
mod bus_system;
mod config;
mod engine;
mod front_end;
mod hier_net;
mod report;
mod ring_system;
mod sanitize;
mod sci_system;
mod simulator;

pub use access_net::{AccessNetConfig, AccessNetReport, InsertionNetSim, SlottedNetSim};
pub use bus_system::{BusSystem, BusSystemConfig};
pub use config::SystemConfig;
pub use engine::EventQueue;
pub use hier_net::{HierNetConfig, HierNetReport, HierNetSim};
pub use report::{summarize_nodes, ClassLatencies, NodeMeasure, NodeSummary, SimReport};
pub use ring_system::RingSystem;
pub use sci_system::{SciRingSystem, SciSystemConfig};
pub use simulator::{
    HierTopology, RunOptions, RunOutcome, SimKind, SimKindError, SimSpec, Simulator,
};
