//! Synthetic workload generation and trace characterisation.
//!
//! The paper drives its evaluation with address traces of six parallel
//! programs. Those traces are not distributable, so this crate provides the
//! documented substitution (see `DESIGN.md`): a deterministic stochastic
//! reference generator whose knobs map onto the published per-trace
//! statistics, plus the untimed coherent interpreter used to characterise
//! workloads (Table 2) and to replay Table 1's full-map column.
//!
//! * [`WorkloadSpec`] — the generator's parameter set,
//! * [`Benchmark`] — calibrated specs for the paper's 12 configurations,
//! * [`Workload`] / [`NodeStream`] — per-processor reference streams,
//! * [`AddressSpace`] — region layout and home-node placement,
//! * [`RefInterpreter`] / [`characterize`] — the zero-latency coherent
//!   reference semantics and Table 2-style reporting; [`Transaction`] is
//!   what each miss or upgrade found, which Table 1 turns into traversals.
//!
//! # Examples
//!
//! ```
//! use ringsim_trace::{characterize, Benchmark};
//!
//! let spec = Benchmark::Mp3d.spec(8).unwrap().with_refs(5_000);
//! let ch = characterize(&spec).unwrap();
//! assert!(ch.events.shared_miss_rate() > ch.events.private_miss_rate());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench_specs;
mod file;
mod gen;
mod interp;
mod space;
mod spec;

pub use bench_specs::{Benchmark, DEFAULT_REFS_PER_PROC, DEFAULT_WARMUP_PER_PROC};
pub use file::RecordedTrace;
pub use gen::{NodeStream, Workload};
pub use interp::{characterize, Characteristics, RefInterpreter, Transaction};
pub use space::{AddressSpace, BLOCK_BYTES, PAGE_BYTES};
pub use spec::{WorkloadSpec, WorkloadSpecBuilder};
