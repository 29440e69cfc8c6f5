//! The backend-neutral [`Simulator`] trait and its [`SimKind`] registry —
//! the one dispatch behind every CLI and experiment run.
//!
//! The paper's central method is running the *same* workloads through
//! interchangeable interconnects and comparing curves. A backend is:
//! implement [`Simulator`], register a [`SimKind`], done — `sim --network
//! {ring,bus,hier}` is one dispatch, and so is the experiment suite's
//! per-point execution.
//!
//! A run is a single call: [`Simulator::run`] takes [`RunOptions`] — the
//! telemetry and sanitizer request of this one run — and returns a
//! [`RunOutcome`] bundling the [`SimReport`] with the recorder it asked
//! for. Nothing reaches a run except through its options: a caller that
//! wants metrics folded somewhere folds the outcome itself.

use std::fmt;
use std::str::FromStr;

use ringsim_obs::{ObsConfig, Recorder};
use ringsim_proto::ProtocolKind;
use ringsim_ring::RingTopology;
use ringsim_trace::Workload;
use ringsim_types::{ConfigError, Time};

use crate::bus_system::{BusProtocol, BusSystem, BusSystemConfig};
use crate::config::SystemConfig;
use crate::hier_net::{HierNetConfig, HierNetSim};
use crate::report::SimReport;
use crate::ring_system::RingSystem;
use crate::sci_system::{SciRingSystem, SciSystemConfig};

/// What a [`Simulator::run`] call should do beyond producing its report.
///
/// `RunOptions::default()` is a plain run: no recorder, and the coherence
/// sanitizer only in debug builds.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Telemetry to record during the run: per-transaction trace events
    /// plus gauge timelines. Strictly observational — attaching obs must
    /// not change any simulation result. `Some` makes the outcome carry a
    /// [`Recorder`].
    pub obs: Option<ObsConfig>,
    /// Forces the runtime coherence sanitizer on in release builds too
    /// (debug builds always check). Strictly observational as well.
    pub sanitize: bool,
}

impl RunOptions {
    /// Options for a plain run (no recorder returned).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests telemetry: the outcome's `obs` will hold the recorder.
    #[must_use]
    pub fn with_obs(mut self, cfg: ObsConfig) -> Self {
        self.obs = Some(cfg);
        self
    }
}

/// Everything one simulator run produces.
#[derive(Debug)]
pub struct RunOutcome {
    /// The aggregated simulation report.
    pub report: SimReport,
    /// The telemetry recorder; `Some` exactly when the run was given
    /// [`RunOptions`] with `obs` set.
    pub obs: Option<Recorder>,
}

/// A timed system simulator: configure at construction, then run to
/// completion with a single [`Simulator::run`] call.
///
/// The contract:
///
/// 1. construction validates the configuration (`SimKind::build`),
/// 2. [`Simulator::run`] runs to completion and is not required to be
///    re-runnable; it returns the report plus — when `opts.obs` was set —
///    the telemetry recorder,
/// 3. the run touches no state outside the simulator: what it records
///    goes back to the caller in the outcome.
pub trait Simulator {
    /// Runs the simulation to completion and collects the outcome.
    fn run(&mut self, opts: &RunOptions) -> RunOutcome;
}

/// Ring-tree depth for the hierarchy backends, the sweepable topology
/// axis: a flat ring, the classic two-level hierarchy, or a three-level
/// tree of ring groups — all balanced factorisations of the processor
/// count (see [`RingTopology::balanced`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierTopology {
    /// One flat slotted ring (no bridges).
    Flat,
    /// Leaf rings under one global ring (the classic hierarchy).
    TwoLevel,
    /// Leaf rings under group rings under one root ring.
    ThreeLevel,
}

impl HierTopology {
    /// Every topology, in CLI listing order.
    pub const ALL: [HierTopology; 3] =
        [HierTopology::Flat, HierTopology::TwoLevel, HierTopology::ThreeLevel];

    /// Canonical CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            HierTopology::Flat => "flat",
            HierTopology::TwoLevel => "2level",
            HierTopology::ThreeLevel => "3level",
        }
    }

    /// Number of ring-tree levels.
    #[must_use]
    pub fn levels(self) -> usize {
        match self {
            HierTopology::Flat => 1,
            HierTopology::TwoLevel => 2,
            HierTopology::ThreeLevel => 3,
        }
    }
}

impl fmt::Display for HierTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Accepts the canonical names `flat`, `2level` and `3level` (plus the
/// spelled-out `two-level`/`three-level`).
impl FromStr for HierTopology {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "flat" => Ok(HierTopology::Flat),
            "2level" | "two-level" => Ok(HierTopology::TwoLevel),
            "3level" | "three-level" => Ok(HierTopology::ThreeLevel),
            _ => Err(ConfigError::new(
                "topology",
                format!("unknown topology `{s}` (known: flat, 2level, 3level)"),
            )),
        }
    }
}

/// The backend-neutral simulation request a [`SimKind`] builds from: the
/// workload to run plus the knobs every backend understands.
#[derive(Debug, Clone)]
pub struct SimSpec {
    /// Coherence protocol for the slotted-ring backends. The other kinds
    /// carry their protocol in the kind itself (`bus50-mesi`, `sci500`, …)
    /// and ignore this field; the hierarchy backend abstracts the protocol
    /// level away.
    pub protocol: ProtocolKind,
    /// Processor cycle time.
    pub proc_cycle: Time,
    /// Ring-tree depth override for the hierarchy backends (`None` keeps
    /// the kind's default: two levels for `hier`/`hier-deflect`, three for
    /// `hier3`). Ignored by the non-hierarchy kinds.
    pub topology: Option<HierTopology>,
    /// Bridge buffer depth override for the hierarchy backends (`None`
    /// keeps the kind's default: unbounded classic queues, except
    /// `hier-deflect` which defaults to 2-entry deflecting bridges).
    /// Ignored by the non-hierarchy kinds.
    pub bridge_buffer: Option<usize>,
    /// The workload to drive through the interconnect.
    pub workload: Workload,
}

impl SimSpec {
    /// A spec with the paper's defaults: snooping at 50 MIPS (20 ns).
    #[must_use]
    pub fn new(workload: Workload) -> Self {
        Self {
            protocol: ProtocolKind::Snooping,
            proc_cycle: Time::from_ns(20),
            topology: None,
            bridge_buffer: None,
            workload,
        }
    }

    /// Sets the coherence protocol.
    #[must_use]
    pub fn with_protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = protocol;
        self
    }

    /// Sets the processor cycle time.
    #[must_use]
    pub fn with_proc_cycle(mut self, proc_cycle: Time) -> Self {
        self.proc_cycle = proc_cycle;
        self
    }

    /// Overrides the hierarchy backends' ring-tree depth.
    #[must_use]
    pub fn with_topology(mut self, topology: HierTopology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Overrides the hierarchy backends' bridge buffer depth (switches
    /// `hier`/`hier3` into deflection mode; 0 = bufferless latch).
    #[must_use]
    pub fn with_bridge_buffer(mut self, depth: usize) -> Self {
        self.bridge_buffer = Some(depth);
        self
    }
}

/// Registry of the interconnect backends, mirroring the sweep crate's
/// experiment registry: every backend the CLIs can name is one variant,
/// buildable from one [`SimSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// 32-bit slotted ring clocked at 500 MHz.
    Ring500,
    /// 32-bit slotted ring clocked at 250 MHz.
    Ring250,
    /// 64-bit split-transaction bus at 50 MHz.
    Bus50,
    /// 64-bit split-transaction bus at 100 MHz.
    Bus100,
    /// 64-bit 50 MHz bus running 4-state MESI (clean-exclusive fills,
    /// silent E→M promotion).
    Bus50Mesi,
    /// 64-bit 50 MHz bus running the Dragon write-update protocol.
    Bus50Dragon,
    /// SCI linked-list-directory ring at 500 MHz.
    Sci500,
    /// SCI linked-list-directory ring at 250 MHz.
    Sci250,
    /// Slotted-ring hierarchy (message-level, KSR1-style bridges;
    /// two-level by default, topology overridable).
    Hier,
    /// Three-level slotted-ring hierarchy (leaf rings under group rings
    /// under one root ring).
    Hier3,
    /// Two-level hierarchy with HiRD-style deflecting bridges (2-entry
    /// buffers by default; losers of bridge arbitration re-circulate).
    HierDeflect,
}

impl SimKind {
    /// Every registered backend, in CLI listing order.
    pub const ALL: [SimKind; 11] = [
        SimKind::Ring500,
        SimKind::Ring250,
        SimKind::Bus50,
        SimKind::Bus100,
        SimKind::Bus50Mesi,
        SimKind::Bus50Dragon,
        SimKind::Sci500,
        SimKind::Sci250,
        SimKind::Hier,
        SimKind::Hier3,
        SimKind::HierDeflect,
    ];

    /// Canonical CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SimKind::Ring500 => "ring500",
            SimKind::Ring250 => "ring250",
            SimKind::Bus50 => "bus50",
            SimKind::Bus100 => "bus100",
            SimKind::Bus50Mesi => "bus50-mesi",
            SimKind::Bus50Dragon => "bus50-dragon",
            SimKind::Sci500 => "sci500",
            SimKind::Sci250 => "sci250",
            SimKind::Hier => "hier",
            SimKind::Hier3 => "hier3",
            SimKind::HierDeflect => "hier-deflect",
        }
    }

    /// Whether this kind runs the hierarchy network engine (and therefore
    /// honours [`SimSpec::topology`]/[`SimSpec::bridge_buffer`] and lacks
    /// a reference-level replay trace).
    #[must_use]
    pub fn is_hier(self) -> bool {
        matches!(self, SimKind::Hier | SimKind::Hier3 | SimKind::HierDeflect)
    }

    /// One-line description for `--help`-style listings.
    #[must_use]
    pub fn description(self) -> &'static str {
        match self {
            SimKind::Ring500 => "32-bit slotted ring at 500 MHz",
            SimKind::Ring250 => "32-bit slotted ring at 250 MHz",
            SimKind::Bus50 => "64-bit split-transaction bus at 50 MHz",
            SimKind::Bus100 => "64-bit split-transaction bus at 100 MHz",
            SimKind::Bus50Mesi => "50 MHz bus running 4-state MESI",
            SimKind::Bus50Dragon => "50 MHz bus running Dragon write-update",
            SimKind::Sci500 => "SCI linked-list-directory ring at 500 MHz",
            SimKind::Sci250 => "SCI linked-list-directory ring at 250 MHz",
            SimKind::Hier => "slotted-ring hierarchy (two-level by default)",
            SimKind::Hier3 => "three-level slotted-ring hierarchy",
            SimKind::HierDeflect => "two-level hierarchy with deflecting bridges",
        }
    }

    /// Builds a ready-to-run simulator for this backend from `spec`.
    ///
    /// The hierarchy backends derive their ring tree from the processor
    /// count (the most balanced factorisation at the requested depth — see
    /// [`RingTopology::balanced`]) and their per-node transaction budget
    /// from the workload's reference budget; [`SimSpec::topology`] and
    /// [`SimSpec::bridge_buffer`] override the per-kind defaults.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the configuration is invalid for the
    /// backend (e.g. a prime processor count for `hier`).
    pub fn build(self, spec: &SimSpec) -> Result<Box<dyn Simulator>, ConfigError> {
        let procs = spec.workload.procs();
        Ok(match self {
            SimKind::Ring500 | SimKind::Ring250 => {
                let cfg = match self {
                    SimKind::Ring500 => SystemConfig::ring_500mhz(spec.protocol, procs),
                    _ => SystemConfig::ring_250mhz(spec.protocol, procs),
                }
                .with_proc_cycle(spec.proc_cycle);
                Box::new(RingSystem::new(cfg, spec.workload.clone())?)
            }
            SimKind::Bus50 | SimKind::Bus100 | SimKind::Bus50Mesi | SimKind::Bus50Dragon => {
                let cfg = match self {
                    SimKind::Bus100 => BusSystemConfig::bus_100mhz(procs),
                    _ => BusSystemConfig::bus_50mhz(procs),
                }
                .with_protocol(match self {
                    SimKind::Bus50Mesi => BusProtocol::Mesi,
                    SimKind::Bus50Dragon => BusProtocol::Dragon,
                    _ => BusProtocol::Msi,
                })
                .with_proc_cycle(spec.proc_cycle);
                Box::new(BusSystem::new(cfg, spec.workload.clone())?)
            }
            SimKind::Sci500 | SimKind::Sci250 => {
                let cfg = match self {
                    SimKind::Sci500 => SciSystemConfig::sci_500mhz(procs),
                    _ => SciSystemConfig::sci_250mhz(procs),
                }
                .with_proc_cycle(spec.proc_cycle);
                Box::new(SciRingSystem::new(cfg, spec.workload.clone())?)
            }
            SimKind::Hier | SimKind::Hier3 | SimKind::HierDeflect => {
                let levels = spec
                    .topology
                    .map_or(if self == SimKind::Hier3 { 3 } else { 2 }, HierTopology::levels);
                let topo = RingTopology::balanced(levels, procs)?;
                // The hierarchy workload is closed-loop (think → transact →
                // wait), so map the reference budget onto a transaction
                // budget: one coherence transaction per ~50 references
                // keeps the default budgets comparable across backends.
                let budget = topo.txn_budget(spec.workload.spec().data_refs_per_proc);
                let mut cfg = HierNetConfig::new(topo);
                cfg.txns_per_node = budget;
                cfg.bridge_buffer = spec.bridge_buffer.or(if self == SimKind::HierDeflect {
                    Some(2)
                } else {
                    None
                });
                Box::new(HierNetSim::new(cfg)?)
            }
        })
    }
}

/// Why a network name failed to resolve to a [`SimKind`].
///
/// Produced by the [`FromStr`] impl; CLIs and the experiment service
/// surface the [`fmt::Display`] rendering directly (it names the valid
/// spellings), and can dispatch on the variant for structured responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimKindError {
    /// The name matches no registered backend and no documented alias.
    Unknown {
        /// The offending input.
        name: String,
    },
    /// The name is a strict prefix of several backend names (e.g. `bu`),
    /// so resolving it would silently guess.
    Ambiguous {
        /// The offending input.
        name: String,
        /// The backend names it could mean, in registry order.
        candidates: Vec<&'static str>,
    },
}

impl SimKindError {
    /// The offending input.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            SimKindError::Unknown { name } | SimKindError::Ambiguous { name, .. } => name,
        }
    }

    /// Comma-separated canonical names, for error texts and listings.
    #[must_use]
    pub fn known_names() -> String {
        let names: Vec<&str> = SimKind::ALL.iter().map(|k| k.name()).collect();
        names.join(", ")
    }
}

impl fmt::Display for SimKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimKindError::Unknown { name } => write!(
                f,
                "unknown network `{name}` (known: {}; aliases: ring, bus, mesi, dragon, sci, \
                 hiernet)",
                SimKindError::known_names()
            ),
            SimKindError::Ambiguous { name, candidates } => {
                write!(f, "ambiguous network `{name}`: could be {}", candidates.join(" or "))
            }
        }
    }
}

impl std::error::Error for SimKindError {}

/// Typed network-name resolution: canonical names plus the documented
/// aliases `ring` (→ `ring500`), `bus` (→ `bus100`), `sci` (→ `sci500`)
/// and `hiernet` (→ `hier`). Other prefixes are rejected — with
/// [`SimKindError::Ambiguous`] when several backends match, so callers can
/// suggest the candidates instead of guessing.
impl FromStr for SimKind {
    type Err = SimKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ring500" | "ring" => Ok(SimKind::Ring500),
            "ring250" => Ok(SimKind::Ring250),
            "bus50" => Ok(SimKind::Bus50),
            "bus100" | "bus" => Ok(SimKind::Bus100),
            "bus50-mesi" | "mesi" => Ok(SimKind::Bus50Mesi),
            "bus50-dragon" | "dragon" => Ok(SimKind::Bus50Dragon),
            "sci500" | "sci" => Ok(SimKind::Sci500),
            "sci250" => Ok(SimKind::Sci250),
            "hier" | "hiernet" => Ok(SimKind::Hier),
            "hier3" => Ok(SimKind::Hier3),
            "hier-deflect" => Ok(SimKind::HierDeflect),
            _ => {
                let candidates: Vec<&'static str> = SimKind::ALL
                    .iter()
                    .map(|k| k.name())
                    .filter(|n| !s.is_empty() && n.starts_with(s))
                    .collect();
                if candidates.len() >= 2 {
                    Err(SimKindError::Ambiguous { name: s.to_owned(), candidates })
                } else {
                    Err(SimKindError::Unknown { name: s.to_owned() })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use ringsim_trace::{Workload, WorkloadSpec};

    use super::*;

    fn workload(procs: usize, refs: u64) -> Workload {
        Workload::new(WorkloadSpec::demo(procs).with_refs(refs)).unwrap()
    }

    #[test]
    fn registry_round_trips_names() {
        for kind in SimKind::ALL {
            assert_eq!(kind.name().parse::<SimKind>(), Ok(kind));
            assert!(!kind.description().is_empty());
        }
        assert_eq!("ring".parse::<SimKind>(), Ok(SimKind::Ring500));
        assert_eq!("bus".parse::<SimKind>(), Ok(SimKind::Bus100));
        assert_eq!("mesi".parse::<SimKind>(), Ok(SimKind::Bus50Mesi));
        assert_eq!("dragon".parse::<SimKind>(), Ok(SimKind::Bus50Dragon));
        assert_eq!("sci".parse::<SimKind>(), Ok(SimKind::Sci500));
        assert_eq!("hiernet".parse::<SimKind>(), Ok(SimKind::Hier));
    }

    #[test]
    fn hier_prefixes_stay_unambiguous_in_the_grown_registry() {
        // `hier` is an exact name, so growing the registry with `hier3`
        // and `hier-deflect` must not break it …
        assert_eq!("hier".parse::<SimKind>(), Ok(SimKind::Hier));
        assert_eq!("hier3".parse::<SimKind>(), Ok(SimKind::Hier3));
        assert_eq!("hier-deflect".parse::<SimKind>(), Ok(SimKind::HierDeflect));
        // … while a strict prefix of several hierarchy kinds is reported
        // with all its candidates instead of silently guessing.
        let err = "hie".parse::<SimKind>().unwrap_err();
        assert_eq!(
            err,
            SimKindError::Ambiguous {
                name: "hie".into(),
                candidates: vec!["hier", "hier3", "hier-deflect"],
            }
        );
        // A unique prefix is still not a name.
        assert_eq!("hier-".parse::<SimKind>(), Err(SimKindError::Unknown { name: "hier-".into() }));
    }

    #[test]
    fn topology_names_round_trip() {
        for topo in HierTopology::ALL {
            assert_eq!(topo.name().parse::<HierTopology>(), Ok(topo));
        }
        assert_eq!("two-level".parse::<HierTopology>(), Ok(HierTopology::TwoLevel));
        assert!("4level".parse::<HierTopology>().is_err());
    }

    #[test]
    fn from_str_errors_are_typed() {
        let err = "token-ring".parse::<SimKind>().unwrap_err();
        assert_eq!(err, SimKindError::Unknown { name: "token-ring".into() });
        assert!(
            err.to_string().contains(
                "ring500, ring250, bus50, bus100, bus50-mesi, bus50-dragon, sci500, sci250, \
                 hier, hier3, hier-deflect"
            ),
            "{err}"
        );

        // The ambiguity listing must include the protocol-variant kinds:
        // `bu` could mean any of the four bus backends.
        let err = "bu".parse::<SimKind>().unwrap_err();
        assert_eq!(
            err,
            SimKindError::Ambiguous {
                name: "bu".into(),
                candidates: vec!["bus50", "bus100", "bus50-mesi", "bus50-dragon"],
            }
        );
        assert!(err.to_string().contains("bus50 or bus100 or bus50-mesi or bus50-dragon"), "{err}");

        let err = "s".parse::<SimKind>().unwrap_err();
        assert_eq!(
            err,
            SimKindError::Ambiguous { name: "s".into(), candidates: vec!["sci500", "sci250"] }
        );

        // A unique prefix is still not a name: resolution never guesses.
        assert_eq!("ring2".parse::<SimKind>(), Err(SimKindError::Unknown { name: "ring2".into() }));
        assert_eq!("".parse::<SimKind>(), Err(SimKindError::Unknown { name: String::new() }));
    }

    #[test]
    fn every_backend_runs_through_the_trait() {
        // 8 processors factor at every hierarchy depth (8 = 4×2 = 2×2×2).
        for kind in SimKind::ALL {
            let spec = SimSpec::new(workload(8, 1_000));
            let mut sim = kind.build(&spec).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            let outcome = sim.run(&RunOptions::default());
            assert!(outcome.obs.is_none());
            assert_eq!(outcome.report.nodes, 8);
            assert!(outcome.report.sim_end > Time::ZERO, "{}", kind.name());
            assert!(outcome.report.miss_histogram.count() > 0, "{}", kind.name());
        }
    }

    #[test]
    fn spec_overrides_reach_the_hierarchy_backend() {
        // A flat-topology override on `hier` runs a single 16-node ring:
        // nothing above the leaves, so nothing is ever deflected or
        // crosses a bridge.
        let spec = SimSpec::new(workload(16, 500)).with_topology(HierTopology::Flat);
        let outcome = SimKind::Hier.build(&spec).unwrap().run(&RunOptions::default());
        assert_eq!(outcome.report.nodes, 16);
        assert!(outcome.report.block_util == 0.0, "flat has no upper rings");
        // `hier-deflect` reports its deflections through `retries`; the
        // plain kinds must stay at zero.
        let spec = SimSpec::new(workload(16, 500));
        let plain = SimKind::Hier.build(&spec).unwrap().run(&RunOptions::default());
        assert_eq!(plain.report.retries, 0);
        // A bufferless override is accepted and still completes.
        let spec = SimSpec::new(workload(16, 500)).with_bridge_buffer(0);
        let tight = SimKind::Hier.build(&spec).unwrap().run(&RunOptions::default());
        assert_eq!(tight.report.nodes, 16);
    }

    #[test]
    fn explicit_obs_returns_a_recorder() {
        let spec = SimSpec::new(workload(4, 500));
        let mut sim = SimKind::Hier.build(&spec).unwrap();
        let outcome = sim.run(&RunOptions::new().with_obs(ObsConfig::default()));
        let rec = outcome.obs.expect("recorder");
        assert!(!rec.timelines.is_empty());
    }
}
