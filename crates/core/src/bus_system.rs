//! The timed split-transaction-bus system simulator (the paper's baseline,
//! §4.3): the same processors, caches and workloads as the ring simulator,
//! attached to a FIFO-arbitrated snooping bus.
//!
//! Unlike the ring — where messages are physically in flight and conflicts
//! need acks, retries and home-side locks — the bus serialises every
//! coherence transaction at its address phase. The simulator exploits that:
//! snoop resolution and cache-state updates are applied *atomically* at the
//! end of each request phase (the canonical serialisation point of bus
//! snooping), while data delivery and processor wake-up keep their real
//! latencies (memory fetch, response-phase arbitration and transfer).

use ringsim_bus::{Bus, BusConfig, PhaseKind};
use ringsim_cache::{AccessClass, Cache, CacheConfig, LineState};
use ringsim_obs::{LatencyHistogram, Obs};
use ringsim_proto::guarded;
use ringsim_proto::transitions::{BusOp, DragonAction, MesiAction};
use ringsim_trace::{AddressSpace, NodeStream, Workload, BLOCK_BYTES};
use ringsim_types::stats::RunningMean;
use ringsim_types::{
    AccessKind, BlockAddr, CoherenceEvents, ConfigError, FnvMap, NodeId, Region, Time,
};

use crate::report::{ClassLatencies, NodeMeasure, SimReport};
use crate::sanitize;
use crate::simulator::{RunOptions, RunOutcome, Simulator};

/// Windowed-accumulator slot for bus arbitration wait (see [`Obs::acc_add`]).
const ACC_ARB_WAIT: usize = 0;

/// Which coherence protocol the snooping bus runs.
///
/// All three share the arbitration, timing and event machinery of
/// [`BusSystem`]; they differ only in what the snoop does at the
/// serialisation point. MESI and Dragon dispatch every such decision
/// through the guarded rule sets in [`ringsim_proto::guarded`] — the same
/// tables the `ringsim-check` model checker exhausts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BusProtocol {
    /// The paper's 3-state write-invalidate protocol (MSI).
    #[default]
    Msi,
    /// 4-state MESI: read misses with no other cached copy fill
    /// clean-exclusive, and a later write hit promotes to modified
    /// silently — no bus transaction at all.
    Mesi,
    /// Dragon write-update: writes to shared lines broadcast the new word
    /// instead of invalidating, so copies stay valid and the writer
    /// becomes the shared-modified supplier.
    Dragon,
}

/// Configuration of a bus-based system.
///
/// # Examples
///
/// ```
/// use ringsim_core::BusSystemConfig;
/// use ringsim_types::Time;
///
/// let cfg = BusSystemConfig::bus_100mhz(16).with_mips(100);
/// cfg.validate().unwrap();
/// assert_eq!(cfg.proc_cycle, Time::from_ns(10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusSystemConfig {
    /// Bus parameters.
    pub bus: BusConfig,
    /// Per-processor cache geometry.
    pub cache: CacheConfig,
    /// Processor cycle time.
    pub proc_cycle: Time,
    /// Local memory bank access time (140 ns in the paper).
    pub mem_latency: Time,
    /// Dirty-cache supply time.
    pub supply_latency: Time,
    /// Coherence protocol variant the snoop runs.
    pub protocol: BusProtocol,
}

impl BusSystemConfig {
    /// The paper's 50 MHz 64-bit bus with default caches and 50 MIPS
    /// processors.
    #[must_use]
    pub fn bus_50mhz(nodes: usize) -> Self {
        Self {
            bus: BusConfig::bus_50mhz(nodes),
            cache: CacheConfig::paper_default(),
            proc_cycle: Time::from_ns(20),
            mem_latency: Time::from_ns(140),
            supply_latency: Time::from_ns(140),
            protocol: BusProtocol::Msi,
        }
    }

    /// The paper's 100 MHz 64-bit bus.
    #[must_use]
    pub fn bus_100mhz(nodes: usize) -> Self {
        Self { bus: BusConfig::bus_100mhz(nodes), ..Self::bus_50mhz(nodes) }
    }

    /// Number of nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.bus.nodes
    }

    /// Builder-style processor cycle override.
    #[must_use]
    pub fn with_proc_cycle(mut self, proc_cycle: Time) -> Self {
        self.proc_cycle = proc_cycle;
        self
    }

    /// Builder-style protocol override.
    #[must_use]
    pub fn with_protocol(mut self, protocol: BusProtocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Builder-style MIPS override.
    ///
    /// # Panics
    ///
    /// Panics if `mips` is zero.
    #[must_use]
    pub fn with_mips(self, mips: u64) -> Self {
        assert!(mips > 0, "mips must be positive");
        self.with_proc_cycle(Time::from_ps(1_000_000 / mips))
    }

    /// Validates all parts.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.bus.validate()?;
        self.cache.validate()?;
        if self.bus.nodes > 64 {
            return Err(ConfigError::new("bus.nodes", "at most 64 nodes supported"));
        }
        if self.proc_cycle.is_zero() || self.mem_latency.is_zero() || self.supply_latency.is_zero()
        {
            return Err(ConfigError::new("timing", "all latencies must be non-zero"));
        }
        if self.cache.block_bytes != self.bus.block_bytes {
            return Err(ConfigError::new(
                "cache.block_bytes",
                "must match bus.block_bytes (one block per response)",
            ));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnKind {
    Read,
    Write,
    Upgrade,
}

#[derive(Debug, Clone, Copy)]
struct Txn {
    block: BlockAddr,
    kind: TxnKind,
    region: Region,
    start: Time,
    /// Set at the serialisation point: how the miss was served.
    served: Served,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Served {
    Pending,
    Local,
    CleanRemote,
    Dirty,
}

#[derive(Debug)]
struct BusNode {
    stream: NodeStream,
    cache: Cache,
    ready_at: Time,
    instr_carry: f64,
    refs_issued: u64,
    warmup_refs: u64,
    total_refs: u64,
    measuring: bool,
    measure_start: Time,
    busy: Time,
    finish_at: Option<Time>,
    txn: Option<Txn>,
    misses: u64,
    miss_lat: LatencyHistogram,
    /// MESI/Dragon: blocks this node holds clean-exclusive (E) — the cache
    /// line is `We`, but the data was never written and memory is still up
    /// to date. Always empty under MSI.
    excl: FnvMap<u64, ()>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Resume the processor's issue loop.
    ProcReady { node: usize },
    /// A miss's request/address phase completes: snoop resolution.
    RequestDone { node: usize },
    /// An invalidation (upgrade) address phase completes.
    UpgradeDone { node: usize },
    /// The blocked processor's transaction finishes.
    Complete { node: usize },
}

/// Quantum of lookahead (in time) a processor may run ahead of the global
/// event clock while it keeps hitting in its cache. Bounds the window in
/// which a fast-forwarded node could miss a remote invalidation.
const PROC_QUANTUM: Time = Time::from_ns(200);

/// Snooping-visible state of one block, merged so every bus transaction
/// resolves ownership, data timing and presence with one map lookup.
/// An absent entry reads as the defaults: unowned, data ready at time
/// zero, cached nowhere.
#[derive(Debug, Clone, Copy, Default)]
struct BlockState {
    /// Current write-exclusive holder (bus snooping resolves ownership
    /// instantly at the serialisation point).
    owner: Option<NodeId>,
    /// Earliest time the block's data is available at its current
    /// owner/home (covers data still in flight to a new owner).
    ready: Time,
    /// Bitmask of nodes that may hold a valid copy (bit `i` = node `i`;
    /// the ≤64-node limit makes one word enough). A superset of the
    /// truly-valid holders is sufficient: snooping a node whose line is
    /// already invalid is a no-op, so invalidation only needs to visit
    /// set bits instead of every node.
    present: u64,
}

/// The timed bus-based system simulator.
///
/// # Examples
///
/// ```
/// use ringsim_core::{BusSystem, BusSystemConfig};
/// use ringsim_trace::{Workload, WorkloadSpec};
///
/// let cfg = BusSystemConfig::bus_100mhz(4);
/// let workload = Workload::new(WorkloadSpec::demo(4).with_refs(2_000)).unwrap();
/// let report = BusSystem::new(cfg, workload).unwrap().run();
/// assert!(report.proc_util > 0.0);
/// ```
#[derive(Debug)]
pub struct BusSystem {
    cfg: BusSystemConfig,
    bus: Bus,
    nodes: Vec<BusNode>,
    space: AddressSpace,
    /// Per-block coherence directory, one entry per block the bus has
    /// touched (every consumer of ownership, data timing and presence pays
    /// for a single lookup per transaction).
    blocks: FnvMap<u64, BlockState>,
    /// Nodes past warm-up (measured-window check without a scan).
    measuring_nodes: usize,
    queue: crate::EventQueue<Event>,
    now: Time,
    miss_lat: RunningMean,
    miss_hist: LatencyHistogram,
    upg_lat: RunningMean,
    class_lat: ClassLatencies,
    events: CoherenceEvents,
    snapshot: Option<(ringsim_bus::BusStats, Time)>,
    // Telemetry (no-op unless a run asked for it).
    obs: Obs,
    obs_bus_tl: usize,
    obs_window: (ringsim_bus::BusStats, Time),
    /// Whether retire boundaries run the coherence sanitizer.
    sanitize: bool,
}

impl BusSystem {
    /// Builds the system.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the configuration is invalid or the
    /// workload's processor count does not match the bus's node count.
    pub fn new(cfg: BusSystemConfig, workload: Workload) -> Result<Self, ConfigError> {
        cfg.validate()?;
        if workload.procs() != cfg.nodes() {
            return Err(ConfigError::new(
                "workload.procs",
                format!("workload has {} processors, bus has {}", workload.procs(), cfg.nodes()),
            ));
        }
        let spec = workload.spec().clone();
        let space = workload.space();
        let bus = Bus::new(cfg.bus)?;
        let nodes = workload
            .into_streams()
            .into_iter()
            .map(|stream| {
                Ok(BusNode {
                    stream,
                    cache: Cache::new(cfg.cache)?,
                    ready_at: Time::ZERO,
                    instr_carry: 0.0,
                    refs_issued: 0,
                    warmup_refs: spec.warmup_refs_per_proc,
                    total_refs: spec.warmup_refs_per_proc + spec.data_refs_per_proc,
                    measuring: false,
                    measure_start: Time::ZERO,
                    busy: Time::ZERO,
                    finish_at: None,
                    txn: None,
                    misses: 0,
                    miss_lat: LatencyHistogram::new(),
                    excl: FnvMap::default(),
                })
            })
            .collect::<Result<Vec<_>, ConfigError>>()?;
        Ok(Self {
            cfg,
            bus,
            nodes,
            space,
            blocks: FnvMap::default(),
            measuring_nodes: 0,
            queue: crate::EventQueue::new(),
            now: Time::ZERO,
            miss_lat: RunningMean::default(),
            miss_hist: LatencyHistogram::new(),
            upg_lat: RunningMean::default(),
            class_lat: ClassLatencies::default(),
            events: CoherenceEvents::default(),
            snapshot: None,
            obs: Obs::disabled(),
            sanitize: sanitize::enabled(false),
            obs_bus_tl: usize::MAX,
            obs_window: (ringsim_bus::BusStats::default(), Time::ZERO),
        })
    }

    fn schedule(&mut self, at: Time, ev: Event) {
        self.queue.schedule(at, ev);
    }

    fn home_of(&self, block: BlockAddr) -> NodeId {
        self.space.home_of_block(block)
    }

    /// Runs to completion.
    pub fn run(&mut self) -> SimReport {
        for i in 0..self.nodes.len() {
            self.schedule(Time::ZERO, Event::ProcReady { node: i });
        }
        while let Some((t, ev)) = self.queue.pop() {
            self.now = t;
            match ev {
                Event::ProcReady { node } => self.step_processor(node),
                Event::RequestDone { node } => self.request_done(node),
                Event::UpgradeDone { node } => self.upgrade_done(node),
                Event::Complete { node } => self.complete(node),
            }
            if self.snapshot.is_none() && self.measuring_nodes == self.nodes.len() {
                self.snapshot = Some((self.bus.stats(), self.now));
            }
            if self.obs.sample_due(self.now) {
                self.sample_gauges();
            }
        }
        self.build_report()
    }

    /// Pushes one row onto the `"bus"` gauge timeline: busy fractions are
    /// deltas over the window since the previous sample, not run-to-date.
    fn sample_gauges(&mut self) {
        let stats = self.bus.stats();
        let (prev, since) = self.obs_window;
        let window = self.now.saturating_sub(since);
        let frac = |t: Time| {
            if window.is_zero() {
                0.0
            } else {
                (t.as_ps() as f64 / window.as_ps() as f64).min(1.0)
            }
        };
        let outstanding = self.nodes.iter().filter(|n| n.txn.is_some()).count() as f64;
        let arb_wait = self.obs.acc_take_mean(ACC_ARB_WAIT);
        let values = vec![
            frac(stats.busy.saturating_sub(prev.busy)),
            frac(stats.address_busy.saturating_sub(prev.address_busy)),
            frac(stats.data_busy.saturating_sub(prev.data_busy)),
            outstanding,
            arb_wait,
        ];
        self.obs.sample(self.obs_bus_tl, self.now, values);
        self.obs_window = (stats, self.now);
    }

    fn step_processor(&mut self, i: usize) {
        let horizon = self.now + PROC_QUANTUM;
        loop {
            let node = &mut self.nodes[i];
            if node.finish_at.is_some() || node.txn.is_some() {
                return;
            }
            if node.ready_at > horizon {
                let at = node.ready_at;
                self.schedule(at, Event::ProcReady { node: i });
                return;
            }
            if node.refs_issued == node.total_refs {
                node.finish_at = Some(node.ready_at);
                return;
            }
            let icycles = node.instr_carry + node.stream.instr_per_data();
            let whole = icycles.floor();
            node.instr_carry = icycles - whole;
            let cost = self.cfg.proc_cycle * (1 + whole as u64);
            if node.measuring {
                node.busy += cost;
            }
            node.ready_at += cost;
            let r = node.stream.next_ref();
            node.refs_issued += 1;
            if !node.measuring && node.refs_issued > node.warmup_refs {
                node.measuring = true;
                self.measuring_nodes += 1;
                node.measure_start = node.ready_at;
                node.busy = cost;
            }
            let block = r.addr.block(BLOCK_BYTES);
            let class = node.cache.classify(block, r.kind);
            if node.measuring {
                match (r.region, r.kind) {
                    (Region::Private, AccessKind::Read) => self.events.private_reads += 1,
                    (Region::Private, AccessKind::Write) => self.events.private_writes += 1,
                    (Region::Shared, AccessKind::Read) => self.events.shared_reads += 1,
                    (Region::Shared, AccessKind::Write) => self.events.shared_writes += 1,
                }
            }
            match class {
                AccessClass::Hit => {
                    // A write hit on a clean-exclusive line silently
                    // promotes it to modified — the E-state payoff: no bus
                    // transaction. The directory must still learn that the
                    // node is now the dirty owner, so the next remote miss
                    // snoops a cache supply instead of memory.
                    if self.cfg.protocol != BusProtocol::Msi
                        && r.kind == AccessKind::Write
                        && self.nodes[i].excl.remove(&block.raw()).is_some()
                        && r.region == Region::Shared
                    {
                        let silent = match self.cfg.protocol {
                            BusProtocol::Msi => unreachable!(),
                            BusProtocol::Mesi => {
                                guarded::mesi_action(BusOp::WriteExclusiveHit, false, false, None)
                                    == MesiAction::PromoteSilently
                            }
                            BusProtocol::Dragon => {
                                guarded::dragon_action(BusOp::WriteExclusiveHit, false, false, None)
                                    == DragonAction::PromoteSilently
                            }
                        };
                        debug_assert!(silent);
                        self.blocks.entry(block.raw()).or_default().owner = Some(NodeId::new(i));
                    }
                }
                AccessClass::Upgrade | AccessClass::Miss => {
                    let kind = match (class, r.kind) {
                        (AccessClass::Upgrade, _) => TxnKind::Upgrade,
                        (_, AccessKind::Read) => TxnKind::Read,
                        (_, AccessKind::Write) => TxnKind::Write,
                    };
                    let start = self.nodes[i].ready_at;
                    self.nodes[i].txn =
                        Some(Txn { block, kind, region: r.region, start, served: Served::Pending });
                    let op = match kind {
                        TxnKind::Read => "read",
                        TxnKind::Write => "write",
                        TxnKind::Upgrade => "upgrade",
                    };
                    self.obs.txn_begin(i, op, block.raw(), start);
                    // Arbitrate for the address phase.
                    let cycles = if kind == TxnKind::Upgrade {
                        self.cfg.bus.inval_cycles
                    } else {
                        self.cfg.bus.request_cycles
                    };
                    let (grant, end) = self.bus.acquire_kind(start, cycles, PhaseKind::Address);
                    self.obs.acc_add(ACC_ARB_WAIT, grant.saturating_sub(start).as_ns_f64());
                    self.obs.txn_mark(i, "arbitrate", grant);
                    let ev = if kind == TxnKind::Upgrade {
                        Event::UpgradeDone { node: i }
                    } else {
                        Event::RequestDone { node: i }
                    };
                    self.schedule(end, ev);
                    return;
                }
            }
        }
    }

    /// Invalidate every other cached copy of `block`; returns how many
    /// copies were dropped. Visits only the nodes in the block's presence
    /// mask (ascending order, matching the all-nodes scan it replaces).
    fn invalidate_others(&mut self, block: BlockAddr, except: usize) -> u64 {
        let mut count = 0;
        if let Some(b) = self.blocks.get_mut(&block.raw()) {
            let mut others = b.present & !(1u64 << except);
            b.present &= 1u64 << except; // only `except`'s copy (if any) survives
            if b.owner.is_some_and(|o| o.index() != except) {
                b.owner = None;
            }
            while others != 0 {
                let j = others.trailing_zeros() as usize;
                others &= others - 1;
                if self.nodes[j].cache.snoop_invalidate(block).is_valid() {
                    count += 1;
                }
                if self.cfg.protocol != BusProtocol::Msi {
                    self.nodes[j].excl.remove(&block.raw());
                }
            }
        }
        count
    }

    /// Nodes other than `except` whose cached copy of `block` is actually
    /// valid. The presence mask is only a superset, so the caches are
    /// consulted — this is the "shared line" a real MESI/Dragon bus snoop
    /// asserts. Ascending node order for determinism.
    fn valid_others(&self, block: BlockAddr, except: usize) -> Vec<usize> {
        let Some(b) = self.blocks.get(&block.raw()) else { return Vec::new() };
        let mut others = b.present & !(1u64 << except);
        let mut out = Vec::new();
        while others != 0 {
            let j = others.trailing_zeros() as usize;
            others &= others - 1;
            if self.nodes[j].cache.state_of(block).is_valid() {
                out.push(j);
            }
        }
        out
    }

    /// Downgrades any write-exclusive copy among `others` to shared and
    /// clears its clean-exclusive marker (MESI/Dragon read- or
    /// update-miss snoop: an E or M holder observes the fill and demotes).
    fn downgrade_exclusive(&mut self, block: BlockAddr, others: &[usize]) {
        for &j in others {
            if self.nodes[j].cache.state_of(block) == LineState::We {
                self.nodes[j].cache.snoop_downgrade(block);
                self.nodes[j].excl.remove(&block.raw());
            }
        }
    }

    /// Dragon write to a still-shared line: the address phase we just won
    /// broadcast the update word. Other copies stay valid and take the new
    /// data; the writer becomes (or stays) the shared-modified owner —
    /// unless every other copy has rolled out, in which case the update
    /// found no listeners and the line promotes to modified.
    fn dragon_update_done(&mut self, i: usize, t: Txn) {
        let me = NodeId::new(i);
        let block = t.block;
        let others = self.valid_others(block, i);
        let owner = self.blocks.get(&block.raw()).and_then(|b| b.owner.filter(|&d| d != me));
        let action = guarded::dragon_action(
            BusOp::WriteSharedHit,
            !others.is_empty(),
            owner.is_some(),
            None,
        );
        match action {
            DragonAction::BroadcastUpdate => {
                // A previous shared-modified supplier hands that role to
                // the writer; every copy stays valid.
            }
            DragonAction::PromoteToModified => {
                let promoted = self.nodes[i].cache.promote(block);
                debug_assert!(promoted);
            }
            a => unreachable!("update dispatch yielded {a:?}"),
        }
        self.blocks.entry(block.raw()).or_default().owner = Some(me);
        if self.nodes[i].measuring {
            let local = self.home_of(block) == me;
            match (!others.is_empty(), local) {
                (false, true) => self.events.upgrade_nosharers_local += 1,
                (false, false) => self.events.upgrade_nosharers_remote += 1,
                (true, true) => self.events.upgrade_sharers_local += 1,
                (true, false) => self.events.upgrade_sharers_remote += 1,
            }
        }
        self.schedule(self.now, Event::Complete { node: i });
    }

    fn upgrade_done(&mut self, i: usize) {
        let t = self.nodes[i].txn.expect("upgrade txn");
        let block = t.block;
        if self.nodes[i].cache.state_of(block).is_valid() {
            if self.cfg.protocol == BusProtocol::Dragon && t.region == Region::Shared {
                self.dragon_update_done(i, t);
                return;
            }
            // Private blocks are only ever touched by their owning node, so
            // there is nothing to invalidate and no reader of their
            // directory entry — skip the map (and keep them out of it).
            let invalidated =
                if t.region == Region::Shared { self.invalidate_others(block, i) } else { 0 };
            let promoted = self.nodes[i].cache.promote(block);
            debug_assert!(promoted);
            if t.region == Region::Shared {
                self.blocks.entry(block.raw()).or_default().owner = Some(NodeId::new(i));
            }
            if self.nodes[i].measuring && t.region == Region::Shared {
                let local = self.home_of(block) == NodeId::new(i);
                match (invalidated > 0, local) {
                    (false, true) => self.events.upgrade_nosharers_local += 1,
                    (false, false) => self.events.upgrade_nosharers_remote += 1,
                    (true, true) => self.events.upgrade_sharers_local += 1,
                    (true, false) => self.events.upgrade_sharers_remote += 1,
                }
                self.events.invalidated_copies += invalidated;
            } else if self.nodes[i].measuring && t.region == Region::Private {
                self.events.upgrade_nosharers_local += 1;
            }
            self.schedule(self.now, Event::Complete { node: i });
        } else {
            // The line was invalidated while we waited for the bus: the
            // address phase we just completed doubles as the request phase
            // of a write miss.
            self.nodes[i].txn = Some(Txn { kind: TxnKind::Write, served: Served::Pending, ..t });
            self.request_done(i);
        }
    }

    fn request_done(&mut self, i: usize) {
        self.obs.txn_mark(i, "request", self.now);
        let me = NodeId::new(i);
        let t = self.nodes[i].txn.expect("miss txn");
        let block = t.block;
        let measuring = self.nodes[i].measuring;

        if t.region == Region::Private {
            // Private blocks are only ever touched by their owning node:
            // no other cache can hold a copy, the home is always local,
            // and the node's previous transaction on the block completed
            // before this one started, so its data-ready time cannot bind.
            // The directory lookup, snoop resolution and supply decision
            // all resolve trivially — skip them, and keep private blocks
            // out of the directory map entirely (nothing ever reads their
            // entries, and a smaller map makes the shared lookups cheaper).
            if measuring {
                self.events.private_misses += 1;
            }
            let is_write = t.kind != TxnKind::Read;
            let completion = self.now + self.cfg.mem_latency;
            if let Some(txn) = self.nodes[i].txn.as_mut() {
                txn.served = Served::Local;
            }
            let state = if is_write {
                LineState::We
            } else if self.cfg.protocol == BusProtocol::Msi {
                LineState::Rs
            } else {
                // MESI/Dragon: a private read miss fills clean-exclusive,
                // so the (common) subsequent write promotes silently.
                self.nodes[i].excl.insert(block.raw(), ());
                LineState::We
            };
            if let Some((victim, vstate)) = self.nodes[i].cache.fill(block, state) {
                self.retire_victim(me, victim, vstate, measuring, completion);
            }
            self.schedule(completion, Event::Complete { node: i });
            return;
        }

        let home = self.home_of(block);
        let local = home == me;
        let (owner, ready) = match self.blocks.get(&block.raw()) {
            Some(b) => (b.owner.filter(|&d| d != me), b.ready),
            None => (None, Time::ZERO),
        };

        // --- classification (mirrors the reference interpreter's buckets;
        // the ring geometry keeps event counts comparable across
        // interconnects, latency on a bus does not depend on it)
        if measuring {
            match (t.kind, owner) {
                (TxnKind::Read, Some(d)) => {
                    if me.dirty_on_path(home, d, self.cfg.nodes()) {
                        self.events.read_dirty_2 += 1;
                    } else {
                        self.events.read_dirty_1 += 1;
                    }
                }
                (TxnKind::Read, None) => {
                    if local {
                        self.events.read_clean_local += 1;
                    } else {
                        self.events.read_clean_remote += 1;
                    }
                }
                (_, Some(d)) => {
                    if me.dirty_on_path(home, d, self.cfg.nodes()) {
                        self.events.write_dirty_2 += 1;
                    } else {
                        self.events.write_dirty_1 += 1;
                    }
                }
                (_, None) => {
                    // Sharer count observed below (invalidate_others).
                }
            }
        }

        // --- snoop resolution (atomic at the serialisation point)
        let is_write = t.kind != TxnKind::Read;
        let mut invalidated = 0;
        let mut fill_state = if is_write { LineState::We } else { LineState::Rs };
        // Dragon write miss that updated live copies instead of purging
        // them (keeps the sharers-vs-nosharers event buckets honest).
        let mut updated_sharers = false;
        match self.cfg.protocol {
            BusProtocol::Msi => {
                if is_write {
                    invalidated = self.invalidate_others(block, i);
                } else if let Some(d) = owner {
                    self.nodes[d.index()].cache.snoop_downgrade(block);
                    if let Some(b) = self.blocks.get_mut(&block.raw()) {
                        b.owner = None;
                    }
                }
            }
            BusProtocol::Mesi => {
                let others = self.valid_others(block, i);
                let op = if is_write { BusOp::WriteMiss } else { BusOp::ReadMiss };
                match guarded::mesi_action(op, !others.is_empty(), owner.is_some(), None) {
                    MesiAction::FillExclusive => {
                        self.nodes[i].excl.insert(block.raw(), ());
                        fill_state = LineState::We;
                    }
                    MesiAction::FillShared => self.downgrade_exclusive(block, &others),
                    MesiAction::OwnerSuppliesShared => {
                        let d = owner.expect("dispatched with an owner");
                        self.nodes[d.index()].cache.snoop_downgrade(block);
                        if let Some(b) = self.blocks.get_mut(&block.raw()) {
                            b.owner = None;
                        }
                    }
                    MesiAction::OwnerSuppliesModified
                    | MesiAction::InvalidateAndFillModified
                    | MesiAction::FillModified => {
                        invalidated = self.invalidate_others(block, i);
                    }
                    a @ (MesiAction::InvalidateAndPromote
                    | MesiAction::Promote
                    | MesiAction::PromoteSilently) => {
                        unreachable!("miss dispatch yielded {a:?}")
                    }
                }
            }
            BusProtocol::Dragon => {
                let others = self.valid_others(block, i);
                let op = if is_write { BusOp::WriteMiss } else { BusOp::ReadMiss };
                match guarded::dragon_action(op, !others.is_empty(), owner.is_some(), None) {
                    DragonAction::FillExclusive => {
                        self.nodes[i].excl.insert(block.raw(), ());
                        fill_state = LineState::We;
                    }
                    DragonAction::FillShared => self.downgrade_exclusive(block, &others),
                    DragonAction::OwnerSuppliesShared => {
                        // The owner supplies and demotes to shared-modified:
                        // it keeps the dirty copy and stays the supplier.
                        let d = owner.expect("dispatched with an owner");
                        self.nodes[d.index()].cache.snoop_downgrade(block);
                        self.nodes[d.index()].excl.remove(&block.raw());
                    }
                    DragonAction::FillModified => {}
                    DragonAction::FillSharedOwnerUpdate => {
                        // No invalidation: the other copies take the update
                        // word and stay valid; a previous owner demotes to
                        // shared-clean and the writer fills shared-modified.
                        self.downgrade_exclusive(block, &others);
                        fill_state = LineState::Rs;
                        updated_sharers = true;
                    }
                    a @ (DragonAction::BroadcastUpdate
                    | DragonAction::PromoteToModified
                    | DragonAction::PromoteSilently) => {
                        unreachable!("miss dispatch yielded {a:?}")
                    }
                }
            }
        }
        if measuring && is_write && owner.is_none() {
            match (invalidated > 0 || updated_sharers, local) {
                (false, true) => self.events.write_nosharers_local += 1,
                (false, false) => self.events.write_nosharers_remote += 1,
                (true, true) => self.events.write_sharers_local += 1,
                (true, false) => self.events.write_sharers_remote += 1,
            }
        }
        if measuring && is_write {
            self.events.invalidated_copies += invalidated;
        }

        // --- timing: who supplies, and when
        let completion = match owner {
            Some(_) => {
                // Cache-to-cache transfer: wait for the owner's copy, the
                // supply access, then a response phase on the bus.
                let supply_at = self.now.max(ready) + self.cfg.supply_latency;
                let (_, re) = self.bus.acquire_kind(
                    supply_at,
                    self.cfg.bus.response_cycles(),
                    PhaseKind::Data,
                );
                re
            }
            None if local => self.now.max(ready) + self.cfg.mem_latency,
            None => {
                let fetch_done = self.now.max(ready) + self.cfg.mem_latency;
                let (_, re) = self.bus.acquire_kind(
                    fetch_done,
                    self.cfg.bus.response_cycles(),
                    PhaseKind::Data,
                );
                re
            }
        };

        // Record how the miss was served for the class-latency breakdown.
        if let Some(txn) = self.nodes[i].txn.as_mut() {
            txn.served = match owner {
                Some(_) => Served::Dirty,
                None if local => Served::Local,
                None => Served::CleanRemote,
            };
        }
        // --- commit cache state now (serialisation point), deliver later.
        let b = self.blocks.entry(block.raw()).or_default();
        if is_write {
            b.owner = Some(me);
        }
        b.ready = completion;
        b.present |= 1u64 << i;
        if let Some((victim, vstate)) = self.nodes[i].cache.fill(block, fill_state) {
            self.retire_victim(me, victim, vstate, measuring, completion);
        }
        self.schedule(completion, Event::Complete { node: i });
    }

    /// Drops the evicted `victim` from the directory (a private victim has
    /// no entry — a no-op) and, for a dirty victim, performs the write-back:
    /// one response-phase transfer after `completion` when the victim's
    /// home is remote.
    fn retire_victim(
        &mut self,
        me: NodeId,
        victim: BlockAddr,
        vstate: LineState,
        measuring: bool,
        completion: Time,
    ) {
        // A clean-exclusive victim is `We` in the cache but was never
        // written: no write-back. (The marker map is empty under MSI.)
        let was_excl = self.nodes[me.index()].excl.remove(&victim.raw()).is_some();
        let mut dirty = vstate.is_dirty() && !was_excl;
        if let Some(v) = self.blocks.get_mut(&victim.raw()) {
            v.present &= !(1u64 << me.index());
            if v.owner == Some(me) {
                v.owner = None;
                // A Dragon shared-modified victim holds the only fresh
                // copy: its rollout writes the data back even though the
                // line is only shared.
                if vstate == LineState::Rs {
                    dirty = true;
                }
            }
        }
        if dirty {
            let vhome = self.home_of(victim);
            if vhome != me {
                self.bus.acquire_kind(completion, self.cfg.bus.response_cycles(), PhaseKind::Data);
            }
            if measuring {
                if vhome == me {
                    self.events.writeback_local += 1;
                } else {
                    self.events.writeback_remote += 1;
                }
            }
        }
    }

    fn complete(&mut self, i: usize) {
        let t = self.nodes[i].txn.take().expect("completing absent txn");
        if self.sanitize {
            // Snoop resolution is atomic at the serialisation point, so no
            // transient carve-outs are needed: SWMR must hold outright.
            let states: Vec<LineState> =
                self.nodes.iter().map(|n| n.cache.state_of(t.block)).collect();
            sanitize::check_swmr(t.block, &states, &vec![false; states.len()]);
        }
        let node = &mut self.nodes[i];
        node.ready_at = node.ready_at.max(self.now);
        let latency = self.now.saturating_sub(t.start);
        if node.measuring {
            if t.kind == TxnKind::Upgrade {
                self.upg_lat.push_time_ns(latency);
                self.class_lat.upgrade.record_time(latency);
                self.obs.txn_end(i, "upgrade", "upgrade", self.now);
            } else {
                self.miss_lat.push_time_ns(latency);
                self.miss_hist.record_time(latency);
                node.misses += 1;
                node.miss_lat.record_time(latency);
                let class = match t.served {
                    Served::Local => {
                        self.class_lat.local.record_time(latency);
                        "local"
                    }
                    Served::Dirty => {
                        self.class_lat.dirty.record_time(latency);
                        "dirty"
                    }
                    _ => {
                        self.class_lat.clean_remote.record_time(latency);
                        "clean_remote"
                    }
                };
                self.obs.txn_end(i, "miss", class, self.now);
            }
        } else {
            // Warmup transactions are excluded from every metric, so drop
            // them from the trace too: spans and histograms must agree.
            self.obs.txn_abandon(i);
        }
        self.step_processor(i);
    }

    /// Coherence state of `block` in node `i`'s cache (inspection hook).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn cache_state(&self, i: usize, block: BlockAddr) -> LineState {
        self.nodes[i].cache.state_of(block)
    }

    fn build_report(&mut self) -> SimReport {
        let (per_node, proc_util, sim_end) =
            crate::report::summarize_nodes(self.nodes.iter().map(|n| NodeMeasure {
                finished_at: n.finish_at.expect("all nodes finished"),
                measure_start: n.measure_start,
                busy: n.busy,
                misses: n.misses,
                miss_lat: &n.miss_lat,
            }));
        let stats = self.bus.stats();
        let (base, start) = self.snapshot.unwrap_or((ringsim_bus::BusStats::default(), Time::ZERO));
        let window = sim_end.saturating_sub(start);
        let busy = stats.busy.saturating_sub(base.busy);
        let addr_busy = stats.address_busy.saturating_sub(base.address_busy);
        let data_busy = stats.data_busy.saturating_sub(base.data_busy);
        let frac = |t: Time| {
            if window.is_zero() {
                0.0
            } else {
                (t.as_ps() as f64 / window.as_ps() as f64).min(1.0)
            }
        };
        SimReport {
            protocol: match self.cfg.protocol {
                BusProtocol::Msi => "bus-snooping".into(),
                BusProtocol::Mesi => "bus-mesi".into(),
                BusProtocol::Dragon => "bus-dragon".into(),
            },
            nodes: self.cfg.nodes(),
            proc_cycle: self.cfg.proc_cycle,
            sim_end,
            proc_util,
            ring_util: frac(busy),
            probe_util: frac(addr_busy),
            block_util: frac(data_busy),
            miss_latency: self.miss_lat,
            miss_histogram: self.miss_hist.clone(),
            upgrade_latency: self.upg_lat,
            class_latencies: self.class_lat.clone(),
            events: self.events,
            retries: 0,
            per_node,
        }
    }
}

/// A run records per-transaction trace events plus a `"bus"` gauge
/// timeline (busy fractions over the sampling window, outstanding
/// transactions, mean arbitration wait) when `opts.obs` asks for them.
impl Simulator for BusSystem {
    fn run(&mut self, opts: &RunOptions) -> RunOutcome {
        self.sanitize = sanitize::enabled(opts.sanitize);
        if let Some(cfg) = opts.obs {
            self.obs = Obs::enabled(cfg, self.nodes.len());
            self.obs_bus_tl = self.obs.add_timeline(
                "bus",
                &["busy", "addr_busy", "data_busy", "outstanding", "arb_wait_ns"],
            );
        }
        let report = BusSystem::run(self);
        RunOutcome { report, obs: std::mem::take(&mut self.obs).into_recorder() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringsim_trace::WorkloadSpec;

    fn run(nodes: usize, refs: u64, mips: u64) -> SimReport {
        let cfg = BusSystemConfig::bus_100mhz(nodes).with_mips(mips);
        let w = Workload::new(WorkloadSpec::demo(nodes).with_refs(refs)).unwrap();
        BusSystem::new(cfg, w).unwrap().run()
    }

    #[test]
    fn runs_to_completion() {
        let r = run(4, 3_000, 50);
        assert!(r.proc_util > 0.0 && r.proc_util <= 1.0);
        assert!(r.ring_util > 0.0 && r.ring_util <= 1.0);
        assert!(r.miss_latency.count() > 0);
        assert_eq!(r.events.data_refs(), 4 * 3_000);
    }

    #[test]
    fn miss_latency_has_memory_floor() {
        let r = run(4, 2_000, 50);
        assert!(r.miss_latency.min().unwrap_or(0.0) >= 139.0);
    }

    #[test]
    fn bus_saturates_with_fast_processors() {
        let slow = run(8, 2_500, 50);
        let fast = run(8, 2_500, 500);
        assert!(fast.ring_util > slow.ring_util);
        assert!(fast.proc_util < slow.proc_util);
    }

    #[test]
    fn deterministic() {
        let a = run(4, 2_000, 100);
        let b = run(4, 2_000, 100);
        assert_eq!(a.sim_end, b.sim_end);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn address_and_data_utilisation_sum_to_total() {
        let r = run(4, 2_000, 100);
        assert!((r.probe_util + r.block_util - r.ring_util).abs() < 1e-9);
    }

    fn run_proto(p: BusProtocol, nodes: usize, refs: u64, mips: u64) -> SimReport {
        let cfg = BusSystemConfig::bus_100mhz(nodes).with_mips(mips).with_protocol(p);
        let w = Workload::new(WorkloadSpec::demo(nodes).with_refs(refs)).unwrap();
        BusSystem::new(cfg, w).unwrap().run()
    }

    fn upgrades(r: &SimReport) -> u64 {
        r.events.upgrade_nosharers_local
            + r.events.upgrade_nosharers_remote
            + r.events.upgrade_sharers_local
            + r.events.upgrade_sharers_remote
    }

    #[test]
    fn mesi_silent_promotion_cuts_upgrade_transactions() {
        let msi = run_proto(BusProtocol::Msi, 4, 3_000, 100);
        let mesi = run_proto(BusProtocol::Mesi, 4, 3_000, 100);
        assert_eq!(mesi.protocol, "bus-mesi");
        assert_eq!(mesi.events.data_refs(), msi.events.data_refs());
        // Read-then-write on a sole copy fills clean-exclusive and
        // promotes silently instead of paying an invalidation txn.
        assert!(
            upgrades(&mesi) < upgrades(&msi),
            "mesi {} vs msi {}",
            upgrades(&mesi),
            upgrades(&msi)
        );
    }

    #[test]
    fn dragon_updates_instead_of_invalidating() {
        let msi = run_proto(BusProtocol::Msi, 4, 3_000, 100);
        let dragon = run_proto(BusProtocol::Dragon, 4, 3_000, 100);
        assert_eq!(dragon.protocol, "bus-dragon");
        assert_eq!(dragon.events.data_refs(), msi.events.data_refs());
        assert_eq!(dragon.events.invalidated_copies, 0);
        // Copies stay valid, so coherence (invalidation) misses vanish.
        assert!(
            dragon.miss_latency.count() < msi.miss_latency.count(),
            "dragon {} vs msi {}",
            dragon.miss_latency.count(),
            msi.miss_latency.count()
        );
    }

    #[test]
    fn protocol_variants_are_deterministic() {
        for p in [BusProtocol::Mesi, BusProtocol::Dragon] {
            let a = run_proto(p, 4, 2_000, 100);
            let b = run_proto(p, 4, 2_000, 100);
            assert_eq!(a.sim_end, b.sim_end, "{p:?}");
            assert_eq!(a.events, b.events, "{p:?}");
        }
    }

    #[test]
    fn rejects_mismatched_workload() {
        let cfg = BusSystemConfig::bus_50mhz(8);
        let w = Workload::new(WorkloadSpec::demo(4)).unwrap();
        assert!(BusSystem::new(cfg, w).is_err());
    }
}
