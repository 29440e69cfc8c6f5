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
//!
//! The three bus protocols ([`ProtocolKind::Msi`], [`ProtocolKind::Mesi`]
//! and [`ProtocolKind::Dragon`]) make those updates through one engine,
//! [`ringsim_proto::bus_engine`], which the model checker drives too; this
//! module keeps the timing, the event classification and the
//! private-region fast path.

use ringsim_bus::{Bus, BusConfig, BusStats, PhaseKind};
use ringsim_cache::{AccessClass, Cache, CacheConfig, LineState};
use ringsim_obs::Obs;
use ringsim_proto::bus_engine::{self, BusHost};
use ringsim_proto::ring_engine::TxnKind;
use ringsim_proto::ProtocolKind;
use ringsim_trace::{AddressSpace, Workload, BLOCK_BYTES};
use ringsim_types::{
    AccessKind, BlockAddr, CoherenceOp, ConfigError, DirtySplit, FnvMap, NodeId, Region, Time,
};

use crate::front_end::{quantum_horizon, FrontEnd, Step};
use crate::report::{fraction, LatencyBook, SimReport, TxnClass};
use crate::sanitize;
use crate::simulator::{RunOptions, RunOutcome, Simulator};

/// Windowed-accumulator slot for bus arbitration wait (see [`Obs::acc_add`]).
const ACC_ARB_WAIT: usize = 0;

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
    /// Coherence protocol the snoop runs: [`ProtocolKind::Msi`] (the
    /// paper's), [`ProtocolKind::Mesi`] or [`ProtocolKind::Dragon`]. All
    /// three share the arbitration, timing and event machinery; they differ
    /// only in what the snoop does at the serialisation point.
    pub protocol: ProtocolKind,
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
            protocol: ProtocolKind::Msi,
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
    pub fn with_protocol(mut self, protocol: ProtocolKind) -> Self {
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
        if !self.protocol.is_bus() {
            return Err(ConfigError::new(
                "protocol",
                format!("`{}` is not a bus protocol (msi, mesi or dragon)", self.protocol.name()),
            ));
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

#[derive(Debug, Clone, Copy)]
struct Txn {
    block: BlockAddr,
    kind: TxnKind,
    region: Region,
    start: Time,
    /// Set at the serialisation point: how a miss was served.
    served: TxnClass,
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

/// Snooping-visible state of one block, merged so every bus transaction
/// resolves ownership, data timing and presence with one map lookup.
/// An absent entry reads as the defaults: unowned, data ready at time
/// zero, cached nowhere.
#[derive(Debug, Clone, Copy, Default)]
struct BlockState {
    /// The node that supplies the data instead of memory: the
    /// write-exclusive (modified) holder, or Dragon's shared-modified owner
    /// (bus snooping resolves ownership instantly at the serialisation
    /// point).
    owner: Option<NodeId>,
    /// Earliest time the block's data is available at its current
    /// owner/home (covers data still in flight to a new owner).
    ready: Time,
    /// Bitmask of the nodes holding a valid copy (bit `i` = node `i`; the
    /// ≤64-node limit makes one word enough). It is exact: a fill sets a
    /// bit, and an invalidation or an eviction clears it. So a snoop visits
    /// set bits only, and finds the holders without reading their caches
    /// (see `BusHost::holders` below).
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
    front: FrontEnd,
    /// Each node's transaction in flight.
    txns: Vec<Option<Txn>>,
    caches: Vec<Cache>,
    /// Per node, the blocks it holds clean-exclusive (E) — the cache line
    /// is `We`, but the data was never written and memory is still up to
    /// date. MSI has no E state: under it these stay empty.
    excl: Vec<FnvMap<u64, ()>>,
    space: AddressSpace,
    /// Per-block coherence directory, one entry per block the bus has
    /// touched (every consumer of ownership, data timing and presence pays
    /// for a single lookup per transaction).
    blocks: FnvMap<u64, BlockState>,
    queue: crate::EventQueue<Event>,
    now: Time,
    book: LatencyBook<BusStats>,
    // Telemetry (no-op unless a run asked for it).
    obs: Obs,
    obs_bus_tl: usize,
    obs_window: (BusStats, Time),
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
        let space = workload.space();
        let bus = Bus::new(cfg.bus)?;
        let caches = (0..cfg.nodes()).map(|_| Cache::new(cfg.cache)).collect::<Result<_, _>>()?;
        // Caches before streams: in the other order the caches' zeroed
        // allocations land on heap memory the streams' set-up freed, and
        // building a 32-processor system took four times as long.
        let front = FrontEnd::new(workload, cfg.nodes(), cfg.proc_cycle)?;
        Ok(Self {
            cfg,
            bus,
            front,
            txns: vec![None; cfg.nodes()],
            caches,
            excl: vec![FnvMap::default(); cfg.nodes()],
            space,
            blocks: FnvMap::default(),
            queue: crate::EventQueue::new(),
            now: Time::ZERO,
            book: LatencyBook::default(),
            obs: Obs::disabled(),
            sanitize: sanitize::enabled(false),
            obs_bus_tl: usize::MAX,
            obs_window: (BusStats::default(), Time::ZERO),
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
        for i in 0..self.front.len() {
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
            self.book.open_window(&self.front, || (self.bus.stats(), self.now));
            if self.obs.sample_due(self.now) {
                self.sample_gauges();
            }
        }
        let stats = self.bus.stats();
        let protocol = match self.cfg.protocol {
            ProtocolKind::Msi => "bus-snooping",
            ProtocolKind::Mesi => "bus-mesi",
            ProtocolKind::Dragon => "bus-dragon",
            p @ (ProtocolKind::Snooping | ProtocolKind::Directory | ProtocolKind::Sci) => {
                unreachable!("{p:?} rejected by BusSystemConfig::validate")
            }
        };
        self.book.report(protocol.into(), &self.front, 0, |base, window| {
            busy_fractions(stats, base, window)
        })
    }

    /// Pushes one row onto the `"bus"` gauge timeline: busy fractions are
    /// deltas over the window since the previous sample, not run-to-date.
    fn sample_gauges(&mut self) {
        let stats = self.bus.stats();
        let (prev, since) = self.obs_window;
        let (busy, addr, data) = busy_fractions(stats, prev, self.now.saturating_sub(since));
        let outstanding = self.txns.iter().filter(|t| t.is_some()).count() as f64;
        let arb_wait = self.obs.acc_take_mean(ACC_ARB_WAIT);
        let values = vec![busy, addr, data, outstanding, arb_wait];
        self.obs.sample(self.obs_bus_tl, self.now, values);
        self.obs_window = (stats, self.now);
    }

    fn step_processor(&mut self, i: usize) {
        if self.txns[i].is_some() {
            return;
        }
        debug_assert!(
            self.front.ready_at(i) >= self.now,
            "a processor resumes no earlier than now"
        );
        let horizon = quantum_horizon(self.now);
        loop {
            let r = match self.front.next(i, self.now, horizon, &mut self.book.events) {
                Step::Ref(r) => r,
                Step::Sleep(at) => {
                    self.schedule(at, Event::ProcReady { node: i });
                    return;
                }
                Step::Done => return,
            };
            let block = r.addr.block(BLOCK_BYTES);
            let kind = match (self.caches[i].classify(block, r.kind), r.kind) {
                (AccessClass::Hit, AccessKind::Read) => continue,
                // A write hit on a clean-exclusive line silently promotes
                // it to modified — the E-state payoff: no bus transaction.
                // The directory must still learn that the node is now the
                // dirty owner, so the next remote miss snoops a cache
                // supply instead of memory.
                (AccessClass::Hit, AccessKind::Write) => {
                    bus_engine::write_hit(self, NodeId::new(i), block);
                    continue;
                }
                (AccessClass::Upgrade, _) => TxnKind::Upgrade,
                (AccessClass::Miss, AccessKind::Read) => TxnKind::Read,
                (AccessClass::Miss, AccessKind::Write) => TxnKind::Write,
            };
            let start = self.front.ready_at(i);
            let served = TxnClass::CleanRemote;
            self.txns[i] = Some(Txn { block, kind, region: r.region, start, served });
            let op = match kind {
                TxnKind::Read => "read",
                TxnKind::Write => "write",
                TxnKind::Upgrade => "upgrade",
            };
            self.obs.txn_begin(i, op, block.raw(), start);
            // Arbitrate for the address phase.
            let (cycles, ev) = if kind == TxnKind::Upgrade {
                (self.cfg.bus.inval_cycles, Event::UpgradeDone { node: i })
            } else {
                (self.cfg.bus.request_cycles, Event::RequestDone { node: i })
            };
            let (grant, end) = self.bus.acquire_kind(start, cycles, PhaseKind::Address);
            self.obs.acc_add(ACC_ARB_WAIT, grant.saturating_sub(start).as_ns_f64());
            self.obs.txn_mark(i, "arbitrate", grant);
            self.schedule(end, ev);
            return;
        }
    }

    fn upgrade_done(&mut self, i: usize) {
        let t = self.txns[i].expect("upgrade txn");
        let block = t.block;
        if !self.caches[i].state_of(block).is_valid() {
            // The line was invalidated while we waited for the bus: the
            // address phase we just completed doubles as the request phase
            // of a write miss.
            self.txns[i] = Some(Txn { kind: TxnKind::Write, ..t });
            self.request_done(i);
            return;
        }
        let me = NodeId::new(i);
        let (sharers, invalidated) = match t.region {
            // Private blocks are only ever touched by their owning node, so
            // there is nothing to invalidate and no reader of their
            // directory entry — skip the map (and keep them out of it).
            Region::Private => {
                let promoted = self.caches[i].promote(block);
                debug_assert!(promoted);
                (false, 0)
            }
            // MSI and MESI invalidate the other copies; Dragon broadcasts
            // the update word and keeps them.
            Region::Shared => {
                let g = bus_engine::grant(self, me, block, TxnKind::Upgrade);
                (g.others != 0, g.invalidated)
            }
        };
        if self.front.measuring(i) {
            let local = t.region == Region::Private || self.home_of(block) == me;
            self.book.events.record(
                CoherenceOp::Upgrade,
                t.region,
                local,
                DirtySplit::Clean,
                sharers,
                invalidated,
            );
        }
        self.schedule(self.now, Event::Complete { node: i });
    }

    fn request_done(&mut self, i: usize) {
        self.obs.txn_mark(i, "request", self.now);
        let me = NodeId::new(i);
        let t = self.txns[i].expect("miss txn");
        let block = t.block;
        let measuring = self.front.measuring(i);

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
                let clean = DirtySplit::Clean;
                self.book.events.record(t.kind.into(), Region::Private, true, clean, false, 0);
            }
            let is_write = t.kind != TxnKind::Read;
            let completion = self.now + self.cfg.mem_latency;
            if let Some(txn) = self.txns[i].as_mut() {
                txn.served = TxnClass::Local;
            }
            let state = if is_write {
                LineState::We
            } else if self.cfg.protocol == ProtocolKind::Msi {
                LineState::Rs
            } else {
                // MESI/Dragon: a private read miss fills clean-exclusive,
                // so the (common) subsequent write promotes silently.
                self.excl[i].insert(block.raw(), ());
                LineState::We
            };
            if let Some((victim, vstate)) = self.caches[i].fill(block, state) {
                self.retire_victim(me, victim, vstate, measuring, completion);
            }
            self.schedule(completion, Event::Complete { node: i });
            return;
        }

        let home = self.home_of(block);
        let local = home == me;
        let is_write = t.kind != TxnKind::Read;

        // --- snoop resolution (atomic at the serialisation point). The
        // engine records the dirty claim in the block's entry.
        let ready = self.blocks.entry(block.raw()).or_default().ready;
        let g = bus_engine::grant(self, me, block, t.kind);
        let owner = g.owner;
        // A Dragon write miss updates the other copies instead of purging
        // them: they count as sharers all the same.
        let sharers = g.others != 0;

        // --- classification: the dirty split by ring geometry keeps event
        // counts comparable across interconnects, though bus latency does
        // not depend on it.
        if measuring {
            let dirty = DirtySplit::on_path(me, home, owner, self.cfg.nodes());
            let invalidated = if is_write { g.invalidated } else { 0 };
            let op = t.kind.into();
            self.book.events.record(op, Region::Shared, local, dirty, sharers, invalidated);
        }

        // --- timing: who supplies, and when. The owner's copy takes the
        // supply access, memory the fetch; then the data crosses the bus in
        // a response phase, unless the requester's own memory supplies it.
        let served = match owner {
            Some(_) => TxnClass::Dirty,
            None if local => TxnClass::Local,
            None => TxnClass::CleanRemote,
        };
        let access = if owner.is_some() { self.cfg.supply_latency } else { self.cfg.mem_latency };
        let data_at = self.now.max(ready) + access;
        let completion = if served == TxnClass::Local {
            data_at
        } else {
            self.bus.acquire_kind(data_at, self.cfg.bus.response_cycles(), PhaseKind::Data).1
        };
        // Record how the miss was served for the class-latency breakdown.
        if let Some(txn) = self.txns[i].as_mut() {
            txn.served = served;
        }
        // --- commit cache state now (serialisation point), deliver later.
        let b = self.blocks.entry(block.raw()).or_default();
        b.ready = completion;
        b.present |= 1u64 << i;
        let fill_state = g.fill.expect("a miss fills its line");
        if let Some((victim, vstate)) = self.caches[i].fill(block, fill_state) {
            self.retire_victim(me, victim, vstate, measuring, completion);
        }
        self.schedule(completion, Event::Complete { node: i });
    }

    /// Drops the evicted `victim` from the directory (a private victim has
    /// no entry — a no-op) and, if it writes back, performs the write-back:
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
        if let Some(v) = self.blocks.get_mut(&victim.raw()) {
            v.present &= !(1u64 << me.index());
        }
        if bus_engine::retire(self, me, victim, vstate) {
            let vhome = self.home_of(victim);
            if vhome != me {
                self.bus.acquire_kind(completion, self.cfg.bus.response_cycles(), PhaseKind::Data);
            }
            if measuring {
                self.book.events.record_writeback(vhome == me);
            }
        }
    }

    fn complete(&mut self, i: usize) {
        let t = self.txns[i].take().expect("completing absent txn");
        if self.sanitize {
            // Snoop resolution is atomic at the serialisation point, so no
            // transient carve-outs are needed: SWMR must hold outright.
            let states: Vec<LineState> = self.caches.iter().map(|c| c.state_of(t.block)).collect();
            sanitize::check_swmr(t.block, &states, &vec![false; states.len()]);
        }
        self.front.resume(i, self.now);
        let class = if t.kind == TxnKind::Upgrade { TxnClass::Upgrade } else { t.served };
        self.book.record(&mut self.front, &mut self.obs, i, class, t.start, self.now);
        self.step_processor(i);
    }

    /// Coherence state of `block` in node `i`'s cache (inspection hook).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn cache_state(&self, i: usize, block: BlockAddr) -> LineState {
        self.caches[i].state_of(block)
    }
}

/// The bus's `(busy, address_busy, data_busy)` time between the counters
/// `base` and `stats`, as fractions of `window`.
fn busy_fractions(stats: BusStats, base: BusStats, window: Time) -> (f64, f64, f64) {
    let frac = |now: Time, then: Time| fraction(now.saturating_sub(then), window);
    (
        frac(stats.busy, base.busy),
        frac(stats.address_busy, base.address_busy),
        frac(stats.data_busy, base.data_busy),
    )
}

/// All three bus protocols as the bus engine's host. A block's entry holds
/// its `owner` — both the dirty owner and Dragon's shared-modified
/// supplier — and its exact `present` mask. A private block has no entry:
/// it is never snooped and has no owner to record.
impl BusHost for BusSystem {
    fn protocol(&self) -> ProtocolKind {
        self.cfg.protocol
    }

    fn caches(&mut self) -> &mut [Cache] {
        &mut self.caches
    }

    fn present(&self, block: BlockAddr) -> u64 {
        self.blocks.get(&block.raw()).map_or(0, |b| b.present)
    }

    /// `present` is exact here, and by SWMR a `We` copy is the only valid
    /// one, so at most one cache needs a look: a read of a widely shared
    /// block stays O(1). Debug builds check the answer against every
    /// cache.
    fn holders(&mut self, node: NodeId, block: BlockAddr) -> (u64, u64) {
        let valid = self.present(block) & !(1u64 << node.index());
        let sole = valid.trailing_zeros() as usize;
        let written =
            if valid.count_ones() == 1 && self.caches[sole].state_of(block) == LineState::We {
                valid
            } else {
                0
            };
        debug_assert_eq!(
            (valid, written),
            bus_engine::scan_holders(
                &self.caches,
                node,
                block,
                u64::MAX >> (64 - self.caches.len())
            ),
            "the presence mask of {block} is out of step with the caches"
        );
        (valid, written)
    }

    fn exclusive(&self, node: NodeId, block: BlockAddr) -> bool {
        self.excl[node.index()].contains_key(&block.raw())
    }

    fn set_exclusive(&mut self, node: NodeId, block: BlockAddr, exclusive: bool) {
        if exclusive {
            self.excl[node.index()].insert(block.raw(), ());
        } else {
            self.excl[node.index()].remove(&block.raw());
        }
    }

    fn owner(&self, block: BlockAddr) -> Option<NodeId> {
        self.blocks.get(&block.raw()).and_then(|b| b.owner)
    }

    fn set_dirty(&mut self, block: BlockAddr, owner: Option<NodeId>) {
        if let Some(b) = self.blocks.get_mut(&block.raw()) {
            b.owner = owner;
        }
    }

    fn invalidate_sharer(&mut self, node: NodeId, block: BlockAddr) {
        self.caches[node.index()].snoop_invalidate(block);
        if let Some(b) = self.blocks.get_mut(&block.raw()) {
            b.present &= !(1u64 << node.index());
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
            self.obs = Obs::enabled(cfg, self.front.len());
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
        run_proto(ProtocolKind::Msi, nodes, refs, mips)
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

    fn run_proto(p: ProtocolKind, nodes: usize, refs: u64, mips: u64) -> SimReport {
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
        let msi = run_proto(ProtocolKind::Msi, 4, 3_000, 100);
        let mesi = run_proto(ProtocolKind::Mesi, 4, 3_000, 100);
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
        let msi = run_proto(ProtocolKind::Msi, 4, 3_000, 100);
        let dragon = run_proto(ProtocolKind::Dragon, 4, 3_000, 100);
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
        for p in [ProtocolKind::Msi, ProtocolKind::Mesi, ProtocolKind::Dragon] {
            let a = run_proto(p, 4, 2_000, 100);
            let b = run_proto(p, 4, 2_000, 100);
            assert_eq!(a.sim_end, b.sim_end, "{p:?}");
            assert_eq!(a.events, b.events, "{p:?}");
        }
    }

    #[test]
    fn rejects_a_protocol_the_bus_cannot_run() {
        for p in [ProtocolKind::Snooping, ProtocolKind::Directory, ProtocolKind::Sci] {
            let err = BusSystemConfig::bus_50mhz(4).with_protocol(p).validate().unwrap_err();
            assert_eq!(err.field(), "protocol", "{p:?}");
            let w = Workload::new(WorkloadSpec::demo(4)).unwrap();
            assert!(BusSystem::new(BusSystemConfig::bus_50mhz(4).with_protocol(p), w).is_err());
        }
        for p in [ProtocolKind::Msi, ProtocolKind::Mesi, ProtocolKind::Dragon] {
            BusSystemConfig::bus_50mhz(4).with_protocol(p).validate().unwrap();
        }
    }

    #[test]
    fn rejects_mismatched_workload() {
        let cfg = BusSystemConfig::bus_50mhz(8);
        let w = Workload::new(WorkloadSpec::demo(4)).unwrap();
        assert!(BusSystem::new(cfg, w).is_err());
    }
}
