//! The timed SCI linked-list-directory ring simulator.
//!
//! The paper accounts for an SCI-like linked-list directory analytically
//! (Table 1); this backend makes it a runnable system: the same processors
//! and workloads as the other simulators, attached to a slotted ring whose
//! coherence state lives in per-block distributed sharing lists served at
//! each block's home node.
//!
//! Protocol truth is the SCI engine in [`ringsim_proto::sci`], driven
//! through a [`SciDirectory`]: every home decision dispatches through the
//! guarded rule set `ringsim_proto::guarded::SCI_RULES`, and every list and
//! cache effect is the code the `ringsim-check` model checker exhausts. The
//! timing model on top:
//!
//! * the home serialises transactions per block (FIFO): a request is served
//!   no earlier than the completion of the block's previous transaction,
//! * a transaction's ring time is `traversals × revolution`, where
//!   `traversals` is the engine's closed-path count over the nodes the
//!   messages visit (requester → home → head/list walk) and `revolution`
//!   is one full ring rotation at the configured clock,
//! * every served transaction pays one directory/memory access
//!   (`mem_latency`); a dirty head supplying data adds `supply_latency`.
//!
//! Like the bus simulator, list and cache mutations are applied atomically
//! at the serialisation point while data delivery and processor wake-up
//! keep their latencies; the retire-time sanitizer re-checks SWMR on every
//! completed transaction.

use ringsim_cache::LineState;
use ringsim_obs::Obs;
use ringsim_proto::ring_engine::TxnKind;
use ringsim_proto::sci::{SciDirectory, SciHost, SciStep};
use ringsim_proto::table1::TraversalReport;
use ringsim_ring::RingConfig;
use ringsim_trace::{Workload, BLOCK_BYTES};
use ringsim_types::{AccessKind, BlockAddr, ConfigError, FnvMap, MemRef, NodeId, Region, Time};

use crate::front_end::{quantum_horizon, FrontEnd, Step};
use crate::report::{fraction, LatencyBook, SimReport, TxnClass};
use crate::sanitize;
use crate::simulator::{RunOptions, RunOutcome, Simulator};

/// Windowed-accumulator slot for home-queue wait (see [`Obs::acc_add`]).
const ACC_HOME_WAIT: usize = 0;

/// Configuration of an SCI linked-list-directory ring system.
///
/// # Examples
///
/// ```
/// use ringsim_core::SciSystemConfig;
/// use ringsim_types::Time;
///
/// let cfg = SciSystemConfig::sci_500mhz(16).with_mips(100);
/// cfg.validate().unwrap();
/// assert_eq!(cfg.proc_cycle, Time::from_ns(10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SciSystemConfig {
    /// Ring geometry and clock.
    pub ring: RingConfig,
    /// Processor cycle time.
    pub proc_cycle: Time,
    /// Directory/memory access time at the home (140 ns in the paper).
    pub mem_latency: Time,
    /// Extra supply time when a dirty head provides the data.
    pub supply_latency: Time,
}

impl SciSystemConfig {
    /// The paper's 500 MHz ring carrying the SCI directory, with 50 MIPS
    /// processors.
    #[must_use]
    pub fn sci_500mhz(nodes: usize) -> Self {
        Self {
            ring: RingConfig::standard_500mhz(nodes),
            proc_cycle: Time::from_ns(20),
            mem_latency: Time::from_ns(140),
            supply_latency: Time::from_ns(140),
        }
    }

    /// The 250 MHz variant.
    #[must_use]
    pub fn sci_250mhz(nodes: usize) -> Self {
        Self { ring: RingConfig::standard_250mhz(nodes), ..Self::sci_500mhz(nodes) }
    }

    /// Number of nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.ring.nodes
    }

    /// Builder-style processor cycle override.
    #[must_use]
    pub fn with_proc_cycle(mut self, proc_cycle: Time) -> Self {
        self.proc_cycle = proc_cycle;
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
        self.ring.validate()?;
        if self.ring.nodes > 64 {
            return Err(ConfigError::new("ring.nodes", "at most 64 nodes supported"));
        }
        if self.proc_cycle.is_zero() || self.mem_latency.is_zero() || self.supply_latency.is_zero()
        {
            return Err(ConfigError::new("timing", "all latencies must be non-zero"));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
struct Txn {
    block: BlockAddr,
    start: Time,
    class: TxnClass,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Resume the processor's issue loop.
    ProcReady { node: usize },
    /// The blocked processor's transaction finishes.
    Complete { node: usize },
}

/// The timed SCI ring system simulator.
///
/// # Examples
///
/// ```
/// use ringsim_core::{SciRingSystem, SciSystemConfig};
/// use ringsim_trace::{Workload, WorkloadSpec};
///
/// let cfg = SciSystemConfig::sci_500mhz(4);
/// let workload = Workload::new(WorkloadSpec::demo(4).with_refs(2_000)).unwrap();
/// let report = SciRingSystem::new(cfg, workload).unwrap().run();
/// assert!(report.proc_util > 0.0);
/// ```
pub struct SciRingSystem {
    cfg: SciSystemConfig,
    /// Protocol truth: caches + sharing lists + traversal accounting,
    /// served by the SCI engine.
    dir: SciDirectory<Box<dyn Fn(BlockAddr) -> NodeId>>,
    front: FrontEnd,
    /// Each node's transaction in flight.
    txns: Vec<Option<Txn>>,
    /// Per-block home-queue serialisation: earliest time the home will
    /// admit the block's next transaction. Private blocks are skipped
    /// (their single user serialises itself).
    block_free: FnvMap<u64, Time>,
    /// One full ring rotation at the configured clock.
    revolution: Time,
    queue: crate::EventQueue<Event>,
    now: Time,
    /// Total in-flight ring time charged so far (for utilisation).
    travel: Time,
    /// Latencies and events; its measured window starts from `travel`.
    book: LatencyBook<Time>,
    // Telemetry (no-op unless a run asked for it).
    obs: Obs,
    obs_sci_tl: usize,
    obs_window: (Time, Time),
    /// Whether retire boundaries run the coherence sanitizer.
    sanitize: bool,
}

impl SciRingSystem {
    /// Builds the system.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the configuration is invalid or the
    /// workload's processor count does not match the ring's node count.
    pub fn new(cfg: SciSystemConfig, workload: Workload) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let space = workload.space();
        let layout = cfg.ring.layout()?;
        let revolution = cfg.ring.clock_period * layout.round_trip_cycles() as u64;
        let home: Box<dyn Fn(BlockAddr) -> NodeId> = Box::new(move |b| space.home_of_block(b));
        let dir = SciDirectory::new(layout, home)?;
        // Caches before streams, as in `BusSystem::new`.
        let front = FrontEnd::new(workload, cfg.nodes(), cfg.proc_cycle)?;
        Ok(Self {
            cfg,
            dir,
            front,
            txns: vec![None; cfg.nodes()],
            block_free: FnvMap::default(),
            revolution,
            queue: crate::EventQueue::new(),
            now: Time::ZERO,
            travel: Time::ZERO,
            book: LatencyBook::default(),
            obs: Obs::disabled(),
            sanitize: sanitize::enabled(false),
            obs_sci_tl: usize::MAX,
            obs_window: (Time::ZERO, Time::ZERO),
        })
    }

    /// The traversal distributions of the shared-block transactions served
    /// so far, warm-up included.
    #[must_use]
    pub fn traversal_report(&self) -> TraversalReport {
        self.dir.report()
    }

    /// Coherence state of `block` in node `i`'s cache (inspection hook).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn cache_state(&self, i: usize, block: BlockAddr) -> LineState {
        self.dir.state_of(NodeId::new(i), block)
    }

    fn schedule(&mut self, at: Time, ev: Event) {
        self.queue.schedule(at, ev);
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
                Event::Complete { node } => self.complete(node),
            }
            self.book.open_window(&self.front, || (self.travel, self.now));
            if self.obs.sample_due(self.now) {
                self.sample_gauges();
            }
        }
        let travel = self.travel;
        self.book.report("sci-linked-list".into(), &self.front, 0, |base, window| {
            let ring_util = fraction(travel.saturating_sub(base), window);
            // SCI messages are point-to-point packets on one ring; the
            // request/data split of the slotted-ring backends does not
            // apply, so all travel is reported as probe traffic.
            (ring_util, ring_util, 0.0)
        })
    }

    /// Pushes one row onto the `"sci"` gauge timeline: the travel fraction
    /// is the delta over the window since the previous sample.
    fn sample_gauges(&mut self) {
        let (prev, since) = self.obs_window;
        let frac = fraction(self.travel.saturating_sub(prev), self.now.saturating_sub(since));
        let outstanding = self.txns.iter().filter(|t| t.is_some()).count() as f64;
        let wait = self.obs.acc_take_mean(ACC_HOME_WAIT);
        self.obs.sample(self.obs_sci_tl, self.now, vec![frac, outstanding, wait]);
        self.obs_window = (self.travel, self.now);
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
            // The serialisation point: the home admits the request and the
            // engine applies list + cache mutations atomically; only the
            // latencies play out in event time.
            let Some(step) = self.dir.access(r) else {
                continue;
            };
            self.issue_txn(i, r, block, step);
            return;
        }
    }

    fn issue_txn(&mut self, i: usize, r: MemRef, block: BlockAddr, step: SciStep) {
        let local = self.dir.home_of(block) == NodeId::new(i);
        let measuring = self.front.measuring(i);
        let start = self.front.ready_at(i);
        let is_upgrade = step.kind == TxnKind::Upgrade;

        self.obs.txn_begin(i, if is_upgrade { "upgrade" } else { "miss" }, block.raw(), start);

        // Home-queue admission: shared blocks serialise per block.
        let serve_at = if r.region == Region::Shared {
            let free = self.block_free.get(&block.raw()).copied().unwrap_or(Time::ZERO);
            start.max(free)
        } else {
            start
        };
        self.obs.acc_add(ACC_HOME_WAIT, serve_at.saturating_sub(start).as_ns_f64());
        self.obs.txn_mark(i, "admit", serve_at);

        // Ring travel + the home's directory/memory access; a dirty head
        // supplying the data adds the cache-supply time.
        let travel = self.revolution * step.traversals as u64;
        let mut completion = serve_at + travel + self.cfg.mem_latency;
        if step.dirty_supply {
            completion += self.cfg.supply_latency;
        }
        self.travel += travel;
        if r.region == Region::Shared {
            self.block_free.insert(block.raw(), completion);
        }

        // Event classification, mirroring the other backends' buckets.
        if measuring {
            let e = &mut self.book.events;
            if r.region == Region::Private {
                if is_upgrade {
                    e.upgrade_nosharers_local += 1;
                } else {
                    e.private_misses += 1;
                }
            } else if is_upgrade {
                match (step.invalidated > 0, local) {
                    (false, true) => e.upgrade_nosharers_local += 1,
                    (false, false) => e.upgrade_nosharers_remote += 1,
                    (true, true) => e.upgrade_sharers_local += 1,
                    (true, false) => e.upgrade_sharers_remote += 1,
                }
                e.invalidated_copies += step.invalidated as u64;
            } else if r.kind == AccessKind::Read {
                if step.dirty_supply {
                    if step.traversals >= 2 {
                        e.read_dirty_2 += 1;
                    } else {
                        e.read_dirty_1 += 1;
                    }
                } else if local {
                    e.read_clean_local += 1;
                } else {
                    e.read_clean_remote += 1;
                }
            } else {
                if step.dirty_supply {
                    if step.traversals >= 2 {
                        e.write_dirty_2 += 1;
                    } else {
                        e.write_dirty_1 += 1;
                    }
                } else {
                    match (step.invalidated > 0, local) {
                        (false, true) => e.write_nosharers_local += 1,
                        (false, false) => e.write_nosharers_remote += 1,
                        (true, true) => e.write_sharers_local += 1,
                        (true, false) => e.write_sharers_remote += 1,
                    }
                }
                e.invalidated_copies += step.invalidated as u64;
            }
        }

        let class = if is_upgrade {
            TxnClass::Upgrade
        } else if step.dirty_supply {
            TxnClass::Dirty
        } else if local {
            TxnClass::Local
        } else {
            TxnClass::CleanRemote
        };
        self.txns[i] = Some(Txn { block, start, class });
        self.schedule(completion, Event::Complete { node: i });
    }

    fn complete(&mut self, i: usize) {
        let t = self.txns[i].take().expect("completing absent txn");
        if self.sanitize {
            // List and cache mutations are atomic at the serialisation
            // point, so SWMR must hold outright at every retire.
            let states: Vec<LineState> =
                (0..self.txns.len()).map(|j| self.dir.state_of(NodeId::new(j), t.block)).collect();
            sanitize::check_swmr(t.block, &states, &vec![false; states.len()]);
        }
        self.front.resume(i, self.now);
        self.book.record(&mut self.front, &mut self.obs, i, t.class, t.start, self.now);
        self.step_processor(i);
    }
}

/// A run records per-transaction trace events plus a `"sci"` gauge
/// timeline (ring travel fraction over the sampling window, outstanding
/// transactions, mean home-queue wait) when `opts.obs` asks for them.
impl Simulator for SciRingSystem {
    fn run(&mut self, opts: &RunOptions) -> RunOutcome {
        self.sanitize = sanitize::enabled(opts.sanitize);
        if let Some(cfg) = opts.obs {
            self.obs = Obs::enabled(cfg, self.front.len());
            self.obs_sci_tl =
                self.obs.add_timeline("sci", &["travel", "outstanding", "home_wait_ns"]);
        }
        let report = SciRingSystem::run(self);
        RunOutcome { report, obs: std::mem::take(&mut self.obs).into_recorder() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringsim_trace::WorkloadSpec;

    fn run(nodes: usize, refs: u64, mips: u64) -> SimReport {
        let cfg = SciSystemConfig::sci_500mhz(nodes).with_mips(mips);
        let w = Workload::new(WorkloadSpec::demo(nodes).with_refs(refs)).unwrap();
        SciRingSystem::new(cfg, w).unwrap().run()
    }

    #[test]
    fn runs_to_completion() {
        let r = run(4, 3_000, 50);
        assert_eq!(r.protocol, "sci-linked-list");
        assert!(r.proc_util > 0.0 && r.proc_util <= 1.0);
        assert!(r.miss_latency.count() > 0);
        assert_eq!(r.events.data_refs(), 4 * 3_000);
    }

    #[test]
    fn miss_latency_has_memory_floor() {
        let r = run(4, 2_000, 50);
        assert!(r.miss_latency.min().unwrap_or(0.0) >= 139.0);
    }

    #[test]
    fn slower_ring_means_longer_misses() {
        let w = || Workload::new(WorkloadSpec::demo(8).with_refs(2_500)).unwrap();
        let fast = SciRingSystem::new(SciSystemConfig::sci_500mhz(8), w()).unwrap().run();
        let slow = SciRingSystem::new(SciSystemConfig::sci_250mhz(8), w()).unwrap().run();
        assert!(
            slow.miss_latency.mean() > fast.miss_latency.mean(),
            "250 MHz {} vs 500 MHz {}",
            slow.miss_latency.mean(),
            fast.miss_latency.mean()
        );
    }

    #[test]
    fn deterministic() {
        let a = run(4, 2_000, 100);
        let b = run(4, 2_000, 100);
        assert_eq!(a.sim_end, b.sim_end);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn rejects_mismatched_workload() {
        let cfg = SciSystemConfig::sci_500mhz(8);
        let w = Workload::new(WorkloadSpec::demo(4)).unwrap();
        assert!(SciRingSystem::new(cfg, w).is_err());
    }
}
