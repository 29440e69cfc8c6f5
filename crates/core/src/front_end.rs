//! The processor side every reference-stream system shares: one reference
//! stream per node, the warm-up rule, and the per-node busy time and miss
//! latencies behind the paper's processor utilisation (footnote 2).
//!
//! [`FrontEnd`] issues each node's data references and charges their
//! instruction time; `RingSystem`, `BusSystem` and `SciRingSystem` each own
//! one and keep only what differs between them: classifying a reference
//! against their caches, the protocol, and the interconnect's timing.
//! Finished transactions are booked by [`crate::report::LatencyBook`].

use ringsim_obs::LatencyHistogram;
use ringsim_trace::{NodeStream, Workload};
use ringsim_types::{AccessKind, CoherenceEvents, ConfigError, MemRef, Region, Time};

use crate::report::NodeMeasure;

/// Lookahead an event-driven system lets a processor run ahead of the
/// global event clock while it keeps hitting in its cache. Bounds the
/// window in which a fast-forwarded node could miss a remote invalidation.
const PROC_QUANTUM: Time = Time::from_ns(200);

/// The issue horizon of an event-driven system (bus, SCI) at `now`: a
/// processor issues while its next reference is due within
/// [`PROC_QUANTUM`]. The cycle-stepped ring passes `now` itself.
pub(crate) fn quantum_horizon(now: Time) -> Time {
    now + PROC_QUANTUM
}

/// What [`FrontEnd::next`] yields for one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// The node's next data reference. Its instruction time is already
    /// charged, so the node's [`FrontEnd::ready_at`] is the reference's
    /// issue time.
    Ref(MemRef),
    /// The next reference is due after the horizon, at this time.
    Sleep(Time),
    /// The node has issued its whole budget.
    Done,
}

#[derive(Debug)]
struct Proc {
    stream: NodeStream,
    /// When the processor can issue its next reference.
    ready_at: Time,
    /// Fractional instruction cycles carried to the next reference.
    instr_carry: f64,
    refs_issued: u64,
    measuring: bool,
    /// Start of the measured (post-warm-up) window.
    measure_start: Time,
    /// Executing time inside the measured window.
    busy: Time,
    finish_at: Option<Time>,
    /// Measured miss latencies (their count is the node's misses).
    miss_lat: LatencyHistogram,
}

/// Every node's processor: its reference stream, issue clock, warm-up
/// switch and measured-window accounting.
#[derive(Debug)]
pub(crate) struct FrontEnd {
    procs: Vec<Proc>,
    proc_cycle: Time,
    warmup_refs: u64,
    total_refs: u64,
    /// Nodes whose budget is issued (termination check without a scan).
    finished: usize,
    /// Nodes past warm-up (measured-window check without a scan).
    measuring: usize,
}

impl FrontEnd {
    /// One processor per stream of `workload`, each executing one
    /// instruction per `proc_cycle`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the workload does not have one
    /// processor per node of a `nodes`-node system.
    pub(crate) fn new(
        workload: Workload,
        nodes: usize,
        proc_cycle: Time,
    ) -> Result<Self, ConfigError> {
        let procs = workload.procs();
        if procs != nodes {
            let reason = format!("workload has {procs} processors, the system has {nodes} nodes");
            return Err(ConfigError::new("workload.procs", reason));
        }
        let spec = workload.spec();
        let warmup_refs = spec.warmup_refs_per_proc;
        let total_refs = spec.warmup_refs_per_proc + spec.data_refs_per_proc;
        let procs = workload
            .into_streams()
            .into_iter()
            .map(|stream| Proc {
                stream,
                ready_at: Time::ZERO,
                instr_carry: 0.0,
                refs_issued: 0,
                measuring: false,
                measure_start: Time::ZERO,
                busy: Time::ZERO,
                finish_at: None,
                miss_lat: LatencyHistogram::new(),
            })
            .collect();
        Ok(Self { procs, proc_cycle, warmup_refs, total_refs, finished: 0, measuring: 0 })
    }

    /// Issues node `i`'s next data reference if it is due by `horizon`.
    ///
    /// The reference costs one processor cycle plus its instruction time
    /// (instruction fetches never miss; fractional instruction counts carry
    /// over), and a measured one is tallied into `events`. The reference
    /// after the warm-up budget opens the node's measured window at its
    /// issue time, with its own cost as the first busy time. A node past
    /// its budget finishes at `ready_at.max(now)`: the ring issues up to
    /// `now`, so it finishes at `now`, and the event-driven systems enter
    /// with `ready_at >= now`, so they finish at `ready_at`.
    #[inline]
    pub(crate) fn next(
        &mut self,
        i: usize,
        now: Time,
        horizon: Time,
        events: &mut CoherenceEvents,
    ) -> Step {
        let p = &mut self.procs[i];
        if p.finish_at.is_some() {
            return Step::Done;
        }
        if p.ready_at > horizon {
            return Step::Sleep(p.ready_at);
        }
        if p.refs_issued == self.total_refs {
            p.finish_at = Some(p.ready_at.max(now));
            self.finished += 1;
            return Step::Done;
        }
        let icycles = p.instr_carry + p.stream.instr_per_data();
        let whole = icycles.floor();
        p.instr_carry = icycles - whole;
        let cost = self.proc_cycle * (1 + whole as u64);
        if p.measuring {
            p.busy += cost;
        }
        p.ready_at += cost;
        let r = p.stream.next_ref();
        p.refs_issued += 1;
        if !p.measuring && p.refs_issued > self.warmup_refs {
            p.measuring = true;
            self.measuring += 1;
            p.measure_start = p.ready_at;
            p.busy = cost;
        }
        if p.measuring {
            match (r.region, r.kind) {
                (Region::Private, AccessKind::Read) => events.private_reads += 1,
                (Region::Private, AccessKind::Write) => events.private_writes += 1,
                (Region::Shared, AccessKind::Read) => events.shared_reads += 1,
                (Region::Shared, AccessKind::Write) => events.shared_writes += 1,
            }
        }
        Step::Ref(r)
    }

    /// Node `i` stalled on a transaction until `done`: it issues its next
    /// reference no earlier.
    pub(crate) fn resume(&mut self, i: usize, done: Time) {
        let p = &mut self.procs[i];
        p.ready_at = p.ready_at.max(done);
    }

    /// Books one measured miss of node `i`.
    pub(crate) fn record_miss(&mut self, i: usize, latency: Time) {
        self.procs[i].miss_lat.record_time(latency);
    }

    /// When node `i` can issue its next reference.
    pub(crate) fn ready_at(&self, i: usize) -> Time {
        self.procs[i].ready_at
    }

    /// Whether node `i` is past its warm-up.
    pub(crate) fn measuring(&self, i: usize) -> bool {
        self.procs[i].measuring
    }

    /// Whether node `i` has issued its whole budget.
    pub(crate) fn finished(&self, i: usize) -> bool {
        self.procs[i].finish_at.is_some()
    }

    /// Whether every node has issued its whole budget.
    pub(crate) fn all_finished(&self) -> bool {
        self.finished == self.procs.len()
    }

    /// Whether every node is past its warm-up.
    pub(crate) fn all_measuring(&self) -> bool {
        self.measuring == self.procs.len()
    }

    /// Node count.
    pub(crate) fn len(&self) -> usize {
        self.procs.len()
    }

    /// Processor cycle time.
    pub(crate) fn proc_cycle(&self) -> Time {
        self.proc_cycle
    }

    /// Every node's measured window, for the report.
    ///
    /// # Panics
    ///
    /// Panics if a node has not finished.
    pub(crate) fn measures(&self) -> impl Iterator<Item = NodeMeasure<'_>> {
        self.procs.iter().map(|p| NodeMeasure {
            finished_at: p.finish_at.expect("all nodes finished"),
            measure_start: p.measure_start,
            busy: p.busy,
            misses: p.miss_lat.count(),
            miss_lat: &p.miss_lat,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringsim_trace::WorkloadSpec;

    const CYCLE: Time = Time::from_ns(20);

    fn front(warmup: u64, refs: u64, instr_per_data: f64) -> FrontEnd {
        let spec = WorkloadSpec::builder(2)
            .refs(refs)
            .warmup_refs(warmup)
            .instr_per_data(instr_per_data)
            .build()
            .expect("spec");
        FrontEnd::new(Workload::new(spec).expect("workload"), 2, CYCLE).expect("front end")
    }

    fn issue(f: &mut FrontEnd) -> Step {
        f.next(0, Time::ZERO, Time::from_us(1_000), &mut CoherenceEvents::default())
    }

    #[test]
    fn first_measured_reference_opens_the_window_with_its_own_cost() {
        // 1.5 instructions per data reference: costs alternate 2 and 3
        // cycles (0 + 1.5 → 1 whole, carry .5; .5 + 1.5 → 2 whole, carry 0).
        let mut f = front(2, 3, 1.5);
        for _ in 0..2 {
            assert!(matches!(issue(&mut f), Step::Ref(_)));
        }
        assert!(!f.measuring(0));
        assert_eq!(f.ready_at(0), CYCLE * 5);
        assert!(matches!(issue(&mut f), Step::Ref(_)));
        assert!(f.measuring(0) && !f.measuring(1) && !f.all_measuring());
        let m = f.procs[0].measure_start;
        assert_eq!(m, CYCLE * 7, "the window opens at the first measured issue");
        assert_eq!(f.procs[0].busy, CYCLE * 2, "busy is that reference's own cost");
    }

    #[test]
    fn fractional_instructions_carry_across_references() {
        let mut f = front(0, 4, 0.25);
        let mut issued = Vec::new();
        for _ in 0..4 {
            assert!(matches!(issue(&mut f), Step::Ref(_)));
            issued.push(f.ready_at(0));
        }
        // 0.25 instructions per reference: the fourth one carries a whole
        // extra instruction cycle.
        assert_eq!(issued, vec![CYCLE, CYCLE * 2, CYCLE * 3, CYCLE * 5]);
        assert!((f.procs[0].instr_carry - 0.0).abs() < 1e-12);
    }

    #[test]
    fn sleeps_past_the_horizon_and_issues_up_to_it() {
        let mut f = front(0, 10, 0.0);
        let mut ev = CoherenceEvents::default();
        assert!(matches!(f.next(0, Time::ZERO, Time::ZERO, &mut ev), Step::Ref(_)));
        // Due at one cycle: past a horizon of zero, at a horizon of one.
        assert_eq!(f.next(0, Time::ZERO, Time::ZERO, &mut ev), Step::Sleep(CYCLE));
        assert!(matches!(f.next(0, Time::ZERO, CYCLE, &mut ev), Step::Ref(_)));
        assert_eq!(ev.data_refs(), 2);
        // The quantum lets an event-driven system run ten cycles ahead.
        let mut n = 0;
        while let Step::Ref(_) = f.next(0, Time::ZERO, quantum_horizon(Time::ZERO), &mut ev) {
            n += 1;
        }
        assert_eq!(n, 8, "issued at cycles 2..=9 (the budget ends at 10)");
    }

    #[test]
    fn finishes_no_earlier_than_now_and_only_once() {
        let mut f = front(0, 1, 0.0);
        let mut ev = CoherenceEvents::default();
        assert!(matches!(f.next(0, Time::ZERO, Time::ZERO, &mut ev), Step::Ref(_)));
        // Event-driven entry: ready_at (one cycle) >= now.
        let mut g = front(0, 1, 0.0);
        assert!(matches!(g.next(0, Time::ZERO, Time::ZERO, &mut ev), Step::Ref(_)));
        assert_eq!(g.next(0, CYCLE, quantum_horizon(CYCLE), &mut ev), Step::Done);
        assert_eq!(g.procs[0].finish_at, Some(CYCLE));
        // The ring steps later than ready_at: the node finishes at now.
        let now = CYCLE * 3;
        assert_eq!(f.next(0, now, now, &mut ev), Step::Done);
        assert_eq!(f.procs[0].finish_at, Some(now));
        assert!(f.finished(0) && !f.finished(1) && !f.all_finished());
        assert_eq!(f.next(0, now * 2, now * 2, &mut ev), Step::Done);
        assert_eq!(f.procs[0].finish_at, Some(now), "finishing is idempotent");
        assert_eq!(f.finished, 1);
    }
}
