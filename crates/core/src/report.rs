use serde::{Deserialize, Serialize};

use ringsim_obs::{LatencyHistogram, MetricsSummary, Obs};
use ringsim_types::stats::RunningMean;
use ringsim_types::{CoherenceEvents, Time};

use crate::front_end::FrontEnd;

/// Latency distributions by transaction class (the requester's view).
///
/// Each class is a full log2-bucketed [`LatencyHistogram`], so both the
/// legacy means *and* percentiles come from the same accumulator, and
/// sweep shards merge deterministically.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClassLatencies {
    /// Misses satisfied by the local memory bank (no interconnect).
    pub local: LatencyHistogram,
    /// Misses served clean by a remote home.
    pub clean_remote: LatencyHistogram,
    /// Misses served by a dirty cache.
    pub dirty: LatencyHistogram,
    /// Upgrade (invalidation) transactions.
    pub upgrade: LatencyHistogram,
}

/// Per-node summary in a [`SimReport`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeSummary {
    /// Fraction of its measured window the processor spent executing.
    pub util: f64,
    /// Misses it suffered (measured window).
    pub misses: u64,
    /// Mean miss latency in nanoseconds.
    pub mean_miss_latency_ns: f64,
    /// 95th-percentile miss latency in nanoseconds (histogram upper edge).
    pub p95_miss_latency_ns: f64,
    /// Time the node finished its reference budget.
    pub finished_at: Time,
}

/// One node's raw measurements, as handed to [`summarize_nodes`] by the
/// latency book and the hierarchy simulator.
#[derive(Debug, Clone)]
pub struct NodeMeasure<'a> {
    /// When the node finished its reference budget.
    pub finished_at: Time,
    /// Start of its measured (post-warmup) window.
    pub measure_start: Time,
    /// Busy (executing) time inside the measured window.
    pub busy: Time,
    /// Misses inside the measured window.
    pub misses: u64,
    /// Its miss-latency distribution.
    pub miss_lat: &'a LatencyHistogram,
}

/// `part` as a fraction of `whole`, capped at 1 (0 for an empty `whole`).
pub(crate) fn fraction(part: Time, whole: Time) -> f64 {
    if whole.is_zero() {
        0.0
    } else {
        (part.as_ps() as f64 / whole.as_ps() as f64).min(1.0)
    }
}

/// Builds the per-node rows, the mean processor utilisation, and the
/// overall simulation end from raw per-node measurements. The single code
/// path behind every simulator's report *and* the obs exporters.
pub fn summarize_nodes<'a>(
    measures: impl IntoIterator<Item = NodeMeasure<'a>>,
) -> (Vec<NodeSummary>, f64, Time) {
    let mut per_node = Vec::new();
    let mut sim_end = Time::ZERO;
    for m in measures {
        sim_end = sim_end.max(m.finished_at);
        per_node.push(NodeSummary {
            util: fraction(m.busy, m.finished_at.saturating_sub(m.measure_start)),
            misses: m.misses,
            mean_miss_latency_ns: m.miss_lat.mean(),
            p95_miss_latency_ns: m.miss_lat.p95(),
            finished_at: m.finished_at,
        });
    }
    let proc_util = per_node.iter().map(|n| n.util).sum::<f64>() / per_node.len().max(1) as f64;
    (per_node, proc_util, sim_end)
}

/// How a finished transaction is booked: an upgrade, or a miss by where
/// its data came from (the [`ClassLatencies`] buckets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxnClass {
    /// A miss the requester's own memory bank served.
    Local,
    /// A miss a remote home served clean.
    CleanRemote,
    /// A miss a dirty cache served.
    Dirty,
    /// An upgrade (invalidation or update) of a held line.
    Upgrade,
}

/// The measured-window bookkeeping every reference-stream system shares:
/// miss and upgrade latencies, per-class histograms, coherence event
/// counts, and the interconnect counters `S` at the instant every node had
/// warmed up. It assembles the system's [`SimReport`].
#[derive(Debug, Default)]
pub(crate) struct LatencyBook<S> {
    miss_lat: RunningMean,
    miss_hist: LatencyHistogram,
    upg_lat: RunningMean,
    class_lat: ClassLatencies,
    /// Coherence event counts (measured window only); each system
    /// classifies its transactions into them.
    pub(crate) events: CoherenceEvents,
    /// `S` and the time when the last node entered its measured window.
    window: Option<(S, Time)>,
}

impl<S: Copy + Default> LatencyBook<S> {
    /// Opens the measured interconnect window with `at`'s counters and time
    /// once every node of `front` has warmed up.
    pub(crate) fn open_window(&mut self, front: &FrontEnd, at: impl FnOnce() -> (S, Time)) {
        if self.window.is_none() && front.all_measuring() {
            self.window = Some(at());
        }
    }

    /// Books node `i`'s transaction of `class`, started at `start` and
    /// finished at `done`, and closes its trace span. A warm-up
    /// transaction counts toward no metric, so it is dropped from the trace
    /// too: spans and histograms agree. Inlined: out of line, the call
    /// slowed `sci500-16p` by 3%.
    #[inline]
    pub(crate) fn record(
        &mut self,
        front: &mut FrontEnd,
        obs: &mut Obs,
        i: usize,
        class: TxnClass,
        start: Time,
        done: Time,
    ) {
        if !front.measuring(i) {
            obs.txn_abandon(i);
            return;
        }
        let latency = done.saturating_sub(start);
        let (hist, op, label) = match class {
            TxnClass::Local => (&mut self.class_lat.local, "miss", "local"),
            TxnClass::CleanRemote => (&mut self.class_lat.clean_remote, "miss", "clean_remote"),
            TxnClass::Dirty => (&mut self.class_lat.dirty, "miss", "dirty"),
            TxnClass::Upgrade => (&mut self.class_lat.upgrade, "upgrade", "upgrade"),
        };
        hist.record_time(latency);
        if class == TxnClass::Upgrade {
            self.upg_lat.push_time_ns(latency);
        } else {
            self.miss_lat.push_time_ns(latency);
            self.miss_hist.record_time(latency);
            front.record_miss(i, latency);
        }
        obs.txn_end(i, op, label, done);
    }

    /// The run's report. `util` maps the counters at the measured
    /// window's start and the window's length (to the simulation end) onto
    /// the report's `(ring_util, probe_util, block_util)`; when no window
    /// opened, it is the whole run.
    pub(crate) fn report(
        &self,
        protocol: String,
        front: &FrontEnd,
        retries: u64,
        util: impl FnOnce(S, Time) -> (f64, f64, f64),
    ) -> SimReport {
        let (per_node, proc_util, sim_end) = summarize_nodes(front.measures());
        let (base, start) = self.window.unwrap_or_default();
        let (ring_util, probe_util, block_util) = util(base, sim_end.saturating_sub(start));
        SimReport {
            protocol,
            nodes: front.len(),
            proc_cycle: front.proc_cycle(),
            sim_end,
            proc_util,
            ring_util,
            probe_util,
            block_util,
            miss_latency: self.miss_lat,
            miss_histogram: self.miss_hist.clone(),
            upgrade_latency: self.upg_lat,
            class_latencies: self.class_lat.clone(),
            events: self.events,
            retries,
            per_node,
        }
    }
}

/// Results of one timed system simulation.
///
/// The latency and utilisation definitions follow the paper:
///
/// * **processor utilisation** — fraction of time the processor is busy
///   executing rather than waiting for misses or invalidations (footnote 2);
/// * **ring slot utilisation** — average fraction of occupied slots;
/// * **miss latency** — mean stall time of misses (upgrades reported
///   separately).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Protocol the system ran.
    pub protocol: String,
    /// Node count.
    pub nodes: usize,
    /// Processor cycle time.
    pub proc_cycle: Time,
    /// End of simulation (all nodes done).
    pub sim_end: Time,
    /// Mean processor utilisation over nodes, 0–1.
    pub proc_util: f64,
    /// Ring slot utilisation, 0–1 (all slot kinds).
    pub ring_util: f64,
    /// Probe-slot utilisation, 0–1.
    pub probe_util: f64,
    /// Block-slot utilisation, 0–1.
    pub block_util: f64,
    /// Mean miss latency (ns) over all misses (exact, unrounded sums).
    pub miss_latency: RunningMean,
    /// Miss-latency distribution (log2 buckets; p50/p95/p99 and merge).
    pub miss_histogram: LatencyHistogram,
    /// Mean upgrade (invalidation) latency (ns).
    pub upgrade_latency: RunningMean,
    /// Latency distribution by transaction class.
    pub class_latencies: ClassLatencies,
    /// Coherence event counts, summed over nodes (measured window only).
    pub events: CoherenceEvents,
    /// Nacked-and-retried transactions (snooping) or home-queued requests
    /// (directory).
    pub retries: u64,
    /// Per-node summaries.
    pub per_node: Vec<NodeSummary>,
}

impl SimReport {
    /// Directory miss-class breakdown in percent — Figure 5's three bars:
    /// (1-cycle clean, 1-cycle dirty, 2-cycle).
    #[must_use]
    pub fn fig5_percentages(&self) -> (f64, f64, f64) {
        let c1 = self.events.fig5_one_cycle_clean() as f64;
        let d1 = self.events.fig5_one_cycle_dirty() as f64;
        let c2 = self.events.fig5_two_cycle() as f64;
        let total = c1 + d1 + c2;
        if total == 0.0 {
            (0.0, 0.0, 0.0)
        } else {
            (100.0 * c1 / total, 100.0 * d1 / total, 100.0 * c2 / total)
        }
    }

    /// Mean miss latency in nanoseconds (0 when no misses).
    #[must_use]
    pub fn miss_latency_ns(&self) -> f64 {
        self.miss_latency.mean()
    }

    /// Miss-latency percentile in nanoseconds, resolved to the upper edge
    /// of the containing log2 bucket; `None` when no misses were recorded.
    #[must_use]
    pub fn miss_latency_percentile(&self, q: f64) -> Option<f64> {
        (self.miss_histogram.count() > 0).then(|| self.miss_histogram.quantile(q))
    }

    /// Mean latency over misses *and* upgrades, weighted by count.
    #[must_use]
    pub fn stall_latency_ns(&self) -> f64 {
        let mut all = self.miss_latency;
        all.merge(&self.upgrade_latency);
        all.mean()
    }

    /// This run's per-class digest for the obs exporters / metrics sink.
    #[must_use]
    pub fn metrics_summary(&self) -> MetricsSummary {
        MetricsSummary {
            runs: 1,
            miss: self.miss_histogram.clone(),
            upgrade: self.class_latencies.upgrade.clone(),
            local: self.class_latencies.local.clone(),
            clean_remote: self.class_latencies.clean_remote.clone(),
            dirty: self.class_latencies.dirty.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_report() -> SimReport {
        SimReport {
            protocol: "directory".into(),
            nodes: 8,
            proc_cycle: Time::from_ns(20),
            sim_end: Time::from_us(1),
            proc_util: 0.5,
            ring_util: 0.1,
            probe_util: 0.1,
            block_util: 0.1,
            miss_latency: RunningMean::default(),
            miss_histogram: LatencyHistogram::new(),
            upgrade_latency: RunningMean::default(),
            class_latencies: ClassLatencies::default(),
            events: CoherenceEvents::default(),
            retries: 0,
            per_node: vec![],
        }
    }

    #[test]
    fn fig5_percentages_sum_to_100() {
        let events = CoherenceEvents {
            read_clean_remote: 60,
            read_dirty_1: 25,
            read_dirty_2: 15,
            ..CoherenceEvents::default()
        };
        let r = SimReport { events, ..empty_report() };
        let (a, b, c) = r.fig5_percentages();
        assert!((a + b + c - 100.0).abs() < 1e-9);
        assert!((a - 60.0).abs() < 1e-9);
    }

    #[test]
    fn stall_latency_merges() {
        let mut miss = RunningMean::default();
        miss.push(300.0);
        let mut upg = RunningMean::default();
        upg.push(100.0);
        let r = SimReport {
            protocol: "snooping".into(),
            miss_latency: miss,
            upgrade_latency: upg,
            ..empty_report()
        };
        assert!((r.stall_latency_ns() - 200.0).abs() < 1e-9);
        assert!((r.miss_latency_ns() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_pinned_against_hand_computed_distribution() {
        // Hand-computed distribution: 20 samples.
        //   12 × 100 ns  → bucket [64, 128)    (upper edge 128)
        //    6 × 700 ns  → bucket [512, 1024)  (upper edge 1024)
        //    2 × 3000 ns → bucket [2048, 4096) (upper edge 4096)
        //
        // p50 rank = ceil(0.5·20) = 10 → 10th sample is a 100 ns one
        //   → upper edge 128 ns.
        // p95 rank = ceil(0.95·20) = 19 → 19th sample is a 3000 ns one
        //   → upper edge 4096 ns.
        let mut r = empty_report();
        for _ in 0..12 {
            r.miss_histogram.record(100.0);
        }
        for _ in 0..6 {
            r.miss_histogram.record(700.0);
        }
        for _ in 0..2 {
            r.miss_histogram.record(3000.0);
        }
        assert_eq!(r.miss_latency_percentile(0.5), Some(128.0));
        assert_eq!(r.miss_latency_percentile(0.95), Some(4096.0));
        // And the boundary just below p95's rank: ceil(0.90·20) = 18 → a
        // 700 ns sample → 1024 ns.
        assert_eq!(r.miss_latency_percentile(0.90), Some(1024.0));
        // No samples → no percentile.
        assert_eq!(empty_report().miss_latency_percentile(0.5), None);
    }

    #[test]
    fn summarize_nodes_single_code_path() {
        let mut h = LatencyHistogram::new();
        h.record(100.0);
        h.record(300.0);
        let empty = LatencyHistogram::new();
        let measures = vec![
            NodeMeasure {
                finished_at: Time::from_us(2),
                measure_start: Time::from_us(1),
                busy: Time::from_ns(250),
                misses: 2,
                miss_lat: &h,
            },
            NodeMeasure {
                finished_at: Time::from_us(3),
                measure_start: Time::from_us(1),
                busy: Time::from_us(1),
                misses: 0,
                miss_lat: &empty,
            },
        ];
        let (rows, proc_util, sim_end) = summarize_nodes(measures);
        assert_eq!(rows.len(), 2);
        assert_eq!(sim_end, Time::from_us(3));
        assert!((rows[0].util - 0.25).abs() < 1e-12);
        assert!((rows[1].util - 0.5).abs() < 1e-12);
        assert!((proc_util - 0.375).abs() < 1e-12);
        assert_eq!(rows[0].mean_miss_latency_ns, 200.0);
        assert_eq!(rows[0].p95_miss_latency_ns, 512.0);
        assert_eq!(rows[1].misses, 0);
    }
}
