//! The recorder handle the simulators carry.
//!
//! [`Obs`] is an `Option<Box<Recorder>>` in a trenchcoat: every
//! instrumentation call is `#[inline]` and begins with a single
//! `is-enabled` branch, so a disabled handle compiles down to a
//! predictable never-taken jump — the simulators pay nothing measurable
//! and, because the recorder only *observes* (it never touches the RNG,
//! the schedule, or report contents), artifacts stay byte-identical
//! whether telemetry is on or off. CI enforces that, the same way it does
//! for the coherence sanitizer.
//!
//! A transaction is recorded as `txn_begin` → zero or more `txn_mark`
//! phase boundaries → `txn_end`, which emits one top-level span (`cat:
//! "txn"`) plus one sub-span per phase (`cat: "phase"`) into the bounded
//! trace buffer. Gauges go into [`Timeline`]s sampled every
//! [`ObsConfig::sample_period`] of simulated time.

use ringsim_types::Time;

use crate::timeline::Timeline;
use crate::trace::{TraceBuffer, DEFAULT_TRACE_CAPACITY};

/// Tuning knobs for an enabled recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Trace ring-buffer capacity, in events. `0` records no trace
    /// events and skips the per-transaction span bookkeeping: the
    /// recorder then keeps gauge timelines only.
    pub trace_capacity: usize,
    /// Simulated-time interval between gauge samples.
    pub sample_period: Time,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self { trace_capacity: DEFAULT_TRACE_CAPACITY, sample_period: Time::from_ns(500) }
    }
}

/// An open (not yet retired) transaction being traced.
#[derive(Debug, Clone)]
struct OpenTxn {
    name: &'static str,
    block: u64,
    start: Time,
    marks: Vec<(&'static str, Time)>,
}

/// The live recording state behind an enabled [`Obs`].
#[derive(Debug)]
pub struct Recorder {
    cfg: ObsConfig,
    /// Per-transaction event buffer.
    pub trace: TraceBuffer,
    /// Gauge time series, in [`Obs::add_timeline`] order.
    pub timelines: Vec<Timeline>,
    open: Vec<Option<OpenTxn>>,
    next_sample: Time,
    accs: Vec<(f64, u64)>,
}

/// Telemetry handle carried by every simulator; cheap no-op when disabled.
#[derive(Debug, Default)]
pub struct Obs {
    rec: Option<Box<Recorder>>,
}

impl Obs {
    /// A disabled handle: every call is a single never-taken branch.
    #[must_use]
    pub fn disabled() -> Self {
        Self { rec: None }
    }

    /// An enabled handle for a machine with `nodes` processors.
    #[must_use]
    pub fn enabled(cfg: ObsConfig, nodes: usize) -> Self {
        Self {
            rec: Some(Box::new(Recorder {
                cfg,
                trace: TraceBuffer::new(cfg.trace_capacity),
                timelines: Vec::new(),
                open: vec![None; nodes],
                next_sample: Time::ZERO,
                accs: Vec::new(),
            })),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// Consumes the handle, yielding the recorder if it was enabled.
    #[must_use]
    pub fn into_recorder(self) -> Option<Recorder> {
        self.rec.map(|b| *b)
    }

    /// Starts tracing a transaction on `node`.
    #[inline]
    pub fn txn_begin(&mut self, node: usize, name: &'static str, block: u64, at: Time) {
        let Some(r) = self.rec.as_deref_mut() else { return };
        if r.cfg.trace_capacity == 0 {
            return;
        }
        if let Some(slot) = r.open.get_mut(node) {
            *slot = Some(OpenTxn { name, block, start: at, marks: Vec::new() });
        }
    }

    /// Records a phase boundary of `node`'s open transaction: the phase
    /// named `phase` *completed* at `at`.
    #[inline]
    pub fn txn_mark(&mut self, node: usize, phase: &'static str, at: Time) {
        let Some(r) = self.rec.as_deref_mut() else { return };
        if let Some(Some(t)) = r.open.get_mut(node) {
            t.marks.push((phase, at));
        }
    }

    /// Retires `node`'s open transaction at `at`, emitting its spans.
    /// `name` is the final top-level event name (`"miss"` / `"upgrade"` —
    /// a transaction's kind can convert mid-flight, so it is resolved at
    /// retire time); `class` labels the resolved transaction class (e.g.
    /// `"dirty"`).
    #[inline]
    pub fn txn_end(&mut self, node: usize, name: &'static str, class: &'static str, at: Time) {
        let Some(r) = self.rec.as_deref_mut() else { return };
        let Some(Some(txn)) = r.open.get_mut(node).map(Option::take) else { return };
        r.emit_txn(node, &txn, name, class, at);
    }

    /// Discards `node`'s open transaction without emitting anything (e.g.
    /// a retried transaction restarting from scratch keeps its original
    /// `txn_begin`, so this is only for true abandonment).
    #[inline]
    pub fn txn_abandon(&mut self, node: usize) {
        let Some(r) = self.rec.as_deref_mut() else { return };
        if let Some(slot) = r.open.get_mut(node) {
            *slot = None;
        }
    }

    /// Emits an instant event (e.g. a retry NAK) on `node`'s track.
    #[inline]
    pub fn instant(&mut self, node: usize, name: &'static str, at: Time) {
        let Some(r) = self.rec.as_deref_mut() else { return };
        r.trace.push(crate::trace::instant(name, "event", node as u32, at));
    }

    /// Registers a gauge timeline; returns its index for [`Obs::sample`].
    /// Returns `usize::MAX` when disabled (safe to pass back in).
    pub fn add_timeline(&mut self, name: &str, columns: &[&str]) -> usize {
        let Some(r) = self.rec.as_deref_mut() else { return usize::MAX };
        r.timelines.push(Timeline::new(name, columns));
        r.timelines.len() - 1
    }

    /// Whether a gauge sample is due at simulated time `now`; advances the
    /// sampling clock when it is. Always `false` when disabled.
    #[inline]
    pub fn sample_due(&mut self, now: Time) -> bool {
        let Some(r) = self.rec.as_deref_mut() else { return false };
        if now < r.next_sample {
            return false;
        }
        let period = r.cfg.sample_period.max(Time::from_ps(1));
        r.next_sample = now + period;
        true
    }

    /// When the next gauge sample falls due (`None` when disabled). A
    /// simulator that skips idle cycles stops at this time, so its
    /// timelines match a cycle-by-cycle run's.
    #[must_use]
    pub fn next_sample(&self) -> Option<Time> {
        self.rec.as_deref().map(|r| r.next_sample)
    }

    /// Pushes one gauge row (pair with a `true` from [`Obs::sample_due`]).
    #[inline]
    pub fn sample(&mut self, timeline: usize, now: Time, values: Vec<f64>) {
        let Some(r) = self.rec.as_deref_mut() else { return };
        if let Some(t) = r.timelines.get_mut(timeline) {
            t.push(now, values);
        }
    }

    /// Adds `v` to windowed accumulator `idx` (grown on demand). Used for
    /// gauges that average over the sampling window, like arbitration wait.
    #[inline]
    pub fn acc_add(&mut self, idx: usize, v: f64) {
        let Some(r) = self.rec.as_deref_mut() else { return };
        if r.accs.len() <= idx {
            r.accs.resize(idx + 1, (0.0, 0));
        }
        let (sum, n) = &mut r.accs[idx];
        *sum += v;
        *n += 1;
    }

    /// Drains accumulator `idx`, returning the mean over the window (0 if
    /// nothing accumulated or disabled).
    #[inline]
    pub fn acc_take_mean(&mut self, idx: usize) -> f64 {
        let Some(r) = self.rec.as_deref_mut() else { return 0.0 };
        match r.accs.get_mut(idx) {
            Some((sum, n)) if *n > 0 => {
                let mean = *sum / *n as f64;
                *sum = 0.0;
                *n = 0;
                mean
            }
            _ => 0.0,
        }
    }
}

impl Recorder {
    fn emit_txn(
        &mut self,
        node: usize,
        txn: &OpenTxn,
        name: &'static str,
        class: &'static str,
        end: Time,
    ) {
        let tid = node as u32;
        let end = end.max(txn.start);
        // Clamp marks into [start, end] and make them monotone: some marks
        // are scheduled completion times that can sit past the next mark's
        // event time by a latency constant.
        let mut prev = txn.start;
        for &(phase, at) in &txn.marks {
            let at = at.clamp(prev, end);
            self.trace.push(crate::trace::span(phase, "phase", tid, prev, at));
            prev = at;
        }
        if prev < end {
            self.trace.push(crate::trace::span("retire", "phase", tid, prev, end));
        }
        let mut top = crate::trace::span(name, "txn", tid, txn.start, end);
        top.args.push(("op", txn.name.to_owned()));
        top.args.push(("class", class.to_owned()));
        top.args.push(("block", format!("{:#x}", txn.block)));
        self.trace.push(top);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let mut obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.txn_begin(0, "read", 1, Time::from_ns(5));
        obs.txn_mark(0, "probe", Time::from_ns(6));
        obs.txn_end(0, "miss", "dirty", Time::from_ns(9));
        assert!(!obs.sample_due(Time::from_ns(100)));
        assert_eq!(obs.add_timeline("x", &["a"]), usize::MAX);
        assert!(obs.into_recorder().is_none());
    }

    #[test]
    fn txn_spans_cover_latency() {
        let mut obs = Obs::enabled(ObsConfig::default(), 2);
        obs.txn_begin(1, "read", 0x40, Time::from_ns(100));
        obs.txn_mark(1, "probe", Time::from_ns(140));
        // Out-of-order mark gets clamped, not reordered.
        obs.txn_mark(1, "forward", Time::from_ns(130));
        obs.txn_end(1, "miss", "dirty", Time::from_ns(200));
        let rec = obs.into_recorder().unwrap();
        let spans: Vec<_> = rec.trace.events().collect();
        // probe + forward + retire + top-level miss.
        assert_eq!(spans.len(), 4);
        let top = spans.last().unwrap();
        assert_eq!(top.name, "miss");
        assert_eq!(top.dur_ps, 100_000);
        // Phase spans tile [start, end] exactly.
        let phase_total: u64 = spans.iter().filter(|e| e.cat == "phase").map(|e| e.dur_ps).sum();
        assert_eq!(phase_total, top.dur_ps);
    }

    #[test]
    fn zero_trace_capacity_keeps_timelines_only() {
        let cfg = ObsConfig { trace_capacity: 0, ..Default::default() };
        let mut obs = Obs::enabled(cfg, 1);
        let tl = obs.add_timeline("ring", &["util"]);
        for i in 0..10u64 {
            obs.txn_begin(0, "read", 0x40, Time::from_ns(10 * i));
            obs.txn_mark(0, "probe", Time::from_ns(10 * i + 3));
            obs.instant(0, "retry", Time::from_ns(10 * i + 4));
            obs.txn_end(0, "miss", "dirty", Time::from_ns(10 * i + 5));
            if obs.sample_due(Time::from_ns(10 * i)) {
                obs.sample(tl, Time::from_ns(10 * i), vec![0.5]);
            }
        }
        let rec = obs.into_recorder().unwrap();
        assert!(rec.trace.is_empty());
        assert_eq!(rec.trace.dropped(), 0);
        assert!(rec.open.iter().all(Option::is_none));
        assert_eq!(rec.timelines[0].rows.len(), 1);
    }

    #[test]
    fn sampling_clock_advances() {
        let cfg = ObsConfig { sample_period: Time::from_ns(10), ..Default::default() };
        let mut obs = Obs::enabled(cfg, 1);
        assert!(obs.sample_due(Time::ZERO));
        assert!(!obs.sample_due(Time::from_ns(5)));
        assert!(obs.sample_due(Time::from_ns(10)));
    }

    #[test]
    fn accumulator_windows() {
        let mut obs = Obs::enabled(ObsConfig::default(), 1);
        obs.acc_add(0, 10.0);
        obs.acc_add(0, 30.0);
        assert_eq!(obs.acc_take_mean(0), 20.0);
        assert_eq!(obs.acc_take_mean(0), 0.0);
    }
}
