//! Metrics summaries and exporters (JSON / CSV), plus the owned
//! [`MetricsSink`] a caller hands down to the runs it wants folded.
//!
//! [`MetricsSummary`] is the per-run digest every simulator can produce:
//! one [`LatencyHistogram`] per transaction class. Its merge is exactly
//! order-independent (integer sums — see `hist`), which is what lets the
//! parallel sweep engine fold worker shards in completion order and still
//! write byte-identical `metrics.json` artifacts for any `--jobs N`.

use std::sync::Mutex;

use serde::{Deserialize, Serialize, Value};

use crate::hist::LatencyHistogram;
use crate::timeline::Timeline;

/// Per-transaction-class latency digest of one or more runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSummary {
    /// Number of runs folded into this summary.
    pub runs: u64,
    /// All misses (every class combined).
    pub miss: LatencyHistogram,
    /// Write upgrades (ownership acquisition without a data transfer).
    pub upgrade: LatencyHistogram,
    /// Misses satisfied by the local cluster/home.
    pub local: LatencyHistogram,
    /// Misses served by a clean remote home.
    pub clean_remote: LatencyHistogram,
    /// Misses forwarded to a dirty remote cache.
    pub dirty: LatencyHistogram,
}

impl MetricsSummary {
    /// Folds another summary into this one (associative and commutative).
    pub fn merge(&mut self, other: &Self) {
        self.runs += other.runs;
        self.miss.merge(&other.miss);
        self.upgrade.merge(&other.upgrade);
        self.local.merge(&other.local);
        self.clean_remote.merge(&other.clean_remote);
        self.dirty.merge(&other.dirty);
    }

    /// `(label, histogram)` pairs, for table/CSV rendering.
    #[must_use]
    pub fn classes(&self) -> [(&'static str, &LatencyHistogram); 5] {
        [
            ("miss", &self.miss),
            ("upgrade", &self.upgrade),
            ("local", &self.local),
            ("clean_remote", &self.clean_remote),
            ("dirty", &self.dirty),
        ]
    }

    /// Renders per-class count / mean / percentiles as CSV.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("class,count,mean_ns,p50_ns,p95_ns,p99_ns,min_ns,max_ns\n");
        for (name, h) in self.classes() {
            out.push_str(&format!(
                "{name},{},{:.3},{},{},{},{},{}\n",
                h.count(),
                h.mean(),
                h.p50(),
                h.p95(),
                h.p99(),
                h.min().unwrap_or(0.0),
                h.max().unwrap_or(0.0),
            ));
        }
        out
    }
}

/// The on-disk metrics document: a summary plus any gauge timelines.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsFile {
    /// Per-class latency digest.
    pub summary: MetricsSummary,
    /// Gauge time series captured during the run(s).
    pub timelines: Vec<Timeline>,
}

impl MetricsFile {
    /// Serializes to pretty JSON (the `--metrics <path>` format).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("metrics serialization is infallible")
    }
}

/// Rebuilds a histogram from its parsed JSON form (`ringsim stats` input).
#[must_use]
pub fn hist_from_json(v: &Value) -> Option<LatencyHistogram> {
    let count = v.get("count")?.as_u64()?;
    let sum_ns = v.get("sum_ns")?.as_u64()?;
    let min = v.get("min").and_then(Value::as_f64);
    let max = v.get("max").and_then(Value::as_f64);
    let buckets: Vec<u64> =
        v.get("buckets")?.as_array()?.iter().map(Value::as_u64).collect::<Option<_>>()?;
    LatencyHistogram::from_parts(count, sum_ns, min, max, buckets)
}

/// An owned metrics sink: the runs of one invocation (a CLI run, a server)
/// fold their summaries into it, and — when its owner asked for them —
/// their gauge timelines. Merging is order-independent and timelines are
/// drained sorted by name, so parallel sweep workers racing on the mutex
/// cannot perturb the output.
#[derive(Debug, Default)]
pub struct MetricsSink {
    keep_timelines: bool,
    file: Mutex<MetricsFile>,
}

impl MetricsSink {
    /// An empty sink; `keep_timelines` decides whether [`fold`](Self::fold)
    /// retains timelines or drops them.
    #[must_use]
    pub fn new(keep_timelines: bool) -> Self {
        Self { keep_timelines, file: Mutex::default() }
    }

    /// Whether this sink retains the timelines folded into it.
    #[must_use]
    pub fn keeps_timelines(&self) -> bool {
        self.keep_timelines
    }

    /// Folds one run's summary, plus its timelines when this sink keeps
    /// them.
    pub fn fold(&self, summary: &MetricsSummary, timelines: impl IntoIterator<Item = Timeline>) {
        let mut file = self.file.lock().expect("metrics sink lock");
        file.summary.merge(summary);
        if self.keep_timelines {
            file.timelines.extend(timelines);
        }
    }

    /// A copy of the summary folded so far, leaving the sink as it is.
    #[must_use]
    pub fn summary(&self) -> MetricsSummary {
        self.file.lock().expect("metrics sink lock").summary.clone()
    }

    /// Drains the sink, timelines sorted by name so the document does not
    /// depend on worker completion order.
    #[must_use]
    pub fn drain(&self) -> MetricsFile {
        let mut file = std::mem::take(&mut *self.file.lock().expect("metrics sink lock"));
        file.timelines.sort_by(|a, b| a.name.cmp(&b.name));
        file
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_summary(seed: u64) -> MetricsSummary {
        let mut s = MetricsSummary { runs: 1, ..Default::default() };
        for i in 0..50 {
            let ns = ((seed * 131 + i * 17) % 4000) as f64;
            s.miss.record(ns);
            if i % 3 == 0 {
                s.dirty.record(ns);
            } else {
                s.clean_remote.record(ns);
            }
        }
        s
    }

    #[test]
    fn merge_is_order_independent() {
        let (a, b, c) = (sample_summary(1), sample_summary(2), sample_summary(3));
        let mut abc = a.clone();
        abc.merge(&b);
        abc.merge(&c);
        let mut cba = c.clone();
        cba.merge(&b);
        cba.merge(&a);
        assert_eq!(abc, cba);
        assert_eq!(abc.runs, 3);
    }

    #[test]
    fn json_round_trip_through_parser() {
        let file = MetricsFile { summary: sample_summary(9), timelines: Vec::new() };
        let text = file.to_json();
        let parsed = serde_json::parse_value(&text).unwrap();
        let miss = parsed.get("summary").unwrap().get("miss").unwrap();
        let rebuilt = hist_from_json(miss).unwrap();
        assert_eq!(rebuilt, file.summary.miss);
    }

    #[test]
    fn sink_folds_runs_and_sorts_timelines() {
        use ringsim_types::Time;
        let mut tl = Timeline::new("exp/b/ring", &["util"]);
        tl.push(Time::from_ns(1), vec![0.5]);
        let mut other = tl.clone();
        other.name = "exp/a/ring".to_owned();
        let sink = MetricsSink::new(true);
        sink.fold(&sample_summary(4), [tl.clone()]);
        sink.fold(&sample_summary(5), [other]);
        assert_eq!(sink.summary().runs, 2);
        let file = sink.drain();
        assert_eq!(file.summary.runs, 2);
        let names: Vec<&str> = file.timelines.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["exp/a/ring", "exp/b/ring"]);
        assert_eq!(sink.drain(), MetricsFile::default());

        let summary_only = MetricsSink::new(false);
        summary_only.fold(&sample_summary(6), [tl]);
        let file = summary_only.drain();
        assert_eq!(file.summary.runs, 1);
        assert!(file.timelines.is_empty());
    }

    #[test]
    fn csv_has_all_classes() {
        let csv = sample_summary(7).to_csv();
        assert_eq!(csv.lines().count(), 6);
        assert!(csv.starts_with("class,count,mean_ns"));
    }
}
