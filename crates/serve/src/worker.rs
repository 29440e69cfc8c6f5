//! The `serve-worker` side of the multi-process sweep coordinator, plus the
//! stdout wire protocol both sides share.
//!
//! A sharded run spawns N `ringsim serve-worker` processes. Each runs one
//! [`Shard`] of the sweep through [`run_shard`] with the run directory as
//! its out dir: it caches its stripe of the experiment's first `map` call
//! and exits, rendering nothing. The coordinator's fold then renders the
//! artifacts from that cache (see `ringsim_sweep::Shard`).
//! Workers report progress by printing [`WireEvent`] lines to stdout,
//! prefixed with [`PROGRESS_PREFIX`] so the coordinator can filter them out
//! of the experiment's own table output (experiments print human-readable
//! tables to stdout; `println!` is line-atomic, so the streams interleave
//! by whole lines).
//!
//! A worker only announces the points its shard **owns**: across all N
//! workers the `point-done` events therefore sum to exactly the sweep
//! size, which is what keeps the coordinator's progress counters (and the
//! SSE stream fed from them) monotone and exact.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use ringsim_sweep::{run_shard, Progress, ProgressFn, Shard, SweepConfig};
use serde::{Serialize, Value};

/// Line prefix marking a protocol event on a worker's stdout; everything
/// else on the stream is experiment output and is ignored.
pub const PROGRESS_PREFIX: &str = "@ringsim-progress ";

/// One protocol event, rendered as `@ringsim-progress {json}`.
#[derive(Debug, Clone, PartialEq)]
pub enum WireEvent {
    /// A `map` call began; `points` counts only this shard's owned points.
    MapStarted {
        /// Owned points submitted to the map call.
        points: u64,
    },
    /// One owned point finished.
    PointDone {
        /// Canonical point label.
        label: String,
        /// Whether it was served from the shared cache.
        cached: bool,
    },
    /// The worker's run panicked.
    Failed {
        /// Panic message.
        error: String,
    },
}

impl WireEvent {
    /// Renders the full protocol line (prefix included, no newline).
    #[must_use]
    pub fn render(&self) -> String {
        #[derive(Serialize)]
        struct Line {
            ev: String,
            points: Option<u64>,
            label: Option<String>,
            cached: Option<bool>,
            error: Option<String>,
        }
        let mut line =
            Line { ev: String::new(), points: None, label: None, cached: None, error: None };
        match self {
            WireEvent::MapStarted { points } => {
                line.ev = "map-started".to_owned();
                line.points = Some(*points);
            }
            WireEvent::PointDone { label, cached } => {
                line.ev = "point-done".to_owned();
                line.label = Some(label.clone());
                line.cached = Some(*cached);
            }
            WireEvent::Failed { error } => {
                line.ev = "failed".to_owned();
                line.error = Some(error.clone());
            }
        }
        let json = serde_json::to_string(&line).expect("wire event serialises");
        format!("{PROGRESS_PREFIX}{json}")
    }

    /// Parses a stdout line; `None` for experiment output (no prefix) or a
    /// malformed protocol line (the coordinator tolerates both).
    #[must_use]
    pub fn parse(line: &str) -> Option<Self> {
        let json = line.strip_prefix(PROGRESS_PREFIX)?;
        let v = serde_json::parse_value(json).ok()?;
        let uint = |key: &str| match v.get(key) {
            Some(Value::UInt(n)) => Some(*n),
            Some(Value::Int(n)) if *n >= 0 => u64::try_from(*n).ok(),
            _ => None,
        };
        let text = |key: &str| match v.get(key) {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        };
        match v.get("ev") {
            Some(Value::Str(ev)) => match ev.as_str() {
                "map-started" => Some(WireEvent::MapStarted { points: uint("points")? }),
                "point-done" => Some(WireEvent::PointDone {
                    label: text("label")?,
                    cached: matches!(v.get("cached"), Some(Value::Bool(true))),
                }),
                "failed" => Some(WireEvent::Failed { error: text("error")? }),
                _ => None,
            },
            _ => None,
        }
    }
}

/// Everything a `serve-worker` invocation needs (the coordinator builds
/// this into command-line flags; `src/main.rs` parses them back).
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// Experiment registry name.
    pub experiment: String,
    /// Per-processor reference budget.
    pub refs: u64,
    /// The run directory: the worker's out dir and the cache it shares
    /// with its peers and the fold. The worker writes only cache entries
    /// there.
    pub cache_dir: PathBuf,
    /// This worker's shard.
    pub shard: Shard,
    /// Sweep-engine threads (`0` = engine default).
    pub jobs: usize,
}

/// Emits one protocol line, flushing so the coordinator's line reader sees
/// it promptly even through a pipe's block buffering.
fn emit(ev: &WireEvent) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{}", ev.render());
    let _ = out.flush();
}

/// Runs one shard worker to completion: caches the spec's stripe through
/// [`run_shard`], streaming protocol events to stdout. Returns the process
/// exit code (`0` clean, `1` unknown experiment or panic).
#[must_use]
pub fn run_worker(spec: &WorkerSpec) -> i32 {
    let Some(exp) = ringsim_bench::experiments::find(&spec.experiment) else {
        emit(&WireEvent::Failed { error: format!("unknown experiment `{}`", spec.experiment) });
        return 1;
    };
    let progress: ProgressFn = std::sync::Arc::new(|ev: &Progress| match ev {
        Progress::MapStarted { points } => {
            emit(&WireEvent::MapStarted { points: *points as u64 });
        }
        Progress::PointDone { label, cached } => {
            emit(&WireEvent::PointDone { label: label.clone(), cached: *cached });
        }
    });
    let mut cfg = SweepConfig::new(spec.refs).out_dir(&spec.cache_dir).on_progress(progress);
    if spec.jobs > 0 {
        cfg = cfg.jobs(spec.jobs);
    }
    match catch_unwind(AssertUnwindSafe(|| run_shard(exp, &cfg, spec.shard))) {
        Ok(_) => 0,
        Err(panic) => {
            emit(&WireEvent::Failed { error: crate::panic_message(&*panic) });
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_events_round_trip_through_render_and_parse() {
        let events = [
            WireEvent::MapStarted { points: 7 },
            WireEvent::PointDone { label: "mp3d procs=64 \"q\"".to_owned(), cached: true },
            WireEvent::PointDone { label: "x".to_owned(), cached: false },
            WireEvent::Failed { error: "boom\nwith newline".to_owned() },
        ];
        for ev in events {
            let line = ev.render();
            assert!(line.starts_with(PROGRESS_PREFIX));
            assert!(!line.contains('\n'), "protocol lines must be single-line: {line:?}");
            assert_eq!(WireEvent::parse(&line), Some(ev));
        }
    }

    #[test]
    fn non_protocol_lines_are_ignored() {
        for line in [
            "",
            "mp3d on ring500, 16 processors",
            "  miss latency p50/p95  :  600 / 1100 ns",
            "@ringsim-progress not json",
            "@ringsim-progress {\"ev\":\"unknown\"}",
            "@ringsim-progress {\"ev\":\"done\"}",
        ] {
            assert_eq!(WireEvent::parse(line), None, "accepted {line:?}");
        }
    }
}
