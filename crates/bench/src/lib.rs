//! Shared plumbing for the experiments that regenerate every table and
//! figure of the paper.
//!
//! Each experiment implements [`ringsim_sweep::Experiment`] and is listed
//! in [`experiments::ALL`]; it prints a formatted text table to stdout and
//! writes the same data as JSON (plus `.dat` series for the figures) into
//! `results/`, with a `<name>.meta.json` wall-time twin. `ringsim
//! experiments` drives the registry through [`cli::run_with`] (`--list`,
//! `--only a,b`, `--jobs N`). Artifacts are byte-identical for any
//! `--jobs` value.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod loadtest;
pub mod perf;

use serde::{Deserialize, Serialize};

use ringsim_analytic::ModelInput;
use ringsim_core::{RunOptions, SimReport, Simulator};
use ringsim_obs::ObsConfig;
use ringsim_sweep::{PointCtx, SweepCtx};
use ringsim_trace::{characterize, Benchmark, Characteristics};
use ringsim_types::ConfigError;

/// Paper-reported values from Table 2 (used to report calibration deltas).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PaperTable2Row {
    /// Benchmark.
    pub bench: String,
    /// Processors.
    pub procs: usize,
    /// Total miss rate (fraction).
    pub total_miss_rate: f64,
    /// Shared-data miss rate (fraction).
    pub shared_miss_rate: f64,
    /// Fraction of data references that touch shared data.
    pub shared_frac: f64,
    /// Write fraction among shared references.
    pub shared_write_frac: f64,
    /// Write fraction among private references.
    pub private_write_frac: f64,
}

/// The twelve rows of the paper's Table 2 (rates as fractions).
#[must_use]
pub fn paper_table2() -> Vec<PaperTable2Row> {
    #[allow(clippy::too_many_arguments)] // mirrors the paper's column layout
    fn row(
        bench: &'static str,
        procs: usize,
        private_m: f64,
        pw: f64,
        shared_m: f64,
        sw: f64,
        tmr: f64,
        smr: f64,
    ) -> PaperTable2Row {
        PaperTable2Row {
            bench: bench.to_owned(),
            procs,
            total_miss_rate: tmr,
            shared_miss_rate: smr,
            shared_frac: shared_m / (private_m + shared_m),
            shared_write_frac: sw,
            private_write_frac: pw,
        }
    }
    vec![
        row("mp3d", 8, 2.48, 0.22, 1.27, 0.33, 0.0329, 0.0944),
        row("mp3d", 16, 2.50, 0.22, 1.43, 0.30, 0.0454, 0.1217),
        row("mp3d", 32, 2.51, 0.22, 2.08, 0.21, 0.1655, 0.3574),
        row("water", 8, 9.54, 0.18, 1.50, 0.07, 0.0021, 0.0138),
        row("water", 16, 9.55, 0.18, 1.81, 0.06, 0.0032, 0.0182),
        row("water", 32, 9.56, 0.18, 2.03, 0.06, 0.0073, 0.0382),
        row("cholesky", 8, 5.29, 0.21, 1.62, 0.14, 0.0288, 0.1061),
        row("cholesky", 16, 6.27, 0.20, 2.55, 0.09, 0.0612, 0.1896),
        row("cholesky", 32, 8.21, 0.18, 5.33, 0.05, 0.1947, 0.4671),
        row("fft", 64, 3.28, 0.27, 1.03, 0.50, 0.0685, 0.2612),
        row("weather", 64, 13.11, 0.16, 2.52, 0.19, 0.0525, 0.3078),
        row("simple", 64, 9.94, 0.35, 4.07, 0.11, 0.1597, 0.5416),
    ]
}

/// Characterises a paper benchmark at a reference-count budget suitable for
/// experiment runs and returns the characteristics plus the derived model
/// input.
///
/// # Errors
///
/// Returns a [`ConfigError`] for invalid benchmark/size combinations.
pub fn benchmark_input(
    bench: Benchmark,
    procs: usize,
    refs_per_proc: u64,
) -> Result<(Characteristics, ModelInput), ConfigError> {
    let spec = bench.spec(procs)?.with_refs(refs_per_proc);
    let ch = characterize(&spec)?;
    let input = ModelInput::from_characteristics(&ch);
    Ok((ch, input))
}

/// [`benchmark_input`] through the sweep's shared cache: each workload spec
/// is characterised at most once per cache root, and every later call for
/// the same spec (from any experiment run against the same out dir) reads
/// the stored result (see [`SweepCtx::shared`]). The key is the full
/// [`WorkloadSpec`](ringsim_trace::WorkloadSpec), so a recalibrated spec
/// never reads a stale entry.
///
/// # Panics
///
/// Panics if `(bench, procs)` is not one of the benchmark's valid sizes.
#[must_use]
pub fn characterized(
    ctx: &SweepCtx,
    bench: Benchmark,
    procs: usize,
    refs_per_proc: u64,
) -> (Characteristics, ModelInput) {
    let spec = bench.spec(procs).expect("paper config").with_refs(refs_per_proc);
    let key = format!("characterize|{}", serde_json::to_string(&spec).expect("serialisable spec"));
    ctx.shared(&key, || benchmark_input(bench, procs, refs_per_proc).expect("paper config"))
}

/// Runs `sim` as one simulator run of the sweep point `pctx`.
///
/// The run forces the coherence sanitizer on when the point asks for it.
/// When the point carries a metrics sink, the run's summary is folded into
/// it. If the sink keeps timelines, the run records gauge timelines only
/// (a zero-capacity trace) and folds them too, named
/// `<experiment>/<label>/<timeline>` so the exported document is
/// independent of `--jobs`.
pub fn simulate(pctx: &PointCtx, sim: &mut dyn Simulator) -> SimReport {
    let obs = pctx
        .metrics
        .as_ref()
        .filter(|sink| sink.keeps_timelines())
        .map(|_| ObsConfig { trace_capacity: 0, ..ObsConfig::default() });
    let outcome = sim.run(&RunOptions { obs, sanitize: pctx.sanitize });
    if let Some(sink) = &pctx.metrics {
        let timelines = outcome.obs.into_iter().flat_map(|rec| rec.timelines).map(|mut tl| {
            tl.name = format!("{}/{}/{}", pctx.experiment, pctx.label, tl.name);
            tl
        });
        sink.fold(&outcome.report.metrics_summary(), timelines);
    }
    outcome.report
}

/// Default per-processor reference budget for experiment binaries (release
/// builds).
pub const EXPERIMENT_REFS: u64 = 60_000;

/// Formats a fraction as a percentage with one decimal.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:5.1}", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table2_has_twelve_rows() {
        let rows = paper_table2();
        assert_eq!(rows.len(), 12);
        for r in &rows {
            assert!(r.total_miss_rate > 0.0 && r.total_miss_rate < 1.0);
            assert!(r.shared_frac > 0.0 && r.shared_frac < 1.0);
        }
    }

    #[test]
    fn benchmark_input_works_on_small_budget() {
        let (ch, input) = benchmark_input(Benchmark::Mp3d, 8, 3_000).unwrap();
        assert_eq!(ch.procs, 8);
        assert!(input.freqs.miss_total() > 0.0);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.1234), " 12.3");
    }
}
