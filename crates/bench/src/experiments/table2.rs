//! Table 2: trace characteristics of the synthetic workloads, next to the
//! paper's published values (this doubles as the calibration report for the
//! trace substitution documented in DESIGN.md).

use serde::{Deserialize, Serialize};

use ringsim_sweep::{Artifact, Experiment, SweepCtx, SweepPoint};
use ringsim_trace::Benchmark;
use ringsim_types::CoherenceEvents;

use crate::{characterized, paper_table2, PaperTable2Row};

#[derive(Debug, Serialize, Deserialize)]
struct Row {
    bench: String,
    procs: usize,
    events: CoherenceEvents,
    measured_total_mr: f64,
    measured_shared_mr: f64,
    measured_shared_frac: f64,
    measured_shared_wf: f64,
    measured_private_wf: f64,
    paper: PaperTable2Row,
}

/// Regenerates Table 2 (measured vs paper).
pub struct Table2;

impl Experiment for Table2 {
    fn name(&self) -> &'static str {
        "table2"
    }

    fn description(&self) -> &'static str {
        "synthetic-trace characteristics vs the paper's published values (Table 2)"
    }

    fn run(&self, ctx: &SweepCtx) -> Vec<Artifact> {
        let paper = paper_table2();
        let configs: Vec<(Benchmark, usize)> = Benchmark::paper_configs().collect();
        let rows = ctx.map(
            &configs,
            |&(bench, procs)| SweepPoint::new().bench(bench.name()).procs(procs),
            |pctx, &(bench, procs)| {
                let (ch, _) = characterized(ctx, bench, procs, pctx.refs_per_proc);
                let e = ch.events;
                let p = paper
                    .iter()
                    .find(|r| r.bench == bench.name() && r.procs == procs)
                    .expect("paper row")
                    .clone();
                Row {
                    bench: bench.name().to_owned(),
                    procs,
                    measured_total_mr: e.total_miss_rate(),
                    measured_shared_mr: e.shared_miss_rate(),
                    measured_shared_frac: e.shared_refs() as f64 / e.data_refs().max(1) as f64,
                    measured_shared_wf: e.shared_write_frac(),
                    measured_private_wf: e.private_write_frac(),
                    events: e,
                    paper: p,
                }
            },
        );
        println!("Table 2: trace characteristics — measured (synthetic) vs paper");
        println!("{:-<108}", "");
        println!(
            "{:<12} {:>4} | {:>9} {:>9} | {:>9} {:>9} | {:>8} {:>8} | {:>7} {:>7} | {:>7} {:>7}",
            "bench",
            "P",
            "totMR%",
            "paper",
            "shMR%",
            "paper",
            "sh-ref%",
            "paper",
            "shW%",
            "paper",
            "pvW%",
            "paper"
        );
        for row in &rows {
            let p = &row.paper;
            println!(
                "{:<12} {:>4} | {:>9.2} {:>9.2} | {:>9.2} {:>9.2} | {:>8.1} {:>8.1} | {:>7.1} {:>7.1} | {:>7.1} {:>7.1}",
                row.bench,
                row.procs,
                100.0 * row.measured_total_mr,
                100.0 * p.total_miss_rate,
                100.0 * row.measured_shared_mr,
                100.0 * p.shared_miss_rate,
                100.0 * row.measured_shared_frac,
                100.0 * p.shared_frac,
                100.0 * row.measured_shared_wf,
                100.0 * p.shared_write_frac,
                100.0 * row.measured_private_wf,
                100.0 * p.private_write_frac,
            );
        }
        ctx.write_json("table2", &rows);
        ctx.artifacts()
    }
}
