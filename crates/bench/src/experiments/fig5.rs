//! Figure 5: breakdown of directory-protocol remote misses into 1-cycle
//! clean, 1-cycle dirty and 2-cycle classes, for all twelve benchmark
//! configurations.

use serde::{Deserialize, Serialize};

use ringsim_sweep::{Artifact, Experiment, SweepCtx, SweepPoint};
use ringsim_trace::Benchmark;

use crate::characterized;

#[derive(Debug, Serialize, Deserialize)]
struct Row {
    bench: String,
    procs: usize,
    one_cycle_clean_pct: f64,
    one_cycle_dirty_pct: f64,
    two_cycle_pct: f64,
}

/// Regenerates Figure 5.
pub struct Fig5;

impl Experiment for Fig5 {
    fn name(&self) -> &'static str {
        "fig5"
    }

    fn description(&self) -> &'static str {
        "directory-protocol remote-miss class breakdown (Figure 5)"
    }

    fn run(&self, ctx: &SweepCtx) -> Vec<Artifact> {
        let configs: Vec<(Benchmark, usize)> = Benchmark::paper_configs().collect();
        let rows = ctx.map(
            &configs,
            |&(bench, procs)| SweepPoint::new().bench(bench.name()).procs(procs),
            |pctx, &(bench, procs)| {
                let (ch, _) = characterized(ctx, bench, procs, pctx.refs_per_proc);
                let e = ch.events;
                let c1 = e.fig5_one_cycle_clean() as f64;
                let d1 = e.fig5_one_cycle_dirty() as f64;
                let c2 = e.fig5_two_cycle() as f64;
                let total = (c1 + d1 + c2).max(1.0);
                Row {
                    bench: bench.name().to_owned(),
                    procs,
                    one_cycle_clean_pct: 100.0 * c1 / total,
                    one_cycle_dirty_pct: 100.0 * d1 / total,
                    two_cycle_pct: 100.0 * c2 / total,
                }
            },
        );
        println!("Figure 5: directory-protocol remote-miss class breakdown (%)");
        println!("{:-<72}", "");
        println!(
            "{:<12} {:>4} | {:>14} {:>14} {:>10} | bar",
            "bench", "P", "1-cycle clean", "1-cycle dirty", "2-cycle"
        );
        for row in &rows {
            let bar_len = 40usize;
            let n1 = (row.one_cycle_clean_pct / 100.0 * bar_len as f64).round() as usize;
            let n2 = (row.one_cycle_dirty_pct / 100.0 * bar_len as f64).round() as usize;
            let n3 = bar_len.saturating_sub(n1 + n2);
            println!(
                "{:<12} {:>4} | {:>13.1}% {:>13.1}% {:>9.1}% | {}{}{}",
                row.bench,
                row.procs,
                row.one_cycle_clean_pct,
                row.one_cycle_dirty_pct,
                row.two_cycle_pct,
                "#".repeat(n1),
                "+".repeat(n2),
                ".".repeat(n3),
            );
        }
        println!("(# = 1-cycle clean, + = 1-cycle dirty, . = 2-cycle)");
        ctx.write_json("fig5", &rows);
        ctx.artifacts()
    }
}
