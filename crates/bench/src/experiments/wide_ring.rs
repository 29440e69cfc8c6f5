//! The figure the paper describes but does not show (§4.2): "Our
//! simulation experiments with a 64-bit parallel slotted ring (not shown
//! here) agree with this assessment. With 64-bit parallel rings,
//! utilization levels never surpass 50% and snooping performs
//! significantly better than directory in all cases."
//!
//! This experiment regenerates that unshown comparison across every paper
//! benchmark at its largest size.

use serde::{Deserialize, Serialize};

use ringsim_analytic::RingModel;
use ringsim_proto::ProtocolKind;
use ringsim_ring::RingConfig;
use ringsim_sweep::{Artifact, Experiment, SweepCtx, SweepPoint};
use ringsim_trace::Benchmark;
use ringsim_types::Time;

use crate::characterized;

#[derive(Debug, Serialize, Deserialize)]
struct Row {
    bench: String,
    procs: usize,
    proc_cycle_ns: u64,
    snoop_util: f64,
    dir_util: f64,
    snoop_ring_util: f64,
    dir_ring_util: f64,
}

/// Regenerates the unshown 64-bit-ring figure.
pub struct WideRing;

impl Experiment for WideRing {
    fn name(&self) -> &'static str {
        "wide_ring"
    }

    fn description(&self) -> &'static str {
        "64-bit parallel ring, snooping vs directory (the paper's unshown figure)"
    }

    fn run(&self, ctx: &SweepCtx) -> Vec<Artifact> {
        // Largest size per benchmark only (64-bit rings target the high end).
        let configs: Vec<(Benchmark, usize)> = Benchmark::paper_configs()
            .filter(|(bench, procs)| bench.paper_sizes().last() == Some(procs))
            .collect();
        let per_config = ctx.map(
            &configs,
            |&(bench, procs)| SweepPoint::new().bench(bench.name()).procs(procs),
            |pctx, &(bench, procs)| {
                let (_, input) = characterized(ctx, bench, procs, pctx.refs_per_proc);
                let ring = RingConfig::wide_64bit_500mhz(procs);
                [2u64, 5, 10]
                    .into_iter()
                    .map(|ns| {
                        let t = Time::from_ns(ns);
                        let s = RingModel::new(ring, ProtocolKind::Snooping).evaluate(&input, t);
                        let d = RingModel::new(ring, ProtocolKind::Directory).evaluate(&input, t);
                        Row {
                            bench: bench.name().to_owned(),
                            procs,
                            proc_cycle_ns: ns,
                            snoop_util: s.proc_util,
                            dir_util: d.proc_util,
                            snoop_ring_util: s.net_util,
                            dir_ring_util: d.net_util,
                        }
                    })
                    .collect::<Vec<Row>>()
            },
        );
        println!(
            "64-bit parallel slotted ring (500 MHz): snooping vs directory — the paper's unshown figure"
        );
        println!("{:-<96}", "");
        println!(
            "{:<12} {:>4} {:>6} | {:>10} {:>10} | {:>12} {:>12} | verdict",
            "bench", "P", "ns", "snoopU%", "dirU%", "snoopRing%", "dirRing%"
        );
        let rows: Vec<Row> = per_config.into_iter().flatten().collect();
        let mut max_util: f64 = 0.0;
        let mut snoop_always_wins = true;
        for row in &rows {
            max_util = max_util.max(row.snoop_ring_util).max(row.dir_ring_util);
            snoop_always_wins &= row.snoop_util >= row.dir_util - 1e-6;
            println!(
                "{:<12} {:>4} {:>6} | {:>10.1} {:>10.1} | {:>12.1} {:>12.1} | {}",
                row.bench,
                row.procs,
                row.proc_cycle_ns,
                100.0 * row.snoop_util,
                100.0 * row.dir_util,
                100.0 * row.snoop_ring_util,
                100.0 * row.dir_ring_util,
                if row.snoop_util >= row.dir_util { "snooping" } else { "directory" },
            );
        }
        println!();
        println!(
            "max ring utilisation observed: {:.1}% (paper: never surpasses 50%); snooping wins everywhere: {}",
            100.0 * max_util,
            snoop_always_wins
        );
        ctx.write_json("wide_ring", &rows);
        ctx.artifacts()
    }
}
