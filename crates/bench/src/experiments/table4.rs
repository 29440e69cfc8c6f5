//! Table 4: the bus clock cycle (ns) a 64-bit split-transaction bus needs to
//! match the processor utilisation of 32-bit slotted rings at 250 and
//! 500 MHz, for 100/200/400 MIPS processors.

use serde::{Deserialize, Serialize};

use ringsim_analytic::match_bus_clock;
use ringsim_proto::ProtocolKind;
use ringsim_ring::RingConfig;
use ringsim_sweep::{Artifact, Experiment, SweepCtx, SweepPoint};
use ringsim_trace::Benchmark;
use ringsim_types::Time;

use crate::characterized;

/// Paper values: `[(bench, procs, [250 MHz: 100/200/400 MIPS], [500 MHz: ...])]`.
fn paper() -> Vec<(&'static str, usize, [f64; 3], [f64; 3])> {
    vec![
        ("mp3d", 8, [12.5, 10.3, 8.9], [7.8, 6.6, 5.6]),
        ("water", 8, [19.6, 19.1, 17.7], [10.0, 10.0, 9.9]),
        ("cholesky", 8, [12.8, 10.6, 9.0], [7.6, 6.6, 5.7]),
        ("mp3d", 16, [9.0, 7.1, 6.2], [6.5, 4.9, 4.0]),
        ("water", 16, [25.4, 21.4, 16.5], [14.1, 12.9, 10.9]),
        ("cholesky", 16, [6.8, 5.4, 4.7], [4.9, 3.7, 3.1]),
        ("mp3d", 32, [3.8, 3.7, 3.6], [2.4, 2.1, 2.0]),
        ("water", 32, [21.4, 13.9, 9.2], [16.2, 11.0, 7.3]),
        ("cholesky", 32, [3.7, 3.5, 3.4], [2.3, 2.0, 1.9]),
    ]
}

#[derive(Debug, Serialize, Deserialize)]
struct Row {
    bench: String,
    procs: usize,
    ring_mhz: u64,
    mips: u64,
    matched_bus_ns: f64,
    paper_bus_ns: f64,
    ring_proc_util: f64,
    bus_net_util: f64,
    ring_net_util: f64,
}

/// Regenerates Table 4.
pub struct Table4;

impl Experiment for Table4 {
    fn name(&self) -> &'static str {
        "table4"
    }

    fn description(&self) -> &'static str {
        "bus clock needed to match slotted-ring processor utilisation (Table 4)"
    }

    fn run(&self, ctx: &SweepCtx) -> Vec<Artifact> {
        let cases = paper();
        // One point per (benchmark, procs); each computes all six cells from
        // one characterisation.
        let per_case = ctx.map(
            &cases,
            |&(name, procs, _, _)| SweepPoint::new().bench(name).procs(procs),
            |pctx, &(name, procs, paper250, paper500)| {
                let bench = Benchmark::ALL
                    .into_iter()
                    .find(|b| b.name() == name)
                    .expect("benchmark exists");
                let (_, input) = characterized(ctx, bench, procs, pctx.refs_per_proc);
                let mut rows = Vec::new();
                for (mhz, papers) in [(250u64, paper250), (500u64, paper500)] {
                    let ring = if mhz == 250 {
                        RingConfig::standard_250mhz(procs)
                    } else {
                        RingConfig::standard_500mhz(procs)
                    };
                    for (mi, mips) in [100u64, 200, 400].into_iter().enumerate() {
                        let m = match_bus_clock(
                            &input,
                            ring,
                            ProtocolKind::Snooping,
                            Time::from_ps(1_000_000 / mips),
                        );
                        rows.push(Row {
                            bench: name.to_owned(),
                            procs,
                            ring_mhz: mhz,
                            mips,
                            matched_bus_ns: m.bus_period.as_ns_f64(),
                            paper_bus_ns: papers[mi],
                            ring_proc_util: m.ring_proc_util,
                            bus_net_util: m.bus_net_util,
                            ring_net_util: m.ring_net_util,
                        });
                    }
                }
                rows
            },
        );
        println!("Table 4: bus clock cycle (ns) to match slotted-ring performance (snooping)");
        println!("{:-<96}", "");
        println!(
            "{:<14} | {:>28} | {:>28}",
            "benchmark", "250 MHz ring (100/200/400)", "500 MHz ring (100/200/400)"
        );
        for (case_rows, (name, procs, paper250, paper500)) in per_case.iter().zip(cases) {
            let mut line = format!("{:<14} |", format!("{name} {procs}"));
            for (mhz, papers) in [(250u64, paper250), (500u64, paper500)] {
                let mut cell = String::new();
                for r in case_rows.iter().filter(|r| r.ring_mhz == mhz) {
                    cell.push_str(&format!(" {:>4.1}", r.matched_bus_ns));
                }
                let p =
                    format!(" (paper {:>4.1}/{:>4.1}/{:>4.1})", papers[0], papers[1], papers[2]);
                line.push_str(&cell);
                line.push_str(&p);
                line.push_str(" |");
            }
            println!("{line}");
        }
        let rows: Vec<Row> = per_case.into_iter().flatten().collect();
        // Paper's headline observation: matching buses run far hotter than
        // the rings they match.
        let hotter = rows.iter().filter(|r| r.bus_net_util > r.ring_net_util).count();
        println!(
            "bus utilisation exceeds ring utilisation in {hotter}/{} matched configurations",
            rows.len()
        );
        ctx.write_json("table4", &rows);
        ctx.artifacts()
    }
}
