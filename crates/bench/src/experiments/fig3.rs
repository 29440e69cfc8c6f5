//! Figure 3: snooping vs directory on 500 MHz 32-bit rings — processor
//! utilisation, ring utilisation and miss latency as the processor cycle
//! sweeps 1–20 ns, for MP3D/WATER/CHOLESKY at 8/16/32 processors.

use serde::{Deserialize, Serialize};

use ringsim_analytic::RingModel;
use ringsim_proto::ProtocolKind;
use ringsim_ring::RingConfig;
use ringsim_sweep::{Artifact, Experiment, SweepCtx, SweepPoint};
use ringsim_trace::Benchmark;

use crate::characterized;

/// One full curve for one (benchmark, procs, protocol) combination.
#[derive(Debug, Serialize, Deserialize)]
pub struct Curve {
    /// Benchmark name.
    pub bench: String,
    /// Processor count.
    pub procs: usize,
    /// Protocol name.
    pub protocol: String,
    /// Points `(proc_cycle_ns, proc_util, ring_util, miss_latency_ns)`.
    pub points: Vec<(u64, f64, f64, f64)>,
}

/// Sweeps one benchmark/size under both protocols.
pub fn curves_for(
    ctx: &SweepCtx,
    bench: Benchmark,
    procs: usize,
    ring: RingConfig,
    refs_per_proc: u64,
) -> Vec<Curve> {
    let (_, input) = characterized(ctx, bench, procs, refs_per_proc);
    [ProtocolKind::Snooping, ProtocolKind::Directory]
        .into_iter()
        .map(|protocol| {
            let model = RingModel::new(ring, protocol);
            let points = (1..=20)
                .map(|ns| {
                    let (t, o) = model.sweep_point(&input, ns);
                    (t.as_ps() / 1000, o.proc_util, o.net_util, o.miss_latency_ns)
                })
                .collect();
            Curve {
                bench: bench.name().to_owned(),
                procs,
                protocol: protocol.name().to_owned(),
                points,
            }
        })
        .collect()
}

/// Writes each curve as a gnuplot-ready `.dat` series.
pub fn write_curve_dats(ctx: &SweepCtx, prefix: &str, curves: &[Curve]) {
    for c in curves {
        let rows: Vec<Vec<f64>> = c
            .points
            .iter()
            .map(|&(ns, u, r, l)| vec![ns as f64, 100.0 * u, 100.0 * r, l])
            .collect();
        ctx.write_dat(
            &format!("{prefix}_{}_{}p_{}", c.bench, c.procs, c.protocol),
            "proc_cycle_ns proc_util_pct ring_util_pct miss_latency_ns",
            &rows,
        );
    }
}

/// Prints a compact view of a set of curves at selected processor cycles.
pub fn print_curves(title: &str, curves: &[Curve]) {
    println!("{title}");
    println!("{:-<98}", "");
    println!(
        "{:<12} {:>4} {:<10} | {:>22} | {:>22} | {:>26}",
        "bench",
        "P",
        "protocol",
        "proc util % @2/5/10/20ns",
        "ring util % @2/5/10/20",
        "miss latency ns @2/5/10/20"
    );
    for c in curves {
        let pick = |ns: u64| c.points.iter().find(|p| p.0 == ns).expect("sweep point");
        let u: Vec<f64> = [2, 5, 10, 20].iter().map(|&n| 100.0 * pick(n).1).collect();
        let r: Vec<f64> = [2, 5, 10, 20].iter().map(|&n| 100.0 * pick(n).2).collect();
        let l: Vec<f64> = [2, 5, 10, 20].iter().map(|&n| pick(n).3).collect();
        println!(
            "{:<12} {:>4} {:<10} | {:>4.0} {:>4.0} {:>4.0} {:>4.0}      | {:>4.0} {:>4.0} {:>4.0} {:>4.0}      | {:>5.0} {:>5.0} {:>5.0} {:>5.0}",
            c.bench, c.procs, c.protocol,
            u[0], u[1], u[2], u[3],
            r[0], r[1], r[2], r[3],
            l[0], l[1], l[2], l[3],
        );
    }
}

/// Runs the Figure 3 sweep (one parallel point per benchmark/size pair).
pub fn sweep_configs(ctx: &SweepCtx, configs: &[(Benchmark, usize)]) -> Vec<Curve> {
    ctx.map(
        configs,
        |&(bench, procs)| SweepPoint::new().bench(bench.name()).procs(procs),
        |pctx, &(bench, procs)| {
            curves_for(ctx, bench, procs, RingConfig::standard_500mhz(procs), pctx.refs_per_proc)
        },
    )
    .into_iter()
    .flatten()
    .collect()
}

/// Regenerates Figure 3.
pub struct Fig3;

impl Experiment for Fig3 {
    fn name(&self) -> &'static str {
        "fig3"
    }

    fn description(&self) -> &'static str {
        "snooping vs directory on 500 MHz rings, SPLASH at 8/16/32 procs (Figure 3)"
    }

    fn run(&self, ctx: &SweepCtx) -> Vec<Artifact> {
        let mut configs = Vec::new();
        for bench in [Benchmark::Mp3d, Benchmark::Water, Benchmark::Cholesky] {
            for &procs in bench.paper_sizes() {
                configs.push((bench, procs));
            }
        }
        let all = sweep_configs(ctx, &configs);
        print_curves(
            "Figure 3: snooping vs directory, 500 MHz 32-bit rings (SPLASH, 8/16/32 procs)",
            &all,
        );
        write_curve_dats(ctx, "fig3", &all);
        ctx.write_json("fig3", &all);
        ctx.artifacts()
    }
}
