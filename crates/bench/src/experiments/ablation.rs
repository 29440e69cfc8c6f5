//! Ablations of the design choices the paper argues in prose:
//!
//! 1. **Slot mix** — the paper claims two probe slots per block slot is the
//!    optimum frame composition for the snooping protocol (§3.3).
//! 2. **Anti-starvation rule** — forbidding a node from reusing a slot it
//!    just freed "has no significant impact on system performance" (§5).
//! 3. **64-bit rings** — "utilization levels never surpass 50% and snooping
//!    performs significantly better than directory in all cases" (§4.2).
//! 4. **Memory-bank contention** — the paper fixes bank time at 140 ns with
//!    no queueing; turning queueing on quantifies how much that assumption
//!    flatters the results.

use serde::{Deserialize, Serialize};

use ringsim_core::{RingSystem, SystemConfig};
use ringsim_proto::ProtocolKind;
use ringsim_ring::RingConfig;
use ringsim_sweep::{Artifact, Experiment, PointCtx, SweepCtx, SweepPoint};
use ringsim_trace::{Benchmark, Workload};
use ringsim_types::Time;

/// The ablations are timed simulations; cap their reference budget so they
/// stay tractable at the default budget.
const MAX_REFS: u64 = 40_000;

#[derive(Debug, Serialize, Deserialize)]
struct MixRow {
    probes_per_frame: usize,
    blocks_per_frame: usize,
    proc_util: f64,
    ring_util: f64,
    miss_latency_ns: f64,
    sim_end_us: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct AblationResult {
    slot_mix: Vec<MixRow>,
    starvation_rule_on_util: f64,
    starvation_rule_off_util: f64,
    wide_snoop_util: f64,
    wide_dir_util: f64,
    wide_snoop_ring_util: f64,
    wide_snoop_latency: f64,
    wide_dir_latency: f64,
    bank_contention_off_util: f64,
    bank_contention_on_util: f64,
    bank_contention_off_latency: f64,
    bank_contention_on_latency: f64,
}

/// One independent timed simulation in the ablation suite.
#[derive(Debug, Clone, Copy)]
enum Point {
    Mix { probes: usize, blocks: usize },
    Starvation { rule_on: bool },
    Wide(ProtocolKind),
    Bank { queueing: bool },
}

impl Point {
    fn label(self) -> String {
        match self {
            Point::Mix { probes, blocks } => format!("mix={probes}:{blocks}"),
            Point::Starvation { rule_on } => format!("starvation_rule={rule_on}"),
            Point::Wide(p) => format!("wide64_{}", p.name()),
            Point::Bank { queueing } => format!("bank_queueing={queueing}"),
        }
    }

    fn config(self) -> SystemConfig {
        let procs = 16;
        match self {
            Point::Mix { probes, blocks } => {
                // 200 MIPS: enough load to matter.
                let mut cfg = SystemConfig::ring_500mhz(ProtocolKind::Snooping, procs)
                    .with_proc_cycle(Time::from_ns(5));
                cfg.ring.probe_slots_per_frame = probes;
                cfg.ring.block_slots_per_frame = blocks;
                cfg
            }
            Point::Starvation { rule_on } => {
                let mut cfg = SystemConfig::ring_500mhz(ProtocolKind::Snooping, procs)
                    .with_proc_cycle(Time::from_ns(5));
                cfg.ring.reuse_after_remove = !rule_on;
                cfg
            }
            Point::Wide(protocol) => {
                let mut cfg =
                    SystemConfig::ring_500mhz(protocol, procs).with_proc_cycle(Time::from_ns(2));
                cfg.ring = RingConfig::wide_64bit_500mhz(procs);
                cfg
            }
            Point::Bank { queueing } => {
                let mut cfg = SystemConfig::ring_500mhz(ProtocolKind::Snooping, procs)
                    .with_proc_cycle(Time::from_ns(5));
                cfg.model_bank_contention = queueing;
                cfg
            }
        }
    }
}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct SimSummary {
    proc_util: f64,
    ring_util: f64,
    miss_latency_ns: f64,
    sim_end_us: f64,
}

/// The ablation points need bespoke [`SystemConfig`]s (slot mixes, wide
/// rings, bank queueing), so they construct the [`RingSystem`] directly but
/// still run it through [`crate::simulate`] so the point's metrics sink and
/// sanitizer request apply here too.
fn run_point(pctx: &PointCtx, cfg: SystemConfig) -> SimSummary {
    let refs = pctx.refs_per_proc.min(MAX_REFS);
    let spec = Benchmark::Mp3d.spec(16).expect("spec").with_refs(refs);
    let workload = Workload::new(spec).expect("workload");
    let mut system = RingSystem::new(cfg, workload).expect("system");
    let r = crate::simulate(pctx, &mut system);
    SimSummary {
        proc_util: r.proc_util,
        ring_util: r.ring_util,
        miss_latency_ns: r.miss_latency_ns(),
        sim_end_us: r.sim_end.as_ns_f64() / 1000.0,
    }
}

/// Runs all four ablations (timed simulations on MP3D-16).
pub struct Ablation;

impl Experiment for Ablation {
    fn name(&self) -> &'static str {
        "ablation"
    }

    fn description(&self) -> &'static str {
        "slot-mix, anti-starvation, 64-bit-ring and bank-contention ablations"
    }

    fn run(&self, ctx: &SweepCtx) -> Vec<Artifact> {
        let mixes = [(1usize, 1usize), (2, 1), (3, 1), (4, 1), (2, 2)];
        let mut points: Vec<Point> =
            mixes.iter().map(|&(p, b)| Point::Mix { probes: p, blocks: b }).collect();
        points.push(Point::Starvation { rule_on: true });
        points.push(Point::Starvation { rule_on: false });
        points.push(Point::Wide(ProtocolKind::Snooping));
        points.push(Point::Wide(ProtocolKind::Directory));
        points.push(Point::Bank { queueing: false });
        points.push(Point::Bank { queueing: true });

        let results = ctx.map(
            &points,
            |p| SweepPoint::new().bench("mp3d").procs(16).detail(p.label()),
            |pctx, p| run_point(pctx, p.config()),
        );

        // 1. slot mix sweep.
        println!("Ablation 1: probe/block slot mix (snooping, mp3d.16, 200 MIPS)");
        println!("{:-<76}", "");
        println!(
            "{:>6} | {:>10} {:>10} {:>14} {:>12}",
            "mix", "proc util%", "ring util%", "miss lat (ns)", "exec (us)"
        );
        let mut slot_mix = Vec::new();
        for (&(p, b), r) in mixes.iter().zip(&results) {
            println!(
                "{:>4}:{} | {:>10.1} {:>10.1} {:>14.0} {:>12.1}",
                p,
                b,
                100.0 * r.proc_util,
                100.0 * r.ring_util,
                r.miss_latency_ns,
                r.sim_end_us,
            );
            slot_mix.push(MixRow {
                probes_per_frame: p,
                blocks_per_frame: b,
                proc_util: r.proc_util,
                ring_util: r.ring_util,
                miss_latency_ns: r.miss_latency_ns,
                sim_end_us: r.sim_end_us,
            });
        }

        // 2. anti-starvation rule.
        let (on, off) = (results[5], results[6]);
        println!();
        println!("Ablation 2: anti-starvation slot-reuse rule (snooping, mp3d.16, 200 MIPS)");
        println!(
            "  rule on : proc util {:>5.1}%, miss latency {:>5.0} ns",
            100.0 * on.proc_util,
            on.miss_latency_ns
        );
        println!(
            "  rule off: proc util {:>5.1}%, miss latency {:>5.0} ns  (paper: no significant impact)",
            100.0 * off.proc_util,
            off.miss_latency_ns
        );

        // 3. 64-bit rings.
        let (wide_snoop, wide_dir) = (results[7], results[8]);
        println!();
        println!("Ablation 3: 64-bit parallel ring at 500 MIPS processors (mp3d.16)");
        println!(
            "  snooping : proc util {:>5.1}%, ring util {:>5.1}%, miss latency {:>5.0} ns",
            100.0 * wide_snoop.proc_util,
            100.0 * wide_snoop.ring_util,
            wide_snoop.miss_latency_ns
        );
        println!(
            "  directory: proc util {:>5.1}%, ring util {:>5.1}%, miss latency {:>5.0} ns",
            100.0 * wide_dir.proc_util,
            100.0 * wide_dir.ring_util,
            wide_dir.miss_latency_ns
        );
        println!(
            "  (paper: 64-bit ring utilisation never surpasses 50%; snooping wins everywhere)"
        );

        // 4. memory-bank contention.
        let (no_queue, queue) = (results[9], results[10]);
        println!();
        println!("Ablation 4: memory-bank queueing (snooping, mp3d.16, 200 MIPS)");
        println!(
            "  contention-free banks (paper): proc util {:>5.1}%, miss latency {:>5.0} ns",
            100.0 * no_queue.proc_util,
            no_queue.miss_latency_ns
        );
        println!(
            "  serialised banks              : proc util {:>5.1}%, miss latency {:>5.0} ns",
            100.0 * queue.proc_util,
            queue.miss_latency_ns
        );

        ctx.write_json(
            "ablation",
            &AblationResult {
                slot_mix,
                starvation_rule_on_util: on.proc_util,
                starvation_rule_off_util: off.proc_util,
                wide_snoop_util: wide_snoop.proc_util,
                wide_dir_util: wide_dir.proc_util,
                wide_snoop_ring_util: wide_snoop.ring_util,
                wide_snoop_latency: wide_snoop.miss_latency_ns,
                wide_dir_latency: wide_dir.miss_latency_ns,
                bank_contention_off_util: no_queue.proc_util,
                bank_contention_on_util: queue.proc_util,
                bank_contention_off_latency: no_queue.miss_latency_ns,
                bank_contention_on_latency: queue.miss_latency_ns,
            },
        );
        ctx.artifacts()
    }
}
