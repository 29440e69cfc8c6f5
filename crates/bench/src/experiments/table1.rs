//! Table 1: distribution of ring traversals per shared miss / invalidation,
//! full-map versus linked-list directory, for the 16-processor SPLASH
//! benchmarks.

use serde::{Deserialize, Serialize};

use ringsim_proto::sci::SciDirectory;
use ringsim_proto::table1::{FullMapAccountant, TraversalReport};
use ringsim_ring::RingConfig;
use ringsim_sweep::{Artifact, Experiment, SweepCtx, SweepPoint};
use ringsim_trace::{Benchmark, Workload};

/// Paper-reported percentages `(one, two, three_plus)`.
type Pcts = (f64, f64, f64);

/// Paper values for MP3D/WATER/CHOLESKY at 16 processors.
fn paper_values(bench: Benchmark) -> [(Pcts, Pcts); 2] {
    // [(full miss, full inval), (llist miss, llist inval)]
    match bench {
        Benchmark::Mp3d => {
            [((70.5, 29.5, 0.0), (12.6, 87.4, 0.0)), ((67.0, 32.0, 1.0), (7.1, 87.7, 5.2))]
        }
        Benchmark::Water => {
            [((72.4, 27.6, 0.0), (12.6, 87.4, 0.0)), ((53.5, 45.9, 0.6), (7.2, 88.6, 4.2))]
        }
        Benchmark::Cholesky => {
            [((84.5, 15.5, 0.0), (17.1, 82.9, 0.0)), ((66.5, 31.5, 1.8), (5.2, 75.5, 19.3))]
        }
        _ => unreachable!("table 1 covers the SPLASH benchmarks"),
    }
}

#[derive(Debug, Serialize, Deserialize)]
struct Row {
    bench: String,
    full: TraversalReport,
    linked_list: TraversalReport,
}

/// Runs one benchmark through both directories.
fn run_bench(bench: Benchmark, refs_per_proc: u64) -> Row {
    let procs = 16;
    let spec = bench.spec(procs).expect("16-proc spec").with_refs(refs_per_proc);
    let mut workload = Workload::new(spec).expect("valid spec");
    let layout = RingConfig::standard_500mhz(procs).layout().expect("valid ring");
    let space = workload.space();
    let mut full = FullMapAccountant::new(layout.clone(), move |b| space.home_of_block(b))
        .expect("accountant");
    let mut llist = SciDirectory::new(layout, move |b| space.home_of_block(b)).expect("directory");
    let per_node = workload.spec().warmup_refs_per_proc + workload.spec().data_refs_per_proc;
    for r in workload.round_robin(per_node) {
        full.process(r);
        llist.access(r);
    }
    Row { bench: bench.name().to_owned(), full: full.report(), linked_list: llist.report() }
}

/// Regenerates Table 1.
pub struct Table1;

impl Experiment for Table1 {
    fn name(&self) -> &'static str {
        "table1"
    }

    fn description(&self) -> &'static str {
        "ring traversals per transaction, full-map vs linked-list directory (Table 1)"
    }

    fn run(&self, ctx: &SweepCtx) -> Vec<Artifact> {
        let benches = [Benchmark::Mp3d, Benchmark::Water, Benchmark::Cholesky];
        let rows = ctx.map(
            &benches,
            |b| SweepPoint::new().bench(b.name()).procs(16),
            |pctx, b| run_bench(*b, pctx.refs_per_proc),
        );
        println!("Table 1: ring traversals per transaction, full map vs linked list (16 procs)");
        println!("{:-<100}", "");
        println!(
            "{:<10} {:>6} | {:>22} | {:>22} || paper full | paper l.list",
            "bench", "kind", "full map (1/2/3+ %)", "linked list (1/2/3+ %)"
        );
        for (row, bench) in rows.iter().zip(benches) {
            let paper = paper_values(bench);
            for (kind, ours_full, ours_ll, p_full, p_ll) in [
                (
                    "miss",
                    row.full.miss.percentages(),
                    row.linked_list.miss.percentages(),
                    paper[0].0,
                    paper[1].0,
                ),
                (
                    "inval",
                    row.full.invalidate.percentages(),
                    row.linked_list.invalidate.percentages(),
                    paper[0].1,
                    paper[1].1,
                ),
            ] {
                println!(
                    "{:<10} {:>6} | {:>5.1} {:>5.1} {:>5.1}      | {:>5.1} {:>5.1} {:>5.1}      || {:>4.1}/{:>4.1}/{:>3.1} | {:>4.1}/{:>4.1}/{:>4.1}",
                    row.bench,
                    kind,
                    ours_full.0,
                    ours_full.1,
                    ours_full.2,
                    ours_ll.0,
                    ours_ll.1,
                    ours_ll.2,
                    p_full.0,
                    p_full.1,
                    p_full.2,
                    p_ll.0,
                    p_ll.1,
                    p_ll.2,
                );
            }
        }
        ctx.write_json("table1", &rows);
        ctx.artifacts()
    }
}
