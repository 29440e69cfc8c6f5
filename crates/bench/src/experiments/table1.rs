//! Table 1: distribution of ring traversals per shared miss / invalidation,
//! full-map versus linked-list directory, for the 16-processor SPLASH
//! benchmarks.

use serde::{Deserialize, Serialize};

use ringsim_cache::AccessClass;
use ringsim_proto::sci::SciDirectory;
use ringsim_proto::table1::TraversalReport;
use ringsim_ring::{RingConfig, RingLayout};
use ringsim_sweep::{Artifact, Experiment, SweepCtx, SweepPoint};
use ringsim_trace::{AddressSpace, Benchmark, RefInterpreter, Workload};
use ringsim_types::{MemRef, Region};

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

/// Table 1's full-map column. [`RefInterpreter`] is the idealised full-map
/// directory; each shared miss or upgrade it serves is tallied by the ring
/// traversals its message path needs, given what the transaction found.
struct FullMap {
    interp: RefInterpreter,
    layout: RingLayout,
    report: TraversalReport,
}

impl FullMap {
    fn new(layout: RingLayout, space: AddressSpace) -> Self {
        let interp = RefInterpreter::new(layout.nodes(), space).expect("interpreter");
        Self { interp, layout, report: TraversalReport::default() }
    }

    /// Replays one reference.
    fn process(&mut self, r: MemRef) {
        let Some(t) = self.interp.process(r).filter(|_| r.region == Region::Shared) else {
            return;
        };
        let (node, home) = (r.node, t.home);
        if t.class == AccessClass::Upgrade {
            let n = if t.others == 0 {
                usize::from(home != node)
            } else if home == node {
                // Home-local multicast: one full circle.
                1
            } else {
                // Request to home + multicast round + grant: two circles.
                2
            };
            self.report.invalidate.record(n);
        } else {
            let n = match t.owner {
                Some(d) => {
                    // Request to home, forward to the dirty node, reply.
                    if home == node {
                        self.layout.closed_path_traversals([node, d])
                    } else {
                        self.layout.closed_path_traversals([node, home, d])
                    }
                }
                None => {
                    let multicast = r.kind.is_write() && t.others != 0;
                    match (home == node, multicast) {
                        (true, false) => 0,
                        (true, true) => 1,
                        (false, false) => 1,
                        (false, true) => 2,
                    }
                }
            };
            self.report.miss.record(n);
        }
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
    let mut full = FullMap::new(layout.clone(), space);
    let mut llist = SciDirectory::new(layout, move |b| space.home_of_block(b)).expect("directory");
    let per_node = workload.spec().warmup_refs_per_proc + workload.spec().data_refs_per_proc;
    for r in workload.round_robin(per_node) {
        full.process(r);
        llist.access(r);
    }
    Row { bench: bench.name().to_owned(), full: full.report, linked_list: llist.report() }
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

#[cfg(test)]
mod tests {
    use super::*;
    use ringsim_trace::WorkloadSpec;
    use ringsim_types::{AccessKind::*, NodeId};

    fn layout(n: usize) -> RingLayout {
        RingConfig::standard_500mhz(n).layout().unwrap()
    }

    /// A deterministic micro-scenario exercising the textbook cases.
    #[test]
    fn full_map_micro_scenario() {
        let space = AddressSpace::new(16, 7);
        // A shared block whose home is node 6.
        let addr = (0..)
            .map(|i| space.migratory_addr(i))
            .find(|&a| space.home_of(a) == NodeId::new(6))
            .unwrap();
        let mut full = FullMap::new(layout(16), space);
        let mk = |node: usize, kind| MemRef {
            node: NodeId::new(node),
            addr,
            kind,
            region: Region::Shared,
        };
        // P0 read miss on uncached block: 1 traversal.
        full.process(mk(0, Read));
        assert_eq!(full.report.miss.one, 1);
        // P0 upgrade (no other sharers, remote home): 1 traversal.
        full.process(mk(0, Write));
        assert_eq!(full.report.invalidate.one, 1);
        // P12 read miss on dirty block owned by P0. Path 12 -> 6 -> 0 -> 12:
        // hops(12,6)=10, hops(12,0)=4: dirty node on the path -> 2 traversals.
        full.process(mk(12, Read));
        assert_eq!(full.report.miss.two, 1);
        // P3 write miss on a block now shared by {0, 12}: multicast -> 2.
        full.process(mk(3, Write));
        assert_eq!(full.report.miss.two, 2);
        // The home P6 write-misses on P3's dirty copy: path 6 -> 3 -> 6, 1.
        full.process(mk(6, Write));
        assert_eq!(full.report.miss.one, 2);
        // P9 read miss on a block dirty at its remote home P6: path
        // 9 -> 6 -> 6 -> 9. `closed_path_traversals` counts the 6 -> 6 hop as
        // a full revolution, so this pays 2 where the timed ring, which
        // delivers a message to itself locally, needs 1 (a FOUND line in
        // CHANGES.md). A fix changes this count on purpose.
        full.process(mk(9, Read));
        assert_eq!(full.report.miss.two, 3);
        assert_eq!(full.report.miss.three_plus, 0);
    }

    #[test]
    fn workload_distributions_are_sane() {
        let mut w = Workload::new(WorkloadSpec::demo(16)).unwrap();
        let space = w.space();
        let mut full = FullMap::new(layout(16), space);
        let mut ll = SciDirectory::new(layout(16), move |b| space.home_of_block(b)).unwrap();
        for r in w.round_robin(4_000) {
            full.process(r);
            ll.access(r);
        }
        let f = full.report;
        let l = ll.report();
        assert!(f.miss.total() > 100);
        assert_eq!(f.miss.three_plus, 0);
        assert_eq!(f.invalidate.three_plus, 0);
        // The linked list should show some 3+ transactions.
        assert!(l.miss.total() > 100);
        assert!(l.invalidate.three_plus + l.miss.three_plus > 0);
    }
}
