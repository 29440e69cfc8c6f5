//! Pinned byte-identity for the topology refactor: the two-level `hier`
//! backend must keep producing exactly the report bytes captured *before*
//! the fixed local/global ring pair was generalised into the recursive
//! `RingTopology` tree and `HierNetSim` was rebuilt around `Bridge`
//! junctions.
//!
//! Unlike `simkind_goldens` (which can be re-blessed), these digests are
//! hard-coded from the pre-refactor engine on purpose: if this test fails,
//! the refactor changed classic two-level simulation semantics — fix the
//! engine, do not update the constants.

use ringsim_bench::perf::{report_digest, Scenario};
use ringsim_core::SimKind;

/// `report_digest` of `hier-16p` at 2000 refs/proc, captured at commit
/// `21c1868` (the last pre-refactor engine).
const HIER_16P_R2000: &str = "2f94d03b846d893b";
/// `report_digest` of `hier-64p` at 400 refs/proc, same capture.
const HIER_64P_R400: &str = "7201885e8b8675df";

#[test]
fn two_level_hier_matches_pre_refactor_digest_16p() {
    let s = Scenario { kind: SimKind::Hier, procs: 16, refs_per_proc: 2_000, topo: None };
    let (report, _) = s.run_once();
    assert_eq!(
        report_digest(&report),
        HIER_16P_R2000,
        "the refactored topology engine no longer reproduces the pre-refactor \
         two-level hier run bit-for-bit"
    );
}

#[test]
fn two_level_hier_matches_pre_refactor_digest_64p() {
    let s = Scenario { kind: SimKind::Hier, procs: 64, refs_per_proc: 400, topo: None };
    let (report, _) = s.run_once();
    assert_eq!(
        report_digest(&report),
        HIER_64P_R400,
        "the refactored topology engine no longer reproduces the pre-refactor \
         two-level hier run bit-for-bit"
    );
}
