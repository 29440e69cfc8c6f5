//! Golden tests for the symmetry-reduced model checker.
//!
//! Locks the canonical state counts, orbit-reduction factors, and
//! parallel-determinism guarantees of `ringsim::check`. The counts are
//! golden on purpose: a canonicalization bug has two failure modes —
//! splitting an orbit across representatives (count grows) or merging
//! distinct orbits (count shrinks, silently pruning real states) — and
//! both move these numbers.

use ringsim::check::{explore, CheckConfig, CheckReport, Fault};
use ringsim::proto::ProtocolKind;

fn check(protocol: ProtocolKind, nodes: usize, blocks: usize) -> CheckConfig {
    CheckConfig::new(protocol, nodes, blocks)
}

fn run(cfg: &CheckConfig) -> CheckReport {
    explore(cfg).expect("valid config")
}

/// Canonical state counts for the small exhaustive configurations. The
/// unreduced counts (in comments) are locked by
/// `reduction_factor_vs_unreduced_run` below for the 3-node config.
#[test]
fn golden_canonical_state_counts() {
    // (protocol, nodes, blocks, evictions, states, transitions, depth)
    let golden = [
        (ProtocolKind::Snooping, 3, 1, true, 1279, 5244, 15), // unreduced: 2451
        (ProtocolKind::Snooping, 4, 1, true, 7169, 37468, 21), // unreduced: 37993
        (ProtocolKind::Directory, 4, 1, false, 17784, 50714, 32), // unreduced: 103994
        (ProtocolKind::Msi, 3, 2, true, 6844, 40660, 18),
        (ProtocolKind::Msi, 4, 1, true, 395, 2073, 15),
        (ProtocolKind::Mesi, 3, 2, true, 10283, 62294, 21),
        (ProtocolKind::Mesi, 4, 1, true, 451, 2400, 14),
        (ProtocolKind::Dragon, 3, 2, true, 17229, 114650, 15),
        (ProtocolKind::Dragon, 4, 1, true, 511, 2891, 12),
        (ProtocolKind::Sci, 3, 2, true, 14431, 93176, 18),
        (ProtocolKind::Sci, 4, 1, true, 731, 3869, 15),
    ];
    for (protocol, nodes, blocks, evictions, states, transitions, depth) in golden {
        let mut cfg = check(protocol, nodes, blocks);
        cfg.evictions = evictions;
        let report = run(&cfg);
        let at = format!("{protocol} {nodes}n/{blocks}b");
        assert!(report.passed(), "{at} must be clean");
        assert!(report.complete, "{at} must be exhaustive");
        assert_eq!(report.states, states, "{at} canonical states");
        assert_eq!(report.transitions, transitions, "{at} transitions");
        assert_eq!(report.depth, depth, "{at} depth");
    }
}

/// The reduced run stores strictly fewer states than the raw run, by the
/// locked factor, and agrees on every non-count verdict.
#[test]
fn reduction_factor_vs_unreduced_run() {
    let reduced = run(&check(ProtocolKind::Snooping, 3, 1));
    let mut plain_cfg = check(ProtocolKind::Snooping, 3, 1);
    plain_cfg.symmetry = false;
    let plain = run(&plain_cfg);

    assert_eq!(reduced.states, 1279);
    assert_eq!(plain.states, 2451);
    let factor = plain.states as f64 / reduced.states as f64;
    assert!(factor > 1.9, "3n/1b group order is 2; got x{factor:.2}");

    assert_eq!(reduced.passed(), plain.passed());
    assert_eq!(reduced.depth, plain.depth, "shortest-path depth is orbit-invariant");
    assert_eq!(reduced.complete, plain.complete);
    assert_eq!(reduced.livelock_checked, plain.livelock_checked);
}

/// `--stats` reports the group order and a raw-successor count that bounds
/// the observable reduction, and no snooping rule is dead at 4 nodes.
#[test]
fn stats_report_reduction_and_no_dead_rules() {
    let mut cfg = check(ProtocolKind::Snooping, 4, 1);
    cfg.stats = true;
    let report = run(&cfg);
    let stats = report.stats.expect("stats requested");
    assert_eq!(stats.group_order, 6, "4n/1b: 3 free nodes permute");
    assert_eq!(stats.raw_states, 14583, "distinct raw successors of the representatives");
    assert!(stats.reduction(report.states) > 2.0);
    assert!(
        stats.dead_rules(ProtocolKind::Snooping).is_empty(),
        "every snooping rule must fire by 4 nodes: {:?}",
        stats.dead_rules(ProtocolKind::Snooping)
    );
}

/// Reports are byte-identical across worker counts: `--jobs 8` must not
/// reorder state ids, traces, or stats relative to `--jobs 1`.
#[test]
fn reports_are_byte_identical_across_jobs() {
    for (protocol, fault) in
        [(ProtocolKind::Snooping, Fault::None), (ProtocolKind::Directory, Fault::ParkBusyForwards)]
    {
        let mut serial = check(protocol, 3, 1);
        serial.fault = fault;
        serial.stats = true;
        serial.check_liveness = false;
        serial.max_states = 500_000;
        let mut wide = serial;
        serial.jobs = 1;
        wide.jobs = 8;
        let (a, b) = (run(&serial), run(&wide));
        assert_eq!(format!("{a}"), format!("{b}"), "{protocol}: report must not depend on jobs");
        assert_eq!(
            a.violation.map(|v| v.trace),
            b.violation.map(|v| v.trace),
            "{protocol}: counterexample traces must not depend on jobs"
        );
    }
}

/// All three seeded mutations still produce counterexample traces through
/// the symmetry-reduced, guarded-action path.
#[test]
fn fault_fixtures_caught_through_reduced_guarded_path() {
    let cases = [
        (ProtocolKind::Snooping, Fault::SkipInvalidate, "SWMR"),
        (ProtocolKind::Directory, Fault::ForgetOwner, ""),
        (ProtocolKind::Directory, Fault::ParkBusyForwards, "deadlock"),
    ];
    for (protocol, fault, needle) in cases {
        let mut cfg = check(protocol, 2, 1);
        cfg.fault = fault;
        assert!(cfg.symmetry, "reduction is the default path");
        let report = run(&cfg);
        let v = report.violation.unwrap_or_else(|| panic!("{protocol}/{fault}: must be caught"));
        assert!(v.message.contains(needle), "{protocol}/{fault}: {}", v.message);
        assert!(v.trace.len() > 2, "{protocol}/{fault}: trace should narrate the steps");
    }
}

/// The typed fault-parse error mirrors `SimKindError`: it names the bad
/// spelling and lists the valid ones.
#[test]
fn fault_parse_error_is_typed_and_lists_choices() {
    let err = "skip-invalidat".parse::<Fault>().expect_err("misspelling must not parse");
    let msg = err.to_string();
    assert!(msg.contains("skip-invalidat"), "{msg}");
    assert!(msg.contains("skip-invalidate"), "{msg}");
    assert!(msg.contains("park-busy-forwards"), "{msg}");
    let _: &dyn std::error::Error = &err;
}
