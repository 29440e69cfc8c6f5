//! Static lint over the guarded-rule sets in `ringsim-proto::guarded` and
//! the actions and predicates they share with `ringsim-proto::transitions`.
//!
//! Three layers of defence against silently-incomplete tables:
//!
//! 1. **Runtime totality**: every function is called over the full cartesian
//!    product of its inputs. Rust's exhaustiveness checking already forces
//!    the `match`es to cover the enums, so this mostly guards against panics
//!    hidden behind `unreachable!` in reachable corners.
//! 2. **Source lint**: the module's source is scanned to prove that no
//!    `match` uses a wildcard `_ =>` arm. A new [`MsgKind`] or [`LineState`]
//!    variant therefore fails compilation inside every table instead of
//!    falling into a silent default.
//! 3. **Guarded-rule lint**: the declarative rule sets are checked for
//!    totality (some guard matches every enumerable context), determinism
//!    (overlapping guards agree on the action), and liveness (no rule is
//!    dead — every rule fires somewhere in a 4-node exhaustive run of the
//!    protocol it belongs to).
//! 4. **One engine per protocol family**: a source scan proves that only
//!    the rule module, the transition tables and the ring engine dispatch
//!    the ring protocols' rules, only the rule module and the bus engine
//!    dispatch MSI's, MESI's and Dragon's, and only the rule module and the SCI
//!    engine dispatch SCI's, so the model checker and the simulators share
//!    every effect. The same scan keeps cache effects (`snoop_invalidate`,
//!    `snoop_downgrade`) inside the cache crate, the three engines, the
//!    reference interpreter and the two host hooks that invalidate a sharer,
//!    writes to the Figure 5 event buckets (`private_misses` and
//!    `writeback_*` included) inside `CoherenceEvents`' one classifier, and
//!    worker pools (`thread::scope(`) inside `ringsim_types::par`, the
//!    service's per-shard supervisors and the load-test clients, and
//!    polling sleeps (`thread::sleep(`) inside the service's accept back-off
//!    and the benchmark's client harness.

use ringsim::cache::LineState;
use ringsim::proto::guarded::{dir_action, home_snoop_action, snooper_action};
use ringsim::proto::transitions::{
    must_reclaim_writeback, upgrade_must_convert, DirRequest, HomeSnoopAction, SnoopAction,
};
use ringsim::proto::{DirEntry, MsgKind};
use ringsim::types::NodeId;

const ALL_KINDS: [MsgKind; 13] = [
    MsgKind::SnoopRead,
    MsgKind::SnoopWrite,
    MsgKind::SnoopUpgrade,
    MsgKind::DirRead,
    MsgKind::DirWrite,
    MsgKind::DirUpgrade,
    MsgKind::DirFwdRead,
    MsgKind::DirFwdWrite,
    MsgKind::DirInval,
    MsgKind::DirAck,
    MsgKind::BlockData,
    MsgKind::WriteBack,
    MsgKind::MemUpdate,
];

const ALL_STATES: [LineState; 3] = [LineState::Inv, LineState::Rs, LineState::We];

/// Representative directory entries: every (owner, sharer-set) shape the
/// dispatch table branches on, for 4 nodes.
fn entry_shapes() -> Vec<DirEntry> {
    let mut shapes = Vec::new();
    for sharers in 0u64..16 {
        let e = DirEntry { sharers, ..DirEntry::default() };
        shapes.push(e);
        for owner in 0..4 {
            shapes.push(DirEntry { owner: Some(NodeId::new(owner)), ..e });
        }
    }
    shapes
}

#[test]
fn snooper_table_is_total() {
    for state in ALL_STATES {
        for kind in ALL_KINDS {
            // Must not panic for any combination; the enum of results is the
            // contract, not a particular value.
            let _ = snooper_action(state, kind, None);
        }
    }
}

#[test]
fn home_snoop_table_is_total() {
    for dirty in [false, true] {
        for kind in ALL_KINDS {
            let _ = home_snoop_action(dirty, kind, None);
        }
    }
}

// The ring simulator returns early, before evaluating any rule, when a
// message passes a node that holds the line `Inv` and is not the block's
// home (`RingSystem::snoop` and `snoop_probe`). The next two tests pin the
// premises that make those early returns equivalent to evaluating the
// tables.

#[test]
fn inv_lines_ignore_every_message() {
    for kind in ALL_KINDS {
        assert_eq!(snooper_action(LineState::Inv, kind, None), SnoopAction::Ignore, "{kind:?}");
    }
}

#[test]
fn home_snoop_acts_only_on_probes() {
    for dirty in [false, true] {
        for kind in ALL_KINDS {
            if !kind.is_snoop_probe() {
                assert_eq!(
                    home_snoop_action(dirty, kind, None),
                    HomeSnoopAction::Silent,
                    "{kind:?} (dirty {dirty})"
                );
            }
        }
    }
}

#[test]
fn classify_is_total_and_only_home_requests_classify() {
    let home_requests = [MsgKind::DirRead, MsgKind::DirWrite, MsgKind::DirUpgrade];
    for kind in ALL_KINDS {
        let class = DirRequest::classify(kind);
        assert_eq!(class.is_some(), home_requests.contains(&kind), "{kind:?}");
    }
}

#[test]
fn dir_dispatch_is_total_over_entry_shapes() {
    for entry in entry_shapes() {
        for requester in (0..4).map(NodeId::new) {
            let _ = must_reclaim_writeback(&entry, requester);
            let _ = upgrade_must_convert(&entry, requester);
            for req in [DirRequest::Read, DirRequest::Write, DirRequest::Upgrade] {
                let _ = dir_action(&entry, requester, req, None);
            }
        }
    }
}

#[test]
fn transition_tables_have_no_wildcard_arms() {
    // The module promises every match is total with no `_ =>` arms, so that
    // adding an enum variant breaks the build in every table at once. Scan
    // the source to keep the promise honest.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/proto/src/transitions.rs");
    let src = std::fs::read_to_string(path).expect("transition tables source");
    for (lineno, line) in src.lines().enumerate() {
        let code = line.split("//").next().unwrap_or("");
        assert!(
            !code.contains("_ =>"),
            "wildcard match arm in transitions.rs:{}: `{}`",
            lineno + 1,
            line.trim()
        );
    }
    // The scan above is only meaningful while the functions it guards exist.
    for name in ["classify", "must_reclaim_writeback", "upgrade_must_convert"] {
        assert!(src.contains(name), "expected `{name}` in transitions.rs");
    }
}

// ------------------------------------------------------- guarded rule sets

/// The guarded rule sets are total and deterministic over the enumerated
/// context domains (every snooped kind × line state, probe × dirty bit,
/// and every 8-node directory-entry shape × requester × request).
#[test]
fn guarded_rule_sets_lint_clean() {
    let findings = ringsim::proto::guarded::lint(8);
    assert!(findings.is_empty(), "guarded-rule lint findings:\n{}", findings.join("\n"));
}

/// No two rules in a set share a name — fire counts and dead-rule reports
/// key on `(ruleset, rule)`.
#[test]
fn guarded_rule_names_are_unique() {
    use ringsim::proto::guarded::FireCounts;
    let mut seen = std::collections::HashSet::new();
    for fire in FireCounts::new().snapshot() {
        assert!(seen.insert((fire.ruleset, fire.rule)), "duplicate rule {:?}", fire.rule);
    }
    // snooper + home + directory + sci + msi + mesi + dragon.
    assert!(seen.len() >= 50, "expected the full rule inventory, got {}", seen.len());
}

/// The guarded module keeps the same no-wildcard promise as the transition
/// tables: adding a [`MsgKind`] variant must break every dispatch site.
#[test]
fn guarded_rules_have_no_wildcard_arms() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/proto/src/guarded.rs");
    let src = std::fs::read_to_string(path).expect("guarded rules source");
    for (lineno, line) in src.lines().enumerate() {
        let code = line.split("//").next().unwrap_or("");
        assert!(
            !code.contains("_ =>"),
            "wildcard match arm in guarded.rs:{}: `{}`",
            lineno + 1,
            line.trim()
        );
    }
    for name in [
        "SNOOPER_RULES",
        "HOME_RULES",
        "DIR_RULES",
        "SCI_RULES",
        "MSI_RULES",
        "MESI_RULES",
        "DRAGON_RULES",
        "snooper_action",
        "home_snoop_action",
        "dir_action",
    ] {
        assert!(src.contains(name), "expected `{name}` in guarded.rs");
    }
}

/// Dead-rule gate: every rule fires in a 4-node exhaustive run of the
/// protocol it is declared for. A rule no reachable state ever fires is
/// either a spec bug or dead weight that belongs deleted; both should fail
/// loudly here rather than rot.
#[test]
fn no_rule_is_dead_at_four_nodes() {
    use ringsim::check::{explore, CheckConfig};
    use ringsim::proto::ProtocolKind;

    for protocol in [
        ProtocolKind::Snooping,
        ProtocolKind::Directory,
        ProtocolKind::Sci,
        ProtocolKind::Msi,
        ProtocolKind::Mesi,
        ProtocolKind::Dragon,
    ] {
        let mut cfg = CheckConfig::new(protocol, 4, 1);
        cfg.stats = true;
        // The directory's full 4-node space is huge and evictions add
        // nothing to its rule coverage (no directory rule guards on
        // eviction state). Every other protocol keeps them: SCI's rollout
        // splice and the bus protocols' last-copy promotes only fire with
        // evictions in the mix.
        cfg.evictions = protocol != ProtocolKind::Directory;
        cfg.check_liveness = false;
        let report = explore(&cfg).expect("valid config");
        assert!(report.passed(), "{protocol}: exhaustive run must be clean");
        let stats = report.stats.expect("stats requested");
        let dead = stats.dead_rules(protocol);
        assert!(
            dead.is_empty(),
            "{protocol}: rules never fired in a 4n/1b exhaustive run: {:?}",
            dead.iter().map(|d| format!("{}/{}", d.ruleset, d.rule)).collect::<Vec<_>>()
        );
    }
}

/// Each protocol family's rules are dispatched only by its engine:
/// `ringsim_proto::ring_engine` for the ring protocols,
/// `ringsim_proto::bus_engine` for MSI, MESI and Dragon, and
/// `ringsim_proto::sci` for SCI. The timed simulators and the model checker
/// both drive those engines, so a second caller would be a second copy of
/// a protocol's effects, one the checker does not verify. Snooped cache
/// effects are held to the same rule: besides the cache crate and the
/// engines, only `ringsim_trace::RefInterpreter` (the idealised full map
/// behind Table 2 and Table 1's full-map column) and the two hosts' sharer
/// invalidation hooks (`BusSystem::invalidate_sharer`,
/// `Model::invalidate_at` in the checker) apply them. Likewise every
/// backend classifies a finished miss, upgrade or write-back through
/// `CoherenceEvents::record` and `record_writeback`, so only
/// `crates/types/src/events.rs` writes a Figure 5 bucket (`<field> +=` or
/// `&mut <x>.<field>`). The sweep and the model checker run on one ordered
/// pool, `ringsim_types::par`, so `thread::scope(` appears only there, in
/// the service's one-supervisor-per-shard-worker loop and in the load-test
/// clients. Nothing waits by polling: `thread::sleep(` appears only in
/// `crates/serve/src/lib.rs` (the accept loop's back-off on errors) and in
/// the benchmark's client harness. Test code is exempt
/// (everything from a file's `#[cfg(test)]` on).
#[test]
fn only_the_engines_dispatch_protocol_rules() {
    // (family, dispatch calls, the only files, or directories ending in
    // `/`, that may make them)
    const FAMILIES: [(&str, &[&str], &[&str]); 6] = [
        (
            "ring-protocol",
            &[
                "dir_action(",
                "snooper_action(",
                "home_snoop_action(",
                "must_reclaim_writeback(",
                "upgrade_must_convert(",
            ],
            &[
                "crates/proto/src/guarded.rs",
                "crates/proto/src/transitions.rs",
                "crates/proto/src/ring_engine.rs",
            ],
        ),
        (
            "bus-protocol",
            &["msi_action(", "mesi_action(", "dragon_action("],
            &["crates/proto/src/guarded.rs", "crates/proto/src/bus_engine.rs"],
        ),
        (
            "sci-protocol",
            &["sci_action("],
            &["crates/proto/src/guarded.rs", "crates/proto/src/sci.rs"],
        ),
        (
            "cache-effects",
            &["snoop_invalidate(", "snoop_downgrade("],
            &[
                "crates/cache/",
                "crates/proto/src/ring_engine.rs",
                "crates/proto/src/bus_engine.rs",
                "crates/proto/src/sci.rs",
                "crates/trace/src/interp.rs",
                "crates/core/src/bus_system.rs",
                "crates/check/src/model.rs",
            ],
        ),
        (
            "worker-pools",
            &["thread::scope("],
            &[
                "crates/types/src/par.rs",
                "crates/serve/src/jobs.rs",
                "crates/bench/src/loadtest.rs",
            ],
        ),
        (
            "sleep-polls",
            &["thread::sleep("],
            &["crates/serve/src/lib.rs", "crates/bench/src/bin/benchmark/"],
        ),
    ];
    // The fig5-buckets family: fields only the classifier may write.
    const FIG5_BUCKETS: [&str; 17] = [
        "private_misses",
        "read_clean_local",
        "read_clean_remote",
        "read_dirty_1",
        "read_dirty_2",
        "write_nosharers_local",
        "write_nosharers_remote",
        "write_sharers_local",
        "write_sharers_remote",
        "write_dirty_1",
        "write_dirty_2",
        "upgrade_nosharers_local",
        "upgrade_nosharers_remote",
        "upgrade_sharers_local",
        "upgrade_sharers_remote",
        "writeback_local",
        "writeback_remote",
    ];
    const FIG5_OWNER: &str = "crates/types/src/events.rs";
    /// Whether `code` writes `field`: `<field> +=` or `&mut <x>.<field>`.
    fn writes(code: &str, field: &str) -> bool {
        let ident = |c: char| c.is_alphanumeric() || c == '_';
        code.match_indices(field).any(|(at, _)| {
            let (before, after) = (&code[..at], &code[at + field.len()..]);
            if before.ends_with(ident) || after.starts_with(ident) {
                return false;
            }
            let place = before.trim_end_matches(|c: char| ident(c) || c == '.');
            after.trim_start().starts_with("+=") || place.ends_with("&mut ")
        })
    }
    fn rust_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("readable source dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                rust_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    rust_files(&root.join("examples"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        rust_files(&krate.expect("crate entry").path().join("src"), &mut files);
    }
    assert!(files.len() > 50, "scan found only {} files", files.len());
    let mut offenders = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).expect("under the root").to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).expect("readable source");
        for (lineno, line) in src.lines().enumerate() {
            if line.trim_start().starts_with("#[cfg(test)]") {
                break;
            }
            let code = line.split("//").next().unwrap_or("");
            for (family, calls, owners) in FAMILIES {
                if owners.iter().any(|o| rel == *o || (o.ends_with('/') && rel.starts_with(o))) {
                    continue;
                }
                if calls.iter().any(|call| code.contains(call)) {
                    offenders.push(format!(
                        "{family} rule at {rel}:{}: `{}`",
                        lineno + 1,
                        line.trim()
                    ));
                }
            }
            if rel != FIG5_OWNER && FIG5_BUCKETS.iter().any(|field| writes(code, field)) {
                offenders.push(format!(
                    "fig5-buckets write at {rel}:{}: `{}`",
                    lineno + 1,
                    line.trim()
                ));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "protocol rules dispatched, events classified, worker pools spawned or sleeps polled \
         outside their owners:\n{}",
        offenders.join("\n")
    );
}
