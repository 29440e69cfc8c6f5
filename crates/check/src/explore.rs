//! Symmetry-reduced, hash-compacted, level-synchronous parallel BFS with
//! invariant checking, deadlock detection, and quiescence-reachability
//! (livelock) analysis.
//!
//! The exploration proceeds level by level. Within a level every frontier
//! state is expanded independently — workers share the frontier through an
//! atomic cursor, evaluate invariants on fresh successors, and
//! canonicalize them (`sym`) — while the visited store (`store`) is
//! read-only. A single serial merge then assigns dense ids in (frontier
//! order, move order) and reports the first violation in that same order,
//! which makes every report **byte-identical for any `jobs` value**: the
//! schedule only changes who computes a result, never which results exist
//! or how they are ordered.
//!
//! Memory per stored state is one fingerprint map entry plus a 6-byte
//! `Meta` (parent id + packed move). Counterexample traces are rebuilt by
//! replaying moves from the initial state and re-canonicalizing after each
//! step, so no state encodings or step labels are retained.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ringsim_cache::LineState;
use ringsim_proto::guarded::FireCounts;
use ringsim_proto::{invariants, ProtocolKind};
use ringsim_types::{BlockAddr, NodeId};

use crate::model::{Model, Move, State};
use crate::store::{fingerprint, FpMap, FpSet};
use crate::sym::Symmetry;
use crate::{CheckConfig, CheckReport, CheckStats, Violation};

/// Per-state side table entry: the BFS spanning tree, losslessly — enough
/// to replay any stored state from the initial one.
struct Meta {
    parent: u32,
    mv: u16,
}

/// What one worker reports for one expanded frontier state.
struct ItemResult {
    /// Outstanding work but no enabled protocol step.
    deadlock: bool,
    /// One entry per enumerated move, in move order.
    edges: Vec<EdgeOut>,
}

struct EdgeOut {
    mv: u16,
    /// Fingerprint of the canonical successor encoding.
    fp: u64,
    /// Fingerprint of the *raw* successor encoding (stats only, else 0).
    raw_fp: u64,
    /// Filled when `fp` was not in the visited store at expansion time.
    fresh: Option<FreshOut>,
}

struct FreshOut {
    enc: Vec<u8>,
    quiescent: bool,
    violation: Option<String>,
}

/// Evaluates the shared invariants on one state. Shallow (per-block)
/// checks run on every reachable state; the strict directory–cache
/// agreement check runs whenever a block is quiescent.
fn check_state(model: &Model, s: &State) -> Result<(), String> {
    for b in 0..model.blocks {
        let block = BlockAddr::new(b as u64);
        let states: Vec<LineState> =
            (0..model.nodes).map(|i| s.caches[i].state_of(block)).collect();
        let conflicting: Vec<bool> = (0..model.nodes)
            .map(|i| s.txns[i].as_ref().is_some_and(|t| t.block == block))
            .collect();
        invariants::check_swmr(&states, &conflicting).map_err(|e| format!("{block}: {e}"))?;
        match model.protocol {
            ProtocolKind::Snooping => {
                let dirty = s.mem.is_dirty(block);
                invariants::check_we_implies_dirty(&states, dirty)
                    .map_err(|e| format!("{block}: {e}"))?;
                let wb_pending: Vec<bool> = (0..model.nodes)
                    .map(|i| {
                        s.net.iter().any(|m| {
                            m.kind == ringsim_proto::MsgKind::WriteBack
                                && m.block == block
                                && m.src.index() == i
                        })
                    })
                    .collect();
                invariants::check_dirty_data_reachable(&states, &conflicting, &wb_pending, dirty)
                    .map_err(|e| format!("{block}: {e}"))?;
            }
            ProtocolKind::Directory => {
                let entry = s.engine.dir.entry(block);
                // The owner pointer is stale while a MemUpdate or WriteBack
                // from the (old) owner travels to — or queues at — the home;
                // those messages account for the dirty data meanwhile.
                let wb_pending: Vec<bool> = (0..model.nodes)
                    .map(|i| {
                        s.wb_buffer[i][b]
                            || s.net.iter().chain(s.engine.queued(block)).any(|m| {
                                matches!(
                                    m.kind,
                                    ringsim_proto::MsgKind::MemUpdate
                                        | ringsim_proto::MsgKind::WriteBack
                                ) && m.block == block
                                    && m.src.index() == i
                            })
                    })
                    .collect();
                invariants::check_dirty_data_reachable(
                    &states,
                    &conflicting,
                    &wb_pending,
                    entry.owner.is_some(),
                )
                .map_err(|e| format!("{block}: {e}"))?;
                if model.block_quiescent(s, block) {
                    invariants::check_dir_agreement(&states, &entry)
                        .map_err(|e| format!("{block}: {e}"))?;
                }
            }
            ProtocolKind::Sci => {
                let e = &s.sci[b];
                for (k, p) in e.list.iter().enumerate() {
                    if e.list[..k].contains(p) {
                        return Err(format!("{block}: sci list holds {p} twice"));
                    }
                }
                if e.dirty && (e.list.len() != 1 || states[e.list[0].index()] != LineState::We) {
                    return Err(format!(
                        "{block}: dirty sci list without a sole write-exclusive head"
                    ));
                }
                let wb_pending = vec![false; model.nodes];
                invariants::check_dirty_data_reachable(&states, &conflicting, &wb_pending, e.dirty)
                    .map_err(|e| format!("{block}: {e}"))?;
                if model.block_quiescent(s, block) {
                    for (i, st) in states.iter().enumerate() {
                        if st.is_valid() != e.contains(NodeId::new(i)) {
                            return Err(format!(
                                "{block}: sci list and caches disagree at quiescence: P{i} \
                                 is {:?} but {} the sharing list",
                                st,
                                if st.is_valid() { "missing from" } else { "listed on" },
                            ));
                        }
                    }
                }
            }
            p if p.is_bus() => {
                for (i, &st) in states.iter().enumerate() {
                    if s.excl[i][b] && st != LineState::We {
                        return Err(format!(
                            "{block}: P{i} is marked clean-exclusive without a We line"
                        ));
                    }
                }
                let dirty = s.mem.is_dirty(block);
                let modified_at = |i: usize| states[i] == LineState::We && !s.excl[i][b];
                if (0..model.nodes).any(modified_at) && !dirty {
                    return Err(format!(
                        "{block}: a modified line exists but memory claims to be clean"
                    ));
                }
                let owner_exists = (0..model.nodes).any(modified_at) || s.sm[b].is_some();
                if dirty && !owner_exists && !conflicting.iter().any(|&c| c) {
                    return Err(format!(
                        "{block}: memory is stale (dirty) but no cache owns the data"
                    ));
                }
                if let Some(o) = s.sm[b] {
                    if states[o.index()] != LineState::Rs {
                        return Err(format!(
                            "{block}: shared-modified owner {o} holds no shared line"
                        ));
                    }
                    if states.contains(&LineState::We) {
                        return Err(format!(
                            "{block}: both a shared-modified owner and an exclusive line"
                        ));
                    }
                }
            }
            p => unreachable!("{p} has no invariants"),
        }
    }
    Ok(())
}

/// The canonicalization in force: orbit representative when symmetry is
/// on, the plain encoding otherwise.
fn canon(model: &Model, sym: Option<&Symmetry>, s: &State) -> Vec<u8> {
    match sym {
        Some(sym) => sym.canonical_encode(model, s),
        None => model.encode(s),
    }
}

/// Replays the stored path to `id`, returning the narrated steps and the
/// state as explored (the canonical representative of `id`). Labels come
/// out exactly as exploration saw them because each step re-canonicalizes
/// before the next stored move is applied.
fn replay(model: &Model, sym: Option<&Symmetry>, metas: &[Meta], id: u32) -> (Vec<String>, State) {
    let mut path = Vec::new();
    let mut cur = id;
    while cur != 0 {
        path.push(cur);
        cur = metas[cur as usize].parent;
    }
    path.reverse();
    let mut steps = vec!["initial state (all caches invalid, memory clean)".to_owned()];
    let mut s = model.initial();
    for k in path {
        let label = model.apply(&mut s, Move::unpack(metas[k as usize].mv));
        steps.push(label);
        s = model.decode(&canon(model, sym, &s));
    }
    (steps, s)
}

/// Counterexample for a violation *on* stored state `id` (deadlock,
/// livelock, or the initial state).
fn violation_at(
    model: &Model,
    sym: Option<&Symmetry>,
    metas: &[Meta],
    id: u32,
    message: String,
) -> Violation {
    let (mut trace, s) = replay(model, sym, metas, id);
    trace.push("resulting state:".to_owned());
    trace.extend(model.render(&s));
    Violation { message, trace }
}

/// Counterexample for an invariant violation on the raw successor of
/// stored state `parent` under `mv` (the successor itself is never
/// stored: exploration stops first).
fn violation_past(
    model: &Model,
    sym: Option<&Symmetry>,
    metas: &[Meta],
    parent: u32,
    mv: u16,
    message: String,
) -> Violation {
    let (mut trace, mut s) = replay(model, sym, metas, parent);
    trace.push(model.apply(&mut s, Move::unpack(mv)));
    trace.push("resulting state:".to_owned());
    trace.extend(model.render(&s));
    Violation { message, trace }
}

/// Expands one frontier state: enumerate, apply, canonicalize, and check
/// fresh successors. Runs concurrently; touches only read-only shares.
fn expand_item(
    model: &Model,
    sym: Option<&Symmetry>,
    visited: &FpMap,
    want_stats: bool,
    enc: &[u8],
) -> ItemResult {
    let s = model.decode(enc);
    let moves = model.enumerate(&s);
    let deadlock = !moves.iter().any(|m| m.is_progress()) && !model.is_quiescent(&s);
    let mut edges = Vec::with_capacity(moves.len());
    for mv in moves {
        let mut next = s.clone();
        model.apply(&mut next, mv);
        let raw_fp = if want_stats { fingerprint(&model.encode(&next)) } else { 0 };
        let cenc = canon(model, sym, &next);
        let fp = fingerprint(&cenc);
        let fresh = if visited.contains_key(&fp) {
            None
        } else {
            Some(FreshOut {
                quiescent: model.is_quiescent(&next),
                violation: check_state(model, &next).err(),
                enc: cenc,
            })
        };
        edges.push(EdgeOut { mv: mv.pack(), fp, raw_fp, fresh });
    }
    ItemResult { deadlock, edges }
}

/// Runs the exhaustive exploration for one configuration.
pub(crate) fn run(cfg: &CheckConfig) -> CheckReport {
    let mut model = Model::new(cfg.protocol, cfg.nodes, cfg.blocks, cfg.fault, cfg.evictions);
    let counts = cfg.stats.then(|| Arc::new(FireCounts::new()));
    model.counts = counts.clone();
    let sym = cfg.symmetry.then(|| Symmetry::new(&model));
    let sym = sym.as_ref();
    let jobs = match cfg.jobs {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        j => j,
    };

    let mut report = CheckReport {
        protocol: cfg.protocol,
        nodes: cfg.nodes,
        blocks: cfg.blocks,
        fault: cfg.fault,
        states: 0,
        transitions: 0,
        quiescent_states: 0,
        depth: 0,
        complete: true,
        livelock_checked: false,
        violation: None,
        stats: None,
    };

    let init = model.initial();
    // The initial state is fully symmetric: every group element fixes it,
    // so its plain encoding already is the orbit representative.
    let init_enc = model.encode(&init);
    let mut visited = FpMap::default();
    let mut metas: Vec<Meta> = Vec::new();
    let mut quiescent: Vec<bool> = Vec::new();
    let mut succs: Vec<Vec<u32>> = Vec::new();
    let mut raw_fps = FpSet::default();

    visited.insert(fingerprint(&init_enc), 0);
    metas.push(Meta { parent: 0, mv: 0 });
    quiescent.push(model.is_quiescent(&init));
    if cfg.check_liveness {
        succs.push(Vec::new());
    }

    if let Err(e) = check_state(&model, &init) {
        report.states = 1;
        report.violation = Some(violation_at(&model, sym, &metas, 0, e));
        return report;
    }

    let mut frontier: Vec<(u32, Vec<u8>)> = vec![(0, init_enc)];
    let mut depth = 0usize;
    'levels: while !frontier.is_empty() {
        report.depth = depth;

        // ---- parallel expansion (visited is read-only for the level)
        let results: Vec<ItemResult> = if jobs <= 1 || frontier.len() < 2 {
            frontier
                .iter()
                .map(|(_, enc)| expand_item(&model, sym, &visited, cfg.stats, enc))
                .collect()
        } else {
            let cursor = AtomicUsize::new(0);
            let frontier_ref = &frontier;
            let visited_ref = &visited;
            let model_ref = &model;
            let mut indexed: Vec<(usize, ItemResult)> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..jobs.min(frontier.len()))
                    .map(|_| {
                        scope.spawn(|| {
                            let mut out = Vec::new();
                            loop {
                                let i = cursor.fetch_add(1, Ordering::Relaxed);
                                let Some((_, enc)) = frontier_ref.get(i) else { break };
                                out.push((
                                    i,
                                    expand_item(model_ref, sym, visited_ref, cfg.stats, enc),
                                ));
                            }
                            out
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|w| w.join().expect("expansion worker panicked"))
                    .collect()
            });
            indexed.sort_unstable_by_key(|&(i, _)| i);
            debug_assert!(indexed.iter().enumerate().all(|(k, &(i, _))| k == i));
            indexed.into_iter().map(|(_, r)| r).collect()
        };

        // ---- serial deterministic merge: ids in (frontier, move) order
        let mut next_frontier: Vec<(u32, Vec<u8>)> = Vec::new();
        for ((id, _), result) in frontier.iter().zip(results) {
            if result.deadlock {
                report.states = metas.len();
                report.violation = Some(violation_at(
                    &model,
                    sym,
                    &metas,
                    *id,
                    "deadlock: outstanding work but no protocol step can run".to_owned(),
                ));
                break 'levels;
            }
            for edge in result.edges {
                report.transitions += 1;
                if cfg.stats {
                    raw_fps.insert(edge.raw_fp);
                }
                if let Some(&known) = visited.get(&edge.fp) {
                    if cfg.check_liveness {
                        succs[*id as usize].push(known);
                    }
                    continue;
                }
                // Not seen in any level up to and including the ids merged
                // so far — the worker's fresh data is authoritative.
                let fresh = edge.fresh.expect("unknown fingerprint without fresh data");
                if let Some(msg) = fresh.violation {
                    report.states = metas.len();
                    report.violation = Some(violation_past(&model, sym, &metas, *id, edge.mv, msg));
                    break 'levels;
                }
                // The cap bounds *stored* states exactly (not per-level):
                // past it, successors are still invariant-checked above but
                // not stored or expanded, and the report says truncated.
                if metas.len() >= cfg.max_states {
                    report.complete = false;
                    continue;
                }
                let new_id = metas.len() as u32;
                visited.insert(edge.fp, new_id);
                metas.push(Meta { parent: *id, mv: edge.mv });
                quiescent.push(fresh.quiescent);
                if cfg.check_liveness {
                    succs.push(Vec::new());
                    succs[*id as usize].push(new_id);
                }
                next_frontier.push((new_id, fresh.enc));
            }
        }
        if report.violation.is_some() {
            break;
        }
        frontier = next_frontier;
        depth += 1;
    }

    if report.violation.is_some() {
        return report;
    }

    report.states = metas.len();
    report.quiescent_states = quiescent.iter().filter(|&&q| q).count();

    // Livelock: a state from which no quiescent state is reachable. Only
    // meaningful when the whole graph was expanded.
    if report.complete && cfg.check_liveness {
        report.livelock_checked = true;
        let n = metas.len();
        // Predecessor CSR from the successor lists.
        let mut deg = vec![0u32; n];
        for outs in &succs {
            for &t in outs {
                deg[t as usize] += 1;
            }
        }
        let mut start = vec![0usize; n + 1];
        for i in 0..n {
            start[i + 1] = start[i] + deg[i] as usize;
        }
        let mut fill = start.clone();
        let mut preds = vec![0u32; start[n]];
        for (from, outs) in succs.iter().enumerate() {
            for &t in outs {
                preds[fill[t as usize]] = from as u32;
                fill[t as usize] += 1;
            }
        }
        let mut reaches = vec![false; n];
        let mut work: VecDeque<u32> = (0..n as u32).filter(|&i| quiescent[i as usize]).collect();
        for &q in &work {
            reaches[q as usize] = true;
        }
        while let Some(t) = work.pop_front() {
            for &p in &preds[start[t as usize]..start[t as usize + 1]] {
                if !reaches[p as usize] {
                    reaches[p as usize] = true;
                    work.push_back(p);
                }
            }
        }
        if let Some(stuck) = (0..n as u32).find(|&i| !reaches[i as usize]) {
            report.violation = Some(violation_at(
                &model,
                sym,
                &metas,
                stuck,
                "livelock: no quiescent state is reachable from here".to_owned(),
            ));
        }
    }

    if report.violation.is_none() {
        if let Some(counts) = counts {
            report.stats = Some(CheckStats {
                raw_states: raw_fps.len() as u64,
                group_order: sym.map_or(1, Symmetry::group_order),
                rule_fires: counts.snapshot(),
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fault;

    fn cfg(protocol: ProtocolKind, nodes: usize, blocks: usize) -> CheckConfig {
        CheckConfig::new(protocol, nodes, blocks)
    }

    #[test]
    fn tiny_snooping_is_clean() {
        let report = run(&cfg(ProtocolKind::Snooping, 2, 1));
        assert!(report.complete);
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.states > 10);
        assert!(report.quiescent_states > 1);
        assert!(report.livelock_checked);
    }

    #[test]
    fn tiny_directory_is_clean() {
        let report = run(&cfg(ProtocolKind::Directory, 2, 1));
        assert!(report.complete);
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.states > 10);
    }

    #[test]
    fn tiny_atomic_protocols_are_clean() {
        for protocol in
            [ProtocolKind::Sci, ProtocolKind::Msi, ProtocolKind::Mesi, ProtocolKind::Dragon]
        {
            let report = run(&cfg(protocol, 2, 1));
            assert!(report.complete, "{protocol}");
            assert!(report.violation.is_none(), "{protocol}: {:?}", report.violation);
            assert!(report.states > 10, "{protocol}");
            assert!(report.livelock_checked, "{protocol}");
        }
    }

    #[test]
    fn decode_roundtrips_along_a_walk() {
        for protocol in [
            ProtocolKind::Snooping,
            ProtocolKind::Directory,
            ProtocolKind::Sci,
            ProtocolKind::Msi,
            ProtocolKind::Mesi,
            ProtocolKind::Dragon,
        ] {
            let model = Model::new(protocol, 3, 2, Fault::None, true);
            let mut s = model.initial();
            // A deterministic zig-zag walk: always take the move at a
            // rotating index, re-encoding at every step.
            for step in 0..200 {
                let moves = model.enumerate(&s);
                if moves.is_empty() {
                    break;
                }
                let mv = moves[step % moves.len()];
                model.apply(&mut s, mv);
                let enc = model.encode(&s);
                let back = model.decode(&enc);
                assert_eq!(model.encode(&back), enc, "{protocol} step {step}");
            }
        }
    }

    #[test]
    fn moves_pack_round_trip() {
        let model = Model::new(ProtocolKind::Directory, 4, 2, Fault::None, true);
        let mut s = model.initial();
        for step in 0..300 {
            let moves = model.enumerate(&s);
            if moves.is_empty() {
                break;
            }
            for &mv in &moves {
                assert_eq!(Move::unpack(mv.pack()), mv, "step {step}");
            }
            model.apply(&mut s, moves[step % moves.len()]);
        }
    }

    #[test]
    fn skip_invalidate_mutation_is_caught() {
        // Not Dragon: an update protocol has no invalidations to skip.
        for protocol in [
            ProtocolKind::Snooping,
            ProtocolKind::Directory,
            ProtocolKind::Sci,
            ProtocolKind::Msi,
            ProtocolKind::Mesi,
        ] {
            let mut c = cfg(protocol, 2, 1);
            c.fault = Fault::SkipInvalidate;
            let report = run(&c);
            let v = report.violation.expect("mutation must be caught");
            assert!(v.trace.len() > 2, "trace should narrate the steps");
        }
    }

    #[test]
    fn break_list_link_mutation_is_caught_by_sci_only() {
        // The broken splice needs a list of three: the evictor, its
        // successor (lost), and a survivor keeping the block non-empty.
        let mut c = cfg(ProtocolKind::Sci, 3, 1);
        c.fault = Fault::BreakListLink;
        c.check_liveness = false;
        let report = run(&c);
        let v = report.violation.expect("broken splice must be caught");
        assert!(v.message.contains("sci list"), "{}", v.message);
        // Every other protocol never touches the sharing list, so the same
        // fault must be a no-op there.
        for protocol in [
            ProtocolKind::Snooping,
            ProtocolKind::Directory,
            ProtocolKind::Msi,
            ProtocolKind::Mesi,
            ProtocolKind::Dragon,
        ] {
            let mut c = cfg(protocol, 2, 1);
            c.fault = Fault::BreakListLink;
            c.check_liveness = false;
            let report = run(&c);
            assert!(report.violation.is_none(), "{protocol}: {:?}", report.violation);
        }
    }

    #[test]
    fn forget_owner_mutation_is_caught() {
        for protocol in [ProtocolKind::Snooping, ProtocolKind::Directory] {
            let mut c = cfg(protocol, 2, 1);
            c.fault = Fault::ForgetOwner;
            let report = run(&c);
            assert!(report.violation.is_some(), "{protocol}: mutation must be caught");
        }
        // On the bus the lost claim is the stale-memory note the engine's
        // `claim_dirty` hook records.
        for protocol in [ProtocolKind::Msi, ProtocolKind::Mesi, ProtocolKind::Dragon] {
            let mut c = cfg(protocol, 2, 1);
            c.fault = Fault::ForgetOwner;
            let v = run(&c).violation.expect("bus forget-owner mutation must be caught");
            assert!(v.message.contains("memory claims to be clean"), "{protocol}: {}", v.message);
        }
    }

    #[test]
    fn parked_forward_deadlock_is_caught() {
        let mut c = cfg(ProtocolKind::Directory, 2, 1);
        c.fault = Fault::ParkBusyForwards;
        let report = run(&c);
        let v = report.violation.expect("seed forward-parking bug must be caught");
        assert!(v.message.contains("deadlock"), "{}", v.message);
    }

    #[test]
    fn symmetry_off_finds_the_same_verdicts() {
        // The reduced and unreduced runs must agree on pass/fail for every
        // fault, and on the violation's invariant class when they fail.
        for fault in Fault::ALL {
            let mut reduced = cfg(ProtocolKind::Directory, 3, 1);
            reduced.fault = fault;
            reduced.check_liveness = false;
            reduced.max_states = 400_000;
            let mut plain = reduced;
            plain.symmetry = false;
            let (r, p) = (run(&reduced), run(&plain));
            assert_eq!(r.passed(), p.passed(), "{fault}");
            assert!(r.states <= p.states, "{fault}: reduction must not add states");
            if let (Some(rv), Some(pv)) = (&r.violation, &p.violation) {
                let class = |m: &str| {
                    ["SWMR", "deadlock", "dirty", "directory"]
                        .iter()
                        .find(|c| m.contains(*c))
                        .copied()
                };
                assert_eq!(class(&rv.message), class(&pv.message), "{fault}");
            }
        }
    }

    #[test]
    fn jobs_do_not_change_the_report() {
        for protocol in [ProtocolKind::Snooping, ProtocolKind::Directory] {
            let mut base = cfg(protocol, 3, 1);
            base.stats = true;
            let mut serial = base;
            serial.jobs = 1;
            let mut parallel = base;
            parallel.jobs = 4;
            let (a, b) = (run(&serial), run(&parallel));
            assert_eq!(format!("{a}"), format!("{b}"), "{protocol}");
            assert_eq!(a.depth, b.depth);
            let fires = |r: &CheckReport| {
                r.stats.as_ref().map(|s| s.rule_fires.iter().map(|f| f.fired).collect::<Vec<_>>())
            };
            assert_eq!(fires(&a), fires(&b), "{protocol}: fire counts must be jobs-invariant");
            assert_eq!(
                a.stats.as_ref().map(|s| s.raw_states),
                b.stats.as_ref().map(|s| s.raw_states)
            );
        }
    }
}
