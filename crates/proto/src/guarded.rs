//! Guarded-action protocol specification.
//!
//! Every coherence decision both protocols make is expressed here as a
//! declarative rule set — named `Rule { guard, action }` pairs over a small
//! context struct — in the style of guarded-action protocol languages
//! (cf. *Modeling a Cache Coherence Protocol with the Guarded Action
//! Language*). The timed simulators and the `ringsim-check` model checker
//! both reach the dispatch functions here ([`snooper_action`],
//! [`home_snoop_action`], [`dir_action`], ...) — for the ring protocols
//! only through [`crate::ring_engine`], which both drive — the checker
//! with [`FireCounts`] and the simulators with `None`, so the rules are
//! the single source of truth for both.
//!
//! The declarative form buys two kinds of static analysis:
//!
//! * [`lint`] enumerates each rule set's whole input domain and proves
//!   **totality** (every context matches at least one rule) and
//!   **determinism** (no two rules with different actions match the same
//!   context) — the guarded-action analogue of Rust's own `match`
//!   exhaustiveness, but over *semantic* domains the type system cannot
//!   see (directory entry shapes, snoopable message kinds).
//! * [`FireCounts`] records how often each rule fires during an exhaustive
//!   model-checking run; a rule that never fires at 4 nodes is dead weight
//!   or a reachability bug, and `tests/lint_protocol_tables.rs` gates on
//!   it (`ringsim check --stats` prints the same counts).
//!
//! New protocols (SCI and the bus's MSI, MESI and Dragon) add rule sets
//! here and inherit the lint and the dead-rule gate for free instead of
//! hand-wiring checker tables; the bus rule sets are dispatched only
//! through [`crate::bus_engine`] and SCI's only through [`crate::sci`].

use std::sync::atomic::{AtomicU64, Ordering};

use ringsim_cache::LineState;
use ringsim_types::NodeId;

use crate::sci::{SciAction, SciRequest};
use crate::transitions::{
    BusOp, DirAction, DirRequest, DragonAction, HomeSnoopAction, MesiAction, SnoopAction,
};
use crate::{DirEntry, MsgKind, ProtocolKind};

/// One guarded action: when `guard` holds on the context, the transition
/// takes `action`.
///
/// Rules carry a stable `name` (used by `--stats` and the dead-rule gate)
/// and the protocol whose runs are expected to fire them.
pub struct Rule<C: 'static, A: 'static> {
    /// Stable identifier, kebab-case, unique within its rule set.
    pub name: &'static str,
    /// Which protocol's exhaustive runs must fire this rule (dead-rule
    /// accounting); the rule itself is protocol-agnostic at evaluation
    /// time.
    pub fires_under: ProtocolKind,
    /// Enabling condition over the context.
    pub guard: fn(&C) -> bool,
    /// Action taken when the guard holds.
    pub action: fn(&C) -> A,
}

/// A named, ordered collection of guarded rules over one context type.
pub struct RuleSet<C: 'static, A: 'static> {
    /// Rule-set name, used in lint findings and stats output.
    pub name: &'static str,
    /// The rules, in evaluation order.
    pub rules: &'static [Rule<C, A>],
}

impl<C, A: PartialEq + core::fmt::Debug> RuleSet<C, A> {
    /// Evaluates the rule set on `ctx`: the first rule whose guard holds
    /// supplies the action. Optionally bumps the matching rule's fire
    /// counter.
    ///
    /// # Panics
    ///
    /// Panics when no rule matches — [`lint`] proves totality over the
    /// declared domain, so a panic here means the context is outside it.
    pub fn eval(&self, ctx: &C, counts: Option<&[AtomicU64]>) -> A {
        for (i, rule) in self.rules.iter().enumerate() {
            if (rule.guard)(ctx) {
                if let Some(counts) = counts {
                    counts[i].fetch_add(1, Ordering::Relaxed);
                }
                return (rule.action)(ctx);
            }
        }
        panic!("rule set `{}` is not total: no rule matched", self.name)
    }

    /// Lints the rule set over an enumerated domain: totality (every
    /// context matches) and determinism (all matching rules agree on the
    /// action). Returns human-readable findings; empty means clean.
    pub fn lint_over<I>(&self, domain: I, describe: fn(&C) -> String) -> Vec<String>
    where
        I: IntoIterator<Item = C>,
    {
        let mut findings = Vec::new();
        for ctx in domain {
            let matching: Vec<&Rule<C, A>> =
                self.rules.iter().filter(|r| (r.guard)(&ctx)).collect();
            match matching.split_first() {
                None => findings.push(format!(
                    "{}: no rule matches {} (totality hole)",
                    self.name,
                    describe(&ctx)
                )),
                Some((first, rest)) => {
                    let action = (first.action)(&ctx);
                    for other in rest {
                        let conflicting = (other.action)(&ctx);
                        if conflicting != action {
                            findings.push(format!(
                                "{}: rules `{}` and `{}` overlap on {} with conflicting \
                                 actions {action:?} vs {conflicting:?}",
                                self.name,
                                first.name,
                                other.name,
                                describe(&ctx)
                            ));
                        }
                    }
                }
            }
        }
        findings
    }
}

// --------------------------------------------------------------- contexts

/// Context for the cache-side snoop rules: a line in `state` observes a
/// snooped message of kind `msg` passing the ring interface.
#[derive(Debug, Clone, Copy)]
pub struct SnoopCtx {
    /// The local line state.
    pub state: LineState,
    /// The snooped message kind (a probe or the directory's multicast
    /// invalidation — see [`is_snooped`]).
    pub msg: MsgKind,
}

/// Context for the snooping home-memory rules: a probe of kind `msg`
/// passes the block's home whose dirty bit is `dirty`.
#[derive(Debug, Clone, Copy)]
pub struct HomeCtx {
    /// The home's dirty bit for the block.
    pub dirty: bool,
    /// The probe kind (see [`is_probe`]).
    pub msg: MsgKind,
}

/// Context for the full-map directory dispatch rules: an admitted request
/// `req` from `requester` against directory entry `entry`.
#[derive(Debug, Clone, Copy)]
pub struct DirCtx {
    /// The block's directory entry (after write-back reclaim handling).
    pub entry: DirEntry,
    /// The requesting node.
    pub requester: NodeId,
    /// The admitted request (after upgrade demotion).
    pub req: DirRequest,
}

/// Context for the SCI linked-list home dispatch rules: an admitted
/// request against the block's sharing list.
#[derive(Debug, Clone, Copy)]
pub struct SciCtx {
    /// The admitted request (upgrades are converted to writes before
    /// dispatch when the requester's copy was purged while queued).
    pub req: SciRequest,
    /// Current sharing-list length.
    pub list_len: usize,
    /// The requester is on the list (always true for upgrades and
    /// rollouts after conversion, always false for misses).
    pub requester_in_list: bool,
}

/// Context for the MSI, MESI and Dragon bus rules: an operation admitted at
/// the bus's serialisation point, summarised by what the snoop would find.
#[derive(Debug, Clone, Copy)]
pub struct BusCtx {
    /// The admitted operation (upgrades demoted to write misses when the
    /// requester's copy was invalidated while waiting).
    pub op: BusOp,
    /// Some *other* cache holds a valid copy.
    pub others_valid: bool,
    /// Some *other* cache is the owner (MESI: Modified; Dragon: Sm or
    /// Modified). Implies `others_valid`.
    pub owner: bool,
}

/// `true` for message kinds a cache interface snoops as they pass: the
/// three broadcast probes and the directory's multicast invalidation.
/// Unicast directory messages are never snooped.
#[must_use]
pub fn is_snooped(msg: MsgKind) -> bool {
    match msg {
        MsgKind::SnoopRead | MsgKind::SnoopWrite | MsgKind::SnoopUpgrade | MsgKind::DirInval => {
            true
        }
        MsgKind::DirRead
        | MsgKind::DirWrite
        | MsgKind::DirUpgrade
        | MsgKind::DirFwdRead
        | MsgKind::DirFwdWrite
        | MsgKind::DirAck
        | MsgKind::BlockData
        | MsgKind::WriteBack
        | MsgKind::MemUpdate => false,
    }
}

/// `true` for the three snooping probe kinds the home memory arbitrates.
#[must_use]
pub fn is_probe(msg: MsgKind) -> bool {
    match msg {
        MsgKind::SnoopRead | MsgKind::SnoopWrite | MsgKind::SnoopUpgrade => true,
        MsgKind::DirRead
        | MsgKind::DirWrite
        | MsgKind::DirUpgrade
        | MsgKind::DirFwdRead
        | MsgKind::DirFwdWrite
        | MsgKind::DirInval
        | MsgKind::DirAck
        | MsgKind::BlockData
        | MsgKind::WriteBack
        | MsgKind::MemUpdate => false,
    }
}

// -------------------------------------------------------------- rule sets

/// Cache-side snoop rules (paper §3.1 plus the directory multicast).
/// Domain: [`is_snooped`] kinds × [`LineState`].
pub static SNOOPER_RULES: RuleSet<SnoopCtx, SnoopAction> = RuleSet {
    name: "snooper",
    rules: &[
        Rule {
            name: "read-probe-owner-supplies-and-downgrades",
            fires_under: ProtocolKind::Snooping,
            guard: |c| c.msg == MsgKind::SnoopRead && c.state == LineState::We,
            action: |_| SnoopAction::SupplyDowngrade,
        },
        Rule {
            name: "read-probe-passes-non-owner",
            fires_under: ProtocolKind::Snooping,
            guard: |c| c.msg == MsgKind::SnoopRead && c.state != LineState::We,
            action: |_| SnoopAction::Ignore,
        },
        Rule {
            name: "write-probe-owner-supplies-and-invalidates",
            fires_under: ProtocolKind::Snooping,
            guard: |c| c.msg == MsgKind::SnoopWrite && c.state == LineState::We,
            action: |_| SnoopAction::SupplyInvalidate,
        },
        Rule {
            name: "write-probe-drops-shared-copy",
            fires_under: ProtocolKind::Snooping,
            guard: |c| c.msg == MsgKind::SnoopWrite && c.state == LineState::Rs,
            action: |_| SnoopAction::Invalidate,
        },
        Rule {
            name: "write-probe-passes-uncached",
            fires_under: ProtocolKind::Snooping,
            guard: |c| c.msg == MsgKind::SnoopWrite && c.state == LineState::Inv,
            action: |_| SnoopAction::Ignore,
        },
        Rule {
            name: "upgrade-probe-drops-shared-copy",
            fires_under: ProtocolKind::Snooping,
            guard: |c| c.msg == MsgKind::SnoopUpgrade && c.state == LineState::Rs,
            action: |_| SnoopAction::Invalidate,
        },
        Rule {
            // The upgrader believes it holds the only other copy; a dirty
            // third party loses to the home's dirty-bit nack, so `We` here
            // is a transient the probe must tolerate silently.
            name: "upgrade-probe-passes-non-sharer",
            fires_under: ProtocolKind::Snooping,
            guard: |c| c.msg == MsgKind::SnoopUpgrade && c.state != LineState::Rs,
            action: |_| SnoopAction::Ignore,
        },
        Rule {
            name: "multicast-inval-drops-valid-copy",
            fires_under: ProtocolKind::Directory,
            guard: |c| c.msg == MsgKind::DirInval && c.state.is_valid(),
            action: |_| SnoopAction::Invalidate,
        },
        Rule {
            name: "multicast-inval-passes-uncached",
            fires_under: ProtocolKind::Directory,
            guard: |c| c.msg == MsgKind::DirInval && c.state == LineState::Inv,
            action: |_| SnoopAction::Ignore,
        },
    ],
};

/// Snooping home-memory rules (the dirty bit arbitrates who answers a
/// probe). Domain: [`is_probe`] kinds × `dirty`.
pub static HOME_RULES: RuleSet<HomeCtx, HomeSnoopAction> = RuleSet {
    name: "home",
    rules: &[
        Rule {
            name: "dirty-home-stays-silent",
            fires_under: ProtocolKind::Snooping,
            guard: |c| c.dirty,
            action: |_| HomeSnoopAction::Silent,
        },
        Rule {
            name: "clean-read-supplied-from-memory",
            fires_under: ProtocolKind::Snooping,
            guard: |c| !c.dirty && c.msg == MsgKind::SnoopRead,
            action: |_| HomeSnoopAction::Supply,
        },
        Rule {
            name: "clean-write-supplies-and-claims",
            fires_under: ProtocolKind::Snooping,
            guard: |c| !c.dirty && c.msg == MsgKind::SnoopWrite,
            action: |_| HomeSnoopAction::SupplyClaim,
        },
        Rule {
            name: "clean-upgrade-acked-and-claimed",
            fires_under: ProtocolKind::Snooping,
            guard: |c| !c.dirty && c.msg == MsgKind::SnoopUpgrade,
            action: |_| HomeSnoopAction::AckClaim,
        },
    ],
};

/// Full-map directory dispatch rules (paper §3.2). Domain: every
/// [`DirEntry`] shape × requester × [`DirRequest`]. `entry` is the state
/// *after* write-back reclaim, `req` *after* upgrade demotion.
pub static DIR_RULES: RuleSet<DirCtx, DirAction> = RuleSet {
    name: "dir",
    rules: &[
        Rule {
            name: "read-forwarded-to-owner",
            fires_under: ProtocolKind::Directory,
            guard: |c| c.req == DirRequest::Read && c.entry.owner.is_some(),
            action: |c| DirAction::ForwardRead { owner: c.entry.owner.expect("guarded") },
        },
        Rule {
            name: "read-granted-from-memory",
            fires_under: ProtocolKind::Directory,
            guard: |c| c.req == DirRequest::Read && c.entry.owner.is_none(),
            action: |_| DirAction::GrantData,
        },
        Rule {
            // Covers the upgrade-with-an-owner corner too: an upgrade that
            // raced an ownership change is served exactly like a write
            // miss, moving the data off the owner.
            name: "ownership-request-forwarded-to-owner",
            fires_under: ProtocolKind::Directory,
            guard: |c| c.req != DirRequest::Read && c.entry.owner.is_some(),
            action: |c| DirAction::ForwardWrite { owner: c.entry.owner.expect("guarded") },
        },
        Rule {
            name: "ownership-request-invalidates-sharers",
            fires_under: ProtocolKind::Directory,
            guard: |c| {
                c.req != DirRequest::Read
                    && c.entry.owner.is_none()
                    && c.entry.has_other_sharers(c.requester)
            },
            action: |_| DirAction::InvalidateSharers,
        },
        Rule {
            name: "sole-write-granted-data",
            fires_under: ProtocolKind::Directory,
            guard: |c| {
                c.req == DirRequest::Write
                    && c.entry.owner.is_none()
                    && !c.entry.has_other_sharers(c.requester)
            },
            action: |_| DirAction::GrantData,
        },
        Rule {
            name: "sole-upgrade-granted-ack",
            fires_under: ProtocolKind::Directory,
            guard: |c| {
                c.req == DirRequest::Upgrade
                    && c.entry.owner.is_none()
                    && !c.entry.has_other_sharers(c.requester)
            },
            action: |_| DirAction::GrantAck,
        },
    ],
};

/// SCI linked-list home dispatch rules: how the home serves a request
/// against the block's sharing list (head insertion on a miss, list-order
/// purge on a write, rollout splice on an eviction). Domain: every
/// consistent [`SciCtx`] (misses imply the requester is off-list,
/// upgrades/rollouts that it is on it).
pub static SCI_RULES: RuleSet<SciCtx, SciAction> = RuleSet {
    name: "sci",
    rules: &[
        Rule {
            name: "read-miss-uncached-granted-from-memory",
            fires_under: ProtocolKind::Sci,
            guard: |c| c.req == SciRequest::Read && c.list_len == 0,
            action: |_| SciAction::GrantFromMemory,
        },
        Rule {
            name: "read-miss-forwarded-to-head",
            fires_under: ProtocolKind::Sci,
            guard: |c| c.req == SciRequest::Read && c.list_len > 0,
            action: |_| SciAction::ForwardToHead,
        },
        Rule {
            name: "write-miss-uncached-granted-from-memory",
            fires_under: ProtocolKind::Sci,
            guard: |c| c.req == SciRequest::Write && c.list_len == 0,
            action: |_| SciAction::GrantClaim,
        },
        Rule {
            name: "write-miss-purges-list-in-order",
            fires_under: ProtocolKind::Sci,
            guard: |c| c.req == SciRequest::Write && c.list_len > 0,
            action: |_| SciAction::PurgeAndClaim,
        },
        Rule {
            name: "upgrade-purges-other-members",
            fires_under: ProtocolKind::Sci,
            guard: |c| c.req == SciRequest::Upgrade && c.list_len > 1,
            action: |_| SciAction::PurgeOthersAndClaim,
        },
        Rule {
            name: "upgrade-sole-member-claims",
            fires_under: ProtocolKind::Sci,
            guard: |c| c.req == SciRequest::Upgrade && c.list_len == 1,
            action: |_| SciAction::Claim,
        },
        Rule {
            name: "rollout-splices-member",
            fires_under: ProtocolKind::Sci,
            guard: |c| c.req == SciRequest::Rollout,
            action: |_| SciAction::Splice,
        },
    ],
};

/// MSI bus rules: the paper's 3-state invalidation protocol, the bus
/// baseline. They are [`MESI_RULES`] without the exclusive state: a read
/// miss with no owner fills shared, whoever else holds a copy, and no
/// line is ever clean-exclusive, so no write hit promotes silently.
/// Domain: every consistent [`BusCtx`] but the exclusive hit.
pub static MSI_RULES: RuleSet<BusCtx, MesiAction> = RuleSet {
    name: "msi",
    rules: &[
        Rule {
            name: "read-miss-owner-supplies-and-downgrades",
            fires_under: ProtocolKind::Msi,
            guard: |c| c.op == BusOp::ReadMiss && c.owner,
            action: |_| MesiAction::OwnerSuppliesShared,
        },
        Rule {
            name: "read-miss-fills-shared",
            fires_under: ProtocolKind::Msi,
            guard: |c| c.op == BusOp::ReadMiss && !c.owner,
            action: |_| MesiAction::FillShared,
        },
        Rule {
            name: "write-miss-owner-supplies-and-invalidates",
            fires_under: ProtocolKind::Msi,
            guard: |c| c.op == BusOp::WriteMiss && c.owner,
            action: |_| MesiAction::OwnerSuppliesModified,
        },
        Rule {
            name: "write-miss-invalidates-sharers",
            fires_under: ProtocolKind::Msi,
            guard: |c| c.op == BusOp::WriteMiss && c.others_valid && !c.owner,
            action: |_| MesiAction::InvalidateAndFillModified,
        },
        Rule {
            name: "write-miss-uncached-fills-modified",
            fires_under: ProtocolKind::Msi,
            guard: |c| c.op == BusOp::WriteMiss && !c.others_valid,
            action: |_| MesiAction::FillModified,
        },
        Rule {
            name: "upgrade-invalidates-sharers",
            fires_under: ProtocolKind::Msi,
            guard: |c| c.op == BusOp::WriteSharedHit && c.others_valid,
            action: |_| MesiAction::InvalidateAndPromote,
        },
        Rule {
            name: "upgrade-last-copy-promotes",
            fires_under: ProtocolKind::Msi,
            guard: |c| c.op == BusOp::WriteSharedHit && !c.others_valid,
            action: |_| MesiAction::Promote,
        },
    ],
};

/// MESI bus rules: how the atomic bus serves an admitted operation. The
/// exclusive state buys the silent E→M promotion; everything else is the
/// classic invalidation protocol. Domain: every consistent [`BusCtx`]
/// (`owner` implies `others_valid`; an exclusive hit implies neither).
pub static MESI_RULES: RuleSet<BusCtx, MesiAction> = RuleSet {
    name: "mesi",
    rules: &[
        Rule {
            name: "read-miss-uncached-fills-exclusive",
            fires_under: ProtocolKind::Mesi,
            guard: |c| c.op == BusOp::ReadMiss && !c.others_valid,
            action: |_| MesiAction::FillExclusive,
        },
        Rule {
            name: "read-miss-owner-supplies-and-downgrades",
            fires_under: ProtocolKind::Mesi,
            guard: |c| c.op == BusOp::ReadMiss && c.owner,
            action: |_| MesiAction::OwnerSuppliesShared,
        },
        Rule {
            name: "read-miss-fills-shared",
            fires_under: ProtocolKind::Mesi,
            guard: |c| c.op == BusOp::ReadMiss && c.others_valid && !c.owner,
            action: |_| MesiAction::FillShared,
        },
        Rule {
            name: "write-miss-owner-supplies-and-invalidates",
            fires_under: ProtocolKind::Mesi,
            guard: |c| c.op == BusOp::WriteMiss && c.owner,
            action: |_| MesiAction::OwnerSuppliesModified,
        },
        Rule {
            name: "write-miss-invalidates-sharers",
            fires_under: ProtocolKind::Mesi,
            guard: |c| c.op == BusOp::WriteMiss && c.others_valid && !c.owner,
            action: |_| MesiAction::InvalidateAndFillModified,
        },
        Rule {
            name: "write-miss-uncached-fills-modified",
            fires_under: ProtocolKind::Mesi,
            guard: |c| c.op == BusOp::WriteMiss && !c.others_valid,
            action: |_| MesiAction::FillModified,
        },
        Rule {
            name: "upgrade-invalidates-sharers",
            fires_under: ProtocolKind::Mesi,
            guard: |c| c.op == BusOp::WriteSharedHit && c.others_valid,
            action: |_| MesiAction::InvalidateAndPromote,
        },
        Rule {
            name: "upgrade-last-copy-promotes",
            fires_under: ProtocolKind::Mesi,
            guard: |c| c.op == BusOp::WriteSharedHit && !c.others_valid,
            action: |_| MesiAction::Promote,
        },
        Rule {
            name: "write-hit-exclusive-promotes-silently",
            fires_under: ProtocolKind::Mesi,
            guard: |c| c.op == BusOp::WriteExclusiveHit,
            action: |_| MesiAction::PromoteSilently,
        },
    ],
};

/// Dragon bus rules: updates instead of invalidations. A write to a shared
/// line broadcasts the word; the writer becomes the Sm owner and other
/// copies stay valid. Domain: every consistent [`BusCtx`].
pub static DRAGON_RULES: RuleSet<BusCtx, DragonAction> = RuleSet {
    name: "dragon",
    rules: &[
        Rule {
            name: "read-miss-uncached-fills-exclusive",
            fires_under: ProtocolKind::Dragon,
            guard: |c| c.op == BusOp::ReadMiss && !c.others_valid,
            action: |_| DragonAction::FillExclusive,
        },
        Rule {
            name: "read-miss-owner-supplies-shared",
            fires_under: ProtocolKind::Dragon,
            guard: |c| c.op == BusOp::ReadMiss && c.owner,
            action: |_| DragonAction::OwnerSuppliesShared,
        },
        Rule {
            name: "read-miss-fills-shared-clean",
            fires_under: ProtocolKind::Dragon,
            guard: |c| c.op == BusOp::ReadMiss && c.others_valid && !c.owner,
            action: |_| DragonAction::FillShared,
        },
        Rule {
            name: "write-miss-uncached-fills-modified",
            fires_under: ProtocolKind::Dragon,
            guard: |c| c.op == BusOp::WriteMiss && !c.others_valid,
            action: |_| DragonAction::FillModified,
        },
        Rule {
            name: "write-miss-updates-sharers",
            fires_under: ProtocolKind::Dragon,
            guard: |c| c.op == BusOp::WriteMiss && c.others_valid,
            action: |_| DragonAction::FillSharedOwnerUpdate,
        },
        Rule {
            name: "write-hit-shared-broadcasts-update",
            fires_under: ProtocolKind::Dragon,
            guard: |c| c.op == BusOp::WriteSharedHit && c.others_valid,
            action: |_| DragonAction::BroadcastUpdate,
        },
        Rule {
            name: "write-hit-last-copy-promotes",
            fires_under: ProtocolKind::Dragon,
            guard: |c| c.op == BusOp::WriteSharedHit && !c.others_valid,
            action: |_| DragonAction::PromoteToModified,
        },
        Rule {
            name: "write-hit-exclusive-promotes-silently",
            fires_under: ProtocolKind::Dragon,
            guard: |c| c.op == BusOp::WriteExclusiveHit,
            action: |_| DragonAction::PromoteSilently,
        },
    ],
};

// ------------------------------------------------------------ evaluation

/// Rule-set-backed snooper dispatch: non-snooped kinds are ignored without
/// consulting (or counting) the rules; snooped kinds go through
/// [`SNOOPER_RULES`].
#[must_use]
pub fn snooper_action(state: LineState, msg: MsgKind, counts: Option<&FireCounts>) -> SnoopAction {
    if !is_snooped(msg) {
        return SnoopAction::Ignore;
    }
    SNOOPER_RULES.eval(&SnoopCtx { state, msg }, counts.map(|c| c.snooper.as_slice()))
}

/// Rule-set-backed home-memory dispatch: non-probe kinds contribute
/// nothing; probes go through [`HOME_RULES`].
#[must_use]
pub fn home_snoop_action(
    dirty: bool,
    msg: MsgKind,
    counts: Option<&FireCounts>,
) -> HomeSnoopAction {
    if !is_probe(msg) {
        return HomeSnoopAction::Silent;
    }
    HOME_RULES.eval(&HomeCtx { dirty, msg }, counts.map(|c| c.home.as_slice()))
}

/// Rule-set-backed directory dispatch through [`DIR_RULES`].
#[must_use]
pub fn dir_action(
    entry: &DirEntry,
    requester: NodeId,
    req: DirRequest,
    counts: Option<&FireCounts>,
) -> DirAction {
    DIR_RULES.eval(&DirCtx { entry: *entry, requester, req }, counts.map(|c| c.dir.as_slice()))
}

/// Rule-set-backed SCI home dispatch through [`SCI_RULES`].
#[must_use]
pub fn sci_action(
    req: SciRequest,
    list_len: usize,
    requester_in_list: bool,
    counts: Option<&FireCounts>,
) -> SciAction {
    SCI_RULES.eval(&SciCtx { req, list_len, requester_in_list }, counts.map(|c| c.sci.as_slice()))
}

/// Rule-set-backed MSI bus dispatch through [`MSI_RULES`].
#[must_use]
pub fn msi_action(
    op: BusOp,
    others_valid: bool,
    owner: bool,
    counts: Option<&FireCounts>,
) -> MesiAction {
    MSI_RULES.eval(&BusCtx { op, others_valid, owner }, counts.map(|c| c.msi.as_slice()))
}

/// Rule-set-backed MESI bus dispatch through [`MESI_RULES`].
#[must_use]
pub fn mesi_action(
    op: BusOp,
    others_valid: bool,
    owner: bool,
    counts: Option<&FireCounts>,
) -> MesiAction {
    MESI_RULES.eval(&BusCtx { op, others_valid, owner }, counts.map(|c| c.mesi.as_slice()))
}

/// Rule-set-backed Dragon bus dispatch through [`DRAGON_RULES`].
#[must_use]
pub fn dragon_action(
    op: BusOp,
    others_valid: bool,
    owner: bool,
    counts: Option<&FireCounts>,
) -> DragonAction {
    DRAGON_RULES.eval(&BusCtx { op, others_valid, owner }, counts.map(|c| c.dragon.as_slice()))
}

// ------------------------------------------------------------ fire counts

/// Per-rule fire counters, one slot per rule in declaration order.
///
/// Thread-safe (relaxed atomics): the model checker's parallel BFS bumps
/// them from every worker; totals are order-independent and therefore
/// identical for any `--jobs`.
#[derive(Debug)]
pub struct FireCounts {
    /// Counters for [`SNOOPER_RULES`].
    pub snooper: Vec<AtomicU64>,
    /// Counters for [`HOME_RULES`].
    pub home: Vec<AtomicU64>,
    /// Counters for [`DIR_RULES`].
    pub dir: Vec<AtomicU64>,
    /// Counters for [`SCI_RULES`].
    pub sci: Vec<AtomicU64>,
    /// Counters for [`MSI_RULES`].
    pub msi: Vec<AtomicU64>,
    /// Counters for [`MESI_RULES`].
    pub mesi: Vec<AtomicU64>,
    /// Counters for [`DRAGON_RULES`].
    pub dragon: Vec<AtomicU64>,
}

/// One rule's fire count, as reported by [`FireCounts::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleFire {
    /// Owning rule-set name.
    pub ruleset: &'static str,
    /// Rule name.
    pub rule: &'static str,
    /// Protocol whose exhaustive runs are expected to fire the rule.
    pub fires_under: ProtocolKind,
    /// Times the rule fired.
    pub fired: u64,
}

impl FireCounts {
    /// Fresh, all-zero counters sized to the static rule sets.
    #[must_use]
    pub fn new() -> Self {
        let zeros = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect();
        FireCounts {
            snooper: zeros(SNOOPER_RULES.rules.len()),
            home: zeros(HOME_RULES.rules.len()),
            dir: zeros(DIR_RULES.rules.len()),
            sci: zeros(SCI_RULES.rules.len()),
            msi: zeros(MSI_RULES.rules.len()),
            mesi: zeros(MESI_RULES.rules.len()),
            dragon: zeros(DRAGON_RULES.rules.len()),
        }
    }

    /// Snapshot of every rule's count, in (rule-set, declaration) order.
    #[must_use]
    pub fn snapshot(&self) -> Vec<RuleFire> {
        fn push<C, A>(out: &mut Vec<RuleFire>, set: &RuleSet<C, A>, counts: &[AtomicU64]) {
            for (rule_meta, count) in set.rules.iter().zip(counts.iter()) {
                out.push(RuleFire {
                    ruleset: set.name,
                    rule: rule_meta.name,
                    fires_under: rule_meta.fires_under,
                    fired: count.load(Ordering::Relaxed),
                });
            }
        }
        let mut out = Vec::new();
        push(&mut out, &SNOOPER_RULES, &self.snooper);
        push(&mut out, &HOME_RULES, &self.home);
        push(&mut out, &DIR_RULES, &self.dir);
        push(&mut out, &SCI_RULES, &self.sci);
        push(&mut out, &MSI_RULES, &self.msi);
        push(&mut out, &MESI_RULES, &self.mesi);
        push(&mut out, &DRAGON_RULES, &self.dragon);
        out
    }
}

impl Default for FireCounts {
    fn default() -> Self {
        Self::new()
    }
}

// ------------------------------------------------------------------ lint

const ALL_STATES: [LineState; 3] = [LineState::Inv, LineState::Rs, LineState::We];

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

/// Statically lints every rule set over its full input domain (directory
/// entries enumerated for `nodes` nodes): totality and determinism.
/// Returns all findings; an empty vector means the spec is clean.
#[must_use]
pub fn lint(nodes: usize) -> Vec<String> {
    let mut findings = Vec::new();

    let snoop_domain = ALL_KINDS
        .into_iter()
        .filter(|&k| is_snooped(k))
        .flat_map(|msg| ALL_STATES.into_iter().map(move |state| SnoopCtx { state, msg }));
    findings.extend(SNOOPER_RULES.lint_over(snoop_domain, |c| format!("{c:?}")));

    let home_domain = ALL_KINDS
        .into_iter()
        .filter(|&k| is_probe(k))
        .flat_map(|msg| [false, true].into_iter().map(move |dirty| HomeCtx { dirty, msg }));
    findings.extend(HOME_RULES.lint_over(home_domain, |c| format!("{c:?}")));

    let mut dir_domain = Vec::new();
    for sharers in 0..(1u64 << nodes) {
        for owner in std::iter::once(None).chain((0..nodes).map(|o| Some(NodeId::new(o)))) {
            let entry = DirEntry { sharers, owner };
            for requester in (0..nodes).map(NodeId::new) {
                for req in [DirRequest::Read, DirRequest::Write, DirRequest::Upgrade] {
                    dir_domain.push(DirCtx { entry, requester, req });
                }
            }
        }
    }
    findings.extend(DIR_RULES.lint_over(dir_domain, |c| format!("{c:?}")));

    let mut sci_domain = Vec::new();
    for req in [SciRequest::Read, SciRequest::Write, SciRequest::Upgrade, SciRequest::Rollout] {
        for list_len in 0..=nodes {
            for requester_in_list in [false, true] {
                // Consistency: misses come from off-list nodes; upgrades
                // and rollouts from on-list ones (an empty list has no
                // members to upgrade or roll out).
                let consistent = match req {
                    SciRequest::Read | SciRequest::Write => !requester_in_list,
                    SciRequest::Upgrade | SciRequest::Rollout => requester_in_list && list_len >= 1,
                };
                if consistent {
                    sci_domain.push(SciCtx { req, list_len, requester_in_list });
                }
            }
        }
    }
    findings.extend(SCI_RULES.lint_over(sci_domain, |c| format!("{c:?}")));

    let bus_domain: Vec<BusCtx> =
        [BusOp::ReadMiss, BusOp::WriteMiss, BusOp::WriteSharedHit, BusOp::WriteExclusiveHit]
            .into_iter()
            .flat_map(|op| {
                // (others_valid, owner): owner implies others_valid; an exclusive
                // hit implies a sole copy.
                [(false, false), (true, false), (true, true)]
                    .into_iter()
                    .filter(move |&(others_valid, _)| {
                        op != BusOp::WriteExclusiveHit || !others_valid
                    })
                    .map(move |(others_valid, owner)| BusCtx { op, others_valid, owner })
            })
            .collect();
    // Invalidation-protocol upgrades racing an ownership change are demoted
    // to write misses before dispatch; MSI has no exclusive hit either.
    let invalidating =
        || bus_domain.iter().copied().filter(|c| c.op != BusOp::WriteSharedHit || !c.owner);
    findings.extend(
        MSI_RULES.lint_over(invalidating().filter(|c| c.op != BusOp::WriteExclusiveHit), |c| {
            format!("{c:?}")
        }),
    );
    findings.extend(MESI_RULES.lint_over(invalidating(), |c| format!("{c:?}")));
    findings.extend(DRAGON_RULES.lint_over(bus_domain, |c| format!("{c:?}")));

    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_sets_lint_clean() {
        let findings = lint(8);
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn rule_names_are_unique() {
        let mut names: Vec<(&str, &str)> =
            FireCounts::new().snapshot().iter().map(|f| (f.ruleset, f.rule)).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate rule name");
    }

    /// MSI's guards partition its domain: exactly one rule matches each
    /// context, so no overlap, even an agreeing one, hides in the set.
    #[test]
    fn msi_rules_partition_their_domain() {
        for op in [BusOp::ReadMiss, BusOp::WriteMiss, BusOp::WriteSharedHit] {
            for (others_valid, owner) in [(false, false), (true, false), (true, true)] {
                if op == BusOp::WriteSharedHit && owner {
                    continue;
                }
                let c = BusCtx { op, others_valid, owner };
                let matching = MSI_RULES.rules.iter().filter(|r| (r.guard)(&c)).count();
                assert_eq!(matching, 1, "{c:?}");
            }
        }
    }

    #[test]
    fn eval_counts_the_firing_rule() {
        let counts = FireCounts::new();
        let a = snooper_action(LineState::We, MsgKind::SnoopRead, Some(&counts));
        assert_eq!(a, SnoopAction::SupplyDowngrade);
        let snap = counts.snapshot();
        let fired: Vec<&RuleFire> = snap.iter().filter(|f| f.fired > 0).collect();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "read-probe-owner-supplies-and-downgrades");
        // Non-snooped kinds bypass the rules entirely.
        let a = snooper_action(LineState::We, MsgKind::BlockData, Some(&counts));
        assert_eq!(a, SnoopAction::Ignore);
        assert_eq!(counts.snapshot().iter().map(|f| f.fired).sum::<u64>(), 1);
    }
}
