//! The packed, node-interleaved `CacheBank` against a naive reference: one
//! map per node from line index to (block, state), with its own counters.
//!
//! Random operation sequences run over banks of 1 to 64 nodes and several
//! geometries, down to one-line caches holding the largest tag the packing
//! admits. Every returned value, every node's `CacheStats` and every node's
//! resident blocks must match the reference. Node 0's operations also drive
//! a `Cache`, the one-node case, which must agree step for step.

use std::collections::HashMap;

use proptest::prelude::*;
use ringsim_cache::{AccessClass, Cache, CacheBank, CacheConfig, CacheStats, LineState, MAX_TAG};
use ringsim_types::{AccessKind, BlockAddr};

/// Geometries under test: (size_bytes, block_bytes). The first two are
/// one-line caches; `4/4` is the smallest geometry `validate` admits.
const GEOMETRIES: [(u64, u64); 6] = [(16, 16), (4, 4), (32, 16), (64, 16), (256, 16), (512, 64)];

/// Naive per-node model of a direct-mapped cache.
#[derive(Default)]
struct RefCache {
    lines: HashMap<u64, (u64, LineState)>,
    stats: CacheStats,
}

impl RefCache {
    fn state_of(&self, idx: u64, block: u64) -> LineState {
        match self.lines.get(&idx) {
            Some(&(b, state)) if b == block => state,
            _ => LineState::Inv,
        }
    }
}

/// One operation: which method, and on what.
#[derive(Debug, Clone, Copy)]
enum Op {
    Classify(AccessKind),
    Fill(LineState),
    Promote,
    Invalidate,
    Downgrade,
    Evict,
}

fn op_of(code: u8) -> Op {
    match code % 8 {
        0 => Op::Classify(AccessKind::Read),
        1 => Op::Classify(AccessKind::Write),
        2 => Op::Fill(LineState::Rs),
        3 => Op::Fill(LineState::We),
        4 => Op::Promote,
        5 => Op::Invalidate,
        6 => Op::Downgrade,
        _ => Op::Evict,
    }
}

/// Everything an operation returns, in one comparable shape.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Class(AccessClass),
    Victim(Option<(BlockAddr, LineState)>),
    Flag(bool),
    State(LineState),
}

fn apply_bank(bank: &mut CacheBank, node: usize, block: BlockAddr, op: Op) -> Outcome {
    match op {
        Op::Classify(kind) => Outcome::Class(bank.classify(node, block, kind)),
        Op::Fill(state) => Outcome::Victim(bank.fill(node, block, state)),
        Op::Promote => Outcome::Flag(bank.promote(node, block)),
        Op::Invalidate => Outcome::State(bank.snoop_invalidate(node, block)),
        Op::Downgrade => Outcome::Flag(bank.snoop_downgrade(node, block)),
        Op::Evict => Outcome::State(bank.evict(node, block)),
    }
}

fn apply_cache(cache: &mut Cache, block: BlockAddr, op: Op) -> Outcome {
    match op {
        Op::Classify(kind) => Outcome::Class(cache.classify(block, kind)),
        Op::Fill(state) => Outcome::Victim(cache.fill(block, state)),
        Op::Promote => Outcome::Flag(cache.promote(block)),
        Op::Invalidate => Outcome::State(cache.snoop_invalidate(block)),
        Op::Downgrade => Outcome::Flag(cache.snoop_downgrade(block)),
        Op::Evict => Outcome::State(cache.evict(block)),
    }
}

fn apply_ref(r: &mut RefCache, lines: u64, block: u64, op: Op) -> Outcome {
    let idx = block % lines;
    let state = r.state_of(idx, block);
    match op {
        Op::Classify(kind) => {
            let class = match (state, kind) {
                (LineState::Inv, _) => AccessClass::Miss,
                (LineState::Rs, AccessKind::Write) => AccessClass::Upgrade,
                _ => AccessClass::Hit,
            };
            match class {
                AccessClass::Hit => r.stats.hits += 1,
                AccessClass::Miss => r.stats.misses += 1,
                AccessClass::Upgrade => r.stats.upgrades += 1,
            }
            Outcome::Class(class)
        }
        Op::Fill(new) => {
            let victim = match r.lines.insert(idx, (block, new)) {
                Some((b, old)) if b != block => {
                    if old == LineState::We {
                        r.stats.writebacks += 1;
                    }
                    Some((BlockAddr::new(b), old))
                }
                _ => None,
            };
            Outcome::Victim(victim)
        }
        Op::Promote => {
            let ok = state != LineState::Inv;
            if ok {
                r.lines.insert(idx, (block, LineState::We));
            }
            Outcome::Flag(ok)
        }
        Op::Invalidate => {
            if state != LineState::Inv {
                r.lines.remove(&idx);
                r.stats.snoop_invalidations += 1;
            }
            Outcome::State(state)
        }
        Op::Downgrade => {
            let ok = state == LineState::We;
            if ok {
                r.lines.insert(idx, (block, LineState::Rs));
                r.stats.snoop_downgrades += 1;
            }
            Outcome::Flag(ok)
        }
        Op::Evict => {
            if state != LineState::Inv {
                r.lines.remove(&idx);
            }
            Outcome::State(state)
        }
    }
}

fn ref_resident(r: &RefCache) -> Vec<(BlockAddr, LineState)> {
    let mut out: Vec<_> = r.lines.values().map(|&(b, s)| (BlockAddr::new(b), s)).collect();
    out.sort_by_key(|(b, _)| b.raw());
    out
}

fn sorted<I: Iterator<Item = (BlockAddr, LineState)>>(it: I) -> Vec<(BlockAddr, LineState)> {
    let mut out: Vec<_> = it.collect();
    out.sort_by_key(|(b, _)| b.raw());
    out
}

/// The block a drawn `(tag_pick, idx)` pair names: a few small tags so
/// lines conflict, plus the two largest tags this geometry can hold.
fn block_of(tag_pick: u64, idx: u64, lines: u64) -> u64 {
    let shift = lines.trailing_zeros();
    let max_tag = MAX_TAG.min(u64::MAX >> shift);
    let tag = match tag_pick % 6 {
        4 => max_tag - 1,
        5 => max_tag,
        t => t,
    };
    tag << shift | (idx % lines)
}

proptest! {
    #[test]
    fn bank_agrees_with_per_node_reference_maps(
        nodes in 1usize..=64,
        geometry in 0usize..6,
        ops in prop::collection::vec((any::<u8>(), 0u64..64, (0u64..6, 0u64..8)), 1..400),
    ) {
        let (size_bytes, block_bytes) = GEOMETRIES[geometry];
        let cfg = CacheConfig { size_bytes, block_bytes };
        let lines = cfg.lines();
        let mut bank = CacheBank::new(cfg, nodes).unwrap();
        let mut cache = Cache::new(cfg).unwrap();
        let mut model: Vec<RefCache> = (0..nodes).map(|_| RefCache::default()).collect();
        for (code, node, (tag_pick, idx)) in ops {
            let node = node as usize % nodes;
            let op = op_of(code);
            let raw = block_of(tag_pick, idx, lines);
            let block = BlockAddr::new(raw);
            let want = apply_ref(&mut model[node], lines, raw, op);
            let got = apply_bank(&mut bank, node, block, op);
            prop_assert_eq!(&got, &want, "node {} {:?} on {:#x}", node, op, raw);
            prop_assert_eq!(bank.state_of(node, block), model[node].state_of(raw % lines, raw));
            prop_assert_eq!(bank.stats(node), model[node].stats);
            if node == 0 {
                prop_assert_eq!(apply_cache(&mut cache, block, op), want);
                prop_assert_eq!(cache.stats(), bank.stats(0));
            }
        }
        for (node, r) in model.iter().enumerate() {
            prop_assert_eq!(bank.stats(node), r.stats, "node {}", node);
            prop_assert_eq!(sorted(bank.resident_blocks(node)), ref_resident(r), "node {}", node);
            prop_assert_eq!(bank.valid_lines(node), r.lines.len());
        }
        prop_assert_eq!(sorted(cache.resident_blocks()), ref_resident(&model[0]));
    }
}
