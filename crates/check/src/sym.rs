//! Symmetry reduction: orbit canonicalization of explored states.
//!
//! Both protocols are symmetric under relabelling of *structurally
//! equivalent* resources, and the checker's state space is dominated by
//! such relabellings. The sound symmetry group for this model is the set
//! of pairs (π, σ) — π a node permutation, σ a block permutation — with
//! π(home(b)) = home(σ(b)) for every block `b` (home(b) = b mod nodes):
//!
//! * **Free nodes** (home to no block) are fully interchangeable: every
//!   transition treats them uniformly, so π may permute them arbitrarily.
//! * **Blocks** may be permuted when π maps homes consistently: two blocks
//!   sharing a home swap freely; blocks with different homes swap only
//!   together with their homes (which constrains π on the home set).
//! * Under [`Fault::SkipInvalidate`] node `nodes-1` is special-cased by
//!   the mutation, so the group is shrunk to elements fixing it.
//!
//! The checker stores only one representative per orbit: the
//! lexicographically smallest [`Model::encode_under`] image over the
//! group. Enumerating the whole group per state would cost up to
//! |σ| · free! encodings, so [`Symmetry::canonical_encode`] instead sorts
//! the free nodes by an invariant per-node *signature* and only enumerates
//! permutations inside signature-tie groups. The signature abstracts
//! concrete free-node indices out of message endpoints (self / home /
//! other-free), which makes it invariant under free-node relabelling —
//! hence `canonical(π(s)) == canonical(s)`, the property
//! `canonicalization_is_invariant` locks in. Tie groups that no in-flight
//! message references encode identically in any order and are skipped;
//! a state whose referenced tie groups still explode past
//! [`ENUMERATION_CAP`] falls back to the signature order, which is still a
//! *sound* canonicalization (one deterministic orbit member — merely a
//! possibly-suboptimal one that can split an orbit across
//! representatives), just not the invariant optimum. The fallback is
//! unreachable below 8 free nodes in a tie.

use ringsim_proto::RingMessage;
use ringsim_types::BlockAddr;

use crate::model::{Model, State};
use crate::Fault;

/// Above this many candidate free-node orders per block permutation the
/// canonicalizer stops enumerating ties (7! — only hit when ≥ 8 mutually
/// tied free nodes are referenced by messages, impossible at `nodes <= 8`
/// with a home node present).
const ENUMERATION_CAP: u64 = 5040;

/// One block permutation together with the node relabelling it forces on
/// the home nodes.
#[derive(Debug)]
struct Sigma {
    /// `block_map[old] = new`.
    block_map: Vec<usize>,
    /// `node_map` template: home (and pinned) nodes filled in, free slots
    /// `usize::MAX` until a free-node order is chosen.
    node_base: Vec<usize>,
}

/// The symmetry group of one checker configuration, ready to canonicalize
/// states.
#[derive(Debug)]
pub(crate) struct Symmetry {
    nodes: usize,
    sigmas: Vec<Sigma>,
    /// Permutable node indices, ascending. These are both the nodes being
    /// relabelled and the slots they land in.
    free: Vec<usize>,
}

impl Symmetry {
    pub(crate) fn new(model: &Model) -> Self {
        let nodes = model.nodes;
        let blocks = model.blocks;
        let home_of = |b: usize| b % nodes;
        let is_home = |i: usize| (0..blocks).any(|b| home_of(b) == i);
        // SkipInvalidate special-cases the highest-index node, breaking its
        // interchangeability with every other node.
        let pinned = |i: usize| model.fault == Fault::SkipInvalidate && i == nodes - 1;
        let free: Vec<usize> = (0..nodes).filter(|&i| !is_home(i) && !pinned(i)).collect();

        let mut sigmas = Vec::new();
        let mut block_map: Vec<usize> = (0..blocks).collect();
        permutations(&mut block_map, 0, &mut |block_map| {
            // The permutation is valid iff it induces a well-defined,
            // injective relabelling of the home nodes (which then must not
            // move a pinned home).
            let mut home_map = [usize::MAX; 8];
            for (b, &new_b) in block_map.iter().enumerate() {
                let (from, to) = (home_of(b), home_of(new_b));
                if home_map[from] != usize::MAX && home_map[from] != to {
                    return;
                }
                home_map[from] = to;
            }
            let mut seen = [false; 8];
            for i in 0..nodes {
                if home_map[i] == usize::MAX {
                    continue;
                }
                if seen[home_map[i]] || (pinned(i) && home_map[i] != i) {
                    return;
                }
                seen[home_map[i]] = true;
            }
            let node_base: Vec<usize> = (0..nodes)
                .map(|i| {
                    if home_map[i] != usize::MAX {
                        home_map[i]
                    } else if pinned(i) {
                        i
                    } else {
                        usize::MAX
                    }
                })
                .collect();
            sigmas.push(Sigma { block_map: block_map.to_vec(), node_base });
        });
        Symmetry { nodes, sigmas, free }
    }

    /// The group's order — the maximum factor by which the visited set can
    /// shrink (reported by `--stats` as the theoretical bound).
    pub(crate) fn group_order(&self) -> u64 {
        let free_fact: u64 = (1..=self.free.len() as u64).product();
        self.sigmas.len() as u64 * free_fact
    }

    /// Whether the group is the identity alone (canonicalization is a
    /// no-op and the plain encoding can be used).
    pub(crate) fn is_trivial(&self) -> bool {
        self.sigmas.len() == 1 && self.free.len() <= 1
    }

    /// The canonical (orbit-representative) encoding of `s`: the minimum
    /// [`Model::encode_under`] image over the candidate group elements.
    pub(crate) fn canonical_encode(&self, model: &Model, s: &State) -> Vec<u8> {
        if self.is_trivial() {
            return model.encode(s);
        }
        // Nodes referenced by any in-flight message: only those can make
        // signature-tied free nodes encode differently.
        let mut referenced = [false; 8];
        {
            let mut mark = |m: &RingMessage| {
                referenced[m.src.index()] = true;
                referenced[m.dst.index()] = true;
                referenced[m.requester.index()] = true;
            };
            for m in &s.net {
                mark(m);
            }
            for b in 0..model.blocks {
                let block = BlockAddr::new(b as u64);
                s.engine.queued(block).iter().for_each(&mut mark);
                if let Some(a) = s.engine.context(block) {
                    mark(&a.req);
                }
            }
            model.parked(s).for_each(&mut mark);
        }

        let mut best: Option<Vec<u8>> = None;
        let mut buf = Vec::new();
        let mut node_map = vec![0usize; self.nodes];
        for sigma in &self.sigmas {
            let sigs: Vec<Vec<u8>> =
                self.free.iter().map(|&i| self.signature(model, s, i, sigma)).collect();
            // Rank the free nodes by signature (old index breaks exact
            // ties deterministically when enumeration is skipped).
            let mut order: Vec<usize> = (0..self.free.len()).collect();
            order.sort_by(|&a, &b| sigs[a].cmp(&sigs[b]).then(a.cmp(&b)));

            // Tie groups that some message references must be enumerated;
            // unreferenced ties encode identically in any order.
            let mut groups: Vec<(usize, usize)> = Vec::new(); // [start, end)
            let mut candidates = 1u64;
            let mut start = 0;
            while start < order.len() {
                let mut end = start + 1;
                while end < order.len() && sigs[order[end]] == sigs[order[start]] {
                    end += 1;
                }
                let needs_enum =
                    end - start > 1 && order[start..end].iter().any(|&k| referenced[self.free[k]]);
                if needs_enum {
                    candidates =
                        candidates.saturating_mul((1..=(end - start) as u64).product::<u64>());
                    groups.push((start, end));
                }
                start = end;
            }
            if candidates > ENUMERATION_CAP {
                groups.clear(); // fall back to the plain signature order
            }

            let mut emit = |order: &[usize]| {
                node_map.copy_from_slice(&sigma.node_base);
                for (slot, &rank) in order.iter().enumerate() {
                    node_map[self.free[rank]] = self.free[slot];
                }
                model.encode_under(s, &node_map, &sigma.block_map, &mut buf);
                if best.as_ref().is_none_or(|b| buf < *b) {
                    best = Some(buf.clone());
                }
            };
            for_each_tie_order(&mut order, &groups, 0, &mut emit);
        }
        best.expect("symmetry group has at least the identity")
    }

    /// A relabelling-invariant signature of free node `i` under `sigma`:
    /// everything the encoding says about the node, with concrete free-node
    /// indices abstracted out of message endpoints. Signature-equal nodes
    /// are interchangeable up to the cross-references between them.
    fn signature(&self, model: &Model, s: &State, i: usize, sigma: &Sigma) -> Vec<u8> {
        let blocks = model.blocks;
        let bm = &sigma.block_map;
        // Endpoint abstraction: self / mapped home (concrete) / other-free.
        let abs = |j: usize| -> u8 {
            if j == i {
                0xFD
            } else if sigma.node_base[j] != usize::MAX {
                sigma.node_base[j] as u8
            } else {
                0xFE
            }
        };
        let mut sig = Vec::with_capacity(4 * blocks + 2 + 8 * s.net.len());
        // Per-block view, in relabelled block order.
        let mut per_block: Vec<(usize, [u8; 4])> = (0..blocks)
            .map(|b| {
                let block = BlockAddr::new(b as u64);
                let entry = s.engine.dir.entry(block);
                let me = ringsim_types::NodeId::new(i);
                (
                    bm[b],
                    [
                        crate::model::state_code(s.caches[i].state_of(block)),
                        u8::from(entry.sharers & (1 << i) != 0),
                        u8::from(entry.owner == Some(me)),
                        u8::from(s.wb_buffer[i][b]),
                    ],
                )
            })
            .collect();
        per_block.sort_unstable_by_key(|&(new_b, _)| new_b);
        for (_, bytes) in per_block {
            sig.extend_from_slice(&bytes);
        }
        match &s.txns[i] {
            None => sig.push(0xFF),
            Some(t) => {
                sig.push(crate::model::txn_code(t));
                sig.push(bm[t.block.raw() as usize] as u8);
            }
        }
        // Every message that references the node, abstracted and sorted.
        let mut refs: Vec<[u8; 8]> = Vec::new();
        let mut push_ref = |container: u8, extra: u8, m: &RingMessage| {
            if m.src.index() == i || m.dst.index() == i || m.requester.index() == i {
                refs.push([
                    container,
                    extra,
                    crate::model::kind_code(m.kind),
                    bm[m.block.raw() as usize] as u8,
                    abs(m.src.index()),
                    abs(m.dst.index()),
                    abs(m.requester.index()),
                    u8::from(m.retained) | (u8::from(m.from_dirty) << 1),
                ]);
            }
        };
        for m in &s.net {
            push_ref(0, 0, m);
        }
        for (b, &new_b) in bm.iter().enumerate().take(blocks) {
            let block = BlockAddr::new(b as u64);
            for (pos, m) in s.engine.queued(block).iter().enumerate() {
                push_ref(1, (new_b << 4 | pos.min(15)) as u8, m);
            }
        }
        for (b, &new_b) in bm.iter().enumerate().take(blocks) {
            if let Some(a) = s.engine.context(BlockAddr::new(b as u64)) {
                push_ref(2, new_b as u8, &a.req);
            }
        }
        for j in 0..model.nodes {
            for m in s.engine.parked(ringsim_types::NodeId::new(j)) {
                push_ref(3, abs(j), m);
            }
        }
        refs.sort_unstable();
        sig.push(refs.len() as u8);
        for r in refs {
            sig.extend_from_slice(&r);
        }
        sig
    }
}

/// Calls `f` with every permutation of `items[at..]` (Heap-style recursive
/// enumeration; `items` is restored on return).
fn permutations<T: Copy>(items: &mut [T], at: usize, f: &mut impl FnMut(&[T])) {
    if at + 1 >= items.len() {
        f(items);
        return;
    }
    for k in at..items.len() {
        items.swap(at, k);
        permutations(items, at + 1, f);
        items.swap(at, k);
    }
}

/// Calls `f` with `order` under every combination of permutations of the
/// tie-group ranges `groups[from..]` (each `(start, end)` half-open).
fn for_each_tie_order(
    order: &mut [usize],
    groups: &[(usize, usize)],
    from: usize,
    f: &mut impl FnMut(&[usize]),
) {
    match groups.get(from) {
        None => f(order),
        Some(&(start, end)) => {
            // Permute the group in place, recursing into later groups for
            // each arrangement.
            fn rec(
                order: &mut [usize],
                end: usize,
                at: usize,
                groups: &[(usize, usize)],
                from: usize,
                f: &mut impl FnMut(&[usize]),
            ) {
                if at + 1 >= end {
                    for_each_tie_order(order, groups, from + 1, f);
                    return;
                }
                for k in at..end {
                    order.swap(at, k);
                    rec(order, end, at + 1, groups, from, f);
                    order.swap(at, k);
                }
            }
            rec(order, end, start, groups, from, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use proptest::TestRng;
    use ringsim_proto::ProtocolKind;

    use super::Symmetry;
    use crate::model::Model;
    use crate::Fault;

    /// A pseudo-random reachable state: `steps` uniformly-drawn moves from
    /// the initial state. Reachable states are the only ones the checker
    /// ever canonicalizes, so properties are quantified over walks rather
    /// than arbitrary byte soup.
    fn walk(model: &Model, seed: u64, steps: usize) -> crate::model::State {
        let mut rng = TestRng::new(seed);
        let mut s = model.initial();
        for _ in 0..steps {
            let moves = model.enumerate(&s);
            if moves.is_empty() {
                break;
            }
            let mv = moves[rng.below(moves.len() as u64) as usize];
            model.apply(&mut s, mv);
        }
        s
    }

    /// A uniformly-drawn group element as an `(node_map, block_map)` pair:
    /// one of the precomputed block permutations plus a random order of the
    /// free nodes.
    fn random_element(sym: &Symmetry, rng: &mut TestRng) -> (Vec<usize>, Vec<usize>) {
        let sigma = &sym.sigmas[rng.below(sym.sigmas.len() as u64) as usize];
        let mut node_map = sigma.node_base.clone();
        // Fisher–Yates over the free slots.
        let mut slots = sym.free.clone();
        for k in (1..slots.len()).rev() {
            slots.swap(k, rng.below(k as u64 + 1) as usize);
        }
        for (&node, &slot) in sym.free.iter().zip(&slots) {
            node_map[node] = slot;
        }
        (node_map, sigma.block_map.clone())
    }

    fn model_of(directory: bool) -> Model {
        let protocol = if directory { ProtocolKind::Directory } else { ProtocolKind::Snooping };
        // 5 nodes / 2 blocks: 3 free nodes and (with both homes distinct)
        // a non-trivial block group is exercised at 4n/2b below.
        Model::new(protocol, 5, 2, Fault::None, true)
    }

    proptest! {
        /// `canonical` is idempotent: canonicalizing the decoded
        /// representative returns the representative itself.
        #[test]
        fn canonicalization_is_idempotent(
            seed in any::<u64>(),
            steps in 0usize..48,
            directory in any::<bool>(),
        ) {
            let model = model_of(directory);
            let sym = Symmetry::new(&model);
            let s = walk(&model, seed, steps);
            let canon = sym.canonical_encode(&model, &s);
            let rep = model.decode(&canon);
            prop_assert_eq!(
                sym.canonical_encode(&model, &rep),
                canon,
                "canonical form must be a fixed point"
            );
        }

        /// `canonical(g · s) == canonical(s)` for every group element `g`:
        /// relabelling a state never changes its orbit representative, so
        /// symmetry reduction can only merge true orbit members, never
        /// split them (splitting would silently prune reachable states).
        #[test]
        fn canonicalization_is_invariant(
            seed in any::<u64>(),
            perm_seed in any::<u64>(),
            steps in 0usize..48,
            directory in any::<bool>(),
        ) {
            let model = model_of(directory);
            let sym = Symmetry::new(&model);
            let s = walk(&model, seed, steps);
            let mut rng = TestRng::new(perm_seed);
            let (node_map, block_map) = random_element(&sym, &mut rng);
            let mut permuted = Vec::new();
            model.encode_under(&s, &node_map, &block_map, &mut permuted);
            let g_s = model.decode(&permuted);
            prop_assert_eq!(
                sym.canonical_encode(&model, &g_s),
                sym.canonical_encode(&model, &s),
                "orbit members must share one representative \
                 (node_map {:?}, block_map {:?})",
                node_map,
                block_map
            );
        }

        /// Same invariance on a 4n/2b configuration, where blocks 0 and 1
        /// have different homes and block swaps drag the homes with them.
        #[test]
        fn canonicalization_is_invariant_with_block_swaps(
            seed in any::<u64>(),
            perm_seed in any::<u64>(),
            steps in 0usize..48,
            directory in any::<bool>(),
        ) {
            let protocol =
                if directory { ProtocolKind::Directory } else { ProtocolKind::Snooping };
            let model = Model::new(protocol, 4, 2, Fault::None, true);
            let sym = Symmetry::new(&model);
            prop_assert!(sym.sigmas.len() > 1, "block swap must be in the group");
            let s = walk(&model, seed, steps);
            let mut rng = TestRng::new(perm_seed);
            let (node_map, block_map) = random_element(&sym, &mut rng);
            let mut permuted = Vec::new();
            model.encode_under(&s, &node_map, &block_map, &mut permuted);
            let g_s = model.decode(&permuted);
            prop_assert_eq!(
                sym.canonical_encode(&model, &g_s),
                sym.canonical_encode(&model, &s)
            );
        }
    }
}
