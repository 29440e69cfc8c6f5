//! Runtime coherence sanitizer.
//!
//! A lightweight always-compiled hook layer that re-evaluates the shared
//! [`ringsim_proto::invariants`] at transaction-retire boundaries of the
//! timed simulators. The checks are sound at any point of a run (they use
//! the same transient carve-outs as the model checker in `ringsim-check`),
//! so a violation is a genuine protocol bug, reported by panicking with the
//! offending block and the per-node line states.
//!
//! The sanitizer never changes simulation behaviour or results — it only
//! observes — so sanitized runs produce byte-identical artifacts.
//!
//! Cost is O(nodes) per retired transaction. A run checks in debug builds
//! (including `cargo test`) and skips the checks in release builds unless
//! its caller forces them on with `RunOptions::sanitize` (`--sanitize` on
//! the CLI).

use ringsim_cache::LineState;
use ringsim_proto::invariants;
use ringsim_types::BlockAddr;

/// Whether a run checks: always in debug builds, and in release builds
/// when its caller `forced` the checks on.
pub(crate) fn enabled(forced: bool) -> bool {
    forced || cfg!(debug_assertions)
}

fn fail(block: BlockAddr, states: &[LineState], err: &str) -> ! {
    let lines: Vec<String> =
        states.iter().enumerate().map(|(i, s)| format!("P{i}:{s:?}")).collect();
    panic!("coherence sanitizer: {block}: {err} [{}]", lines.join(" "));
}

/// Checks SWMR over one block's line states. `conflicting[i]` marks nodes
/// whose own transaction on this block is still in flight (they may hold a
/// transiently stale copy).
pub(crate) fn check_swmr(block: BlockAddr, states: &[LineState], conflicting: &[bool]) {
    if let Err(e) = invariants::check_swmr(states, conflicting) {
        fail(block, states, &e.to_string());
    }
}

/// Checks that a write-exclusive copy is backed by the home's dirty bit
/// (snooping mode only; the bit arbitrates who supplies data).
pub(crate) fn check_we_implies_dirty(block: BlockAddr, states: &[LineState], dirty: bool) {
    if let Err(e) = invariants::check_we_implies_dirty(states, dirty) {
        fail(block, states, &e.to_string());
    }
}

/// Checks a conservation law of the interconnect simulators: retired work
/// must never exceed injected work.
pub(crate) fn check_conservation(what: &str, injected: u64, retired: u64) {
    if retired > injected {
        panic!("sanitizer: {what}: {retired} transactions retired but only {injected} injected");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_follows_build_profile() {
        assert_eq!(enabled(false), cfg!(debug_assertions));
        assert!(enabled(true));
    }

    #[test]
    #[should_panic(expected = "coherence sanitizer")]
    fn swmr_violation_panics() {
        check_swmr(BlockAddr::new(0), &[LineState::We, LineState::Rs], &[false, false]);
    }

    #[test]
    #[should_panic(expected = "sanitizer")]
    fn conservation_violation_panics() {
        check_conservation("test-net", 3, 4);
    }
}
