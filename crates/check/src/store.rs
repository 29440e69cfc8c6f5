//! Hash-compacted visited-state store.
//!
//! Murphi-style hash compaction: instead of keying the visited set by the
//! full canonical encoding (tens of bytes per state, the dominant memory
//! cost of the old `HashMap<Rc<[u8]>, u32>` store), only a 64-bit
//! fingerprint of the encoding is kept. Two distinct states whose
//! fingerprints collide are merged — one of them is silently not explored —
//! so the check becomes probabilistic with a missed-state probability of
//! about `n² / 2⁶⁴` for `n` stored states (< 10⁻⁶ even at 100 M states).
//! This is the standard model-checking trade; counterexample traces stay
//! exact because they are *replayed* from the initial state through the
//! lossless parent/move side table, never decoded from the store.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// 64-bit fingerprint of a state encoding: FNV-1a over the bytes, then a
/// `splitmix64`-style finalizer so that near-identical encodings (states
/// differing in one byte) still spread over the whole space.
pub(crate) fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h = ringsim_types::fnv1a(bytes);
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Pass-through hasher for keys that already are fingerprints: feeding a
/// well-mixed `u64` through SipHash again would only cost time.
#[derive(Default)]
pub(crate) struct FpHasher(u64);

impl Hasher for FpHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are ever hashed; fold defensively anyway.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = i;
    }
}

/// `BuildHasher` for [`FpHasher`].
#[derive(Default, Clone)]
pub(crate) struct FpBuild;

impl BuildHasher for FpBuild {
    type Hasher = FpHasher;

    fn build_hasher(&self) -> FpHasher {
        FpHasher::default()
    }
}

/// The compacted visited set: fingerprint → dense state id.
pub(crate) type FpMap = HashMap<u64, u32, FpBuild>;

/// Distinct-fingerprint accumulator (used for the `--stats` raw-state
/// count).
pub(crate) type FpSet = std::collections::HashSet<u64, FpBuild>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_spreads_single_byte_changes() {
        let base = fingerprint(&[0u8; 16]);
        for i in 0..16 {
            let mut bytes = [0u8; 16];
            bytes[i] = 1;
            let fp = fingerprint(&bytes);
            assert_ne!(fp, base);
            // The finalizer should flip roughly half the bits.
            let differing = (fp ^ base).count_ones();
            assert!((8..=56).contains(&differing), "weak diffusion: {differing} bits");
        }
    }

    #[test]
    fn fp_map_round_trips() {
        let mut map = FpMap::default();
        map.insert(fingerprint(b"alpha"), 1);
        map.insert(fingerprint(b"beta"), 2);
        assert_eq!(map.get(&fingerprint(b"alpha")), Some(&1));
        assert_eq!(map.get(&fingerprint(b"beta")), Some(&2));
        assert_eq!(map.get(&fingerprint(b"gamma")), None);
    }
}
