//! FNV-1a, the workspace's one non-cryptographic hash: [`fnv1a`] over a
//! byte string (cache keys, config fingerprints, report digests) and
//! [`FnvBuildHasher`] for the simulators' block-keyed maps.

/// The FNV-1a 64-bit offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes`.
///
/// # Examples
///
/// ```
/// use ringsim_types::fnv1a;
/// assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
/// assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(OFFSET, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

/// [`std::hash::BuildHasher`] for FNV-1a — a fast non-keyed hash for the
/// simulators' `u64`-keyed block-address maps.
///
/// `std`'s default SipHash is DoS-resistant but costs tens of cycles per
/// lookup; the coherence maps (`owners`, `present`, home-directory state)
/// are keyed by trusted internal block numbers, looked up several times
/// per miss, and never iterated in an order that reaches observable
/// output — so a cheap multiply-xor hash is both safe and deterministic.
///
/// `HashMap` picks a key's bucket from the hash's low bits and tells keys
/// in a bucket group apart by its top seven. One FNV round over a word
/// fills neither well: its low bits depend only on the key's low bits, and
/// its top bits barely move between nearby keys, so a probe of a block
/// map would match most of a group and compare keys one by one.
/// [`FnvHasher`] therefore mixes the word in `finish` before handing it
/// over.
///
/// # Examples
///
/// ```
/// use ringsim_types::FnvMap;
///
/// let mut owners: FnvMap<u64, &'static str> = FnvMap::default();
/// owners.insert(42, "node3");
/// assert_eq!(owners.get(&42), Some(&"node3"));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FnvBuildHasher;

/// A `HashMap` using [`FnvBuildHasher`]. Construct with `FnvMap::default()`.
pub type FnvMap<K, V> = std::collections::HashMap<K, V, FnvBuildHasher>;

impl std::hash::BuildHasher for FnvBuildHasher {
    type Hasher = FnvHasher;
    #[inline]
    fn build_hasher(&self) -> FnvHasher {
        FnvHasher(OFFSET)
    }
}

/// Streaming FNV-1a state; see [`FnvBuildHasher`].
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl std::hash::Hasher for FnvHasher {
    /// The FNV state, mixed so that every bit of it reaches both the low
    /// bits and the top bits of the result (see [`FnvBuildHasher`]).
    #[inline]
    fn finish(&self) -> u64 {
        let h = (self.0 ^ (self.0 >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^ (h >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        // One round over the whole word instead of eight byte rounds: the
        // maps key on block numbers, so this is the only path that matters.
        self.0 = (self.0 ^ value).wrapping_mul(PRIME);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }
}
