//! Identifiers and hashing for the 64-bit DHT key space.
//!
//! All keys (terms and term sets) are mapped into a 64-bit identifier space
//! by a deterministic FNV-1a hash, so simulation runs are exactly
//! reproducible across processes and platforms (no `RandomState`).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of a peer `P_i`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId(pub u64);

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer{}", self.0)
    }
}

/// Position of a key in the DHT identifier space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyHash(pub u64);

impl KeyHash {
    /// Bit `i` (0 = most significant), as used by prefix routing.
    #[inline]
    pub fn bit(self, i: u32) -> bool {
        debug_assert!(i < 64);
        (self.0 >> (63 - i)) & 1 == 1
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over a sequence of u64 words (e.g. the term ids of a key).
/// Word boundaries are preserved so `[1, 2]` and `[0x0102]` differ.
pub fn hash_u64s(words: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    for &w in words {
        for i in 0..8 {
            h ^= (w >> (8 * i)) & 0xff;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// A splitmix64 step — used where the simulation needs a cheap deterministic
/// pseudo-random choice derived from state (e.g. picking a P-Grid routing
/// reference), never for statistics.
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Odd multiplier of [`IdHasher`] (2^64 / golden ratio, as in
/// [`splitmix64`]).
const ID_HASH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// A multiplicative hasher for in-process tables keyed by values this
/// program computed itself: term ids, term-id tuples, [`KeyHash`] values
/// that already are hashes. One rotate-xor-multiply per word in place of
/// SipHash's rounds, and no per-process random state.
///
/// Not for keys an outside party can choose — it has no collision
/// resistance — and not a stable format: nothing may persist or transmit
/// its output.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(ID_HASH_MUL);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // A product's low bits depend only on the factors' low bits, and
        // the DHT stripes group `KeyHash` values by exactly those bits:
        // fold the well-mixed high half down, because the table takes its
        // bucket index from the low bits.
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
}

/// [`std::hash::BuildHasher`] for [`IdHasher`].
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;
/// A `HashMap` hashing with [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, IdBuildHasher>;
/// A `HashSet` hashing with [`IdHasher`].
pub type IdHashSet<T> = HashSet<T, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_reference_values() {
        // Known FNV-1a test vectors.
        assert_eq!(hash_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash_bytes(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn hash_u64s_distinguishes_boundaries() {
        assert_ne!(hash_u64s(&[1, 2]), hash_u64s(&[2, 1]));
        assert_ne!(hash_u64s(&[1]), hash_u64s(&[1, 0]));
        assert_ne!(hash_u64s(&[]), hash_u64s(&[0]));
    }

    #[test]
    fn bit_extraction_msb_first() {
        let k = KeyHash(1u64 << 63);
        assert!(k.bit(0));
        assert!(!k.bit(1));
        let k2 = KeyHash(1);
        assert!(k2.bit(63));
        assert!(!k2.bit(0));
    }

    #[test]
    fn id_hasher_spreads_one_stripes_keys_over_the_buckets() {
        // Keys of one DHT stripe agree in their low 7 bits; a table of
        // 2^10 buckets must still see nearly all of its buckets used (unfolded,
        // the product would reach 8 of them; 4096 random draws reach ~1005).
        let buckets: HashSet<u64> = (0..4096u64)
            .map(|i| {
                let mut h = IdHasher::default();
                h.write_u64(hash_u64s(&[i]) << 7 | 0x55);
                h.finish() & 1023
            })
            .collect();
        assert!(buckets.len() > 900, "only {} buckets used", buckets.len());
    }

    #[test]
    fn id_hasher_distinguishes_word_order_and_width() {
        let of = |words: &[u64]| {
            let mut h = IdHasher::default();
            for &w in words {
                h.write_u64(w);
            }
            h.finish()
        };
        assert_ne!(of(&[1, 2]), of(&[2, 1]));
        assert_ne!(of(&[1]), of(&[1, 0]));
        let mut bytes = IdHasher::default();
        bytes.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        assert_eq!(bytes.finish(), of(&[1, 2]));
    }

    #[test]
    fn splitmix_changes_input() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert_eq!(splitmix64(1), a);
    }
}
