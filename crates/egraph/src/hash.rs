//! The engine's one hasher: a deterministic multiply-rotate word hash.
//!
//! Every engine table is keyed by values the program made itself — e-class
//! ids, operator keys, e-nodes — so the standard library's randomly keyed
//! SipHash buys no protection here and costs tens of nanoseconds on every
//! `add`, `class()` and memo probe of the saturation loop. [`WordHasher`]
//! folds each written word into a 64-bit state with one rotate, one xor and
//! one multiply. It is unkeyed, so hashes (and with them
//! [`crate::language::Language::op_key`] values and allocation counts)
//! repeat exactly from run to run. Not for keys an adversary can choose.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-mixed bits (the 64-bit golden-ratio constant).
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// Initial state. Nonzero so that a leading zero word (an enum's first
/// discriminant, id 0) still moves the state: from zero, `mix(0)` is zero
/// and `[0, x]` would hash like `[x]`.
const SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Deterministic multiply-rotate hasher (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct WordHasher {
    state: u64,
}

impl Default for WordHasher {
    fn default() -> Self {
        WordHasher { state: SEED }
    }
}

impl WordHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // A multiply only carries entropy upwards; hash tables index by the
        // low bits, so bring the well-mixed high bits down.
        self.state.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(
                chunk.try_into().expect("chunks_exact(8) yields 8 bytes"),
            ));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            // The length byte keeps "ab" and "ab\0" apart.
            word[7] = tail.len() as u8;
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// `BuildHasher` for [`WordHasher`]-keyed tables.
pub type BuildWordHasher = BuildHasherDefault<WordHasher>;

/// A `HashMap` hashed by [`WordHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildWordHasher>;

/// A `HashSet` hashed by [`WordHasher`].
pub type FastSet<K> = HashSet<K, BuildWordHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = WordHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn hashes_repeat_and_separate_near_keys() {
        assert_eq!(hash_of(&42u32), hash_of(&42u32));
        assert_ne!(hash_of(&"ab"), hash_of(&"ab\0"));
        assert_ne!(hash_of(&(1u32, 2u32)), hash_of(&(2u32, 1u32)));
        // A leading zero word must not vanish (variant 0 with payload `x`
        // vs payload-free variant `x`).
        assert_ne!(hash_of(&(0u64, 16u64)), hash_of(&16u64));
        // Sequential ids — the engine's commonest key — must spread over
        // the low bits a table indexes by.
        let low: FastSet<u64> = (0u32..1024).map(|i| hash_of(&i) & 1023).collect();
        assert!(
            low.len() > 512,
            "only {} of 1024 low-bit buckets used",
            low.len()
        );
    }

    #[test]
    fn fast_map_behaves_like_a_map() {
        let mut m: FastMap<u32, &str> = FastMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.remove(&2), Some("two"));
        assert_eq!(m.len(), 1);
    }
}
