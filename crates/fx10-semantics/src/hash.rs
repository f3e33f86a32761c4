//! The one hasher for dense integer keys.
//!
//! [`IdHasher`] is multiplicative hashing as in rustc's `FxHasher`: one
//! rotate, xor and multiply per 64-bit word. The interner's shard
//! choice and maps, the explorer's visited shards and the runtime race
//! detector's shadow all key on ids, labels and cell vectors the program
//! itself produces, so they do not need SipHash's resistance to crafted
//! collisions. A program built to collide can only slow its own run.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hashing for ids, labels and cell vectors.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    /// Hashes in 8-byte little-endian words, so a `[i64]` slice costs one
    /// round per cell; a short tail is zero-padded into one more word.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        // A product's low bits depend only on the key's low bits, and
        // hash tables index buckets by the low bits: rotate the
        // well-mixed high bits down.
        self.0.rotate_left(26)
    }
}

/// A `HashMap` hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` hashed by [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// The [`IdHasher`] hash of one value.
pub fn id_hash<K: std::hash::Hash + ?Sized>(k: &K) -> u64 {
    let mut h = IdHasher::default();
    k.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    #[test]
    fn words_cost_one_round_each() {
        let mut by_word = IdHasher::default();
        by_word.write_u64(7);
        by_word.write_u64(u64::MAX);
        let mut by_bytes = IdHasher::default();
        by_bytes.write(&[7i64.to_le_bytes(), (-1i64).to_le_bytes()].concat());
        assert_eq!(by_word.finish(), by_bytes.finish());
    }

    #[test]
    fn a_short_tail_is_one_zero_padded_word() {
        let mut tail = IdHasher::default();
        tail.write(&[1, 2, 3]);
        let mut word = IdHasher::default();
        word.write_u64(u64::from_le_bytes([1, 2, 3, 0, 0, 0, 0, 0]));
        assert_eq!(tail.finish(), word.finish());
    }

    #[test]
    fn integer_keys_match_the_word_round() {
        // `u32` keys (labels, activity ids) and `u64` keys hash exactly
        // as one `write_u64` round; the runtime's race-detector pins
        // were recorded with this.
        let one = |n: u64| {
            let mut h = IdHasher::default();
            h.write_u64(n);
            h.finish()
        };
        assert_eq!(id_hash(&5u32), one(5));
        assert_eq!(id_hash(&(1u64 << 40)), one(1 << 40));
        assert_eq!(one(1), 0x517c_c1b7_2722_0a95u64.rotate_left(26));
        let mut v = IdHasher::default();
        vec![3i64, -4].hash(&mut v);
        let mut w = IdHasher::default();
        w.write_u64(2);
        w.write_u64(3);
        w.write_u64(-4i64 as u64);
        assert_eq!(v.finish(), w.finish());
    }
}
