//! An inlineable multiply-fold hasher for the simulation hot path.
//!
//! `std`'s default `HashMap` hasher is SipHash-1-3, which is
//! DoS-resistant but costs tens of cycles per lookup — measurable when
//! the ideal branch history table and the profiling tables are probed
//! once or twice per simulated branch. Simulation keys are branch
//! addresses from traces we generate ourselves, so collision-flooding
//! resistance buys nothing here.
//!
//! This is the FxHash function used throughout rustc (a Fowler–Noll–Vo
//! variant folding each word with a multiply by a golden-ratio-derived
//! constant), reimplemented in-tree because the build must not touch the
//! registry. For `u64` keys — every hot map in this repository — hashing
//! is a rotate, a xor and one multiply.
//!
//! # Example
//!
//! ```
//! use tlabp_core::fxhash::FxHashMap;
//!
//! let mut map: FxHashMap<u64, u32> = FxHashMap::default();
//! map.insert(0x4000, 7);
//! assert_eq!(map.get(&0x4000), Some(&7));
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, the multiplicative constant of FxHash's word fold.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash streaming hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// [`std::hash::BuildHasher`] for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`] — drop-in for hot simulation maps.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn deterministic_across_hashers() {
        let build = FxBuildHasher::default();
        assert_eq!(build.hash_one(0xdead_beefu64), build.hash_one(0xdead_beefu64));
        assert_ne!(build.hash_one(1u64), build.hash_one(2u64));
    }

    #[test]
    fn byte_stream_equivalence_is_not_required_but_stable() {
        let build = FxBuildHasher::default();
        let a = build.hash_one("hello world");
        let b = build.hash_one("hello world");
        assert_eq!(a, b);
    }

    #[test]
    fn map_alias_works() {
        let mut map: FxHashMap<u64, &str> = FxHashMap::default();
        map.insert(42, "x");
        assert_eq!(map[&42], "x");
    }

    #[test]
    fn spreads_dense_word_aligned_pcs() {
        // Branch pcs are dense multiples of 4; the hash must not collapse
        // them into few buckets.
        let build = FxBuildHasher::default();
        let hashes: std::collections::HashSet<u64> =
            (0..1024u64).map(|w| build.hash_one(0x1_0000 + w * 4) >> 54).collect();
        assert!(hashes.len() > 100, "only {} distinct top-10-bit values", hashes.len());
    }
}
