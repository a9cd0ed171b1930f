//! An in-tree FxHash-style hasher for the simulator's and runtime's
//! remaining hash maps.
//!
//! `std`'s default SipHash is DoS-resistant but costs tens of cycles per
//! probe — real overhead on maps keyed by small integers (addresses, PCs,
//! atomic-block ids) that sit on simulation hot paths. This is the
//! multiply-and-rotate scheme popularized by the Rust compiler's FxHasher:
//! one wrapping multiply and a rotate per 8 bytes, deterministic across
//! runs and platforms (the reproduction's determinism guarantee never
//! depends on hash iteration order, but determinism of timing-irrelevant
//! paths keeps profiles comparable).
//!
//! Keys here are attacker-free simulator-internal integers, so the lack of
//! DoS resistance is irrelevant.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, the multiplicative-hashing constant.
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;
const ROTATE: u32 = 26;

/// A fast, non-cryptographic hasher for small integer-like keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
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
        for c in chunks.by_ref() {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i * 64, i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 64)), Some(&i));
        }
        assert_eq!(m.get(&7), None);
    }

    #[test]
    fn hash_is_deterministic() {
        let h = |x: u64| {
            let mut hasher = FxHasher::default();
            hasher.write_u64(x);
            hasher.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
        // Adjacent line addresses must not collide to the same value.
        assert_ne!(h(0x1000), h(0x1040));
    }

    #[test]
    fn string_keys_work() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        m.insert("alpha".into(), 1);
        m.insert("beta".into(), 2);
        assert_eq!(m["alpha"], 1);
        assert_eq!(m["beta"], 2);
    }
}
