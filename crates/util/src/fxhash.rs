//! The Fx-style hasher behind the compiler passes' `FxHashMap`s, in the
//! place of the crates.io `rustc-hash` crate, which the offline build cannot
//! fetch. The hasher is an independent implementation (folded-multiply over
//! 8-byte chunks, wyhash-style), not the upstream algorithm — callers only
//! rely on it being fast, deterministic, and `BuildHasherDefault`-constructible.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A fast, deterministic, non-cryptographic hasher.
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

const K: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn mix(state: u64, word: u64) -> u64 {
    let m = (state ^ word) as u128 * K as u128;
    (m as u64) ^ ((m >> 64) as u64)
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.state = mix(self.state, u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.state = mix(
                self.state,
                u64::from_le_bytes(tail) | ((rem.len() as u64) << 56),
            );
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.state = mix(self.state, v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.state = mix(self.state, v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.state = mix(self.state, v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = mix(self.state, v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.state = mix(self.state, v as u64);
    }
}

pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips_and_is_deterministic() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        for i in 0..100u32 {
            m.insert(format!("key{i}"), i);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m["key42"], 42);
        let mut h1 = FxHasher::default();
        let mut h2 = FxHasher::default();
        h1.write(b"hello world");
        h2.write(b"hello world");
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn distinct_inputs_rarely_collide() {
        let mut seen = FxHashSet::default();
        for i in 0..10_000u64 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 10_000);
    }
}
