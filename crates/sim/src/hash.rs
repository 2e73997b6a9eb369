//! The workspace's deterministic hash functions: one FNV-1a and one
//! splitmix64.
//!
//! Both are fixed functions of their input — no per-process key, no
//! seeded state — and fold integers as little-endian bytes, so they give
//! the same value in every run and on every platform. That makes them
//! fit for what the workspace hashes: trace digests and sweep cell
//! addresses ([`fnv1a64`]), the keys a sampled MRC tracker follows (a
//! model input), property-test seeds, and PRNG seeding
//! ([`splitmix64`]), and the engine's lock table ([`Mix64`]). That table
//! is the workspace's one hash table; it is looked up and pruned, never
//! visited. The rest of its keyed state lives in `BTreeMap`s and sorted
//! `Vec`s, which visit in key order.

use std::hash::Hasher;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running 64-bit FNV-1a state.
#[inline]
fn fnv1a64_fold(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// 64-bit FNV-1a over a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_fold(FNV_OFFSET, bytes)
}

/// A [`Hasher`] that is 64-bit FNV-1a over the bytes written to it.
///
/// Integer writes fold their little-endian bytes, so a key's hash does
/// not depend on the target's byte order.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Hasher for Fnv1a {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a64_fold(self.0, bytes);
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write(&word.to_le_bytes());
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.write(&word.to_le_bytes());
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write(&word.to_le_bytes());
    }
}

/// A [`Hasher`] for keys that are one `u64`: the key's [`mix64`]. The
/// lock table is keyed so; its keys need no byte folding.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mix64(u64);

impl Hasher for Mix64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("Mix64 hashes one u64")
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.0 = mix64(key);
    }
}

/// The splitmix64 finalizer: full-avalanche mixing of one word.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One splitmix64 step: advances `state` by the golden-ratio increment
/// and returns the mixed result.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    mix64(*state)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hasher_folds_integers_little_endian() {
        let mut h = Fnv1a::default();
        h.write_u32(7);
        h.write_u64(0x0102_0304_0506_0708);
        h.write_usize(3);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&7u32.to_le_bytes());
        bytes.extend_from_slice(&0x0102_0304_0506_0708u64.to_le_bytes());
        bytes.extend_from_slice(&(3usize).to_le_bytes());
        assert_eq!(h.finish(), fnv1a64(&bytes));
    }

    #[test]
    fn mix64_hasher_finishes_with_the_mixed_key() {
        let mut h = Mix64::default();
        h.write_u64(0x0000_0003_0000_0010);
        assert_eq!(h.finish(), mix64(0x0000_0003_0000_0010));
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // The first outputs of the reference generator seeded with 0.
        let mut state = 0;
        assert_eq!(splitmix64(&mut state), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut state), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(state, 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(2));
    }
}
