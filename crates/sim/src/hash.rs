//! Table-placement hashing for the simulator's own integer keys.
//!
//! `std`'s default `HashMap` hasher is SipHash-1-3 with a per-process
//! random key: protection against attacker-chosen keys, paid on every
//! probe. The hot-path tables here are keyed by `PageId` / `ClassId` /
//! `DomainId` integers that our own seeded workload generates, so that
//! protection buys nothing. [`FastHasher`] is one multiply per key word
//! and one rotate at the end; [`FastMap`] is the std table built on it.
//!
//! The hash is a fixed function of the key — the same in every map,
//! process and build — but the order it gives a table's entries is still
//! arbitrary, so a `FastMap` cannot be asked for it: it looks keys up,
//! and visits entries only in key order. No hash order can reach a
//! digest, an export or a simulated decision, because no expression
//! yields one. This module is the only one in the workspace allowed to
//! name the std tables (`disallowed-types` in `clippy.toml`, lifted by
//! the one `#[expect]` below).
//!
//! This hash only *places* keys in tables. The hash that decides which
//! keys a sampled MRC tracker keeps (`odlb-mrc`'s `sample_hash`) is a
//! model input and a separate, frozen function.
#![expect(
    clippy::disallowed_types,
    reason = "FastMap wraps the std table here and forwards only lookups and \
              key-ordered visits, so no caller can observe the hasher's order"
)]

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Odd 64-bit multiplier with no short bit patterns (the constant
/// rustc-hash 2 ships); any such constant works, changing it only
/// permutes table placement.
const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

/// Bits the finished state is rotated by: moves the product's
/// well-mixed top bits down to where `HashMap` takes its bucket index,
/// leaving middle bits for the 7-bit control tag it takes from the top.
const FINISH_ROTATE: u32 = 26;

/// Multiply-rotate hasher for trusted integer keys.
///
/// Each key word is added to the state and the sum multiplied by an odd
/// constant, so every input bit reaches every higher state bit;
/// [`Hasher::finish`] rotates those high bits into the low positions.
/// Not collision-resistant against chosen keys — do not use it for keys
/// that arrive from outside the program.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    state: u64,
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state.rotate_left(FINISH_ROTATE)
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = self.state.wrapping_add(word).wrapping_mul(MULTIPLIER);
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(word as u64);
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    /// Byte strings fold in as little-endian 8-byte words (the last one
    /// zero-padded), so the result does not depend on the platform.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

/// A hash table placed by [`FastHasher`] that has no iteration order to
/// leak: point operations, plus visits in key order for `K: Ord`.
///
/// ```
/// let mut m = odlb_sim::FastMap::<u32, u64>::default();
/// m.insert(7, 70);
/// m.insert(1, 10);
/// let seen: Vec<(u32, u64)> = m.iter_sorted().map(|(k, v)| (*k, *v)).collect();
/// assert_eq!(seen, [(1, 10), (7, 70)]);
/// ```
///
/// The unordered ways through a std table do not exist — `.iter()`,
/// `for … in`, `.into_keys()` and `.retain(..)` each fail to compile:
///
/// ```compile_fail
/// let m = odlb_sim::FastMap::<u32, u64>::default();
/// for (k, v) in m.iter() {}
/// ```
///
/// ```compile_fail
/// let m = odlb_sim::FastMap::<u32, u64>::default();
/// for (k, v) in m {}
/// ```
///
/// ```compile_fail
/// let m = odlb_sim::FastMap::<u32, u64>::default();
/// let keys: Vec<u32> = m.into_keys().collect();
/// ```
///
/// ```compile_fail
/// let mut m = odlb_sim::FastMap::<u32, u64>::default();
/// m.retain(|k, _| *k > 0);
/// ```
#[derive(Clone)]
pub struct FastMap<K, V>(HashMap<K, V, BuildHasherDefault<FastHasher>>);

impl<K, V> Default for FastMap<K, V> {
    #[inline]
    fn default() -> Self {
        FastMap(HashMap::default())
    }
}

/// Prints the size only: entries have no order worth printing.
impl<K, V> std::fmt::Debug for FastMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FastMap({} entries)", self.0.len())
    }
}

impl<K: Eq + Hash, V> FastMap<K, V> {
    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the table holds no entry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Entries the table can hold without reallocating.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }

    /// Makes room for `additional` more entries.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.0.reserve(additional);
    }

    /// Removes every entry, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// True when `key` has an entry.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.0.contains_key(key)
    }

    /// The value stored under `key`.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.0.get(key)
    }

    /// The value stored under `key`, mutably.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.0.get_mut(key)
    }

    /// Stores `value` under `key`, returning the value it replaces.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.0.insert(key, value)
    }

    /// Removes `key`'s entry, returning its value.
    #[inline]
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.0.remove(key)
    }

    /// `key`'s slot, occupied or vacant, found with one probe.
    #[inline]
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        self.0.entry(key)
    }
}

/// The only ways to visit every entry: in key order, at the cost of a
/// sort per visit — for interval-close and colder paths.
impl<K: Ord, V> FastMap<K, V> {
    /// Every entry, in ascending key order.
    pub fn iter_sorted(&self) -> impl Iterator<Item = (&K, &V)> {
        let mut entries: Vec<(&K, &V)> = self.0.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries.into_iter()
    }

    /// Every entry with its value mutable, in ascending key order.
    pub fn iter_sorted_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        let mut entries: Vec<(&K, &mut V)> = self.0.iter_mut().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<K: Hash>(key: K) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(key)
    }

    #[test]
    fn hash_is_a_fixed_function_of_the_key() {
        // Pinned values: the same in every map instance, process and
        // build. A change here re-places every table (harmless to
        // results, but it must be deliberate).
        assert_eq!(hash_of(0u64), 0);
        assert_eq!(hash_of(1u64), 0xa8b9_8aa7_17c4_d5eb);
        assert_eq!(hash_of((3u32, 100_000u64)), 0x3bca_2537_addc_931a);
        assert_eq!(hash_of((7u64, 2u32)), 0x4382_a4ba_e5be_0450);
        // Two independently built maps agree.
        let a = BuildHasherDefault::<FastHasher>::default();
        let b = FastMap::<u64, ()>::default();
        assert_eq!(a.hash_one(42u64), b.0.hasher().hash_one(42u64));
    }

    #[test]
    fn byte_strings_hash_as_little_endian_words() {
        let mut h = FastHasher::default();
        h.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        let mut w = FastHasher::default();
        w.write_u64(1);
        w.write_u64(2);
        assert_eq!(h.finish(), w.finish());
    }

    /// Loads of the 2^16 low-bit buckets and the 128 top-7-bit control
    /// tags (the two things `HashMap` takes from a hash) for one key
    /// family, as (max bucket load / mean, min tag load / mean, max tag
    /// load / mean).
    fn spread(hashes: &[u64]) -> (f64, f64, f64) {
        let mut buckets = vec![0u32; 1 << 16];
        let mut tags = [0u32; 128];
        for &h in hashes {
            buckets[(h & 0xffff) as usize] += 1;
            tags[(h >> 57) as usize] += 1;
        }
        let bucket_mean = hashes.len() as f64 / buckets.len() as f64;
        let tag_mean = hashes.len() as f64 / tags.len() as f64;
        (
            *buckets.iter().max().expect("non-empty") as f64 / bucket_mean,
            *tags.iter().min().expect("non-empty") as f64 / tag_mean,
            *tags.iter().max().expect("non-empty") as f64 / tag_mean,
        )
    }

    #[test]
    fn simulator_key_families_spread_like_uniform() {
        // 2^19 keys per family: mean bucket load 8, mean tag load 4096.
        // A uniform random function gives a fullest bucket of about 2.8x
        // the mean at this size and tag loads within 6% of the mean; a
        // multiplicative hash of regular keys is more even than that.
        // Every family the simulator produces must stay within 2x on
        // buckets and within 5% on tags (measured: <= 1.5x, <= 0.7%).
        const N: u64 = 1 << 19;
        let page = |space: u32, no: u64| hash_of((space, no));
        let mut families: Vec<(String, Vec<u64>)> = vec![
            (
                "sequential page_no".into(),
                (0..N).map(|i| page(0, i)).collect(),
            ),
            (
                "stride-64 extent starts".into(),
                (0..N).map(|i| page(0, i * 64)).collect(),
            ),
            (
                "(space 0..8, page_no) pairs".into(),
                (0..N).map(|i| page((i % 8) as u32, i / 8)).collect(),
            ),
            (
                "ClassId app x template grid".into(),
                // (app: u32, template: u32), 512 apps x 1024 templates.
                (0..N)
                    .map(|i| hash_of(((i / 1024) as u32, (i % 1024) as u32)))
                    .collect(),
            ),
            (
                "ClassId::as_u64 consumer keys".into(),
                (0..N)
                    .map(|i| hash_of(((i / 1024) << 32) | (i % 1024)))
                    .collect(),
            ),
        ];
        for k in [1u32, 4, 8, 12, 16, 20] {
            families.push((
                format!("stride-2^{k} page_no"),
                (0..N).map(|i| page(0, i << k)).collect(),
            ));
        }
        for (name, hashes) in &families {
            let (bucket_max, tag_min, tag_max) = spread(hashes);
            assert!(
                bucket_max <= 2.0,
                "{name}: fullest low-16-bit bucket holds {bucket_max:.2}x the mean"
            );
            assert!(
                tag_min >= 0.95 && tag_max <= 1.05,
                "{name}: control-tag loads span {tag_min:.2}x..{tag_max:.2}x the mean"
            );
        }
    }
}
