//! In-memory hash index over IMRS rows.
//!
//! "Table-specific non-logged, in-memory hash-indexes are built on top
//! of lock-free hash tables. Hash indexes span only in-memory rows and
//! provide a fast-path performance accelerator under unique BTree
//! indexes" (§II).
//!
//! This implementation uses fine-grained sharding (256 shards, each a
//! reader-writer-locked open hash table) rather than a fully lock-free
//! table: with 256 shards, the probability of two cores colliding on a
//! shard is negligible, and readers never block each other. The index
//! is non-logged and rebuilt from the IMRS after recovery, exactly as
//! the paper's non-logged hash indexes are.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

use parking_lot::RwLock;

use btrim_common::RowId;

const SHARDS: usize = 256;

/// FxHash-style hasher for byte keys, a word at a time, with a
/// finalizer (keys are engine-generated, HashDoS is not a concern
/// inside the engine). The finalizer spreads every input bit over the
/// whole word: the shard is picked from bits 32..40 and each shard's
/// table uses the low bits (and the top seven), so keys that share a
/// shard still spread over its buckets.
#[derive(Default, Clone, Copy)]
struct FxBuild;

struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // MurmurHash3's 64-bit finalizer.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut word = [0u8; 8];
            word.copy_from_slice(w);
            self.add(u64::from_le_bytes(word));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            // Zero-padded: the length prefix `[u8]` hashes first tells
            // the padding from key bytes.
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

impl BuildHasher for FxBuild {
    type Hasher = FxHasher;
    fn build_hasher(&self) -> FxHasher {
        FxHasher(0)
    }
}

/// Key bytes held inline up to this length (every TPC-C key), boxed
/// beyond it.
const INLINE_KEY: usize = 22;

/// A key as a shard's table stores it: no allocation of its own unless
/// it is longer than [`INLINE_KEY`]. It hashes and compares as its
/// bytes, so a table is probed with a borrowed `&[u8]`.
#[derive(PartialEq, Eq)]
enum Key {
    /// Length, then the bytes, zero-padded: equal keys are equal arrays.
    Inline(u8, [u8; INLINE_KEY]),
    Boxed(Box<[u8]>),
}

// A bucket is this plus a `RowId`, as it was with a `Vec<u8>` key.
const _: () = assert!(std::mem::size_of::<Key>() == 24);

impl Key {
    fn new(key: &[u8]) -> Key {
        let mut inline = [0u8; INLINE_KEY];
        match inline.get_mut(..key.len()) {
            Some(head) => {
                head.copy_from_slice(key);
                Key::Inline(key.len() as u8, inline)
            }
            None => Key::Boxed(key.into()),
        }
    }
}

impl Borrow<[u8]> for Key {
    fn borrow(&self) -> &[u8] {
        match self {
            Key::Inline(len, bytes) => &bytes[..*len as usize],
            Key::Boxed(bytes) => bytes,
        }
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        <Self as Borrow<[u8]>>::borrow(self).hash(state);
    }
}

type Shard = RwLock<HashMap<Key, RowId, FxBuild>>;

/// Unique hash index: key bytes → RowId. Spans only IMRS-resident rows.
pub struct HashIndex {
    shards: Vec<Shard>,
}

impl Default for HashIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl HashIndex {
    /// Create an empty index.
    pub fn new() -> Self {
        HashIndex {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(HashMap::with_hasher(FxBuild)))
                .collect(),
        }
    }

    /// The shard of a key whose table hash is `hash`: bits the shard's
    /// table does not use.
    #[inline]
    fn shard_of(hash: u64) -> usize {
        (hash >> 32) as usize % SHARDS
    }

    #[inline]
    fn shard(&self, key: &[u8]) -> &Shard {
        &self.shards[Self::shard_of(FxBuild.hash_one(key))]
    }

    /// Point lookup.
    #[inline]
    pub fn get(&self, key: &[u8]) -> Option<RowId> {
        self.shard(key).read().get(key).copied()
    }

    /// Insert / replace the mapping for `key`. Returns the previous
    /// RowId, if any.
    pub fn insert(&self, key: &[u8], rid: RowId) -> Option<RowId> {
        self.shard(key).write().insert(Key::new(key), rid)
    }

    /// Remove a mapping (row left the IMRS). Returns the removed RowId.
    pub fn remove(&self, key: &[u8]) -> Option<RowId> {
        self.shard(key).write().remove(key)
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Drop all entries (recovery rebuild).
    pub fn clear(&self) {
        for s in &self.shards {
            s.write().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn insert_get_remove() {
        let h = HashIndex::new();
        assert_eq!(h.get(b"k1"), None);
        assert_eq!(h.insert(b"k1", RowId(1)), None);
        assert_eq!(h.get(b"k1"), Some(RowId(1)));
        assert_eq!(h.insert(b"k1", RowId(2)), Some(RowId(1)));
        assert_eq!(h.remove(b"k1"), Some(RowId(2)));
        assert_eq!(h.get(b"k1"), None);
        assert!(h.is_empty());
    }

    #[test]
    fn many_keys_distribute() {
        let h = HashIndex::new();
        for i in 0..10_000u64 {
            h.insert(&i.to_be_bytes(), RowId(i));
        }
        assert_eq!(h.len(), 10_000);
        for i in (0..10_000u64).step_by(131) {
            assert_eq!(h.get(&i.to_be_bytes()), Some(RowId(i)));
        }
        let populated = h.shards.iter().filter(|s| !s.read().is_empty()).count();
        assert!(populated > SHARDS / 2);
    }

    /// TPC-C-shaped keys (big-endian warehouse, district, order, line)
    /// that share a shard still spread over their table's buckets: the
    /// low byte of the hash the table uses takes many values.
    #[test]
    fn keys_of_one_shard_spread_over_the_low_byte() {
        let mut low_bytes = vec![std::collections::HashSet::new(); SHARDS];
        for w in 1..=2u32 {
            for d in 1..=10u32 {
                for o in 1..=500u32 {
                    for ol in 1..=10u32 {
                        let key: Vec<u8> =
                            [w, d, o, ol].iter().flat_map(|v| v.to_be_bytes()).collect();
                        let hash = FxBuild.hash_one(key.as_slice());
                        low_bytes[HashIndex::shard_of(hash)].insert(hash as u8);
                    }
                }
            }
        }
        let fewest = low_bytes.iter().map(|s| s.len()).min().unwrap();
        assert!(fewest >= 64, "a shard's keys take {fewest} low-byte values");
    }

    #[test]
    fn keys_longer_than_the_inline_width_are_kept_whole() {
        let h = HashIndex::new();
        let (short, long) = ([7u8; INLINE_KEY], [7u8; INLINE_KEY + 1]);
        h.insert(&short, RowId(1));
        h.insert(&long, RowId(2));
        assert_eq!(h.get(&short), Some(RowId(1)));
        assert_eq!(h.get(&long), Some(RowId(2)));
        assert_eq!(h.get(&short[..3]), None);
        assert_eq!(h.remove(&long), Some(RowId(2)));
        assert_eq!(h.get(&short), Some(RowId(1)));
    }

    #[test]
    fn clear_empties_everything() {
        let h = HashIndex::new();
        for i in 0..100u64 {
            h.insert(&i.to_be_bytes(), RowId(i));
        }
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.get(&5u64.to_be_bytes()), None);
    }

    #[test]
    fn concurrent_mixed_workload() {
        let h = Arc::new(HashIndex::new());
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..2000u64 {
                        let key = (t * 1_000_000 + i).to_be_bytes();
                        h.insert(&key, RowId(i));
                        assert_eq!(h.get(&key), Some(RowId(i)));
                        if i % 2 == 0 {
                            h.remove(&key);
                        }
                    }
                })
            })
            .collect();
        for th in handles {
            th.join().unwrap();
        }
        assert_eq!(h.len(), 8 * 1000);
    }
}
