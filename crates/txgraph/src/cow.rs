//! Copy-on-write sharded maps for incrementally-maintained state.
//!
//! The streaming pipeline retains large edge/vote/assembly maps across
//! block-window polls, and a deployed observatory needs two things from
//! them that a plain `HashMap` cannot give:
//!
//! * **O(shards) snapshots.** Cloning the holder (the bench harness, a
//!   future reader epoch in `daas-serve`) must not deep-copy the state.
//!   [`CowMap`] keeps its entries in a fixed power-of-two number of
//!   `Arc`-shared shards, so a clone copies shard *pointers* only.
//! * **O(delta) divergence.** After a clone, a write copies exactly the
//!   touched shard (`Arc::make_mut`); untouched shards stay structurally
//!   shared between the snapshot and the evolving state.
//!
//! Shard selection and the shard interiors use the workspace's one
//! deterministic hasher, [`eth_types::FxHasher`]: keys here are
//! keccak-derived addresses, tx ids and small integers — uniform and
//! attacker-free — so the rustc-style multiply-xor hash is both safe and
//! a few cycles per key. Placement is [`eth_types::fx_shard`], which
//! takes the hash's middle bits so shard-mates do not cluster in the
//! inner tables' buckets.
//!
//! Iteration order is unspecified (per-shard hash order). Every consumer
//! that emits artifacts sorts what it extracts — the same contract the
//! chain's Fx-hashed maps already follow.

use std::hash::Hash;
use std::sync::Arc;

use eth_types::{fx_shard, FxHashMap};

/// Shard count: enough that a post-snapshot write copies ~1.5% of the
/// entries, small enough that cloning stays a pointer memcpy.
const SHARDS: usize = 64;

/// An `Arc`-sharded copy-on-write hash map. See the module docs for the
/// cost model; the API is the `HashMap` subset the streaming state
/// machines need.
pub struct CowMap<K, V> {
    shards: Vec<Arc<FxHashMap<K, V>>>,
    len: usize,
}

impl<K, V> Clone for CowMap<K, V> {
    fn clone(&self) -> Self {
        CowMap { shards: self.shards.clone(), len: self.len }
    }
}

impl<K: std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for CowMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K, V> Default for CowMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> CowMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        CowMap { shards: (0..SHARDS).map(|_| Arc::new(FxHashMap::default())).collect(), len: 0 }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates all entries (unordered — consumers sort what they emit).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.shards.iter().flat_map(|s| s.iter())
    }

    /// Iterates all values (unordered).
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.shards.iter().flat_map(|s| s.values())
    }
}

impl<K: Hash + Eq + Clone, V: Clone> CowMap<K, V> {
    #[inline]
    fn shard_of(&self, key: &K) -> usize {
        fx_shard(key, SHARDS - 1)
    }

    /// Looks up a key.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.shards[self.shard_of(key)].get(key)
    }

    /// Membership test.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.shards[self.shard_of(key)].contains_key(key)
    }

    /// Mutable lookup. Copies the holding shard first if it is shared
    /// with a snapshot; absent keys never trigger a copy.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let si = self.shard_of(key);
        if !self.shards[si].contains_key(key) {
            return None;
        }
        Arc::make_mut(&mut self.shards[si]).get_mut(key)
    }

    /// Mutable access to the value at `key`, inserting `default()` when
    /// absent (the `entry(..).or_insert_with(..)` shape).
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let si = self.shard_of(&key);
        if !self.shards[si].contains_key(&key) {
            self.len += 1;
        }
        Arc::make_mut(&mut self.shards[si]).entry(key).or_insert_with(default)
    }

    /// Inserts `value` at `key`, returning the previous value.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let si = self.shard_of(&key);
        let prev = Arc::make_mut(&mut self.shards[si]).insert(key, value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Removes a key, returning its value. Absent keys never copy.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let si = self.shard_of(key);
        if !self.shards[si].contains_key(key) {
            return None;
        }
        let removed = Arc::make_mut(&mut self.shards[si]).remove(key);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// How many shards are physically shared with `other` (structural
    /// sharing introspection, used by tests and benches).
    pub fn shared_shards_with(&self, other: &Self) -> usize {
        self.shards
            .iter()
            .zip(&other.shards)
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }
}

/// An `Arc`-sharded copy-on-write hash set — [`CowMap`] with `()`
/// values.
#[derive(Debug, Clone, Default)]
pub struct CowSet<T> {
    map: CowMap<T, ()>,
}

impl<T> CowSet<T> {
    /// An empty set.
    pub fn new() -> Self {
        CowSet { map: CowMap::new() }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates members (unordered).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.map.iter().map(|(k, ())| k)
    }
}

impl<T: Hash + Eq + Clone> CowSet<T> {
    /// Inserts a member; `true` when it was new.
    pub fn insert(&mut self, value: T) -> bool {
        self.map.insert(value, ()).is_none()
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, value: &T) -> bool {
        self.map.contains_key(value)
    }

    /// Removes a member; `true` when it was present.
    pub fn remove(&mut self, value: &T) -> bool {
        self.map.remove(value).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_len() {
        let mut m: CowMap<u64, String> = CowMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(1, "a".into()), None);
        assert_eq!(m.insert(2, "b".into()), None);
        assert_eq!(m.insert(1, "c".into()), Some("a".into()));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&1).map(String::as_str), Some("c"));
        assert!(m.contains_key(&2));
        assert_eq!(m.remove(&1).as_deref(), Some("c"));
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn get_mut_edits_in_place() {
        let mut m: CowMap<u64, Vec<u64>> = CowMap::new();
        m.insert(7, vec![1]);
        m.get_mut(&7).unwrap().push(2);
        assert_eq!(m.get(&7), Some(&vec![1, 2]));
        assert_eq!(m.get_mut(&99), None);
    }

    #[test]
    fn clone_shares_structure_until_written() {
        let mut m: CowMap<u64, u64> = CowMap::new();
        for i in 0..1_000 {
            m.insert(i, i * 2);
        }
        let snapshot = m.clone();
        assert_eq!(m.shared_shards_with(&snapshot), 64, "clone copies no shard");

        m.insert(1_000, 0);
        let shared = m.shared_shards_with(&snapshot);
        assert_eq!(shared, 63, "one write diverges exactly one shard");
        // The snapshot still sees the pre-write state.
        assert_eq!(snapshot.len(), 1_000);
        assert!(!snapshot.contains_key(&1_000));
        assert_eq!(m.len(), 1_001);
    }

    #[test]
    fn read_paths_never_copy() {
        let mut m: CowMap<u64, u64> = CowMap::new();
        for i in 0..100 {
            m.insert(i, i);
        }
        let snapshot = m.clone();
        assert_eq!(m.get(&5), Some(&5));
        assert!(m.contains_key(&50));
        assert_eq!(m.get_mut(&12_345), None, "absent get_mut");
        assert_eq!(m.remove(&54_321), None, "absent remove");
        assert_eq!(m.shared_shards_with(&snapshot), 64);
    }

    #[test]
    fn get_or_insert_with_tracks_len() {
        let mut m: CowMap<u64, Vec<u64>> = CowMap::new();
        m.get_or_insert_with(3, Vec::new).push(1);
        m.get_or_insert_with(3, Vec::new).push(2);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&3), Some(&vec![1, 2]));
        m.get_or_insert_with(4, || vec![9]);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn iteration_covers_every_entry() {
        let mut m: CowMap<u64, u64> = CowMap::new();
        for i in 0..500 {
            m.insert(i, i + 1);
        }
        let mut entries: Vec<(u64, u64)> = m.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable();
        assert_eq!(entries.len(), 500);
        assert!(entries.iter().enumerate().all(|(i, &(k, v))| k == i as u64 && v == k + 1));
        assert_eq!(m.values().count(), 500);
    }

    #[test]
    fn set_behaves() {
        let mut s: CowSet<(u8, u64)> = CowSet::new();
        assert!(s.insert((1, 10)));
        assert!(!s.insert((1, 10)));
        assert!(s.contains(&(1, 10)));
        assert_eq!(s.len(), 1);
        let snap = s.clone();
        assert!(s.remove(&(1, 10)));
        assert!(!s.remove(&(1, 10)));
        assert!(s.is_empty());
        assert!(snap.contains(&(1, 10)), "snapshot unaffected by removal");
    }
}
