//! A sharded concurrent memo table for pure-function results.
//!
//! The detector's `ClassificationCache` and `FeatureCache` both memoise
//! on this one implementation. Keys are placed on 16 (`MEMO_SHARDS`)
//! shards by the workspace's one shard-placement function,
//! [`eth_types::fx_shard`] (the Fx hash's middle bits — the same
//! placement `txgraph::CowMap` uses), and each shard's table is an
//! `FxHashMap`.
//!
//! Correctness argument: the memo only ever stores the
//! result of a *pure* function of its key (plus immutable context), so
//! the table's contents are independent of which worker computed an
//! entry first or in what order — parallel fills can never change what
//! any later read observes.
//!
//! Every shard keeps always-on hit/miss counters (relaxed atomics,
//! bumped while the shard lock is already held, so they are noise next
//! to the lock acquisition). [`ShardedMemo::stats`] aggregates them
//! with per-shard occupancy — the raw numbers behind the
//! `cache.*.hit`/`cache.*.miss` observability counters and the
//! `stats()` accessors of the classification and feature caches.

use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

use eth_types::{fx_shard, FxHashMap};
use parking_lot::RwLock;

/// Number of shards in every [`ShardedMemo`] (a power of two): enough
/// that parallel expansion workers rarely meet on one lock.
const MEMO_SHARDS: usize = 16;

/// Aggregated memo counters — see [`ShardedMemo::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups served from the table (`get_or_compute` and `get`).
    pub hits: u64,
    /// Lookups that found nothing (a `get_or_compute` miss computes and
    /// stores; a `get` miss just returns `None`).
    pub misses: u64,
    /// Memoised entries.
    pub entries: usize,
}

impl MemoStats {
    /// Hits as a fraction of all lookups (0.0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Shard<K, V> {
    map: RwLock<FxHashMap<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard {
            map: RwLock::new(FxHashMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

/// A sharded `RwLock<FxHashMap>` memo. `Sync` whenever `K`/`V` are
/// `Send + Sync`; readers on different shards never contend.
pub struct ShardedMemo<K, V> {
    shards: Vec<Shard<K, V>>,
}

impl<K: Hash + Eq, V: Clone> Default for ShardedMemo<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> std::fmt::Debug for ShardedMemo<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMemo").field("shards", &self.shards.len()).finish()
    }
}

impl<K: Hash + Eq, V: Clone> ShardedMemo<K, V> {
    /// An empty memo with `MEMO_SHARDS` shards.
    pub fn new() -> Self {
        ShardedMemo { shards: (0..MEMO_SHARDS).map(|_| Shard::default()).collect() }
    }

    #[inline]
    fn shard(&self, key: &K) -> &Shard<K, V> {
        &self.shards[fx_shard(key, MEMO_SHARDS - 1)]
    }

    /// Returns the memoised value for `key`, computing and storing it
    /// via `compute` on a miss. `compute` must be a pure function of
    /// `key` (and immutable captured context).
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let shard = self.shard(&key);
        if let Some(v) = shard.map.read().get(&key) {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return v.clone();
        }
        shard.misses.fetch_add(1, Ordering::Relaxed);
        let v = compute();
        // A racing worker may have filled the slot between our read and
        // write; both computed the same pure function, so either value
        // is correct — keep the first.
        shard.map.write().entry(key).or_insert_with(|| v.clone());
        v
    }

    /// Returns the memoised value without computing on a miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let shard = self.shard(key);
        let value = shard.map.read().get(key).cloned();
        match value {
            Some(_) => shard.hits.fetch_add(1, Ordering::Relaxed),
            None => shard.misses.fetch_add(1, Ordering::Relaxed),
        };
        value
    }

    /// Whether `key` has been memoised. Not counted as a hit or miss —
    /// the prewarm paths probe with `contains` before computing, and a
    /// probe-then-fill must count once, not twice.
    pub fn contains(&self, key: &K) -> bool {
        self.shard(key).map.read().contains_key(key)
    }

    /// Total number of memoised entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.map.read().len()).sum()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated hit/miss counters and occupancy.
    pub fn stats(&self) -> MemoStats {
        let mut stats = MemoStats::default();
        for shard in &self.shards {
            stats.hits += shard.hits.load(Ordering::Relaxed);
            stats.misses += shard.misses.load(Ordering::Relaxed);
            stats.entries += shard.map.read().len();
        }
        stats
    }

    /// Drops every entry and resets the counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.map.write().clear();
            shard.hits.store(0, Ordering::Relaxed);
            shard.misses.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::TxId;

    #[test]
    fn memoises_and_counts() {
        let memo: ShardedMemo<TxId, u64> = ShardedMemo::new();
        let mut calls = 0u32;
        let v = memo.get_or_compute(7, || {
            calls += 1;
            70
        });
        assert_eq!(v, 70);
        let v = memo.get_or_compute(7, || {
            calls += 1;
            99
        });
        assert_eq!(v, 70, "second call must hit the memo");
        assert_eq!(calls, 1);
        assert_eq!(memo.len(), 1);
        assert!(memo.contains(&7));
        assert_eq!(memo.get(&7), Some(70));
        memo.clear();
        assert!(memo.is_empty());
    }

    #[test]
    fn address_keys_memoise() {
        let memo: ShardedMemo<eth_types::Address, u8> = ShardedMemo::new();
        let a = eth_types::Address([9; 20]);
        memo.get_or_compute(a, || 1);
        assert_eq!(memo.get(&a), Some(1));
    }

    #[test]
    fn stats_track_hits_misses_and_occupancy() {
        let memo: ShardedMemo<TxId, u64> = ShardedMemo::new();
        assert_eq!(memo.stats(), MemoStats::default());

        memo.get_or_compute(0, || 1); // miss
        memo.get_or_compute(0, || 1); // hit
        memo.get_or_compute(1, || 2); // miss
        assert!(memo.contains(&0), "contains is not counted");
        assert_eq!(memo.get(&5), None); // miss
        let stats = memo.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.entries, 2);
        assert!((stats.hit_rate() - 0.25).abs() < 1e-12);

        memo.clear();
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
        assert_eq!(stats.hit_rate(), 0.0);
    }
}
