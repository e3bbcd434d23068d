//! One sharded, cost-bounded LRU cache.
//!
//! sbomdiff memoizes two kinds of answers that many callers ask for at
//! once: whole HTTP responses (`sbomdiff-service`) and per-package
//! advisory slices (`sbomdiff-vuln`). [`Sharded`] holds both. Each caller
//! chooses its key and what an entry costs (bytes, or 1 per response); the
//! cache owns everything else:
//!
//! * **Shards.** 16 mutexes, picked by std's SipHash of the key (fixed
//!   keys, so a key lands in the same shard on every run of one build).
//!   Parallel workers contend only when they touch the same shard at once.
//! * **Budget.** Every insert charges its cost against its shard's share
//!   of the capacity; an over-budget shard evicts its least-recently-used
//!   entries until it fits. A lone entry larger than the whole share stays
//!   (there is nothing useful to evict it for).
//! * **Poison.** A poisoned shard is recovered, not propagated: the cost
//!   tally is settled right after each map update, and the only caller
//!   code run under a shard lock is the key's `Hash`/`Eq` and the value's
//!   `Clone`/`Drop`. The response cache probes from the reactor thread,
//!   which must not die with a worker.
//! * **Stats.** One [`CacheStats`] snapshot of hits, misses and evictions,
//!   which `/metrics` renders the same way for every cache.
//!
//! Nothing expires: a cache whose answers can go stale keys them on what
//! they were computed from, so a changed source gets new keys and the old
//! entries age out under the budget.

use std::collections::HashMap;
use std::fmt;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

const SHARDS: usize = 16;

/// Counter snapshot of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a cached entry.
    pub hits: u64,
    /// Lookups that found no entry (the caller computes the answer).
    pub misses: u64,
    /// Entries dropped to keep a shard within its budget.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits over all lookups (0 when none happened yet).
    pub fn hit_ratio(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits, {} misses, {} evictions",
            self.hits, self.misses, self.evictions
        )
    }
}

struct Slot<V> {
    value: V,
    cost: usize,
    last_used: u64,
}

struct Shard<K, V> {
    map: HashMap<K, Slot<V>>,
    /// Sum of `cost` over `map`. It must stay exact across insert, replace
    /// and eviction, or the shard's eviction pressure drifts from
    /// what it actually holds.
    cost: usize,
    /// Recency clock: bumped by every lookup and insert under the lock.
    tick: u64,
}

impl<K: Hash + Eq + Clone, V> Shard<K, V> {
    /// Removes `key`, debiting its cost before its value is dropped.
    fn remove(&mut self, key: &K) -> bool {
        match self.map.remove(key) {
            Some(slot) => {
                self.cost -= slot.cost;
                true
            }
            None => false,
        }
    }
}

/// A sharded cache from `K` to cheaply cloned `V` (usually an `Arc`).
///
/// # Examples
///
/// ```
/// use sbomdiff_types::cache::Sharded;
///
/// // Budget of 64 cost units spread over 16 shards.
/// let cache: Sharded<&str, u32> = Sharded::new(64);
/// assert_eq!(cache.get(&"a"), None);
/// cache.insert("a", 1, 1);
/// assert_eq!(cache.get(&"a"), Some(1));
/// let stats = cache.stats();
/// assert_eq!((stats.hits, stats.misses), (1, 1));
/// ```
pub struct Sharded<K, V> {
    shards: [Mutex<Shard<K, V>>; SHARDS],
    /// Per-shard share of the capacity.
    budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> Sharded<K, V> {
    /// An empty cache holding about `capacity` cost units (split evenly
    /// over the shards, each keeping at least one unit).
    pub fn new(capacity: usize) -> Self {
        Sharded {
            shards: std::array::from_fn(|_| {
                Mutex::new(Shard {
                    map: HashMap::new(),
                    cost: 0,
                    tick: 0,
                })
            }),
            budget: capacity.div_ceil(SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The value under `key`, marking it most recently used. Counts a hit
    /// or a miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut guard = self.shard(key);
        let shard = &mut *guard;
        shard.tick += 1;
        let found = shard.map.get_mut(key).map(|slot| {
            slot.last_used = shard.tick;
            slot.value.clone()
        });
        drop(guard);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Stores `value` under `key` at `cost`, replacing any previous value,
    /// then evicts least-recently-used entries of the shard until it fits
    /// its budget (never the entry just stored).
    pub fn insert(&self, key: K, value: V, cost: usize) {
        let mut guard = self.shard(&key);
        let shard = &mut *guard;
        shard.tick += 1;
        let slot = Slot {
            value,
            cost,
            last_used: shard.tick,
        };
        // Debit a replaced entry before crediting the new one: crediting
        // alone inflates the tally on every overwrite, and the phantom cost
        // then evicts live entries long before the shard is full.
        let outgoing = shard.map.insert(key, slot);
        shard.cost = shard.cost - outgoing.as_ref().map_or(0, |old| old.cost) + cost;
        drop(outgoing);
        let mut evicted = 0;
        while shard.cost > self.budget && shard.map.len() > 1 {
            let Some(victim) = shard
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(key, _)| key.clone())
            else {
                break;
            };
            evicted += u64::from(shard.remove(&victim));
        }
        drop(guard);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).map.len()).sum()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accounted cost held across all shards.
    pub fn cost(&self) -> usize {
        self.shards.iter().map(|s| lock(s).cost).sum()
    }

    /// The configured capacity, rounded up to whole per-shard budgets.
    pub fn capacity(&self) -> usize {
        self.budget * SHARDS
    }

    fn shard(&self, key: &K) -> MutexGuard<'_, Shard<K, V>> {
        lock(&self.shards[shard_index(key)])
    }
}

/// The shard `key` lives in: std's SipHash of the key, with fixed keys.
fn shard_index<K: Hash>(key: &K) -> usize {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    hasher.finish() as usize % SHARDS
}

/// Locks a shard, recovering it if a panicking thread poisoned it (see the
/// module docs for why the shard is still consistent).
fn lock<T>(shard: &Mutex<T>) -> MutexGuard<'_, T> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    /// Re-derives every shard's tally from its entries.
    fn assert_tally_exact<K, V>(cache: &Sharded<K, V>) {
        for shard in &cache.shards {
            let shard = shard.lock().unwrap();
            let sum: usize = shard.map.values().map(|slot| slot.cost).sum();
            assert_eq!(sum, shard.cost, "shard tally must match its entries");
        }
    }

    #[test]
    fn replace_debits_outgoing_entry_bytes() {
        // Regression: overwriting an existing key (racing duplicate fills)
        // must subtract the old entry's cost. With credit-only accounting
        // the tally drifts up by the old cost on every overwrite and the
        // shard evicts while half empty.
        let cache: Sharded<&str, u32> = Sharded::new(1 << 20);
        cache.insert("a", 0, 1000);
        assert_eq!(cache.cost(), 1000);
        for round in 1..50 {
            cache.insert("a", round, 1000);
            assert_eq!(cache.cost(), 1000, "replace must not drift at {round}");
        }
        // Replacement with a different cost settles on the new cost alone.
        cache.insert("a", 50, 400);
        assert_eq!(cache.cost(), 400);
        cache.insert("a", 51, 1200);
        assert_eq!(cache.cost(), 1200);
        assert_eq!((cache.len(), cache.get(&"a")), (1, Some(51)));
        assert_tally_exact(&cache);
    }

    #[test]
    fn churning_one_key_keeps_capacity_stable() {
        // One path, ever-changing content: every revision is a distinct
        // key, so a long-lived cache would grow without bound were the
        // budget not enforced.
        let cache: Sharded<String, Arc<str>> = Sharded::new(16 * 1024);
        for i in 0..400 {
            let content = format!("pkg{i}==1.0.{i}\n{}\n", "x".repeat(100));
            let cost = content.len() + 64;
            cache.insert(format!("requirements.txt@{i}"), content.into(), cost);
            assert!(
                cache.cost() <= cache.capacity(),
                "over budget at revision {i}: {} > {}",
                cache.cost(),
                cache.capacity()
            );
        }
        assert!(
            cache.stats().evictions > 0,
            "churn past the budget must evict"
        );
        assert!(cache.len() < 400, "stale revisions must not accumulate");
        assert_eq!(cache.stats().evictions, 400 - cache.len() as u64);
        assert_tally_exact(&cache);
    }

    #[test]
    fn recently_used_entries_survive_eviction() {
        let cache: Sharded<String, u32> = Sharded::new(8 * 1024);
        cache.insert("hot".into(), 0, 100);
        for i in 0..200 {
            cache.insert(format!("cold{i}"), i, 180);
            // Touch the hot entry each round so its recency stays fresh.
            assert_eq!(cache.get(&"hot".into()), Some(0), "hot evicted at {i}");
        }
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn lone_oversized_entry_stays_until_a_neighbor_arrives() {
        // Budget 100 per shard; one entry costs fifty times that.
        let cache: Sharded<u32, u32> = Sharded::new(16 * 100);
        cache.insert(0, 0, 5000);
        assert_eq!(cache.get(&0), Some(0), "a lone entry is never evicted");
        assert_eq!(cache.stats().evictions, 0);
        // A small neighbor in the same shard pushes the oversized (least
        // recently used) entry out, and fits on its own.
        let neighbor = (1..).find(|k| shard_index(k) == shard_index(&0)).unwrap();
        cache.insert(neighbor, 1, 10);
        assert_eq!(cache.get(&0), None);
        assert_eq!(cache.get(&neighbor), Some(1));
        assert_eq!((cache.cost(), cache.stats().evictions), (10, 1));
    }

    #[test]
    fn concurrent_gets_and_inserts_keep_counts_and_tallies() {
        // Eight threads released together, each filling and probing an
        // overlapping key range over a budget small enough to evict.
        const THREADS: usize = 8;
        const OPS: u64 = 500;
        let cache: Sharded<u64, Arc<u64>> = Sharded::new(16 * 40);
        let start = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS as u64 {
                let (cache, start) = (&cache, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..OPS {
                        let key = (t * 7 + i) % 300;
                        match cache.get(&key) {
                            // A value is only ever stored under its own key.
                            Some(value) => assert_eq!(*value, key),
                            None => cache.insert(key, Arc::new(key), 1 + key as usize % 5),
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, THREADS as u64 * OPS);
        assert!(stats.evictions > 0);
        assert!(cache.cost() <= cache.capacity());
        assert_tally_exact(&cache);
    }

    #[test]
    fn poisoned_shard_is_recovered() {
        let cache: Sharded<u32, u32> = Sharded::new(64);
        cache.insert(1, 1, 1);
        let shard = &cache.shards[shard_index(&1)];
        let _ = std::panic::catch_unwind(|| {
            let _guard = shard.lock().unwrap();
            panic!("worker dies holding the shard");
        });
        assert!(shard.is_poisoned());
        assert_eq!(cache.get(&1), Some(1));
        cache.insert(1, 2, 1);
        assert_eq!((cache.get(&1), cache.len()), (Some(2), 1));
    }

    #[test]
    fn stats_render_and_ratio() {
        let stats = CacheStats {
            hits: 1,
            misses: 2,
            evictions: 3,
        };
        assert!((stats.hit_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
        assert_eq!(stats.to_string(), "1 hits, 2 misses, 3 evictions");
    }
}
