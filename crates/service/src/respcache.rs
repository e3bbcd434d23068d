//! Sharded content-hash-keyed LRU response cache.
//!
//! Every analysis endpoint is a pure function of its request body (seeds
//! are part of the payload; nothing is time- or scheduling-dependent), so
//! identical payloads can be answered from cache byte-for-byte. The shape
//! follows `ParseCache` in `sbomdiff-generators`: 16 mutex-guarded shards
//! selected by key hash, with hit/miss counters feeding `/metrics`.
//!
//! The key is 128 bits: two domain-separated 64-bit halves of std's
//! SipHash-1-3 ([`DefaultHasher::new`]) over `path + NUL + body`, computed
//! once per request by the reactor (DESIGN.md §18). Its fixed keys make a
//! key, its shard and the LRU order repeat from run to run of one build;
//! the key never leaves the process. A false hit needs both halves to
//! collide at once, which is negligible at service cache sizes for
//! accidental collisions (fixed keys give no protection against crafted
//! ones; the service listens on 127.0.0.1 only). Even then the cache only
//! stores deterministic responses, so a collision could serve another
//! valid response, never corrupt state.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::http::Response;

const SHARDS: usize = 16;

/// A cached response plus its preserialized wire bytes.
///
/// The wire form is serialized once, at insertion, in the *persistent*
/// framing (no `Connection` header — the HTTP/1.1 default; see
/// [`Response::serialize`]). A keep-alive cache hit is then answered by
/// queueing a clone of the shared slice: the hot path allocates nothing and
/// copies nothing. Only a hit on a closing connection (explicit
/// `Connection: close`) pays for an owned re-serialization.
pub struct CacheEntry {
    /// The structured response (batch sub-requests and closing connections
    /// read status/body from here).
    pub response: Response,
    /// The persistent-form wire bytes written zero-copy on keep-alive hits.
    pub wire: Arc<[u8]>,
}

impl CacheEntry {
    /// Builds the entry, preserializing the wire bytes.
    pub fn new(response: Response) -> CacheEntry {
        let wire = response.serialize_shared();
        CacheEntry { response, wire }
    }
}

struct Entry {
    entry: Arc<CacheEntry>,
    last_used: u64,
}

struct Shard {
    entries: HashMap<u128, Entry>,
    tick: u64,
}

/// A bounded LRU cache of successful responses.
pub struct ResponseCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResponseCache {
    /// A cache holding roughly `capacity` responses (spread over 16
    /// shards; each shard keeps at least one entry).
    pub fn new(capacity: usize) -> Self {
        ResponseCache {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        tick: 0,
                    })
                })
                .collect(),
            per_shard_cap: capacity.div_ceil(SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The cache key for a request: SipHash-1-3 of `path + NUL + body`,
    /// once per half, each half behind its own leading domain byte.
    pub fn key(path: &str, body: &[u8]) -> u128 {
        let half = |domain: u8| {
            let mut hasher = DefaultHasher::new();
            hasher.write_u8(domain);
            hasher.write(path.as_bytes());
            hasher.write_u8(0);
            hasher.write(body);
            hasher.finish()
        };
        ((half(1) as u128) << 64) | half(0) as u128
    }

    /// Looks up a cached response, bumping its recency.
    pub fn get(&self, key: u128) -> Option<Arc<CacheEntry>> {
        let mut shard = self.shard(key).lock().expect("response cache shard");
        shard.tick += 1;
        let tick = shard.tick;
        match shard.entries.get_mut(&key) {
            Some(entry) => {
                entry.last_used = tick;
                let found = Arc::clone(&entry.entry);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(found)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a response, evicting the least-recently-used entry of the
    /// shard when it is full.
    pub fn put(&self, key: u128, entry: Arc<CacheEntry>) {
        let mut shard = self.shard(key).lock().expect("response cache shard");
        shard.tick += 1;
        let tick = shard.tick;
        if shard.entries.len() >= self.per_shard_cap && !shard.entries.contains_key(&key) {
            if let Some(oldest) = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                shard.entries.remove(&oldest);
            }
        }
        shard.entries.insert(
            key,
            Entry {
                entry,
                last_used: tick,
            },
        );
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hit ratio over all lookups (0 when none happened yet).
    pub fn hit_ratio(&self) -> f64 {
        let hits = self.hits() as f64;
        let total = hits + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }

    /// Total cached responses.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("response cache shard").entries.len())
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard(&self, key: u128) -> &Mutex<Shard> {
        &self.shards[key as usize % SHARDS]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(tag: &str) -> Arc<CacheEntry> {
        Arc::new(CacheEntry::new(Response::json(
            200,
            format!("{{\"tag\":\"{tag}\"}}"),
        )))
    }

    #[test]
    fn distinct_payloads_get_distinct_keys() {
        let a = ResponseCache::key("/v1/diff", b"{\"a\":1}");
        let b = ResponseCache::key("/v1/diff", b"{\"a\":2}");
        let c = ResponseCache::key("/v1/analyze", b"{\"a\":1}");
        assert_ne!(a, b);
        assert_ne!(a, c);
        // The NUL separator keeps the path/body boundary in the key.
        assert_ne!(
            ResponseCache::key("/v1/dif", b"fx"),
            ResponseCache::key("/v1/diff", b"x")
        );
        assert_eq!(a, ResponseCache::key("/v1/diff", b"{\"a\":1}"));
    }

    #[test]
    fn hit_after_put() {
        let cache = ResponseCache::new(8);
        let key = ResponseCache::key("/v1/diff", b"x");
        assert!(cache.get(key).is_none());
        cache.put(key, resp("one"));
        let found = cache.get(key).expect("hit");
        assert_eq!(found.response.body, resp("one").response.body);
        // The preserialized wire bytes match the persistent serialization.
        assert_eq!(&*found.wire, found.response.serialize(false).as_slice());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!((cache.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_evicts_oldest_within_shard() {
        // Single-entry shards: every insertion evicts the previous tenant
        // of its shard, and the recently-used key must survive its shard.
        let cache = ResponseCache::new(1);
        let keys: Vec<u128> = (0..64u8)
            .map(|i| ResponseCache::key("/v1/analyze", &[i]))
            .collect();
        for (i, &k) in keys.iter().enumerate() {
            cache.put(k, resp(&i.to_string()));
        }
        assert!(cache.len() <= 16, "len={}", cache.len());
        // The last-inserted key's shard holds exactly that key.
        assert!(cache.get(*keys.last().unwrap()).is_some());
    }

    #[test]
    fn keys_spread_over_every_shard() {
        // One entry per shard: 400 distinct keys must land in all 16
        // shards, so the cache ends up holding 16 responses.
        let cache = ResponseCache::new(16);
        for i in 0..400u32 {
            cache.put(
                ResponseCache::key("/v1/analyze", &i.to_le_bytes()),
                resp(&i.to_string()),
            );
        }
        assert_eq!(cache.len(), 16);
    }

    #[test]
    fn recency_protects_hot_entries() {
        // Two entries per shard: a hot key touched before every insertion
        // is never the LRU of its shard, so evictions always pick a cold
        // neighbor and the hot entry survives arbitrarily many inserts.
        let cache = ResponseCache::new(32);
        let hot = ResponseCache::key("/v1/diff", b"hot");
        cache.put(hot, resp("hot"));
        for i in 0..255u8 {
            assert!(cache.get(hot).is_some(), "hot evicted after {i} inserts");
            cache.put(ResponseCache::key("/v1/diff", &[i]), resp("cold"));
        }
        assert!(cache.get(hot).is_some());
        assert!(cache.len() <= 32, "len={}", cache.len());
    }

    #[test]
    fn shared_across_threads() {
        let cache = std::sync::Arc::new(ResponseCache::new(64));
        let key = ResponseCache::key("/healthz", b"");
        cache.put(key, resp("ok"));
        let results = sbomdiff_parallel::par_map(4, &[0u8; 16], |_, _| {
            cache.get(key).map(|r| r.response.body.clone())
        });
        for r in results {
            assert_eq!(r, Some(resp("ok").response.body.clone()));
        }
        assert_eq!(cache.hits(), 16);
    }
}
