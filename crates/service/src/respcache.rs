//! Content-hash-keyed response cache.
//!
//! Every analysis endpoint is a pure function of its request body (seeds
//! are part of the payload; nothing is time- or scheduling-dependent), so
//! identical payloads can be answered from cache byte-for-byte. The cache
//! is the shared [`Sharded`] LRU, and every response costs 1, so
//! `--cache N` holds N responses; this module owns the key and the cached
//! entry's wire form.
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

use std::hash::{DefaultHasher, Hasher};
use std::sync::Arc;

use sbomdiff_types::Sharded;

use crate::http::{serialize_parts, Response};

/// The response cache: [`key`] to a shared [`CacheEntry`], at cost 1 per
/// response.
pub type ResponseCache = Sharded<u128, Arc<CacheEntry>>;

/// The cache key for a request: SipHash-1-3 of `path + NUL + body`, once
/// per half, each half behind its own leading domain byte.
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

/// A cached response, held once, as its preserialized wire bytes.
///
/// The wire form is serialized once, at insertion, in the *persistent*
/// framing (no `Connection` header — the HTTP/1.1 default; see
/// [`Response::serialize`]). A keep-alive cache hit is then answered by
/// queueing a clone of the shared slice: the hot path allocates nothing and
/// copies nothing. The body is read back as the tail of `wire` (batch
/// sub-request rows), and only a hit on a closing connection (explicit
/// `Connection: close`) pays for an owned re-serialization. A cached
/// response is never degraded: [`crate::api`] admits none.
pub struct CacheEntry {
    status: u16,
    content_type: &'static str,
    /// Where the body starts in `wire`.
    body_start: usize,
    /// The persistent-form wire bytes written zero-copy on keep-alive hits.
    pub wire: Arc<[u8]>,
}

impl CacheEntry {
    /// Builds the entry, preserializing the wire bytes.
    pub fn new(response: Response) -> CacheEntry {
        let wire = response.serialize_shared();
        CacheEntry {
            status: response.status,
            content_type: response.content_type,
            body_start: wire.len() - response.body.len(),
            wire,
        }
    }

    /// The response status.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// The response body: the tail of `wire`.
    pub fn body(&self) -> &[u8] {
        &self.wire[self.body_start..]
    }

    /// The wire bytes for a connection that closes after this response
    /// (`Response::serialize(true)` of the cached response).
    pub fn closing_wire(&self) -> Vec<u8> {
        serialize_parts(self.status, self.content_type, self.body(), true)
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
        let a = key("/v1/diff", b"{\"a\":1}");
        let b = key("/v1/diff", b"{\"a\":2}");
        let c = key("/v1/analyze", b"{\"a\":1}");
        assert_ne!(a, b);
        assert_ne!(a, c);
        // The NUL separator keeps the path/body boundary in the key.
        assert_ne!(key("/v1/dif", b"fx"), key("/v1/diff", b"x"));
        assert_eq!(a, key("/v1/diff", b"{\"a\":1}"));
    }

    #[test]
    fn hit_after_put() {
        let cache = ResponseCache::new(8);
        let key = key("/v1/diff", b"x");
        assert!(cache.get(&key).is_none());
        cache.insert(key, resp("one"), 1);
        let found = cache.get(&key).expect("hit");
        assert_eq!(found.body(), resp("one").body());
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
    }

    /// The entry holds the body once, as the tail of its wire bytes, and
    /// rebuilds both framings of the response it was built from.
    #[test]
    fn entry_keeps_one_copy_of_the_body() {
        for response in [
            Response::json(200, "{\"tag\":\"x\"}\n"),
            Response::text(200, "ok\n"),
            Response::json(200, ""),
        ] {
            let entry = CacheEntry::new(response.clone());
            let (body, wire) = (entry.body().as_ptr_range(), entry.wire.as_ptr_range());
            assert!(wire.start <= body.start && body.end == wire.end);
            assert_eq!(entry.body(), response.body.as_slice());
            assert_eq!(entry.status(), response.status);
            assert_eq!(&*entry.wire, response.serialize(false).as_slice());
            assert_eq!(entry.closing_wire(), response.serialize(true));
        }
    }

    #[test]
    fn lru_evicts_oldest_within_shard() {
        // Single-entry shards: every insertion evicts the previous tenant
        // of its shard, and the recently-used key must survive its shard.
        let cache = ResponseCache::new(1);
        let keys: Vec<u128> = (0..64u8).map(|i| key("/v1/analyze", &[i])).collect();
        for (i, &k) in keys.iter().enumerate() {
            cache.insert(k, resp(&i.to_string()), 1);
        }
        assert!(cache.len() <= 16, "len={}", cache.len());
        // The last-inserted key's shard holds exactly that key.
        assert!(cache.get(keys.last().unwrap()).is_some());
    }

    #[test]
    fn keys_spread_over_every_shard() {
        // One entry per shard: 400 distinct keys must land in all 16
        // shards, so the cache ends up holding 16 responses.
        let cache = ResponseCache::new(16);
        for i in 0..400u32 {
            let key = key("/v1/analyze", &i.to_le_bytes());
            cache.insert(key, resp(&i.to_string()), 1);
        }
        assert_eq!(cache.len(), 16);
    }

    #[test]
    fn recency_protects_hot_entries() {
        // Two entries per shard: a hot key touched before every insertion
        // is never the LRU of its shard, so evictions always pick a cold
        // neighbor and the hot entry survives arbitrarily many inserts.
        let cache = ResponseCache::new(32);
        let hot = key("/v1/diff", b"hot");
        cache.insert(hot, resp("hot"), 1);
        for i in 0..255u8 {
            assert!(cache.get(&hot).is_some(), "hot evicted after {i} inserts");
            cache.insert(key("/v1/diff", &[i]), resp("cold"), 1);
        }
        assert!(cache.get(&hot).is_some());
        assert!(cache.len() <= 32, "len={}", cache.len());
    }

    #[test]
    fn shared_across_threads() {
        let cache = std::sync::Arc::new(ResponseCache::new(64));
        let key = key("/healthz", b"");
        cache.insert(key, resp("ok"), 1);
        let results = sbomdiff_parallel::par_map(4, &[0u8; 16], |_, _| {
            cache.get(&key).map(|r| r.body().to_vec())
        });
        for r in results {
            assert_eq!(r.as_deref(), Some(resp("ok").body()));
        }
        assert_eq!(cache.stats().hits, 16);
    }
}
