//! String interning for the hot differential-analysis path.
//!
//! The four-profile pipeline materializes the same package names, version
//! spellings, paths and PURL fragments thousands of times per corpus run:
//! every emulator clones them into its own [`Component`](crate::Component),
//! the diff layer clones them again into key sets, and the service clones
//! them once more into response documents. [`Symbol`] collapses all of
//! those copies into one shared allocation per distinct string — a clone is
//! an `Arc` refcount bump, equality usually short-circuits on pointer
//! identity, and ids are content-derived so they are byte-stable for any
//! worker count (`--jobs 1` and `--jobs 8` intern to identical ids).
//!
//! Two entry points:
//!
//! * [`intern`] — the process-global pool used by `Component` and `Purl`
//!   construction. Sharded (16 mutexes by content hash) so the parallel
//!   `(repository × tool)` fan-out contends only on same-shard collisions.
//! * [`Interner`] — an explicit pool for tests and tools that want an
//!   isolated lifetime.
//!
//! The global pool is capacity-bounded: once a shard holds
//! [`SHARD_CAP`] distinct strings, further strings are returned un-pooled
//! (still a valid `Symbol`, just not deduplicated) so a long-running
//! service ingesting adversarial payloads cannot grow the pool without
//! bound. Determinism is unaffected — pooling only changes sharing, never
//! content or ids.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// 64-bit FNV-1a as a [`Hasher`]: deterministic across runs, threads and
/// platforms, unlike std's randomly keyed default. The interner's shard
/// sets use it because pooled strings are short (package names, versions,
/// paths) and the pool is capacity-bounded, so collision flooding cannot
/// grow it; other crates use it for seeds, ids and digests that must repeat
/// bit for bit.
///
/// Feed bytes with [`Hasher::write`]: `Hash::hash` on a `str` also writes a
/// terminator byte, which changes the value.
///
/// # Examples
///
/// ```
/// use std::hash::Hasher;
/// use sbomdiff_types::intern::{fnv1a, Fnv1a};
///
/// let mut h = Fnv1a::default();
/// h.write(b"num");
/// h.write(b"py");
/// assert_eq!(h.finish(), fnv1a(b"numpy"));
/// ```
#[derive(Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    #[inline]
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`Fnv1a`] of one byte string.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// Entries retained per shard of the global pool (16 shards, so ~1M
/// distinct strings total) before new strings stop being pooled.
pub const SHARD_CAP: usize = 65_536;

const SHARDS: usize = 16;

/// An interned, immutable, cheaply-cloneable string.
///
/// Dereferences to `str`, compares and hashes by content (with a pointer
/// fast path), and orders lexicographically — a drop-in for the `String`
/// fields it replaced in [`Component`](crate::Component).
///
/// # Examples
///
/// ```
/// use sbomdiff_types::intern::{intern, Symbol};
///
/// let a: Symbol = intern("requests");
/// let b: Symbol = "requests".into();
/// assert_eq!(a, b);
/// assert_eq!(a.id(), b.id()); // content-derived, thread-count independent
/// assert_eq!(&*a, "requests");
/// ```
#[derive(Clone)]
pub struct Symbol(Arc<str>);

impl Symbol {
    /// The string content.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// A content-derived 64-bit id (FNV-1a). Deterministic across runs,
    /// threads and interner instances: the same string always yields the
    /// same id, which is what lets parallel pipelines intern concurrently
    /// without coordinating id assignment.
    pub fn id(&self) -> u64 {
        fnv1a(self.0.as_bytes())
    }

    /// Whether two symbols share one allocation (deduplicated by a pool).
    pub fn ptr_eq(a: &Symbol, b: &Symbol) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Default for Symbol {
    fn default() -> Self {
        // Cached: every `Component` without a source path asks for the
        // empty symbol, which should not cost a pool round trip.
        static EMPTY: OnceLock<Symbol> = OnceLock::new();
        EMPTY.get_or_init(|| intern("")).clone()
    }
}

impl std::ops::Deref for Symbol {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Symbol {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Symbol) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for Symbol {}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Symbol) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Symbol) -> std::cmp::Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            std::cmp::Ordering::Equal
        } else {
            self.0.cmp(&other.0)
        }
    }
}

impl Hash for Symbol {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Must agree with `Borrow<str>`: hash exactly as `str` does.
        (*self.0).hash(state)
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<String> for Symbol {
    fn eq(&self, other: &String) -> bool {
        &*self.0 == other.as_str()
    }
}

impl PartialEq<Symbol> for str {
    fn eq(&self, other: &Symbol) -> bool {
        self == &*other.0
    }
}

impl PartialEq<Symbol> for &str {
    fn eq(&self, other: &Symbol) -> bool {
        *self == &*other.0
    }
}

impl PartialEq<Symbol> for String {
    fn eq(&self, other: &Symbol) -> bool {
        self.as_str() == &*other.0
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        intern(&s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        intern(s)
    }
}

impl From<&Symbol> for Symbol {
    fn from(s: &Symbol) -> Symbol {
        s.clone()
    }
}

impl From<Symbol> for String {
    fn from(s: Symbol) -> String {
        s.0.to_string()
    }
}

impl From<&Symbol> for String {
    fn from(s: &Symbol) -> String {
        s.0.to_string()
    }
}

/// An explicit interning pool (the global [`intern`] uses one internally).
///
/// Sharded by content hash; safe to share across threads.
pub struct Interner {
    shards: Vec<Mutex<HashSet<Arc<str>, BuildHasherDefault<Fnv1a>>>>,
    cap_per_shard: usize,
}

impl Default for Interner {
    fn default() -> Self {
        Interner::new()
    }
}

impl Interner {
    /// A pool with the default per-shard capacity.
    pub fn new() -> Interner {
        Interner::with_capacity(SHARD_CAP)
    }

    /// A pool retaining at most `cap_per_shard` strings per shard; beyond
    /// that, symbols are returned un-pooled.
    pub fn with_capacity(cap_per_shard: usize) -> Interner {
        Interner {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(HashSet::default()))
                .collect(),
            cap_per_shard,
        }
    }

    /// Interns `s`: returns the pooled symbol, inserting on first sight.
    pub fn intern(&self, s: &str) -> Symbol {
        let shard = &self.shards[(fnv1a(s.as_bytes()) % SHARDS as u64) as usize];
        // A poisoned shard means another worker panicked mid-insert; the
        // set itself is still coherent, so recover instead of cascading.
        let mut set = shard.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(found) = set.get(s) {
            return Symbol(Arc::clone(found));
        }
        let arc: Arc<str> = Arc::from(s);
        if set.len() < self.cap_per_shard {
            set.insert(Arc::clone(&arc));
        }
        Symbol(arc)
    }

    /// Distinct strings currently pooled.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Interns `s` in the process-global pool.
pub fn intern(s: &str) -> Symbol {
    static GLOBAL: OnceLock<Interner> = OnceLock::new();
    GLOBAL.get_or_init(Interner::new).intern(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_identity() {
        let s = intern("numpy");
        assert_eq!(s.as_str(), "numpy");
        assert_eq!(s, "numpy");
        assert_eq!("numpy", s);
        assert_eq!(s, "numpy".to_string());
        assert_eq!(s.to_string(), "numpy");
        let t = intern("numpy");
        assert!(Symbol::ptr_eq(&s, &t), "global pool must deduplicate");
        assert_eq!(s.id(), t.id());
    }

    #[test]
    fn ordering_and_hashing_match_str() {
        let mut v = vec![intern("b"), intern("a"), intern("c")];
        v.sort();
        assert_eq!(v, vec![intern("a"), intern("b"), intern("c")]);
        let mut set = std::collections::HashSet::new();
        set.insert(intern("x"));
        // Borrow<str> lookups work like String's.
        assert!(set.contains("x"));
        assert!(!set.contains("y"));
    }

    #[test]
    fn capacity_bound_stops_pooling_not_correctness() {
        let pool = Interner::with_capacity(1);
        let mut symbols = Vec::new();
        for i in 0..64 {
            symbols.push(pool.intern(&format!("pkg-{i}")));
        }
        assert!(pool.len() <= SHARDS, "at most one retained entry per shard");
        // Un-pooled symbols still behave correctly.
        let again = pool.intern("pkg-63");
        assert_eq!(again, symbols[63]);
        assert_eq!(again.id(), symbols[63].id());
    }

    #[test]
    fn fnv1a_matches_published_vectors() {
        // FNV-1a 64-bit reference values: seeds, LSH buckets, serial
        // numbers and digests derived from it depend on every bit.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn default_is_empty_string() {
        assert_eq!(Symbol::default(), "");
        assert_eq!(String::from(Symbol::default()), "");
    }
}
