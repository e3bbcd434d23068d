//! Shared memoized metadata-parse cache.
//!
//! Every studied tool walks the *same* repository metadata, so in the
//! differential pipeline each manifest used to be parsed four times — once
//! per emulator. [`ParseCache`] memoizes the parsed declarations keyed by
//! `(path, content hash, file kind, parser)`: the requirements dialect is
//! the only profile-dependent parser input, so Trivy and Syft — which share
//! the [`ReqStyle::TrivySyft`] dialect — also share cache entries, and
//! every other file kind is parsed exactly once no matter how many
//! emulators scan it.
//!
//! The key hashes the file *content*, not the repository name. Two
//! consequences:
//!
//! * A long-lived cache (the analysis service, corpus experiments) can be
//!   shared across repositories and requests: re-analyzing an unchanged
//!   manifest is a lookup, while a *mutated* file hashes to a different
//!   key and is re-parsed — a stale parse can never be served, even when
//!   two requests reuse one repository name.
//! * Identical manifests in different repositories (common in synthetic
//!   corpora and real monorepos) collapse into one parse.
//!
//! Storage, byte budget and LRU eviction are the shared [`Sharded`]
//! cache's; this module owns only the key, the cost of an entry (manifest
//! content plus path plus a fixed per-entry overhead) and the fault-plan
//! bypass. Its counters feed the `experiments` timing report and the
//! service's `/metrics`. The default budget is far above what any batch
//! run parses, so experiments see an effectively unbounded cache; the
//! long-lived service keeps a stable footprint instead of growing with
//! every distinct manifest it ever saw.

use std::hash::{DefaultHasher, Hasher};
use std::sync::Arc;

use sbomdiff_metadata::python::ReqStyle;
use sbomdiff_metadata::{MetadataKind, Parsed, RepoFs};
use sbomdiff_types::{CacheStats, Sharded};

/// Default cache budget. Generous: a whole calibrated corpus parses well
/// under this, so only the service's unbounded request stream ever evicts.
pub const DEFAULT_CAPACITY_BYTES: usize = 64 * 1024 * 1024;

/// Fixed accounting overhead per entry (key strings, map slot, `Arc`
/// bookkeeping) added to the manifest's content length.
const ENTRY_OVERHEAD: usize = 64;

/// Which parser family produced a cached entry. Emulator profiles use the
/// dialect parsers (parameterized by requirements style); the best-practice
/// generator uses the reference parsers, which accept strictly more syntax
/// — the two must never share entries for the same file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ParserKey {
    /// Tool-dialect parse; the `Option` is the requirements dialect
    /// (`None` for every kind other than `requirements.txt`, collapsing
    /// all profiles onto one entry).
    Dialect(Option<ReqStyle>),
    /// Reference (spec-faithful) parse for the best-practice generator.
    Reference,
}

impl ParserKey {
    /// Dense index for per-scan memo slots (see [`crate::ScanContext`]).
    pub(crate) fn slot(self) -> usize {
        match self {
            ParserKey::Dialect(None) => 0,
            ParserKey::Dialect(Some(ReqStyle::Pip)) => 1,
            ParserKey::Dialect(Some(ReqStyle::TrivySyft)) => 2,
            ParserKey::Dialect(Some(ReqStyle::SbomTool)) => 3,
            ParserKey::Dialect(Some(ReqStyle::GithubDg)) => 4,
            ParserKey::Reference => 5,
        }
    }

    /// Number of distinct [`ParserKey::slot`] values.
    pub(crate) const SLOTS: usize = 6;
}

/// `(path, content hash, file kind, parser)`.
type Key = (String, u64, MetadataKind, ParserKey);

/// Memoizes [`parse`](ParseCache::parse) results across tool emulators,
/// repositories and requests.
///
/// # Examples
///
/// ```
/// use sbomdiff_generators::{ParseCache, SbomGenerator, ToolEmulator};
/// use sbomdiff_metadata::RepoFs;
///
/// let mut repo = RepoFs::new("demo");
/// repo.add_text("requirements.txt", "numpy==1.19.2\n");
/// let cache = ParseCache::new();
/// let a = ToolEmulator::trivy().generate_with_cache(&repo, &cache);
/// let b = ToolEmulator::syft().generate_with_cache(&repo, &cache);
/// assert_eq!(a.len(), b.len());
/// // Trivy and Syft share the requirements dialect: one parse, one hit.
/// assert_eq!((cache.misses(), cache.hits()), (1, 1));
/// ```
pub struct ParseCache {
    entries: Sharded<Key, Arc<Parsed>>,
}

impl Default for ParseCache {
    fn default() -> Self {
        ParseCache::new()
    }
}

impl ParseCache {
    /// An empty cache with the default byte budget.
    pub fn new() -> Self {
        ParseCache {
            entries: Sharded::new(DEFAULT_CAPACITY_BYTES),
        }
    }

    /// Parses `path` of `repo` as `kind` under the `style` requirements
    /// dialect, memoized. The returned `Arc` is shared with every other
    /// caller asking for the same `(path, content, kind, dialect)`.
    pub fn parse(
        &self,
        repo: &RepoFs,
        path: &str,
        kind: MetadataKind,
        style: ReqStyle,
    ) -> Arc<Parsed> {
        // Only requirements.txt parsing is dialect-dependent; collapsing
        // the key for every other kind lets all four tools share one entry.
        let dialect = (kind == MetadataKind::RequirementsTxt).then_some(style);
        self.memoized(repo, path, kind, ParserKey::Dialect(dialect), || {
            crate::emulator::parse_with_style(repo, path, kind, style)
        })
    }

    /// Parses `path` of `repo` as `kind` with the *reference* parsers the
    /// best-practice generator uses, memoized separately from the dialect
    /// parses (the reference grammar accepts strictly more syntax).
    pub fn parse_reference(&self, repo: &RepoFs, path: &str, kind: MetadataKind) -> Arc<Parsed> {
        self.memoized(repo, path, kind, ParserKey::Reference, || {
            crate::bestpractice::parse_reference(repo, path, kind)
        })
    }

    fn memoized(
        &self,
        repo: &RepoFs,
        path: &str,
        kind: MetadataKind,
        parser: ParserKey,
        parse: impl FnOnce() -> Parsed,
    ) -> Arc<Parsed> {
        // Under an installed fault plan the cache is bypassed entirely:
        // keys hash clean content, so caching a faulted parse would let
        // corrupt results outlive the plan (and clean cached entries would
        // mask injected faults). Counted as a miss to keep stats honest.
        if sbomdiff_faultline::enabled() {
            self.entries.record_miss();
            return Arc::new(parse());
        }
        let content = repo.bytes(path).unwrap_or_default();
        let mut hasher = DefaultHasher::new();
        hasher.write(content);
        let key: Key = (path.to_string(), hasher.finish(), kind, parser);
        if let Some(parsed) = self.entries.get(&key) {
            return parsed;
        }
        // Parse outside the lock: other keys stay available and a racing
        // duplicate parse is deterministic anyway (the loser's result
        // replaces the winner's byte-identical one).
        let parsed = Arc::new(parse());
        let cost = content.len() + path.len() + ENTRY_OVERHEAD;
        self.entries.insert(key, Arc::clone(&parsed), cost);
        parsed
    }

    /// Records a reuse that was served from a scan-local memo instead of a
    /// shard lookup — still a shared parse avoided, so it counts as a hit.
    pub(crate) fn record_hit(&self) {
        self.entries.record_hit();
    }

    /// Cache hits so far (memoized parses reused).
    pub fn hits(&self) -> u64 {
        self.entries.stats().hits
    }

    /// Cache misses so far (actual parses performed).
    pub fn misses(&self) -> u64 {
        self.entries.stats().misses
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.entries.stats()
    }

    /// Total entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been parsed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SbomGenerator, ToolEmulator};

    fn repo() -> RepoFs {
        let mut repo = RepoFs::new("cache-demo");
        repo.add_text("requirements.txt", "numpy==1.19.2\nflask>=2.0\n");
        repo.add_text("go.mod", "module m\nrequire github.com/pkg/errors v0.9.1\n");
        repo
    }

    #[test]
    fn memoizes_per_dialect() {
        let repo = repo();
        let cache = ParseCache::new();
        let trivy = ToolEmulator::trivy();
        let syft = ToolEmulator::syft();
        let github = ToolEmulator::github_dg();
        trivy.generate_with_cache(&repo, &cache);
        syft.generate_with_cache(&repo, &cache);
        github.generate_with_cache(&repo, &cache);
        // requirements.txt: TrivySyft dialect parsed once (shared by two
        // tools) + GithubDg dialect once. go.mod: dialect-independent, one
        // parse shared by all supporting tools.
        assert_eq!(cache.misses(), 3);
        assert!(cache.hits() >= 2, "hits={}", cache.hits());
    }

    #[test]
    fn cached_scan_equals_uncached_scan() {
        let repo = repo();
        let cache = ParseCache::new();
        for tool in [
            ToolEmulator::trivy(),
            ToolEmulator::syft(),
            ToolEmulator::github_dg(),
        ] {
            let plain = tool.generate(&repo);
            let cached = tool.generate_with_cache(&repo, &cache);
            assert_eq!(plain, cached, "{}", tool.id());
        }
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let repo = repo();
        let cache = ParseCache::new();
        let sboms = sbomdiff_parallel::par_map(4, &[0u8; 8], |_, _| {
            ToolEmulator::trivy().generate_with_cache(&repo, &cache)
        });
        for sbom in &sboms {
            assert_eq!(sbom, &sboms[0]);
        }
        assert_eq!(cache.misses() + cache.hits(), 16, "2 files x 8 scans");
    }

    #[test]
    fn mutated_content_is_reparsed_not_served_stale() {
        // Same repository name, same path, different bytes: the content
        // hash in the key forces a fresh parse.
        let cache = ParseCache::new();
        let mut v1 = RepoFs::new("same-name");
        v1.add_text("requirements.txt", "numpy==1.19.2\n");
        let mut v2 = RepoFs::new("same-name");
        v2.add_text("requirements.txt", "numpy==1.25.0\n");
        let a = ToolEmulator::trivy().generate_with_cache(&v1, &cache);
        let b = ToolEmulator::trivy().generate_with_cache(&v2, &cache);
        assert_eq!(a.components()[0].version.as_deref(), Some("1.19.2"));
        assert_eq!(b.components()[0].version.as_deref(), Some("1.25.0"));
        assert_eq!(cache.misses(), 2, "mutated file must re-parse");
    }

    #[test]
    fn identical_content_shared_across_repositories() {
        // Different repository names, identical manifest bytes: one parse.
        let cache = ParseCache::new();
        let mut a = RepoFs::new("repo-a");
        a.add_text("requirements.txt", "numpy==1.19.2\n");
        let mut b = RepoFs::new("repo-b");
        b.add_text("requirements.txt", "numpy==1.19.2\n");
        ToolEmulator::trivy().generate_with_cache(&a, &cache);
        ToolEmulator::trivy().generate_with_cache(&b, &cache);
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
    }

    #[test]
    fn default_capacity_never_evicts_in_batch_scale_runs() {
        let cache = ParseCache::new();
        for i in 0..50 {
            let mut repo = RepoFs::new(format!("repo-{i}"));
            repo.add_text("requirements.txt", format!("pkg{i}==1.0.0\n"));
            repo.add_text("go.mod", format!("module m{i}\nrequire a.b/c v1.{i}.0\n"));
            ToolEmulator::trivy().generate_with_cache(&repo, &cache);
        }
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.len(), 100, "every parse of every repository stays");
    }

    #[test]
    fn reference_and_dialect_parses_do_not_share_entries() {
        let cache = ParseCache::new();
        let mut repo = RepoFs::new("split");
        repo.add_text("go.mod", "module m\nrequire github.com/pkg/errors v0.9.1\n");
        let dialect = cache.parse(&repo, "go.mod", MetadataKind::GoMod, ReqStyle::TrivySyft);
        let reference = cache.parse_reference(&repo, "go.mod", MetadataKind::GoMod);
        assert_eq!(cache.misses(), 2, "two parser families, two entries");
        assert!(!Arc::ptr_eq(&dialect, &reference));
    }
}
