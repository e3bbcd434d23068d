//! The shared-scan pipeline: walk a repository once, parse each metadata
//! file once, let every generator derive its SBOM from the shared results.
//!
//! A [`ScanContext`] is the per-repository handle: it snapshots the
//! metadata file list (one walk) and hands out `Arc<Parsed>` results from
//! its own memo, one slot per file and parser (the requirements dialect
//! for `requirements.txt`, one dialect-free slot for every other kind, and
//! the reference grammar). The four emulator profiles and the best-practice
//! generator all scan through it — profile quirks (file support, dialects,
//! version policies, naming) are applied *after* the shared parse, as
//! transforms, so the Table II/IV toggles behave exactly as they do on the
//! isolated path. Nothing a scan parsed outlives it: sharing pays within
//! one repository, where the paper's four tools read the same files.
//!
//! Invariants (verified by `tests/shared_scan_props.rs`):
//!
//! * **One parse per file**: within one context, a metadata file is parsed
//!   exactly once per parser family (dialect vs reference) and
//!   requirements dialect, no matter how many profiles scan, or on how
//!   many threads.
//! * **Quirks are transforms**: every profile's SBOM via the shared scan
//!   is byte-identical to its isolated per-profile parse
//!   ([`ToolEmulator::scan_isolated`](crate::ToolEmulator::scan_isolated),
//!   the pre-sharing oracle).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use sbomdiff_metadata::python::ReqStyle;
use sbomdiff_metadata::{MetadataKind, Parsed, RepoFs};
use sbomdiff_types::CacheStats;

/// Parse counters shared by any number of scans: a hit is a parse reused
/// within a scan, a miss is a parse performed. They feed the `experiments`
/// timing report and the service's `sbomdiff_parse_cache_*` families.
///
/// # Examples
///
/// ```
/// use sbomdiff_generators::{ParseCache, ScanContext, ToolEmulator};
/// use sbomdiff_metadata::RepoFs;
///
/// let mut repo = RepoFs::new("demo");
/// repo.add_text("requirements.txt", "numpy==1.19.2\n");
/// let counters = ParseCache::new();
/// let scan = ScanContext::new(&repo, &counters);
/// let a = ToolEmulator::trivy().generate_with_scan(&scan);
/// let b = ToolEmulator::syft().generate_with_scan(&scan);
/// assert_eq!(a.len(), b.len());
/// // Trivy and Syft share the requirements dialect: one parse, one hit.
/// assert_eq!((counters.misses(), counters.hits()), (1, 1));
/// ```
#[derive(Default)]
pub struct ParseCache {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ParseCache {
    /// Counters at zero.
    pub fn new() -> Self {
        ParseCache::default()
    }

    /// Parses reused within a scan so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Parses performed so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Counter snapshot; nothing is ever evicted.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits(),
            misses: self.misses(),
            evictions: 0,
        }
    }
}

/// Memo slots per file: one dialect-free slot, one per requirements
/// dialect, and the reference grammar.
const SLOTS: usize = 6;

/// The slot of the reference (best-practice) parse.
const REFERENCE: usize = 5;

/// The slot of a dialect parse. Only `requirements.txt` parsing depends on
/// the dialect, so every other kind shares slot 0 across all profiles.
fn dialect_slot(kind: MetadataKind, style: ReqStyle) -> usize {
    if kind != MetadataKind::RequirementsTxt {
        return 0;
    }
    match style {
        ReqStyle::Pip => 1,
        ReqStyle::TrivySyft => 2,
        ReqStyle::SbomTool => 3,
        ReqStyle::GithubDg => 4,
    }
}

/// A single-walk, parse-once view of one repository.
///
/// # Examples
///
/// ```
/// use sbomdiff_generators::{ParseCache, ScanContext, ToolEmulator};
/// use sbomdiff_metadata::RepoFs;
///
/// let mut repo = RepoFs::new("demo");
/// repo.add_text("requirements.txt", "numpy==1.19.2\nflask>=2.0\n");
/// let counters = ParseCache::new();
/// let scan = ScanContext::new(&repo, &counters);
/// // All four profiles derive from the same walk + shared parses.
/// let trivy = ToolEmulator::trivy().generate_with_scan(&scan);
/// let syft = ToolEmulator::syft().generate_with_scan(&scan);
/// assert_eq!(trivy.len(), syft.len());
/// assert_eq!(counters.misses(), 1); // one parse, shared dialect
/// ```
pub struct ScanContext<'a> {
    repo: &'a RepoFs,
    counters: &'a ParseCache,
    files: Vec<(&'a str, MetadataKind)>,
    /// One slot per parser for each entry of `files`, at the same index.
    /// A slot is filled by the first caller; concurrent callers wait for
    /// that parse instead of repeating it.
    memo: Vec<[OnceLock<Arc<Parsed>>; SLOTS]>,
}

impl<'a> ScanContext<'a> {
    /// Walks `repo` once and counts this scan's parses in `counters`.
    pub fn new(repo: &'a RepoFs, counters: &'a ParseCache) -> Self {
        let files = repo.metadata_files();
        let memo = std::iter::repeat_with(Default::default)
            .take(files.len())
            .collect();
        ScanContext {
            repo,
            counters,
            files,
            memo,
        }
    }

    /// The repository under scan.
    pub fn repo(&self) -> &'a RepoFs {
        self.repo
    }

    /// The metadata files discovered by the single walk, in sorted path
    /// order (the deterministic scan order every generator follows).
    pub fn files(&self) -> &[(&'a str, MetadataKind)] {
        &self.files
    }

    /// The shared dialect parse of one file.
    pub fn parsed(&self, path: &str, kind: MetadataKind, style: ReqStyle) -> Arc<Parsed> {
        self.memoized(path, dialect_slot(kind, style), || {
            crate::emulator::parse_with_style(self.repo, path, kind, style)
        })
    }

    /// The shared reference parse of one file (best-practice grammar,
    /// memoized separately from the dialect parses).
    pub fn parsed_reference(&self, path: &str, kind: MetadataKind) -> Arc<Parsed> {
        self.memoized(path, REFERENCE, || {
            crate::bestpractice::parse_reference(self.repo, path, kind)
        })
    }

    fn memoized(&self, path: &str, slot: usize, parse: impl FnOnce() -> Parsed) -> Arc<Parsed> {
        // `files` is sorted by path: the walk iterates a `BTreeMap`.
        let Ok(index) = self.files.binary_search_by(|&(p, _)| p.cmp(path)) else {
            // Not a file of the walk: nothing to share it with.
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            return Arc::new(parse());
        };
        let mut parsed_here = false;
        let parsed = self.memo[index][slot].get_or_init(|| {
            parsed_here = true;
            Arc::new(parse())
        });
        let counter = if parsed_here {
            &self.counters.misses
        } else {
            &self.counters.hits
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Arc::clone(parsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BestPracticeGenerator, SbomGenerator, ToolEmulator};
    use sbomdiff_registry::Registries;
    use std::sync::Barrier;

    fn repo() -> RepoFs {
        let mut repo = RepoFs::new("scan-demo");
        repo.add_text("requirements.txt", "numpy==1.19.2\nflask>=2.0\n");
        repo.add_text("go.mod", "module m\nrequire github.com/pkg/errors v0.9.1\n");
        repo
    }

    #[test]
    fn one_walk_one_parse_across_five_generators() {
        let repo = repo();
        let regs = Registries::generate(7);
        let counters = ParseCache::new();
        let scan = ScanContext::new(&repo, &counters);

        let tools = crate::studied_tools(&regs, 0.0);
        let sboms: Vec<_> = tools.iter().map(|t| t.generate_with_scan(&scan)).collect();
        let bp = BestPracticeGenerator::new(&regs).generate_with_scan(&scan);

        // Dialect parses: requirements.txt × {TrivySyft, SbomTool,
        // GithubDg} + go.mod once. Reference parses: go.mod once
        // (requirements.txt goes through the resolver dry run, unmemoized).
        assert_eq!(counters.misses(), 5, "parse count is bounded by dialects");
        assert!(counters.hits() >= 3);

        // Each shared-scan SBOM matches the generator's standalone result.
        for (tool, sbom) in tools.iter().zip(&sboms) {
            assert_eq!(sbom, &tool.generate(&repo), "{}", tool.id());
        }
        assert_eq!(bp, BestPracticeGenerator::new(&regs).generate(&repo));
    }

    #[test]
    fn memoizes_per_dialect() {
        let repo = repo();
        let counters = ParseCache::new();
        let scan = ScanContext::new(&repo, &counters);
        ToolEmulator::trivy().generate_with_scan(&scan);
        ToolEmulator::syft().generate_with_scan(&scan);
        ToolEmulator::github_dg().generate_with_scan(&scan);
        // requirements.txt: TrivySyft dialect parsed once (shared by two
        // tools) + GithubDg dialect once. go.mod: dialect-independent, one
        // parse shared by all supporting tools.
        assert_eq!(counters.misses(), 3);
        assert!(counters.hits() >= 2, "hits={}", counters.hits());
    }

    #[test]
    fn reference_and_dialect_parses_do_not_share_entries() {
        let mut repo = RepoFs::new("split");
        repo.add_text("go.mod", "module m\nrequire github.com/pkg/errors v0.9.1\n");
        let counters = ParseCache::new();
        let scan = ScanContext::new(&repo, &counters);
        let dialect = scan.parsed("go.mod", MetadataKind::GoMod, ReqStyle::TrivySyft);
        let reference = scan.parsed_reference("go.mod", MetadataKind::GoMod);
        assert_eq!(counters.misses(), 2, "two parser families, two entries");
        assert!(!Arc::ptr_eq(&dialect, &reference));
    }

    #[test]
    fn parallel_workers_parse_each_file_once() {
        const WORKERS: usize = 8;
        let repo = repo();
        let counters = ParseCache::new();
        let scan = ScanContext::new(&repo, &counters);
        // Every worker holds one item at the barrier, so all eight scans
        // race for the same two slots.
        let start = Barrier::new(WORKERS);
        let sboms = sbomdiff_parallel::par_map(WORKERS, &[(); WORKERS], |_, _| {
            start.wait();
            ToolEmulator::trivy().generate_with_scan(&scan)
        });
        let isolated = ToolEmulator::trivy().scan_isolated(&repo);
        for sbom in &sboms {
            assert_eq!(sbom, &isolated);
        }
        assert_eq!((counters.misses(), counters.hits()), (2, 14));
    }

    #[test]
    fn a_path_outside_the_walk_is_parsed_unshared() {
        let repo = repo();
        let counters = ParseCache::new();
        let scan = ScanContext::new(&repo, &counters);
        for _ in 0..2 {
            scan.parsed("lib/go.mod", MetadataKind::GoMod, ReqStyle::TrivySyft);
        }
        assert_eq!((counters.misses(), counters.hits()), (2, 0));
    }

    #[test]
    fn files_are_walked_once_in_sorted_order() {
        let mut repo = RepoFs::new("order");
        repo.add_text("b/requirements.txt", "x==1\n");
        repo.add_text("a/requirements.txt", "y==2\n");
        let counters = ParseCache::new();
        let scan = ScanContext::new(&repo, &counters);
        let paths: Vec<&str> = scan.files().iter().map(|(p, _)| *p).collect();
        assert_eq!(paths, vec!["a/requirements.txt", "b/requirements.txt"]);
    }
}
