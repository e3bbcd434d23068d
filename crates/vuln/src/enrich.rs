//! Sharded enrichment cache for per-package advisory lookups.
//!
//! `/v1/impact` batches, the divergence experiment and repeated profile
//! scans all ask the same `(ecosystem, package)` advisory question many
//! times; this cache shares that work. It is a [`Sharded`] cache keyed on
//! the database [fingerprint](crate::AdvisoryDb::fingerprint), which
//! covers every field matching reads, so two databases that could answer
//! any lookup differently never share an entry, and a refreshed feed gets
//! new keys rather than stale answers. Entries are charged their
//! canonical-name bytes plus a fixed overhead against a byte budget:
//! `/v1/impact` takes names from request documents, so without a bound a
//! stream of distinct names would grow the cache for as long as the
//! service runs.
//!
//! Two fault sites instrument the path (DESIGN.md §15 contract):
//! [`VULN_LOOKUP`](sbomdiff_faultline::sites::VULN_LOOKUP) fires on every
//! lookup, [`VULN_ENRICH`](sbomdiff_faultline::sites::VULN_ENRICH) on a
//! cache fill. A surfaced fault returns a marker-carrying error and is
//! **never cached** — degraded answers must not poison later requests.

use std::sync::Arc;

use sbomdiff_faultline as fault;
use sbomdiff_types::{CacheStats, Ecosystem, ResolvedPackage, Sbom, Sharded};

use crate::advisory::{Advisory, AdvisoryDb, PackageKey};
use crate::impact::{scan, ImpactReport};

/// Byte budget. A default `experiments vuln` run fills about 6,300
/// entries (under 1 MB as charged), so only a service fed a stream of
/// distinct package names ever evicts.
const CAPACITY_BYTES: usize = 4 * 1024 * 1024;

/// Fixed accounting overhead per entry (key, map slot, advisory-slice
/// `Arc`), added to its canonical-name bytes.
const ENTRY_OVERHEAD: usize = 128;

/// The enrichment cache. Keys are `(db fingerprint, (ecosystem, canonical
/// package))`; values are the package's full advisory slice
/// (version-independent — the caller evaluates ranges per version, so
/// one fill serves every version and every profile).
pub struct EnrichCache {
    entries: Sharded<(u64, PackageKey), Arc<[Advisory]>>,
}

impl EnrichCache {
    /// An empty cache with the fixed byte budget.
    pub fn new() -> Self {
        EnrichCache {
            entries: Sharded::new(CAPACITY_BYTES),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.entries.stats()
    }

    /// Entries held across all shards.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The advisory slice for `(ecosystem, name)`, from cache or filled
    /// from `db`.
    ///
    /// # Errors
    ///
    /// A marker-carrying message when an injected fault surfaces at the
    /// lookup or fill site; the caller must degrade (and nothing is
    /// cached).
    pub fn advisories_for(
        &self,
        db: &AdvisoryDb,
        eco: Ecosystem,
        name: &str,
    ) -> Result<Arc<[Advisory]>, String> {
        let canonical = sbomdiff_types::name::normalize(eco, name);
        if let Some(surfaced) = fault::point!(fault::sites::VULN_LOOKUP, &canonical) {
            return Err(surfaced.message(fault::sites::VULN_LOOKUP));
        }
        let key = (db.fingerprint(), (eco, canonical));
        if let Some(advisories) = self.entries.get(&key) {
            return Ok(advisories);
        }
        let package = &key.1;
        if let Some(surfaced) = fault::point!(fault::sites::VULN_ENRICH, &package.1) {
            return Err(surfaced.message(fault::sites::VULN_ENRICH));
        }
        let advisories: Arc<[Advisory]> = db.for_key(package).cloned().collect();
        let cost = package.1.len() + ENTRY_OVERHEAD;
        self.entries.insert(key, Arc::clone(&advisories), cost);
        Ok(advisories)
    }
}

impl Default for EnrichCache {
    fn default() -> Self {
        Self::new()
    }
}

/// [`assess_in`](crate::assess_in) routed through the enrichment cache:
/// both the ground-truth side and the SBOM-driven side pull per-package
/// advisory slices from the cache and evaluate ranges locally, so a batch
/// of profiles over the same packages fills each key once.
///
/// # Errors
///
/// The first surfaced fault message; the caller must answer degraded and
/// the partial result is discarded.
pub fn assess_cached(
    cache: &EnrichCache,
    db: &AdvisoryDb,
    eco: Ecosystem,
    sbom: &Sbom,
    truth: &[ResolvedPackage],
) -> Result<ImpactReport, String> {
    scan(eco, sbom, truth, |eco, name| {
        cache.advisories_for(db, eco, name)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbomdiff_registry::Registries;
    use sbomdiff_types::{Component, Version};

    fn db() -> AdvisoryDb {
        AdvisoryDb::generate(&Registries::generate(55), 9, 0.5)
    }

    #[test]
    fn caches_and_counts_hits() {
        let db = db();
        let cache = EnrichCache::new();
        let a = cache
            .advisories_for(&db, Ecosystem::Python, "numpy")
            .unwrap();
        let b = cache
            .advisories_for(&db, Ecosystem::Python, "NumPy")
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "normalized names share the entry");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_names_past_the_budget_evict_and_refill() {
        // Every name costs more than the overhead alone, so this many
        // distinct names overfill the budget about twice over.
        let db = db();
        let cache = EnrichCache::new();
        let ids = |advisories: &[Advisory]| -> Vec<String> {
            advisories.iter().map(|a| a.id.clone()).collect()
        };
        let (eco, name) = db
            .advisories()
            .iter()
            .map(|a| (a.ecosystem, a.package.clone()))
            .next()
            .expect("the seeded universe has advisories");
        let first = ids(&cache.advisories_for(&db, eco, &name).unwrap());
        assert!(!first.is_empty());
        for i in 0..2 * CAPACITY_BYTES / ENTRY_OVERHEAD {
            cache
                .advisories_for(&db, Ecosystem::Python, &format!("flood-{i}"))
                .unwrap();
            assert!(cache.entries.cost() <= cache.entries.capacity());
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "{stats:?}");
        assert!(cache.len() < 2 * CAPACITY_BYTES / ENTRY_OVERHEAD);
        // The first name was its shard's least recently used entry: it was
        // evicted, and a lookup refills the same advisories.
        let refilled = ids(&cache.advisories_for(&db, eco, &name).unwrap());
        assert_eq!(
            cache.stats().misses,
            stats.misses + 1,
            "evicted name refills"
        );
        assert_eq!(refilled, first);
    }

    #[test]
    fn different_databases_never_alias() {
        let regs = Registries::generate(55);
        let a = AdvisoryDb::generate(&regs, 9, 0.5);
        let b = AdvisoryDb::generate(&regs, 10, 0.5);
        let cache = EnrichCache::new();
        let from_a = cache
            .advisories_for(&a, Ecosystem::Python, "numpy")
            .unwrap();
        let from_b = cache
            .advisories_for(&b, Ecosystem::Python, "numpy")
            .unwrap();
        assert_eq!(cache.stats().misses, 2, "distinct fingerprints fill twice");
        let ids_a: Vec<&str> = from_a.iter().map(|x| x.id.as_str()).collect();
        let ids_b: Vec<&str> = from_b.iter().map(|x| x.id.as_str()).collect();
        // Same package, different universes: entries are independent.
        assert_eq!(cache.len(), 2, "{ids_a:?} vs {ids_b:?}");
    }

    #[test]
    fn assess_cached_matches_uncached_assess() {
        let db = db();
        let cache = EnrichCache::new();
        let truth = vec![
            ResolvedPackage::direct("numpy", Version::parse("1.19.2").unwrap()),
            ResolvedPackage::direct("requests", Version::parse("2.8.1").unwrap()),
        ];
        let mut sbom = Sbom::new("t", "1");
        sbom.push(Component::new(
            Ecosystem::Python,
            "numpy",
            Some("1.19.2".into()),
        ));
        let cached = assess_cached(&cache, &db, Ecosystem::Python, &sbom, &truth).unwrap();
        let direct = crate::impact::assess_in(&db, Ecosystem::Python, &sbom, &truth);
        assert_eq!(cached, direct);
        assert!(cache.stats().misses > 0);
    }

    #[test]
    fn surfaced_faults_are_not_cached() {
        let db = db();
        let cache = EnrichCache::new();
        // Key the rule to one package so concurrent tests in this binary
        // are unaffected by the process-global plan.
        let plan = fault::FaultPlan {
            seed: 7,
            rules: vec![fault::FaultRule::new(
                fault::sites::VULN_ENRICH,
                1_000_000,
                fault::FaultAction::Error,
            )
            .for_key("enrich-fault-probe")],
        };
        let guard = fault::install(plan);
        let err = cache
            .advisories_for(&db, Ecosystem::Python, "enrich-fault-probe")
            .unwrap_err();
        assert!(fault::is_injected(&err));
        assert_eq!(cache.len(), 0, "failed fills must not be cached");
        drop(guard);
        // Fault-free retry fills normally.
        assert!(cache
            .advisories_for(&db, Ecosystem::Python, "enrich-fault-probe")
            .is_ok());
        assert_eq!(cache.len(), 1);
    }
}
