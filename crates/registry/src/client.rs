//! A registry client with failure injection.
//!
//! §V-C: the Microsoft SBOM Tool "attempts to resolve transitive
//! dependencies by querying package managers ... but this functionality is
//! not well-implemented and often fails". [`FlakyRegistry`] models that
//! unreliability deterministically so experiments are reproducible.

use std::cell::Cell;
use std::time::Duration;

use sbomdiff_faultline as fault;
use sbomdiff_types::{Version, VersionReq};

use crate::universe::{PackageUniverse, RegistryDep};

/// Retry policy for registry queries under fault injection: two retries
/// with linear backoff inside a deterministic per-query budget. Inert
/// (zero-cost single call) when no fault plan is installed.
const REGISTRY_RETRY: fault::RetryPolicy =
    fault::RetryPolicy::new(2, Duration::from_millis(2), Duration::from_millis(250));

/// Run `f` under the registry fault point `site`, keyed by package name.
/// An exhausted retry budget behaves exactly like a registry failure: the
/// query answers `None` and the caller surfaces its usual diagnostic.
fn guarded<T>(site: &'static str, name: &str, f: impl FnMut() -> Option<T>) -> Option<T> {
    fault::with_retry(site, name, &REGISTRY_RETRY, f).unwrap_or_default()
}

impl FlakyRegistry<'_> {
    /// Existence check: `None` when the package is unknown *or the query
    /// failed*. One failure-counter tick per call, like every query. Name
    /// validation on the emulator hot path uses it: it only needs to know
    /// whether the registry answered.
    pub fn validate(&self, name: &str) -> Option<()> {
        guarded(fault::sites::REGISTRY_VERSIONS, name, || {
            if self.fails(name) {
                return None;
            }
            self.inner.lookup(name).map(|_| ())
        })
    }

    /// [`PackageUniverse::latest`] behind the failure model.
    pub fn latest_ref(&self, name: &str) -> Option<&Version> {
        guarded(fault::sites::REGISTRY_LATEST, name, || {
            if self.fails(name) {
                return None;
            }
            self.inner.latest(name)
        })
    }

    /// [`PackageUniverse::latest_matching`] behind the failure model — the
    /// resolve-latest profile calls this once per ranged declaration and
    /// once per transitive edge.
    pub fn latest_matching_ref(&self, name: &str, req: &VersionReq) -> Option<&Version> {
        guarded(fault::sites::REGISTRY_LATEST_MATCHING, name, || {
            if self.fails(name) {
                return None;
            }
            self.inner.latest_matching(name, req)
        })
    }

    /// [`latest_matching_ref`](Self::latest_matching_ref) for one of the
    /// universe's own edges: the same fault site, key and failure tick, but
    /// the version comes from the edge's memo ([`PackageUniverse::follow`])
    /// instead of a fresh selection.
    pub fn follow_ref(&self, edge: &RegistryDep) -> Option<&Version> {
        guarded(fault::sites::REGISTRY_LATEST_MATCHING, &edge.name, || {
            if self.fails(&edge.name) {
                return None;
            }
            self.inner.follow(edge).map(|(_, version, _)| version)
        })
    }

    /// [`PackageUniverse::deps_of`] behind the failure model, `None` for an
    /// unknown package — the transitive-expansion BFS visits every edge of
    /// every resolved package, so the edges are borrowed.
    pub fn deps_of_ref(
        &self,
        name: &str,
        version: &Version,
        extras: &[String],
        honor_markers: bool,
    ) -> Option<Vec<&RegistryDep>> {
        guarded(fault::sites::REGISTRY_DEPS_OF, name, || {
            if self.fails(name) {
                return None;
            }
            self.inner.lookup(name)?;
            Some(self.inner.deps_of(name, version, extras, honor_markers))
        })
    }
}

/// A registry wrapper that deterministically fails a fraction of queries.
///
/// Failures are a pure function of the query name and an internal counter,
/// so a given run is reproducible while still spreading failures across
/// different queries.
#[derive(Debug)]
pub struct FlakyRegistry<'a> {
    inner: &'a PackageUniverse,
    /// Failure probability in [0, 1].
    failure_rate: f64,
    seed: u64,
    counter: Cell<u64>,
}

impl<'a> FlakyRegistry<'a> {
    /// Wraps a universe with the given failure rate.
    pub fn new(inner: &'a PackageUniverse, failure_rate: f64, seed: u64) -> Self {
        FlakyRegistry {
            inner,
            failure_rate: failure_rate.clamp(0.0, 1.0),
            seed,
            counter: Cell::new(0),
        }
    }

    /// A reliable (never-failing) wrapper.
    pub fn reliable(inner: &'a PackageUniverse) -> Self {
        FlakyRegistry::new(inner, 0.0, 0)
    }

    fn fails(&self, name: &str) -> bool {
        if self.failure_rate <= 0.0 {
            return false;
        }
        let c = self.counter.get();
        self.counter.set(c.wrapping_add(1));
        let mut h = self.seed ^ c.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for b in name.bytes() {
            h = h.wrapping_mul(0x100_0000_01b3) ^ b as u64;
        }
        // Map to [0, 1).
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        unit < self.failure_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UniverseConfig;
    use sbomdiff_types::Ecosystem;

    fn uni() -> PackageUniverse {
        PackageUniverse::generate(&UniverseConfig {
            package_count: 50,
            ..UniverseConfig::for_ecosystem(Ecosystem::Python, 77)
        })
    }

    #[test]
    fn reliable_never_fails() {
        let uni = uni();
        let client = FlakyRegistry::reliable(&uni);
        for _ in 0..100 {
            assert!(client.latest_ref("numpy").is_some());
        }
    }

    #[test]
    fn flaky_fails_roughly_at_rate() {
        let uni = uni();
        let client = FlakyRegistry::new(&uni, 0.3, 9);
        let mut failures = 0;
        let total = 1000;
        for i in 0..total {
            let name = if i % 2 == 0 { "numpy" } else { "requests" };
            if client.latest_ref(name).is_none() {
                failures += 1;
            }
        }
        let rate = failures as f64 / total as f64;
        assert!((0.2..0.4).contains(&rate), "observed failure rate {rate}");
    }

    #[test]
    fn flaky_is_deterministic_per_run() {
        let uni = uni();
        let a = FlakyRegistry::new(&uni, 0.5, 42);
        let b = FlakyRegistry::new(&uni, 0.5, 42);
        let seq_a: Vec<bool> = (0..50).map(|_| a.latest_ref("numpy").is_some()).collect();
        let seq_b: Vec<bool> = (0..50).map(|_| b.latest_ref("numpy").is_some()).collect();
        assert_eq!(seq_a, seq_b);
    }
}
