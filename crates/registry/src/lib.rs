//! A deterministic synthetic package registry.
//!
//! Substitutes for PyPI / npm / crates.io / Maven Central / NuGet / RubyGems
//! / Packagist / CocoaPods trunk / the Go module proxy in the paper's
//! pipeline (see DESIGN.md substitutions). Provides everything the studied
//! behaviors need:
//!
//! * version lists per package (for "pin latest in range", §V-D);
//! * per-version dependency metadata with extras and platform markers (for
//!   transitive resolution and pip dry-run ground truth, §V-C, §V-H);
//! * name validation (sbom-tool "reaches out to package managers to
//!   validate package names", §VIII);
//! * seeded curated packages so the paper's concrete examples reproduce
//!   cell-exact (e.g. `numpy` with latest `1.25.2`, Table IV).
//!
//! Generation is fully seeded: the same [`UniverseConfig`] always yields the
//! same universe.

pub mod client;
pub mod generate;
pub mod universe;

pub use client::FlakyRegistry;
pub use generate::UniverseConfig;
pub use universe::{Landing, PackageEntry, PackageUniverse, RegistryDep, VersionEntry};

use std::collections::BTreeMap;

use sbomdiff_types::Ecosystem;

/// All nine ecosystems' registries, generated from one master seed.
#[derive(Debug, Clone)]
pub struct Registries {
    map: BTreeMap<Ecosystem, PackageUniverse>,
}

impl Registries {
    /// Generates a registry per ecosystem using per-ecosystem default
    /// configurations derived from `seed`.
    pub fn generate(seed: u64) -> Self {
        let mut map = BTreeMap::new();
        for (i, eco) in Ecosystem::ALL.into_iter().enumerate() {
            let config = UniverseConfig::for_ecosystem(eco, seed.wrapping_add(i as u64 * 7919));
            map.insert(eco, PackageUniverse::generate(&config));
        }
        Registries { map }
    }

    /// Builds a registry set from explicit universes (tests, custom
    /// worlds). Ecosystems not present fall back to empty universes.
    pub fn from_parts(universes: Vec<PackageUniverse>) -> Self {
        let mut map = BTreeMap::new();
        for eco in Ecosystem::ALL {
            map.insert(eco, PackageUniverse::new(eco));
        }
        for uni in universes {
            map.insert(uni.ecosystem(), uni);
        }
        Registries { map }
    }

    /// The registry for one ecosystem.
    ///
    /// # Panics
    ///
    /// Panics if the ecosystem was not generated (cannot happen for
    /// [`Registries::generate`], which covers all nine).
    pub fn for_ecosystem(&self, eco: Ecosystem) -> &PackageUniverse {
        self.map
            .get(&eco)
            .expect("registry generated for every ecosystem")
    }

    /// Iterates over all (ecosystem, universe) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Ecosystem, &PackageUniverse)> {
        self.map.iter().map(|(e, u)| (*e, u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_all_ecosystems() {
        let regs = Registries::generate(42);
        assert_eq!(regs.iter().count(), 9);
        for (eco, uni) in regs.iter() {
            assert!(
                uni.package_count() > 50,
                "{eco} universe too small: {}",
                uni.package_count()
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Registries::generate(7);
        let b = Registries::generate(7);
        for (eco, uni) in a.iter() {
            let other = b.for_ecosystem(eco);
            assert_eq!(uni.package_count(), other.package_count());
            let names_a: Vec<&str> = uni.package_names().take(20).collect();
            let names_b: Vec<&str> = other.package_names().take(20).collect();
            assert_eq!(names_a, names_b);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Registries::generate(1);
        let b = Registries::generate(2);
        let uni_a = a.for_ecosystem(Ecosystem::Python);
        let uni_b = b.for_ecosystem(Ecosystem::Python);
        let names_a: Vec<&str> = uni_a.package_names().collect();
        let names_b: Vec<&str> = uni_b.package_names().collect();
        assert_ne!(names_a, names_b);
    }

    #[test]
    fn table_iv_anchor_numpy_latest() {
        let regs = Registries::generate(123);
        let py = regs.for_ecosystem(Ecosystem::Python);
        let latest = py.latest("numpy").expect("numpy is curated");
        assert_eq!(latest.to_string(), "1.25.2");
    }
}
