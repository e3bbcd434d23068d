//! The synthetic OSV-shaped advisory database.

use std::collections::BTreeMap;
use std::hash::Hasher;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sbomdiff_registry::Registries;
use sbomdiff_types::{Ecosystem, Fnv1a, Version};

use crate::osv::{OsvRange, RangeKind};

/// Advisory severity, CVSS-band style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// CVSS 0.1–3.9.
    Low,
    /// CVSS 4.0–6.9.
    Medium,
    /// CVSS 7.0–8.9.
    High,
    /// CVSS 9.0–10.0.
    Critical,
}

impl Severity {
    /// Every severity, lowest first (metrics and CSV columns iterate
    /// this; keep the order stable).
    pub const ALL: [Severity; 4] = [
        Severity::Low,
        Severity::Medium,
        Severity::High,
        Severity::Critical,
    ];

    /// Label used in reports and OSV `database_specific.severity`.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Low => "LOW",
            Severity::Medium => "MEDIUM",
            Severity::High => "HIGH",
            Severity::Critical => "CRITICAL",
        }
    }

    /// Lowercase label for Prometheus `{severity=...}` values.
    pub fn metric_label(self) -> &'static str {
        match self {
            Severity::Low => "low",
            Severity::Medium => "medium",
            Severity::High => "high",
            Severity::Critical => "critical",
        }
    }

    /// Parses a report/OSV label (case-insensitive).
    pub fn from_label(label: &str) -> Option<Severity> {
        match label.to_ascii_uppercase().as_str() {
            "LOW" => Some(Severity::Low),
            "MEDIUM" | "MODERATE" => Some(Severity::Medium),
            "HIGH" => Some(Severity::High),
            "CRITICAL" => Some(Severity::Critical),
            _ => None,
        }
    }

    /// Position in [`Severity::ALL`] (counter-array index).
    pub fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One synthetic advisory: a package and the OSV ranges it is affected in.
#[derive(Debug, Clone)]
pub struct Advisory {
    /// Synthetic identifier (`SYN-2023-0042`).
    pub id: String,
    /// Ecosystem of the affected package.
    pub ecosystem: Ecosystem,
    /// Canonical (registry-normalized) package name.
    pub package: String,
    /// One-line human summary.
    pub summary: String,
    /// OSV affected ranges; a version is affected when any range matches.
    pub ranges: Vec<OsvRange>,
    /// First fixed version, when one exists.
    pub fixed_in: Option<Version>,
    /// Severity band.
    pub severity: Severity,
}

impl Advisory {
    /// Whether a concrete installed version is affected.
    pub fn affects(&self, version: &Version) -> bool {
        self.ranges.iter().any(|r| r.affects(version))
    }

    /// Feeds every field that matching and impact reports read into `h`:
    /// id, ecosystem, package, each range's kind and events, and severity.
    /// Each field is prefixed by its length, so no two advisories feed the
    /// same bytes. Versions go in as their OSV spelling, which an OSV JSON
    /// round trip preserves.
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        let mut field = |bytes: &[u8]| {
            h.write(&(bytes.len() as u64).to_le_bytes());
            h.write(bytes);
        };
        field(self.id.as_bytes());
        field(self.ecosystem.label().as_bytes());
        field(self.package.as_bytes());
        field(&(self.ranges.len() as u64).to_le_bytes());
        for range in &self.ranges {
            field(range.kind.label().as_bytes());
            field(&(range.events.len() as u64).to_le_bytes());
            for event in &range.events {
                field(event.key().as_bytes());
                field(event.value_string().as_bytes());
            }
        }
        field(self.severity.label().as_bytes());
    }
}

/// An index key: ecosystem and canonical (registry-normalized) package name.
pub(crate) type PackageKey = (Ecosystem, String);

/// A seeded advisory database over the synthetic registries, indexed by
/// `(ecosystem, canonical package)` for per-package lookup.
///
/// # Examples
///
/// ```
/// use sbomdiff_registry::Registries;
/// use sbomdiff_vuln::AdvisoryDb;
///
/// let registries = Registries::generate(9);
/// let db = AdvisoryDb::generate(&registries, 1, 0.2);
/// assert!(!db.is_empty());
/// for advisory in db.advisories().iter().take(3) {
///     assert!(advisory.id.starts_with("SYN-"));
///     assert!(!advisory.ranges.is_empty());
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct AdvisoryDb {
    advisories: Vec<Advisory>,
    index: BTreeMap<PackageKey, Vec<u32>>,
    by_id: BTreeMap<String, u32>,
    fingerprint: u64,
}

impl AdvisoryDb {
    /// Builds a database from explicit advisories (tests, OSV ingestion,
    /// custom feeds).
    pub fn from_advisories(advisories: Vec<Advisory>) -> Self {
        let mut index: BTreeMap<PackageKey, Vec<u32>> = BTreeMap::new();
        let mut by_id = BTreeMap::new();
        let mut fingerprint = Fnv1a::default();
        for (i, a) in advisories.iter().enumerate() {
            index
                .entry((a.ecosystem, a.package.clone()))
                .or_default()
                .push(i as u32);
            by_id.insert(a.id.clone(), i as u32);
            a.fingerprint_into(&mut fingerprint);
        }
        AdvisoryDb {
            advisories,
            index,
            by_id,
            fingerprint: fingerprint.finish(),
        }
    }

    /// Generates advisories for roughly `vulnerable_share` of each
    /// ecosystem's packages, with the OSV shape mix real feeds show:
    /// mostly affected-from-the-beginning half-open ranges, some with a
    /// later `introduced` floor, some unfixed (`last_affected`) and a few
    /// patched-then-reintroduced two-range advisories.
    pub fn generate(registries: &Registries, seed: u64, vulnerable_share: f64) -> Self {
        let mut advisories = Vec::new();
        let mut counter = 0usize;
        for (eco, universe) in registries.iter() {
            let mut rng = StdRng::seed_from_u64(seed ^ ((eco as u64) << 40) ^ 0xadd1);
            let kind = RangeKind::for_ecosystem(eco);
            let entries: Vec<(String, Vec<Version>)> = universe
                .entries()
                .map(|(name, versions)| {
                    (
                        name.to_string(),
                        versions.iter().map(|v| v.version.clone()).collect(),
                    )
                })
                .collect();
            for (name, versions) in entries {
                if !rng.gen_bool(vulnerable_share.clamp(0.0, 1.0)) {
                    continue;
                }
                if versions.len() < 2 {
                    continue;
                }
                // The fix lands at some mid/late published version.
                let fix_idx = rng.gen_range(1..versions.len());
                let fixed = versions[fix_idx].clone();
                let shape = rng.gen_range(0..20u32);
                let (ranges, fixed_in) = match shape {
                    // 15%: the flaw was introduced at a later version.
                    14..=16 if fix_idx >= 2 => {
                        let intro = versions[rng.gen_range(1..fix_idx)].clone();
                        (
                            vec![OsvRange::half_open(kind, Some(intro), fixed.clone())],
                            Some(fixed),
                        )
                    }
                    // 10%: no published fix — a closed last_affected range.
                    17..=18 => {
                        let last = versions[fix_idx - 1].clone();
                        (vec![OsvRange::closed(kind, None, last)], None)
                    }
                    // 5%: patched early, reintroduced before the real fix.
                    19 if fix_idx >= 3 => {
                        let patched = versions[1].clone();
                        let reintroduced = versions[fix_idx - 1].clone();
                        (
                            vec![
                                OsvRange::half_open(kind, None, patched),
                                OsvRange::half_open(kind, Some(reintroduced), fixed.clone()),
                            ],
                            Some(fixed),
                        )
                    }
                    // 70% (plus the fallbacks above on short histories):
                    // affected from the beginning until the fix.
                    _ => (
                        vec![OsvRange::half_open(kind, None, fixed.clone())],
                        Some(fixed),
                    ),
                };
                let severity = match rng.gen_range(0..10) {
                    0 => Severity::Critical,
                    1..=3 => Severity::High,
                    4..=7 => Severity::Medium,
                    _ => Severity::Low,
                };
                counter += 1;
                let package = sbomdiff_types::name::normalize(eco, &name);
                advisories.push(Advisory {
                    id: format!("SYN-2023-{counter:04}"),
                    ecosystem: eco,
                    summary: format!("synthetic vulnerability in {package} ({})", eco.label()),
                    package,
                    ranges,
                    fixed_in,
                    severity,
                });
            }
        }
        Self::from_advisories(advisories)
    }

    /// Number of advisories.
    pub fn len(&self) -> usize {
        self.advisories.len()
    }

    /// True when the database is empty.
    pub fn is_empty(&self) -> bool {
        self.advisories.is_empty()
    }

    /// All advisories.
    pub fn advisories(&self) -> &[Advisory] {
        &self.advisories
    }

    /// Content fingerprint over everything matching reads (stable across
    /// clones and round-trips through OSV JSON): databases that could
    /// answer any lookup differently get different fingerprints, so
    /// enrichment caches shared between databases key on it.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The advisory with the given id.
    pub fn by_id(&self, id: &str) -> Option<&Advisory> {
        self.by_id
            .get(id)
            .and_then(|&i| self.advisories.get(i as usize))
    }

    /// Every advisory for a `(ecosystem, name)` pair, version-independent;
    /// the name is normalized before the index lookup.
    pub fn for_package(&self, eco: Ecosystem, name: &str) -> Vec<&Advisory> {
        let key = (eco, sbomdiff_types::name::normalize(eco, name));
        self.for_key(&key).collect()
    }

    /// Every advisory under an already-normalized index key.
    pub(crate) fn for_key(&self, key: &PackageKey) -> impl Iterator<Item = &Advisory> {
        self.index
            .get(key)
            .into_iter()
            .flatten()
            .filter_map(|&i| self.advisories.get(i as usize))
    }

    /// Advisories affecting a concrete `(ecosystem, name, version)` triple;
    /// the name is normalized before lookup (how a *correct* scanner
    /// matches — spelling variations in SBOMs therefore cause misses).
    pub fn matching(&self, eco: Ecosystem, name: &str, version: &Version) -> Vec<&Advisory> {
        let mut out = self.for_package(eco, name);
        out.retain(|a| a.affects(version));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbomdiff_registry::Registries;

    #[test]
    fn generates_plausible_database() {
        let regs = Registries::generate(55);
        let db = AdvisoryDb::generate(&regs, 9, 0.2);
        assert!(db.len() > 200, "db size {}", db.len());
        let mut fixed_shapes = 0;
        let mut unfixed_shapes = 0;
        for a in db.advisories() {
            assert!(a.id.starts_with("SYN-2023-"));
            assert!(!a.ranges.is_empty());
            for r in &a.ranges {
                assert!(r.validate().is_empty(), "{}: {:?}", a.id, r.validate());
            }
            match &a.fixed_in {
                Some(fixed) => {
                    fixed_shapes += 1;
                    assert!(!a.affects(fixed), "fix version must not be affected");
                }
                None => unfixed_shapes += 1,
            }
        }
        assert!(fixed_shapes > unfixed_shapes, "fixed shapes dominate");
        assert!(unfixed_shapes > 0, "some advisories have no fix");
    }

    #[test]
    fn generation_is_deterministic() {
        let regs = Registries::generate(55);
        let a = AdvisoryDb::generate(&regs, 9, 0.2);
        let b = AdvisoryDb::generate(&regs, 9, 0.2);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.advisories()[0].id, b.advisories()[0].id);
        assert_eq!(a.advisories()[0].package, b.advisories()[0].package);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(
            a.fingerprint(),
            AdvisoryDb::generate(&regs, 10, 0.2).fingerprint()
        );
    }

    #[test]
    fn matching_normalizes_names() {
        let regs = Registries::generate(55);
        let db = AdvisoryDb::generate(&regs, 9, 1.0);
        // numpy is curated with versions up to 1.25.2; an advisory exists
        // at share 1.0.
        let numpy = db
            .advisories()
            .iter()
            .find(|a| a.package == "numpy")
            .expect("numpy advisory at 100% share");
        let old = Version::parse("1.19.2").unwrap();
        if numpy.affects(&old) {
            assert!(!db.matching(Ecosystem::Python, "NumPy", &old).is_empty());
        }
        assert!(db
            .matching(Ecosystem::Python, "definitely-not-here", &old)
            .is_empty());
    }

    #[test]
    fn index_matches_linear_scan() {
        let regs = Registries::generate(55);
        let db = AdvisoryDb::generate(&regs, 9, 0.3);
        for a in db.advisories().iter().take(100) {
            let via_index = db.for_package(a.ecosystem, &a.package);
            assert!(via_index.iter().any(|hit| hit.id == a.id));
            let linear = db
                .advisories()
                .iter()
                .filter(|x| x.ecosystem == a.ecosystem && x.package == a.package)
                .count();
            assert_eq!(via_index.len(), linear);
        }
        assert_eq!(
            db.by_id(&db.advisories()[0].id).map(|a| a.id.as_str()),
            Some(db.advisories()[0].id.as_str())
        );
    }
}
