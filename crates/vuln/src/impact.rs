//! SBOM-driven vulnerability scanning vs ground truth.

use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::convert::Infallible;
use std::ops::AddAssign;

use sbomdiff_types::{Ecosystem, ResolvedPackage, Sbom, Version};

use crate::advisory::{Advisory, AdvisoryDb};

/// The outcome of scanning with an SBOM instead of the true install set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ImpactReport {
    /// Advisory ids that affect the true install set (the scan target).
    pub actual: BTreeSet<String>,
    /// Advisory ids the SBOM-driven scan surfaced that are real.
    pub detected: BTreeSet<String>,
    /// Real advisories the SBOM-driven scan missed — the paper's "false
    /// assurances of security" (§I).
    pub missed: BTreeSet<String>,
    /// Advisories flagged from SBOM entries that are not actually
    /// installed (wrong version, dev-only file, marker-excluded, ...).
    pub false_alarms: BTreeSet<String>,
}

impl ImpactReport {
    /// The sizes of the four id sets.
    pub fn counts(&self) -> ImpactCounts {
        ImpactCounts {
            actual: self.actual.len(),
            detected: self.detected.len(),
            missed: self.missed.len(),
            false_alarms: self.false_alarms.len(),
        }
    }

    /// Renders the assessment as VEX statements: detected and missed
    /// advisories are `affected`; false alarms are `not_affected` (the SBOM
    /// names a component/version that is not actually installed).
    ///
    /// Statements are deduplicated and emitted in id order. After a
    /// [`merge`](Self::merge) the sets can overlap (one repository detects
    /// what another misses, or raises as a false alarm what a third really
    /// has); each id yields exactly one statement, and a real
    /// vulnerability anywhere (`affected`) outranks a false alarm
    /// elsewhere.
    pub fn to_vex_statements(&self) -> Vec<(String, &'static str)> {
        let affected: BTreeSet<&String> = self.detected.union(&self.missed).collect();
        let mut out: Vec<(String, &'static str)> = affected
            .iter()
            .map(|id| ((*id).clone(), "affected"))
            .collect();
        out.extend(
            self.false_alarms
                .iter()
                .filter(|id| !affected.contains(id))
                .map(|id| (id.clone(), "not_affected")),
        );
        out.sort();
        out
    }

    /// Merges another report's counts (for corpus-level aggregation).
    pub fn merge(&mut self, other: &ImpactReport) {
        self.actual.extend(other.actual.iter().cloned());
        self.detected.extend(other.detected.iter().cloned());
        self.missed.extend(other.missed.iter().cloned());
        self.false_alarms.extend(other.false_alarms.iter().cloned());
    }
}

/// The sizes of an [`ImpactReport`]'s id sets and the two rates derived
/// from them. Experiments sum counts over repositories: the same advisory
/// in two repositories is two findings a security team must triage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImpactCounts {
    /// Advisories affecting the true install set.
    pub actual: usize,
    /// Real advisories the scan raised.
    pub detected: usize,
    /// Real advisories the scan missed.
    pub missed: usize,
    /// Advisories the scan raised that do not affect the install set.
    pub false_alarms: usize,
}

impl ImpactCounts {
    /// Share of real vulnerabilities the SBOM-driven scan missed (0 when
    /// there are none).
    pub fn miss_rate(&self) -> f64 {
        share(self.missed, self.actual)
    }

    /// Share of raised findings that are false alarms (0 when nothing was
    /// raised).
    pub fn false_alarm_rate(&self) -> f64 {
        share(self.false_alarms, self.detected + self.false_alarms)
    }
}

impl AddAssign for ImpactCounts {
    fn add_assign(&mut self, other: ImpactCounts) {
        self.actual += other.actual;
        self.detected += other.detected;
        self.missed += other.missed;
        self.false_alarms += other.false_alarms;
    }
}

fn share(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// An SBOM's components that carry a concrete version, as an install set:
/// the ground truth when an SBOM stands in for what is installed (the
/// first document of a `/v1/impact` request without `"truth"`, the
/// best-practice SBOM in `experiments vuln`).
pub fn pinned_truth(sbom: &Sbom) -> Vec<ResolvedPackage> {
    sbom.components()
        .iter()
        .filter_map(|c| {
            let version = Version::parse(c.version.as_deref()?).ok()?;
            Some(ResolvedPackage::direct(c.name.clone(), version))
        })
        .collect()
}

/// The ecosystem an SBOM is scored in when none is stated: its first
/// component's, or Python when it has none.
pub fn inferred_ecosystem(sbom: &Sbom) -> Ecosystem {
    sbom.components()
        .first()
        .map_or(Ecosystem::Python, |c| c.ecosystem)
}

/// Assesses an SBOM against the advisory database and the true install set.
///
/// The scan matches the way real SCA consumers do: an SBOM entry
/// contributes findings only when it carries a parseable concrete version
/// (range text and missing versions cannot match — which is exactly how
/// §V-D's dropped/verbatim versions turn into missed vulnerabilities).
/// The truth is read in the SBOM's [inferred ecosystem](inferred_ecosystem).
pub fn assess(db: &AdvisoryDb, sbom: &Sbom, truth: &[ResolvedPackage]) -> ImpactReport {
    assess_in(db, inferred_ecosystem(sbom), sbom, truth)
}

/// [`assess`] with the ground-truth ecosystem stated explicitly instead of
/// inferred from the SBOM's first component — required when the SBOM may
/// be empty (a tool that dropped everything still has to be scored against
/// the right language's install set).
pub fn assess_in(
    db: &AdvisoryDb,
    eco: Ecosystem,
    sbom: &Sbom,
    truth: &[ResolvedPackage],
) -> ImpactReport {
    let Ok(report) = scan(eco, sbom, truth, |eco, name| {
        Ok::<_, Infallible>(db.for_package(eco, name))
    });
    report
}

/// The one impact scan behind [`assess_in`] and
/// [`assess_cached`](crate::assess_cached). `lookup` answers a package's
/// advisories, version-independent. It is asked for every truth package
/// (in `eco`) and then for every SBOM component with a concrete version
/// (in the component's ecosystem), in that order; the scan stops at the
/// first error it returns.
pub(crate) fn scan<S, A, E>(
    eco: Ecosystem,
    sbom: &Sbom,
    truth: &[ResolvedPackage],
    mut lookup: impl FnMut(Ecosystem, &str) -> Result<S, E>,
) -> Result<ImpactReport, E>
where
    S: AsRef<[A]>,
    A: Borrow<Advisory>,
{
    // What is really vulnerable: advisories over the installed set.
    let mut actual = BTreeSet::new();
    for pkg in truth {
        for adv in lookup(eco, &pkg.name)?.as_ref() {
            let adv = adv.borrow();
            if adv.affects(&pkg.version) {
                actual.insert(adv.id.clone());
            }
        }
    }
    // What an SBOM-driven scan raises.
    let mut raised = BTreeSet::new();
    for c in sbom.components() {
        let Some(version) = c.version.as_deref().and_then(|v| Version::parse(v).ok()) else {
            continue; // no concrete version → unmatchable entry
        };
        for adv in lookup(c.ecosystem, &c.name)?.as_ref() {
            let adv = adv.borrow();
            if adv.affects(&version) {
                raised.insert(adv.id.clone());
            }
        }
    }
    let missed = actual.difference(&raised).cloned().collect();
    let (detected, false_alarms) = raised.into_iter().partition(|id| actual.contains(id));
    Ok(ImpactReport {
        actual,
        detected,
        missed,
        false_alarms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisory::{Advisory, Severity};
    use crate::osv::{OsvRange, RangeKind};
    use sbomdiff_types::{Component, Ecosystem, ResolvedPackage};

    fn advisory(id: &str, package: &str, fixed: &str) -> Advisory {
        let fixed = Version::parse(fixed).unwrap();
        Advisory {
            id: id.into(),
            ecosystem: Ecosystem::Python,
            package: package.into(),
            summary: format!("test advisory for {package}"),
            ranges: vec![OsvRange::half_open(
                RangeKind::Ecosystem,
                None,
                fixed.clone(),
            )],
            fixed_in: Some(fixed),
            severity: Severity::High,
        }
    }

    fn db() -> AdvisoryDb {
        AdvisoryDb::from_advisories(vec![advisory("SYN-2023-0001", "numpy", "1.22.0")])
    }

    #[test]
    fn detects_real_vulnerability() {
        let db = db();
        let truth = vec![ResolvedPackage::direct(
            "numpy",
            Version::parse("1.19.2").unwrap(),
        )];
        let mut sbom = Sbom::new("t", "1");
        sbom.push(Component::new(
            Ecosystem::Python,
            "numpy",
            Some("1.19.2".into()),
        ));
        let report = assess(&db, &sbom, &truth);
        assert_eq!(report.detected.len(), 1);
        assert!(report.missed.is_empty());
        assert_eq!(report.counts().miss_rate(), 0.0);
    }

    #[test]
    fn omission_becomes_missed_vulnerability() {
        let db = db();
        let truth = vec![ResolvedPackage::direct(
            "numpy",
            Version::parse("1.19.2").unwrap(),
        )];
        let empty = Sbom::new("t", "1"); // the tool dropped the dependency
        let report = assess(&db, &empty, &truth);
        assert_eq!(report.missed.len(), 1);
        assert_eq!(report.counts().miss_rate(), 1.0);
    }

    #[test]
    fn range_text_cannot_match() {
        let db = db();
        let truth = vec![ResolvedPackage::direct(
            "numpy",
            Version::parse("1.19.2").unwrap(),
        )];
        let mut sbom = Sbom::new("t", "1");
        // GitHub DG-style verbatim range: unmatchable by scanners.
        sbom.push(Component::new(
            Ecosystem::Python,
            "numpy",
            Some(">=1.19".into()),
        ));
        let report = assess(&db, &sbom, &truth);
        assert_eq!(report.missed.len(), 1);
        assert!(report.detected.is_empty());
    }

    #[test]
    fn wrong_version_is_false_alarm_plus_miss() {
        let db = db();
        // Installed version is safe (>= fix), but the SBOM claims an old,
        // vulnerable one.
        let truth = vec![ResolvedPackage::direct(
            "numpy",
            Version::parse("1.25.2").unwrap(),
        )];
        let mut sbom = Sbom::new("t", "1");
        sbom.push(Component::new(
            Ecosystem::Python,
            "numpy",
            Some("1.19.2".into()),
        ));
        let report = assess(&db, &sbom, &truth);
        assert!(report.actual.is_empty());
        assert_eq!(report.false_alarms.len(), 1);
        assert!(report.counts().false_alarm_rate() > 0.99);
    }

    #[test]
    fn shared_cache_answers_each_database_as_assess_in() {
        // Two feeds that differ only in numpy's fix version: 1.22.0 is
        // affected under the 1.25.0 fix and safe under the 1.20.0 fix.
        let early = AdvisoryDb::from_advisories(vec![advisory("SYN-2023-0001", "numpy", "1.20.0")]);
        let late = AdvisoryDb::from_advisories(vec![advisory("SYN-2023-0001", "numpy", "1.25.0")]);
        assert_ne!(early.fingerprint(), late.fingerprint());
        let truth = vec![ResolvedPackage::direct(
            "numpy",
            Version::parse("1.22.0").unwrap(),
        )];
        let mut sbom = Sbom::new("t", "1");
        sbom.push(Component::new(
            Ecosystem::Python,
            "numpy",
            Some("1.22.0".into()),
        ));
        let cache = crate::EnrichCache::new();
        for db in [&early, &late, &early, &late] {
            let cached =
                crate::assess_cached(&cache, db, Ecosystem::Python, &sbom, &truth).unwrap();
            assert_eq!(cached, assess_in(db, Ecosystem::Python, &sbom, &truth));
        }
        assert!(assess_in(&early, Ecosystem::Python, &sbom, &truth)
            .actual
            .is_empty());
        assert_eq!(
            assess_in(&late, Ecosystem::Python, &sbom, &truth)
                .actual
                .len(),
            1
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (6, 2), "one fill per database");
    }

    #[test]
    fn assess_in_scores_empty_sboms_in_the_right_ecosystem() {
        let mut go_adv = advisory("SYN-2023-0009", "github.com/stretchr/testify", "1.8.0");
        go_adv.ecosystem = Ecosystem::Go;
        let db = AdvisoryDb::from_advisories(vec![go_adv]);
        let truth = vec![ResolvedPackage::direct(
            "github.com/stretchr/testify",
            Version::parse("1.7.0").unwrap(),
        )];
        let empty = Sbom::new("t", "1");
        // Inference falls back to Python and sees nothing...
        assert!(assess(&db, &empty, &truth).actual.is_empty());
        // ...but the explicit ecosystem scores the miss.
        let report = assess_in(&db, Ecosystem::Go, &empty, &truth);
        assert_eq!(report.missed.len(), 1);
    }

    #[test]
    fn vex_statements_deduplicate_merged_reports() {
        // Repo A detects 0001; repo B misses it and falsely raises 0002;
        // repo C really has 0002. Merged, the id sets overlap.
        let mut merged = ImpactReport::default();
        merged.detected.insert("SYN-2023-0001".into());
        let mut b = ImpactReport::default();
        b.missed.insert("SYN-2023-0001".into());
        b.false_alarms.insert("SYN-2023-0002".into());
        let mut c = ImpactReport::default();
        c.detected.insert("SYN-2023-0002".into());
        merged.merge(&b);
        merged.merge(&c);
        let statements = merged.to_vex_statements();
        assert_eq!(
            statements,
            vec![
                ("SYN-2023-0001".to_string(), "affected"),
                ("SYN-2023-0002".to_string(), "affected"),
            ],
            "one statement per id; affected outranks not_affected"
        );
    }

    #[test]
    fn vex_statements_partition_single_assessments() {
        let mut report = ImpactReport::default();
        report.detected.insert("SYN-2023-0001".into());
        report.missed.insert("SYN-2023-0002".into());
        report.false_alarms.insert("SYN-2023-0003".into());
        assert_eq!(
            report.to_vex_statements(),
            vec![
                ("SYN-2023-0001".to_string(), "affected"),
                ("SYN-2023-0002".to_string(), "affected"),
                ("SYN-2023-0003".to_string(), "not_affected"),
            ]
        );
    }

    #[test]
    fn merge_is_idempotent_and_commutative() {
        let mut a = ImpactReport::default();
        a.actual.insert("SYN-2023-0001".into());
        a.detected.insert("SYN-2023-0001".into());
        let mut b = ImpactReport::default();
        b.actual.insert("SYN-2023-0002".into());
        b.missed.insert("SYN-2023-0002".into());
        b.false_alarms.insert("SYN-2023-0003".into());

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ab_again = ab.clone();
        ab_again.merge(&b);
        ab_again.merge(&ab);
        assert_eq!(ab.actual, ab_again.actual, "merge is idempotent");
        assert_eq!(ab.detected, ab_again.detected);
        assert_eq!(ab.missed, ab_again.missed);
        assert_eq!(ab.false_alarms, ab_again.false_alarms);

        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.actual, ba.actual, "merge is commutative");
        assert_eq!(ab.to_vex_statements(), ba.to_vex_statements());
    }
}
