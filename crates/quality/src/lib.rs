//! NTIA-minimum / CRA-style quality scoring for SBOM documents.
//!
//! The paper's differential analysis measures whether tools *agree*; this
//! crate measures whether what they emit is *complete* against the
//! field checklist regulators actually ask for (NTIA minimum elements,
//! and the CRA's Annex I documentation duties): supplier, component
//! name, version, a machine-readable unique identifier, dependency
//! relationships, the document author/tool, and a creation timestamp.
//!
//! [`evaluate`] walks one [`Sbom`] and produces a typed
//! [`QualityReport`]: per-check pass/miss/malformed counts, a weighted
//! 0–100 document score, and one classified [`Diagnostic`] (reusing the
//! workspace's 12-class taxonomy) per failed check. Scoring is pure
//! arithmetic over the document — no clock, no I/O — so identical
//! documents always score identically, which the experiment layer
//! relies on for byte-identical CSVs at any `--jobs`.

use sbomdiff_types::{DiagClass, Diagnostic, Sbom};

/// One field of the NTIA-minimum / CRA checklist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QualityCheck {
    /// Component supplier / publisher is recorded.
    Supplier,
    /// Component name is present and non-empty.
    ComponentName,
    /// Component version is present and concrete (not a range).
    Version,
    /// A machine-readable unique identifier (PURL or CPE) is present.
    UniqueId,
    /// The component's dependency relationship (scope) is modeled.
    Relationship,
    /// The document records its author tool and tool version.
    AuthorTool,
    /// The document records an RFC 3339 creation timestamp.
    Timestamp,
}

impl QualityCheck {
    /// Every check, in rendering order (CSV columns and metrics iterate
    /// this; keep the order stable).
    pub const ALL: [QualityCheck; 7] = [
        QualityCheck::Supplier,
        QualityCheck::ComponentName,
        QualityCheck::Version,
        QualityCheck::UniqueId,
        QualityCheck::Relationship,
        QualityCheck::AuthorTool,
        QualityCheck::Timestamp,
    ];

    /// Stable lowercase label used in CSV columns and metric labels.
    pub fn label(self) -> &'static str {
        match self {
            QualityCheck::Supplier => "supplier",
            QualityCheck::ComponentName => "name",
            QualityCheck::Version => "version",
            QualityCheck::UniqueId => "unique-id",
            QualityCheck::Relationship => "relationship",
            QualityCheck::AuthorTool => "author-tool",
            QualityCheck::Timestamp => "timestamp",
        }
    }

    /// Weight of the check in the 0–100 document total. Identity fields
    /// (name, version) dominate; provenance fields matter but do not
    /// drown them out. The weights sum to 100.
    pub fn weight(self) -> u32 {
        match self {
            QualityCheck::Supplier => 15,
            QualityCheck::ComponentName => 20,
            QualityCheck::Version => 20,
            QualityCheck::UniqueId => 15,
            QualityCheck::Relationship => 10,
            QualityCheck::AuthorTool => 10,
            QualityCheck::Timestamp => 10,
        }
    }

    /// Whether the check applies to the document as a whole (exactly one
    /// pass/fail) rather than to each component.
    pub fn is_document_level(self) -> bool {
        matches!(self, QualityCheck::AuthorTool | QualityCheck::Timestamp)
    }
}

impl std::fmt::Display for QualityCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Outcome of one checklist field over one document.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckResult {
    /// Which field was checked.
    pub check: QualityCheck,
    /// Subjects (components, or the document itself) that satisfy it.
    pub passed: u64,
    /// Subjects where the field is absent.
    pub missing: u64,
    /// Subjects where the field is present but unusable (a version
    /// range where a concrete version is required, a non-RFC 3339
    /// timestamp).
    pub malformed: u64,
}

impl CheckResult {
    /// Subjects that failed the check, for any reason.
    pub fn failed(&self) -> u64 {
        self.missing + self.malformed
    }

    /// Pass rate of this check as a 0–100 score. A check with no
    /// subjects (an empty document's per-component checks) is vacuously
    /// satisfied.
    pub fn score(&self) -> f64 {
        let total = self.passed + self.failed();
        if total == 0 {
            100.0
        } else {
            self.passed as f64 * 100.0 / total as f64
        }
    }
}

/// The quality evaluation of one SBOM document.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    /// Generating tool (from the document metadata).
    pub tool: String,
    /// Analyzed subject (from the document metadata).
    pub subject: String,
    /// Components evaluated.
    pub components: u64,
    /// One result per [`QualityCheck::ALL`] entry, in that order.
    pub checks: Vec<CheckResult>,
    /// Classified diagnostics — one per check with failures, carrying
    /// the failure counts and an example offender.
    pub diagnostics: Vec<Diagnostic>,
}

impl QualityReport {
    /// The result for one check (always present).
    pub fn check(&self, check: QualityCheck) -> &CheckResult {
        self.checks
            .iter()
            .find(|r| r.check == check)
            .expect("all checks evaluated")
    }

    /// The weighted 0–100 document score.
    pub fn score(&self) -> f64 {
        let total_weight: u32 = QualityCheck::ALL.iter().map(|c| c.weight()).sum();
        let weighted: f64 = self
            .checks
            .iter()
            .map(|r| r.score() * r.check.weight() as f64)
            .sum();
        weighted / total_weight as f64
    }
}

/// Is `v` a concrete version, as opposed to a range spelled verbatim
/// (GitHub DG, §V-D) or a wildcard? Range operators disqualify even
/// when the remainder would parse.
fn is_concrete_version(v: &str) -> bool {
    if v.is_empty() || v.contains(['*', '^', '~', '>', '<', '=', ',', '|', ' ']) {
        return false;
    }
    sbomdiff_types::Version::parse(v).is_ok()
}

/// Is `t` shaped like an RFC 3339 UTC timestamp
/// (`YYYY-MM-DDTHH:MM:SSZ`, optionally with fractional seconds)?
fn is_rfc3339(t: &str) -> bool {
    let b = t.as_bytes();
    if b.len() < 20 || b[b.len() - 1] != b'Z' {
        return false;
    }
    let digits = |r: std::ops::Range<usize>| b[r].iter().all(|c| c.is_ascii_digit());
    let head = digits(0..4)
        && b[4] == b'-'
        && digits(5..7)
        && b[7] == b'-'
        && digits(8..10)
        && b[10] == b'T'
        && digits(11..13)
        && b[13] == b':'
        && digits(14..16)
        && b[16] == b':'
        && digits(17..19);
    if !head {
        return false;
    }
    match &b[19..b.len() - 1] {
        [] => true,
        [b'.', frac @ ..] => !frac.is_empty() && frac.iter().all(|c| c.is_ascii_digit()),
        _ => false,
    }
}

/// Evaluates one document against the full checklist.
pub fn evaluate(sbom: &Sbom) -> QualityReport {
    let mut checks = Vec::with_capacity(QualityCheck::ALL.len());
    let mut diagnostics = Vec::new();
    for check in QualityCheck::ALL {
        let (result, diag) = evaluate_check(sbom, check);
        checks.push(result);
        diagnostics.extend(diag);
    }
    QualityReport {
        tool: sbom.meta.tool_name.clone(),
        subject: sbom.meta.subject.clone(),
        components: sbom.components().len() as u64,
        checks,
        diagnostics,
    }
}

fn evaluate_check(sbom: &Sbom, check: QualityCheck) -> (CheckResult, Option<Diagnostic>) {
    let mut result = CheckResult {
        check,
        passed: 0,
        missing: 0,
        malformed: 0,
    };
    // Example offender named in the diagnostic, and the class the
    // failure mode maps to in the shared taxonomy.
    let mut example: Option<String> = None;
    let mut class = DiagClass::MissingField;
    if check.is_document_level() {
        match check {
            QualityCheck::AuthorTool => {
                if !sbom.meta.tool_name.is_empty() && !sbom.meta.tool_version.is_empty() {
                    result.passed += 1;
                } else {
                    result.missing += 1;
                    example = Some("document creationInfo".into());
                }
            }
            QualityCheck::Timestamp => match sbom.meta.timestamp.as_deref() {
                Some(t) if is_rfc3339(t) => result.passed += 1,
                Some(t) => {
                    result.malformed += 1;
                    class = DiagClass::UnsupportedSyntax;
                    example = Some(format!("timestamp {t:?} is not RFC 3339"));
                }
                None => {
                    result.missing += 1;
                    example = Some("document creationInfo".into());
                }
            },
            _ => unreachable!(),
        }
    } else {
        for c in sbom.components() {
            let ok = match check {
                QualityCheck::Supplier => c.supplier.as_deref().is_some_and(|s| !s.is_empty()),
                QualityCheck::ComponentName => !c.name.is_empty(),
                QualityCheck::UniqueId => c.purl.is_some() || c.cpe.is_some(),
                QualityCheck::Relationship => c.scope.is_some(),
                QualityCheck::Version => match c.version.as_deref() {
                    None | Some("") => {
                        result.missing += 1;
                        example.get_or_insert_with(|| c.name.to_string());
                        continue;
                    }
                    Some(v) => {
                        if is_concrete_version(v) {
                            true
                        } else {
                            result.malformed += 1;
                            class = DiagClass::InvalidVersion;
                            example.get_or_insert_with(|| format!("{} ({v})", c.name));
                            continue;
                        }
                    }
                },
                _ => unreachable!(),
            };
            if ok {
                result.passed += 1;
            } else {
                result.missing += 1;
                example.get_or_insert_with(|| c.name.to_string());
            }
        }
    }
    let diag = (result.failed() > 0).then(|| {
        Diagnostic::new(
            class,
            format!(
                "quality check '{}' failed for {} of {} subject(s), e.g. {}",
                check.label(),
                result.failed(),
                result.passed + result.failed(),
                example.as_deref().unwrap_or("<unknown>"),
            ),
        )
    });
    (result, diag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbomdiff_types::{Component, DepScope, Ecosystem, Purl, Sbom};

    fn full_component() -> Component {
        let purl = Purl::for_package(Ecosystem::JavaScript, "left-pad", Some("1.3.0"));
        Component::new(Ecosystem::JavaScript, "left-pad", Some("1.3.0".into()))
            .with_purl(purl)
            .with_scope(DepScope::Runtime)
            .with_supplier("npm:left-pad maintainers")
    }

    fn full_sbom() -> Sbom {
        let mut s = Sbom::new("best-practice", "1.0.0")
            .with_subject("repo-1")
            .with_timestamp("2024-01-01T00:00:00Z");
        s.push(full_component());
        s
    }

    #[test]
    fn fully_populated_document_scores_100() {
        let report = evaluate(&full_sbom());
        for r in &report.checks {
            assert_eq!(r.score(), 100.0, "{}", r.check);
            assert_eq!(r.failed(), 0, "{}", r.check);
        }
        assert_eq!(report.score(), 100.0);
        assert!(report.diagnostics.is_empty());
        assert_eq!(report.components, 1);
        assert_eq!(report.tool, "best-practice");
    }

    #[test]
    fn supplier_present_missing() {
        // Present.
        let report = evaluate(&full_sbom());
        assert_eq!(report.check(QualityCheck::Supplier).passed, 1);
        // Missing.
        let mut s = full_sbom();
        let mut c = full_component();
        c.supplier = None;
        s.push(c);
        let report = evaluate(&s);
        let r = report.check(QualityCheck::Supplier);
        assert_eq!((r.passed, r.missing, r.malformed), (1, 1, 0));
        assert_eq!(r.score(), 50.0);
        // Empty string counts as missing, not present.
        let mut s = full_sbom();
        let mut c = full_component();
        c.supplier = Some("".into());
        s.push(c);
        assert_eq!(evaluate(&s).check(QualityCheck::Supplier).missing, 1);
        // The failure surfaces as a MissingField diagnostic.
        let report = evaluate(&s);
        let diag = report
            .diagnostics
            .iter()
            .find(|d| d.message.contains("'supplier'"))
            .unwrap();
        assert_eq!(diag.class, DiagClass::MissingField);
    }

    #[test]
    fn name_present_missing() {
        let report = evaluate(&full_sbom());
        assert_eq!(report.check(QualityCheck::ComponentName).passed, 1);
        let mut s = full_sbom();
        let mut c = full_component();
        c.name = "".into();
        s.push(c);
        let r = evaluate(&s);
        assert_eq!(r.check(QualityCheck::ComponentName).missing, 1);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.class == DiagClass::MissingField && d.message.contains("'name'")));
    }

    #[test]
    fn version_present_missing_malformed() {
        // Present and concrete.
        let report = evaluate(&full_sbom());
        assert_eq!(report.check(QualityCheck::Version).passed, 1);
        // Missing.
        let mut s = full_sbom();
        let mut c = full_component();
        c.version = None;
        s.push(c);
        assert_eq!(evaluate(&s).check(QualityCheck::Version).missing, 1);
        // Malformed: a range reported verbatim (GitHub DG, §V-D) is
        // present but not a concrete version.
        for range in ["^1.2.3", ">=2.0", "1.2.*", "~1.0", "not a version"] {
            let mut s = full_sbom();
            let mut c = full_component();
            c.version = Some(range.into());
            s.push(c);
            let report = evaluate(&s);
            let r = report.check(QualityCheck::Version);
            assert_eq!((r.missing, r.malformed), (0, 1), "{range}");
            assert!(
                report
                    .diagnostics
                    .iter()
                    .any(|d| d.class == DiagClass::InvalidVersion && d.message.contains(range)),
                "{range}"
            );
        }
    }

    #[test]
    fn unique_id_present_missing() {
        // PURL qualifies; CPE alone also qualifies.
        let report = evaluate(&full_sbom());
        assert_eq!(report.check(QualityCheck::UniqueId).passed, 1);
        let mut s = full_sbom();
        let mut c = full_component();
        c.purl = None;
        c.cpe = None;
        s.push(c);
        let r = evaluate(&s);
        assert_eq!(r.check(QualityCheck::UniqueId).missing, 1);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.message.contains("'unique-id'")));
    }

    #[test]
    fn relationship_present_missing() {
        let report = evaluate(&full_sbom());
        assert_eq!(report.check(QualityCheck::Relationship).passed, 1);
        let mut s = full_sbom();
        let mut c = full_component();
        c.scope = None;
        s.push(c);
        assert_eq!(evaluate(&s).check(QualityCheck::Relationship).missing, 1);
    }

    #[test]
    fn author_tool_present_missing() {
        let report = evaluate(&full_sbom());
        assert_eq!(report.check(QualityCheck::AuthorTool).passed, 1);
        let mut s = full_sbom();
        s.meta.tool_version = String::new();
        let r = evaluate(&s);
        assert_eq!(r.check(QualityCheck::AuthorTool).missing, 1);
        assert_eq!(r.check(QualityCheck::AuthorTool).score(), 0.0);
    }

    #[test]
    fn timestamp_present_missing_malformed() {
        let report = evaluate(&full_sbom());
        assert_eq!(report.check(QualityCheck::Timestamp).passed, 1);
        // Missing.
        let mut s = full_sbom();
        s.meta.timestamp = None;
        assert_eq!(evaluate(&s).check(QualityCheck::Timestamp).missing, 1);
        // Malformed: not RFC 3339.
        for bad in [
            "yesterday",
            "2024-01-01",
            "2024-01-01 00:00:00",
            "2024-01-01T00:00:00",
        ] {
            let mut s = full_sbom();
            s.meta.timestamp = Some(bad.into());
            let report = evaluate(&s);
            let r = report.check(QualityCheck::Timestamp);
            assert_eq!((r.missing, r.malformed), (0, 1), "{bad}");
            assert!(
                report
                    .diagnostics
                    .iter()
                    .any(|d| d.class == DiagClass::UnsupportedSyntax),
                "{bad}"
            );
        }
        // Fractional seconds are fine.
        let mut s = full_sbom();
        s.meta.timestamp = Some("2024-01-01T00:00:00.123Z".into());
        assert_eq!(evaluate(&s).check(QualityCheck::Timestamp).passed, 1);
    }

    #[test]
    fn empty_document_is_vacuous_on_component_checks() {
        let s = Sbom::new("tool", "1.0").with_subject("r");
        let report = evaluate(&s);
        assert_eq!(report.check(QualityCheck::Supplier).score(), 100.0);
        assert_eq!(report.check(QualityCheck::Timestamp).score(), 0.0);
        // Only document-level failures weigh in.
        let expected = 100.0 * (15 + 20 + 20 + 15 + 10 + 10) as f64 / 100.0;
        assert!((report.score() - expected).abs() < 1e-9);
    }

    #[test]
    fn weights_sum_to_100_and_labels_are_stable() {
        let total: u32 = QualityCheck::ALL.iter().map(|c| c.weight()).sum();
        assert_eq!(total, 100);
        let labels: Vec<_> = QualityCheck::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            [
                "supplier",
                "name",
                "version",
                "unique-id",
                "relationship",
                "author-tool",
                "timestamp"
            ]
        );
        // Labels are unique (metric label values must not collide).
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }

    #[test]
    fn weighted_total_reflects_partial_failures() {
        // One component failing only the supplier check: the total drops
        // by exactly the supplier weight.
        let mut s = Sbom::new("t", "1").with_timestamp("2024-01-01T00:00:00Z");
        let mut c = full_component();
        c.supplier = None;
        s.push(c);
        let report = evaluate(&s);
        assert!((report.score() - 85.0).abs() < 1e-9, "{}", report.score());
    }
}
