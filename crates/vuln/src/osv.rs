//! OSV-shaped affected-range semantics and JSON round-trip.
//!
//! Advisories carry the [OSV schema](https://ossf.github.io/osv-schema/)'s
//! `affected[].ranges[].events` model: a range is a sorted walk over
//! `introduced` / `fixed` / `last_affected` events, `SEMVER` ranges for
//! ecosystems whose registries publish strict semver and `ECOSYSTEM`
//! ranges elsewhere. Evaluation reuses the workspace [`Version`] ordering
//! (including the PR 5 pre-release fixes) and mirrors the
//! [`VersionReq`](sbomdiff_types::VersionReq) pre-release gate: a
//! pre-release only matches a range whose events mention one, so the OSV
//! path and the legacy constraint path agree on the same universe.
//!
//! The database round-trips through files as OSV JSON (an
//! `{"advisories": [...]}` envelope of per-advisory OSV documents) via
//! `sbomdiff_textformats::json`; ingestion never panics — malformed
//! envelopes fail with one classified [`Diagnostic`], damaged individual
//! advisories are skipped with per-advisory diagnostics.

use sbomdiff_textformats::{json, Value};
use sbomdiff_types::{DiagClass, Diagnostic, Ecosystem, Purl, Version};

use crate::advisory::{Advisory, AdvisoryDb, Severity};

/// OSV range type: how event versions are compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RangeKind {
    /// `SEMVER`: events are strict semver, compared per SemVer §11.
    Semver,
    /// `ECOSYSTEM`: events use the ecosystem's native version ordering.
    Ecosystem,
}

impl RangeKind {
    /// The OSV `ranges[].type` string.
    pub fn label(self) -> &'static str {
        match self {
            RangeKind::Semver => "SEMVER",
            RangeKind::Ecosystem => "ECOSYSTEM",
        }
    }

    /// Parses an OSV `ranges[].type` string.
    pub fn from_label(label: &str) -> Option<RangeKind> {
        match label {
            "SEMVER" => Some(RangeKind::Semver),
            "ECOSYSTEM" => Some(RangeKind::Ecosystem),
            _ => None,
        }
    }

    /// The range type OSV feeds use for an ecosystem: `SEMVER` where the
    /// registry mandates semver (npm, Go, Cargo, Swift PM), `ECOSYSTEM`
    /// where versioning is scheme-specific (PEP 440, Maven, gems, ...).
    pub fn for_ecosystem(eco: Ecosystem) -> RangeKind {
        match eco {
            Ecosystem::JavaScript | Ecosystem::Go | Ecosystem::Rust | Ecosystem::Swift => {
                RangeKind::Semver
            }
            _ => RangeKind::Ecosystem,
        }
    }
}

/// One OSV range event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OsvEvent {
    /// `{"introduced": v}`; `None` encodes the schema's `"0"` sentinel
    /// (affected since the beginning of time).
    Introduced(Option<Version>),
    /// `{"fixed": v}`: `v` itself is no longer affected (exclusive).
    Fixed(Version),
    /// `{"last_affected": v}`: `v` is the last affected version
    /// (inclusive).
    LastAffected(Version),
}

impl OsvEvent {
    /// The event's version, when it carries a concrete one.
    pub fn version(&self) -> Option<&Version> {
        match self {
            OsvEvent::Introduced(v) => v.as_ref(),
            OsvEvent::Fixed(v) | OsvEvent::LastAffected(v) => Some(v),
        }
    }

    /// Sort rank at equal versions, used as a deterministic tie-breaker;
    /// the walk itself decides whether a tied `introduced` is applied
    /// before or after the tied limit events (see [`OsvRange::affects`]).
    fn rank(&self) -> u8 {
        match self {
            OsvEvent::Introduced(_) => 0,
            OsvEvent::LastAffected(_) => 1,
            OsvEvent::Fixed(_) => 2,
        }
    }

    /// The OSV JSON key for this event.
    pub(crate) fn key(&self) -> &'static str {
        match self {
            OsvEvent::Introduced(_) => "introduced",
            OsvEvent::Fixed(_) => "fixed",
            OsvEvent::LastAffected(_) => "last_affected",
        }
    }

    /// The OSV JSON value for this event (`"0"` for the epoch sentinel).
    pub(crate) fn value_string(&self) -> String {
        match self.version() {
            Some(v) => v.to_unprefixed(),
            None => "0".to_string(),
        }
    }
}

/// One OSV `ranges[]` entry: a type plus its event list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OsvRange {
    /// How event versions are compared.
    pub kind: RangeKind,
    /// The events, in declaration order (evaluation sorts a copy).
    pub events: Vec<OsvEvent>,
}

impl OsvRange {
    /// The dominant real-world shape: affected from `introduced` (or the
    /// beginning of time) up to, excluding, `fixed`.
    pub fn half_open(kind: RangeKind, introduced: Option<Version>, fixed: Version) -> OsvRange {
        OsvRange {
            kind,
            events: vec![OsvEvent::Introduced(introduced), OsvEvent::Fixed(fixed)],
        }
    }

    /// A closed range with no published fix: affected from `introduced`
    /// through `last_affected`, inclusive.
    pub fn closed(kind: RangeKind, introduced: Option<Version>, last: Version) -> OsvRange {
        OsvRange {
            kind,
            events: vec![
                OsvEvent::Introduced(introduced),
                OsvEvent::LastAffected(last),
            ],
        }
    }

    /// Whether any event version is a pre-release. Mirrors
    /// [`VersionReq::allows_prerelease`](sbomdiff_types::VersionReq::allows_prerelease):
    /// pre-release versions only match ranges that mention one.
    pub fn mentions_prerelease(&self) -> bool {
        self.events
            .iter()
            .any(|e| e.version().is_some_and(Version::is_prerelease))
    }

    /// Evaluates the range against a concrete version: the OSV sorted-walk
    /// algorithm. Events are visited in version order; each `introduced`
    /// at or below `v` opens the affected state, each `fixed` at or below
    /// `v` closes it, each `last_affected` strictly below `v` closes it.
    ///
    /// Events tied on the same version are processed as one group, and
    /// the order inside the group depends on the incoming state: an open
    /// interval is closed by its limit event before a co-located
    /// `introduced` opens the next one (adjacent intervals touching at a
    /// shared boundary, e.g. `last_affected 2.0.0-rc.1` followed by
    /// `introduced 2.0.0-rc.1`), while from a closed state `introduced`
    /// applies first so a `fixed` at its own `introduced` version stays
    /// an empty range rather than opening one.
    pub fn affects(&self, v: &Version) -> bool {
        if v.is_prerelease() && !self.mentions_prerelease() {
            return false;
        }
        let mut sorted: Vec<&OsvEvent> = self.events.iter().collect();
        sorted.sort_by(|a, b| {
            // The epoch sentinel precedes every concrete version.
            match (a.version(), b.version()) {
                (None, None) => a.rank().cmp(&b.rank()),
                (None, Some(_)) => std::cmp::Ordering::Less,
                (Some(_), None) => std::cmp::Ordering::Greater,
                (Some(x), Some(y)) => x.cmp(y).then(a.rank().cmp(&b.rank())),
            }
        });
        let mut affected = false;
        let mut i = 0;
        while i < sorted.len() {
            let mut j = i + 1;
            while j < sorted.len()
                && match (sorted[i].version(), sorted[j].version()) {
                    (Some(x), Some(y)) => x == y,
                    (None, None) => true,
                    _ => false,
                }
            {
                j += 1;
            }
            let group = &sorted[i..j];
            // Closed state: opens first. Open state: closes first.
            let limits_first = affected;
            for pass in 0..2 {
                let do_limits = (pass == 0) == limits_first;
                for event in group {
                    match event {
                        OsvEvent::Introduced(None) if !do_limits => affected = true,
                        OsvEvent::Introduced(Some(x)) if !do_limits && v >= x => affected = true,
                        OsvEvent::Fixed(x) if do_limits && v >= x => affected = false,
                        OsvEvent::LastAffected(x) if do_limits && v > x => affected = false,
                        _ => {}
                    }
                }
            }
            i = j;
        }
        affected
    }

    /// Structural issues with the event list, empty when well-formed:
    /// a missing `introduced`, a limit event at or below its
    /// `introduced`, both `fixed` and `last_affected` in one range, or
    /// duplicate events.
    pub fn validate(&self) -> Vec<String> {
        let mut issues = Vec::new();
        let introduced: Vec<&OsvEvent> = self
            .events
            .iter()
            .filter(|e| matches!(e, OsvEvent::Introduced(_)))
            .collect();
        if introduced.is_empty() {
            issues.push("range has no introduced event".to_string());
        }
        let floor = introduced.iter().filter_map(|e| e.version()).min();
        let mut has_fixed = false;
        let mut has_last = false;
        for event in &self.events {
            match event {
                OsvEvent::Fixed(x) => {
                    has_fixed = true;
                    if let Some(floor) = floor {
                        if x <= floor {
                            issues.push(format!(
                                "fixed {} does not follow introduced {}",
                                x.canonical(),
                                floor.canonical()
                            ));
                        }
                    }
                }
                OsvEvent::LastAffected(x) => {
                    has_last = true;
                    if let Some(floor) = floor {
                        if x < floor {
                            issues.push(format!(
                                "last_affected {} precedes introduced {}",
                                x.canonical(),
                                floor.canonical()
                            ));
                        }
                    }
                }
                OsvEvent::Introduced(_) => {}
            }
        }
        if has_fixed && has_last {
            issues.push("range mixes fixed and last_affected events".to_string());
        }
        for (i, a) in self.events.iter().enumerate() {
            if self.events[..i].contains(a) {
                issues.push(format!("duplicate {} event", a.key()));
            }
        }
        issues
    }
}

/// The OSV `affected[].package.ecosystem` name for a workspace ecosystem.
pub fn osv_ecosystem(eco: Ecosystem) -> &'static str {
    match eco {
        Ecosystem::Python => "PyPI",
        Ecosystem::JavaScript => "npm",
        Ecosystem::Ruby => "RubyGems",
        Ecosystem::Php => "Packagist",
        Ecosystem::Java => "Maven",
        Ecosystem::Go => "Go",
        Ecosystem::Rust => "crates.io",
        Ecosystem::Swift => "SwiftURL",
        Ecosystem::DotNet => "NuGet",
    }
}

/// Parses an OSV ecosystem name back to a workspace ecosystem.
pub fn ecosystem_from_osv(name: &str) -> Option<Ecosystem> {
    match name {
        "PyPI" => Some(Ecosystem::Python),
        "npm" => Some(Ecosystem::JavaScript),
        "RubyGems" => Some(Ecosystem::Ruby),
        "Packagist" => Some(Ecosystem::Php),
        "Maven" => Some(Ecosystem::Java),
        "Go" => Some(Ecosystem::Go),
        "crates.io" => Some(Ecosystem::Rust),
        "SwiftURL" => Some(Ecosystem::Swift),
        "NuGet" => Some(Ecosystem::DotNet),
        other => other.parse().ok(),
    }
}

/// Serializes one advisory as an OSV JSON document value.
pub fn advisory_to_osv(advisory: &Advisory) -> Value {
    let mut events_per_range = Vec::new();
    for range in &advisory.ranges {
        let mut events = Vec::new();
        for event in &range.events {
            let mut ev = Value::object();
            ev.set(event.key(), Value::Str(event.value_string()));
            events.push(ev);
        }
        let mut r = Value::object();
        r.set("type", Value::Str(range.kind.label().to_string()));
        r.set("events", Value::Array(events));
        events_per_range.push(r);
    }
    let mut package = Value::object();
    package.set(
        "ecosystem",
        Value::Str(osv_ecosystem(advisory.ecosystem).to_string()),
    );
    package.set("name", Value::Str(advisory.package.clone()));
    package.set(
        "purl",
        Value::Str(Purl::for_package(advisory.ecosystem, &advisory.package, None).to_string()),
    );
    let mut affected = Value::object();
    affected.set("package", package);
    affected.set("ranges", Value::Array(events_per_range));

    let mut doc = Value::object();
    doc.set("id", Value::Str(advisory.id.clone()));
    // Synthetic feed: a fixed timestamp keeps serialization seed-pure.
    doc.set("modified", Value::Str("2023-06-01T00:00:00Z".to_string()));
    doc.set("summary", Value::Str(advisory.summary.clone()));
    doc.set("affected", Value::Array(vec![affected]));
    let mut dbs = Value::object();
    dbs.set(
        "severity",
        Value::Str(advisory.severity.label().to_string()),
    );
    doc.set("database_specific", dbs);
    doc
}

/// Serializes a whole database as an `{"advisories": [...]}` OSV JSON
/// envelope (pretty-printed, trailing newline) for file round-trips.
pub fn db_to_osv_json(db: &AdvisoryDb) -> String {
    let mut envelope = Value::object();
    envelope.set(
        "advisories",
        Value::Array(db.advisories().iter().map(advisory_to_osv).collect()),
    );
    let mut out = json::to_string_pretty(&envelope);
    out.push('\n');
    out
}

/// Ingests an OSV JSON envelope from raw bytes.
///
/// Returns the database plus per-advisory diagnostics for entries that
/// were skipped (damaged events, unknown ecosystems, unparseable
/// versions). Ingestion never panics.
///
/// # Errors
///
/// A single classified [`Diagnostic`] when the envelope itself is
/// unusable: invalid UTF-8 ([`DiagClass::EncodingError`]), truncated
/// JSON ([`DiagClass::TruncatedInput`]), other syntax damage or a
/// missing/ill-typed `advisories` array ([`DiagClass::MalformedFile`]).
pub fn ingest_osv(bytes: &[u8]) -> Result<(AdvisoryDb, Vec<Diagnostic>), Diagnostic> {
    if std::str::from_utf8(bytes).is_err() {
        return Err(Diagnostic::new(
            DiagClass::EncodingError,
            "OSV feed is not valid UTF-8",
        ));
    }
    let doc = json::parse_bytes(bytes).map_err(|e| {
        let truncated = e.message().contains("unexpected end")
            || e.message().contains("unterminated")
            || e.message().contains("expected value");
        Diagnostic::new(
            if truncated {
                DiagClass::TruncatedInput
            } else {
                DiagClass::MalformedFile
            },
            format!("OSV feed line {}: {}", e.line(), e.message()),
        )
        .with_line(e.line() as u32)
    })?;
    let Some(entries) = doc.get("advisories").and_then(Value::as_array) else {
        return Err(Diagnostic::new(
            DiagClass::MalformedFile,
            "OSV envelope has no advisories array",
        ));
    };
    let mut advisories = Vec::new();
    let mut diagnostics = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        match parse_osv_advisory(entry) {
            Ok(advisory) => advisories.push(advisory),
            Err(diag) => {
                diagnostics.push(diag.with_line(i as u32));
            }
        }
    }
    Ok((AdvisoryDb::from_advisories(advisories), diagnostics))
}

fn parse_osv_advisory(entry: &Value) -> Result<Advisory, Diagnostic> {
    let id = entry
        .get("id")
        .and_then(Value::as_str)
        .ok_or_else(|| Diagnostic::new(DiagClass::MissingField, "advisory without id"))?
        .to_string();
    let fail =
        |class: DiagClass, message: String| Diagnostic::new(class, format!("{id}: {message}"));
    let affected = entry
        .get("affected")
        .and_then(Value::as_array)
        .filter(|a| !a.is_empty())
        .ok_or_else(|| fail(DiagClass::MissingField, "no affected entries".into()))?;
    // The synthetic feed writes one affected entry per advisory; tolerate
    // extras by reading the first (the matcher is per-package anyway).
    let first = &affected[0];
    let eco_name = first
        .pointer("package/ecosystem")
        .and_then(Value::as_str)
        .ok_or_else(|| {
            fail(
                DiagClass::MissingField,
                "affected entry without package.ecosystem".into(),
            )
        })?;
    let ecosystem = ecosystem_from_osv(eco_name).ok_or_else(|| {
        fail(
            DiagClass::UnsupportedSyntax,
            format!("unknown ecosystem {eco_name:?}"),
        )
    })?;
    let package = first
        .pointer("package/name")
        .and_then(Value::as_str)
        .ok_or_else(|| {
            fail(
                DiagClass::MissingField,
                "affected entry without package.name".into(),
            )
        })?;
    let raw_ranges = first
        .get("ranges")
        .and_then(Value::as_array)
        .filter(|r| !r.is_empty())
        .ok_or_else(|| {
            fail(
                DiagClass::MissingField,
                "affected entry without ranges".into(),
            )
        })?;
    let mut ranges = Vec::new();
    for raw in raw_ranges {
        let kind_label = raw.get("type").and_then(Value::as_str).unwrap_or("");
        let kind = RangeKind::from_label(kind_label).ok_or_else(|| {
            fail(
                DiagClass::UnsupportedSyntax,
                format!("unknown range type {kind_label:?}"),
            )
        })?;
        let raw_events = raw
            .get("events")
            .and_then(Value::as_array)
            .ok_or_else(|| fail(DiagClass::MissingField, "range without events".into()))?;
        let mut events = Vec::new();
        for ev in raw_events {
            events.push(parse_osv_event(ev).map_err(|m| fail(DiagClass::InvalidVersion, m))?);
        }
        let range = OsvRange { kind, events };
        let issues = range.validate();
        if let Some(issue) = issues.first() {
            return Err(fail(DiagClass::UnsupportedSyntax, issue.clone()));
        }
        ranges.push(range);
    }
    let severity = entry
        .pointer("database_specific/severity")
        .and_then(Value::as_str)
        .and_then(Severity::from_label)
        .unwrap_or(Severity::Medium);
    let fixed_in = ranges
        .iter()
        .flat_map(|r| &r.events)
        .filter_map(|e| match e {
            OsvEvent::Fixed(v) => Some(v.clone()),
            _ => None,
        })
        .max();
    Ok(Advisory {
        id,
        ecosystem,
        package: sbomdiff_types::name::normalize(ecosystem, package),
        summary: entry
            .get("summary")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string(),
        ranges,
        fixed_in,
        severity,
    })
}

fn parse_osv_event(ev: &Value) -> Result<OsvEvent, String> {
    let pairs = ev
        .as_object()
        .ok_or_else(|| "event is not an object".to_string())?;
    let [(key, value)] = pairs else {
        return Err(format!(
            "event must carry exactly one key, has {}",
            pairs.len()
        ));
    };
    let text = value
        .as_str()
        .ok_or_else(|| format!("{key} event version is not a string"))?;
    match key.as_str() {
        "introduced" if text == "0" => Ok(OsvEvent::Introduced(None)),
        "introduced" => Ok(OsvEvent::Introduced(Some(parse_version(text)?))),
        "fixed" => Ok(OsvEvent::Fixed(parse_version(text)?)),
        "last_affected" => Ok(OsvEvent::LastAffected(parse_version(text)?)),
        other => Err(format!("unknown event kind {other:?}")),
    }
}

fn parse_version(text: &str) -> Result<Version, String> {
    Version::parse(text).map_err(|e| format!("bad event version {text:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(text: &str) -> Version {
        Version::parse(text).unwrap()
    }

    #[test]
    fn half_open_range_matches_like_osv() {
        let r = OsvRange::half_open(RangeKind::Ecosystem, None, v("1.22.0"));
        assert!(r.affects(&v("0.1.0")));
        assert!(r.affects(&v("1.21.9")));
        assert!(!r.affects(&v("1.22.0")), "fixed version is excluded");
        assert!(!r.affects(&v("2.0.0")));
    }

    #[test]
    fn introduced_floor_is_inclusive() {
        let r = OsvRange::half_open(RangeKind::Semver, Some(v("1.2.0")), v("1.4.0"));
        assert!(!r.affects(&v("1.1.9")));
        assert!(r.affects(&v("1.2.0")), "introduced version is included");
        assert!(r.affects(&v("1.3.5")));
        assert!(!r.affects(&v("1.4.0")));
    }

    #[test]
    fn last_affected_is_inclusive() {
        let r = OsvRange::closed(RangeKind::Ecosystem, Some(v("2.0.0")), v("2.3.0"));
        assert!(r.affects(&v("2.3.0")), "last_affected version is included");
        assert!(!r.affects(&v("2.3.1")));
    }

    #[test]
    fn prerelease_gate_mirrors_version_req() {
        let r = OsvRange::half_open(RangeKind::Semver, None, v("1.22.0"));
        assert!(
            !r.affects(&v("1.21.0-rc.1")),
            "pre-releases need an explicit mention"
        );
        let pre = OsvRange::half_open(RangeKind::Semver, None, v("1.22.0-rc.1"));
        assert!(pre.affects(&v("1.21.0-beta.2")));
    }

    #[test]
    fn adjacent_intervals_survive_a_shared_boundary_version() {
        // `last_affected 2.0.0-rc.1` then `introduced 2.0.0-rc.1`: the
        // inclusive close and the open touch at one version; probes
        // inside the second interval must stay affected, and a `fixed`
        // at its own `introduced` must still be an empty window.
        let r = OsvRange {
            kind: RangeKind::Ecosystem,
            events: vec![
                OsvEvent::Introduced(None),
                OsvEvent::LastAffected(v("2.0.0-rc.1")),
                OsvEvent::Introduced(Some(v("2.0.0-rc.1"))),
                OsvEvent::LastAffected(v("3.0.0")),
            ],
        };
        assert!(r.validate().is_empty());
        assert!(r.affects(&v("2.0.0-rc.1")), "shared boundary is affected");
        assert!(r.affects(&v("2.0.0-rc.2")), "second interval survives");
        assert!(r.affects(&v("2.5.0")));
        assert!(r.affects(&v("3.0.0")), "last_affected stays inclusive");
        assert!(!r.affects(&v("3.0.1")));
        let fixed_pair = OsvRange {
            kind: RangeKind::Ecosystem,
            events: vec![
                OsvEvent::Introduced(Some(v("1.0.0"))),
                OsvEvent::Fixed(v("2.0.0")),
                OsvEvent::Introduced(Some(v("2.0.0"))),
                OsvEvent::Fixed(v("3.0.0")),
            ],
        };
        assert!(fixed_pair.affects(&v("2.0.0")), "reintroduced at the fix");
        assert!(fixed_pair.affects(&v("2.5.0")));
        assert!(!fixed_pair.affects(&v("3.0.0")));
    }

    #[test]
    fn multi_range_reintroduction() {
        let r1 = OsvRange::half_open(RangeKind::Ecosystem, None, v("1.1.0"));
        let r2 = OsvRange::half_open(RangeKind::Ecosystem, Some(v("2.0.0")), v("2.2.0"));
        let ranges = [r1, r2];
        let affects = |x: &Version| ranges.iter().any(|r| r.affects(x));
        assert!(affects(&v("1.0.0")));
        assert!(!affects(&v("1.5.0")), "patched window");
        assert!(affects(&v("2.1.0")), "reintroduced");
        assert!(!affects(&v("2.2.0")));
    }

    #[test]
    fn validation_flags_damage() {
        let no_intro = OsvRange {
            kind: RangeKind::Ecosystem,
            events: vec![OsvEvent::Fixed(v("1.0.0"))],
        };
        assert!(!no_intro.validate().is_empty());
        let inverted = OsvRange::half_open(RangeKind::Ecosystem, Some(v("2.0.0")), v("1.0.0"));
        assert!(inverted
            .validate()
            .iter()
            .any(|m| m.contains("does not follow")));
        let dup = OsvRange {
            kind: RangeKind::Ecosystem,
            events: vec![
                OsvEvent::Introduced(None),
                OsvEvent::Introduced(None),
                OsvEvent::Fixed(v("1.0.0")),
            ],
        };
        assert!(dup.validate().iter().any(|m| m.contains("duplicate")));
        assert!(OsvRange::half_open(RangeKind::Ecosystem, None, v("1.0.0"))
            .validate()
            .is_empty());
    }

    #[test]
    fn osv_ecosystem_names_round_trip() {
        for eco in Ecosystem::ALL {
            assert_eq!(ecosystem_from_osv(osv_ecosystem(eco)), Some(eco));
        }
        assert_eq!(ecosystem_from_osv("Linux"), None);
    }
}
