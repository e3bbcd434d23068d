//! SPDX 2.3 tag-value serialization and the line parser the ingester reads
//! it with.
//!
//! The tag-value format is the original SPDX wire form: one `Tag: value`
//! pair per line, with `<text>...</text>` spans for multi-line values and
//! `#` comment lines. Real-world tools (e.g. `reuse`, older `spdx-sbom-
//! generator` builds) still emit it, so external ingestion must accept it.
//!
//! Parsing is line-oriented through [`Builder`] so the streaming ingester
//! can feed lines from a bounded [`LineReader`] without materializing the
//! document; packages materialize through the same
//! [`RawSpdxPackage::into_component`] as SPDX JSON packages, so the two
//! SPDX forms cannot drift apart.
//!
//! [`LineReader`]: sbomdiff_textformats::stream::LineReader
//! [`RawSpdxPackage::into_component`]: crate::spdx::RawSpdxPackage

use crate::spdx::{creator_tool, subject_from_doc_name, RawSpdxPackage};
use sbomdiff_textformats::TextError;
use sbomdiff_types::{Component, Sbom, Symbol};

/// Serializes an SBOM as SPDX 2.3 tag-value text (deterministic: the
/// `Created` timestamp is emitted only when the SBOM carries one — never
/// sampled from the wall clock — and document identity derives from tool +
/// subject, matching the JSON serializer).
pub fn to_string(sbom: &Sbom) -> String {
    let mut out = String::new();
    let tool = &sbom.meta.tool_name;
    let version = &sbom.meta.tool_version;
    let subject = &sbom.meta.subject;
    out.push_str("SPDXVersion: SPDX-2.3\n");
    out.push_str("DataLicense: CC0-1.0\n");
    out.push_str("SPDXID: SPDXRef-DOCUMENT\n");
    out.push_str(&format!("DocumentName: {subject}-{tool}\n"));
    out.push_str(&format!(
        "DocumentNamespace: https://sbomdiff.example/spdx/{tool}/{subject}\n"
    ));
    out.push_str(&format!("Creator: Tool: {tool}-{version}\n"));
    if let Some(ts) = &sbom.meta.timestamp {
        out.push_str(&format!("Created: {ts}\n"));
    }
    for (i, c) in sbom.components().iter().enumerate() {
        out.push('\n');
        out.push_str(&format!("PackageName: {}\n", c.name));
        out.push_str(&format!("SPDXID: SPDXRef-Package-{i}\n"));
        if let Some(v) = &c.version {
            out.push_str(&format!("PackageVersion: {v}\n"));
        }
        out.push_str("PackageDownloadLocation: NOASSERTION\n");
        if let Some(s) = &c.supplier {
            out.push_str(&format!("PackageSupplier: Organization: {s}\n"));
        }
        let mut source_info = format!("ecosystem: {}", c.ecosystem.label());
        if !c.found_in.is_empty() {
            source_info.push_str(&format!("; found_in: {}", c.found_in));
        }
        if let Some(scope) = c.scope {
            source_info.push_str(&format!("; scope: {}", scope.label()));
        }
        out.push_str(&format!("PackageSourceInfo: <text>{source_info}</text>\n"));
        if let Some(p) = &c.purl {
            out.push_str(&format!("ExternalRef: PACKAGE-MANAGER purl {p}\n"));
        }
        if let Some(cpe) = &c.cpe {
            out.push_str(&format!("ExternalRef: SECURITY cpe23Type {cpe}\n"));
        }
    }
    out.push('\n');
    for i in 0..sbom.len() {
        out.push_str(&format!(
            "Relationship: SPDXRef-DOCUMENT DESCRIBES SPDXRef-Package-{i}\n"
        ));
    }
    out
}

/// Incremental tag-value parser: feed lines with [`Builder::line`], then
/// call [`Builder::finish`]. Never panics; malformed lines yield
/// [`TextError`] with the 1-based line number.
#[derive(Debug, Default)]
pub(crate) struct Builder {
    lineno: usize,
    spdx_version: Option<String>,
    doc_name: String,
    created: Option<String>,
    creators: Vec<String>,
    /// Every package before `current`, materialized.
    components: Vec<Component>,
    current: Option<RawSpdxPackage>,
    relationships: u64,
    /// Open `<text>` span: the tag awaiting its value plus the lines
    /// accumulated so far.
    pending_text: Option<(String, String)>,
}

impl Builder {
    pub(crate) fn new() -> Self {
        Builder::default()
    }

    /// The `SPDXVersion` value seen so far, if any.
    pub(crate) fn spdx_version(&self) -> Option<&str> {
        self.spdx_version.as_deref()
    }

    /// Number of `Relationship` lines seen so far.
    pub(crate) fn relationships(&self) -> u64 {
        self.relationships
    }

    /// Consumes one line (without its terminator).
    ///
    /// # Errors
    ///
    /// Returns [`TextError`] for a non-blank, non-comment line with no
    /// `:` separator, or a malformed `ExternalRef` value.
    pub(crate) fn line(&mut self, text: &str) -> Result<(), TextError> {
        self.lineno += 1;
        // Inside a <text> span everything is literal, including blank and
        // `#`-prefixed lines.
        if let Some((tag, mut acc)) = self.pending_text.take() {
            if let Some(rest) = text.strip_suffix("</text>") {
                if !acc.is_empty() || !rest.is_empty() {
                    if !acc.is_empty() {
                        acc.push('\n');
                    }
                    acc.push_str(rest);
                }
                self.apply(&tag, &acc)?;
            } else {
                if !acc.is_empty() {
                    acc.push('\n');
                }
                acc.push_str(text);
                self.pending_text = Some((tag, acc));
            }
            return Ok(());
        }
        let trimmed = text.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return Ok(());
        }
        let Some((tag, value)) = trimmed.split_once(':') else {
            return Err(TextError::new(
                self.lineno,
                format!("expected `Tag: value`, got {trimmed:?}"),
            ));
        };
        let tag = tag.trim();
        let value = value.trim_start();
        if let Some(body) = value.strip_prefix("<text>") {
            if let Some(inner) = body.strip_suffix("</text>") {
                self.apply(tag, inner)?;
            } else {
                self.pending_text = Some((tag.to_string(), body.to_string()));
            }
            return Ok(());
        }
        self.apply(tag, value)
    }

    fn apply(&mut self, tag: &str, value: &str) -> Result<(), TextError> {
        match tag {
            // First occurrence wins for document-level singletons.
            "SPDXVersion" if self.spdx_version.is_none() => {
                self.spdx_version = Some(value.to_string());
            }
            "DocumentName" if self.doc_name.is_empty() => {
                self.doc_name = value.to_string();
            }
            "Created" if self.created.is_none() => {
                self.created = Some(value.to_string());
            }
            "Creator" => self.creators.push(value.to_string()),
            "PackageName" => {
                let prev = self.current.replace(RawSpdxPackage::named(value));
                self.components
                    .extend(prev.and_then(RawSpdxPackage::into_component));
            }
            "PackageVersion" => {
                if let Some(pkg) = &mut self.current {
                    pkg.version = Some(Symbol::from(value));
                }
            }
            "PackageSourceInfo" => {
                if let Some(pkg) = &mut self.current {
                    pkg.source_info(value);
                }
            }
            "PackageSupplier" => {
                if let Some(pkg) = &mut self.current {
                    pkg.supplier(value);
                }
            }
            "ExternalRef" => {
                let mut parts = value.splitn(3, char::is_whitespace);
                let (Some(_category), Some(rtype), Some(locator)) =
                    (parts.next(), parts.next(), parts.next())
                else {
                    return Err(TextError::new(
                        self.lineno,
                        format!("malformed ExternalRef {value:?}"),
                    ));
                };
                if let Some(pkg) = &mut self.current {
                    pkg.external_ref(rtype, Some(locator.trim()));
                }
            }
            "Relationship" => self.relationships += 1,
            // DataLicense, SPDXID, DocumentNamespace,
            // PackageDownloadLocation, licensing tags, file sections, ...
            _ => {}
        }
        Ok(())
    }

    /// Finishes parsing and builds the SBOM.
    ///
    /// # Errors
    ///
    /// Returns [`TextError`] when no `SPDXVersion: SPDX-*` tag was seen
    /// (not an SPDX tag-value document) or a `<text>` span is unterminated.
    pub(crate) fn finish(mut self) -> Result<Sbom, TextError> {
        if self.pending_text.is_some() {
            return Err(TextError::new(self.lineno, "unterminated <text> value"));
        }
        if !self
            .spdx_version
            .as_deref()
            .is_some_and(|v| v.starts_with("SPDX-"))
        {
            return Err(TextError::new(0, "not an SPDX tag-value document"));
        }
        // Same creator semantics as the JSON parser's creators[0]: prefer
        // the first `Tool: ` creator, else the first creator of any kind.
        let creator = self
            .creators
            .iter()
            .find(|c| c.starts_with("Tool: "))
            .or_else(|| self.creators.first())
            .map(String::as_str)
            .unwrap_or("");
        let (tool_name, tool_version) = creator_tool(creator);
        let subject = subject_from_doc_name(&self.doc_name, &tool_name);
        let mut sbom = Sbom::new(tool_name, tool_version).with_subject(subject);
        sbom.meta.timestamp = self.created.take();
        self.components
            .extend(self.current.take().and_then(RawSpdxPackage::into_component));
        for c in self.components {
            sbom.push(c);
        }
        Ok(sbom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SbomFormat;
    use sbomdiff_types::{Cpe, DepScope, Ecosystem, Purl};

    fn parse(text: &str) -> Result<Sbom, TextError> {
        SbomFormat::SpdxTagValue.parse(text)
    }

    fn sample() -> Sbom {
        let mut sbom = Sbom::new("trivy", "0.43.0")
            .with_subject("demo-repo")
            .with_timestamp("2024-06-24T00:00:00Z");
        sbom.push(
            Component::new(Ecosystem::Rust, "serde", Some("1.0.188".into()))
                .with_found_in("Cargo.lock")
                .with_scope(DepScope::Runtime)
                .with_purl(Purl::for_package(Ecosystem::Rust, "serde", Some("1.0.188")))
                .with_cpe(Cpe::for_package(Ecosystem::Rust, "serde", "1.0.188"))
                .with_supplier("crates.io:serde"),
        );
        sbom.push(Component::new(
            Ecosystem::Java,
            "com.google.guava:guava",
            Some("32.1.2".into()),
        ));
        sbom
    }

    #[test]
    fn roundtrip() {
        let text = to_string(&sample());
        let back = parse(&text).unwrap();
        assert_eq!(back.meta.tool_name, "trivy");
        assert_eq!(back.meta.tool_version, "0.43.0");
        assert_eq!(back.meta.subject, "demo-repo");
        assert_eq!(back.len(), 2);
        assert_eq!(back.components()[0].name, "serde");
        assert_eq!(back.components()[0].found_in, "Cargo.lock");
        assert_eq!(back.components()[0].scope, Some(DepScope::Runtime));
        assert!(back.components()[0].purl.is_some());
        assert!(back.components()[0].cpe.is_some());
        assert_eq!(
            back.components()[0].supplier.as_deref(),
            Some("crates.io:serde")
        );
        assert_eq!(back.components()[1].ecosystem, Ecosystem::Java);
        assert_eq!(back.components()[1].supplier, None);
        assert_eq!(back.meta.timestamp.as_deref(), Some("2024-06-24T00:00:00Z"));
    }

    #[test]
    fn roundtrip_matches_json_parse() {
        // The tag-value and JSON forms of the same SBOM must read back to
        // the same component set (differential property across forms).
        let s = sample();
        let via_tv = parse(&to_string(&s)).unwrap();
        let via_json = SbomFormat::Spdx
            .parse(&crate::spdx::to_string_pretty(&s))
            .unwrap();
        assert_eq!(via_tv.components(), via_json.components());
        assert_eq!(via_tv.meta.tool_name, via_json.meta.tool_name);
        assert_eq!(via_tv.meta.subject, via_json.meta.subject);
        assert_eq!(via_tv.meta.timestamp, via_json.meta.timestamp);
    }

    #[test]
    fn deterministic() {
        assert_eq!(to_string(&sample()), to_string(&sample()));
    }

    #[test]
    fn tolerates_comments_and_unknown_tags() {
        let text = "# comment\nSPDXVersion: SPDX-2.2\n\nLicenseListVersion: 3.19\nPackageName: left-pad\nPackageVersion: 1.3.0\n";
        let sbom = parse(text).unwrap();
        assert_eq!(sbom.len(), 1);
        assert_eq!(sbom.components()[0].name, "left-pad");
        assert_eq!(sbom.components()[0].version.as_deref(), Some("1.3.0"));
        assert_eq!(sbom.meta.tool_name, "unknown");
    }

    #[test]
    fn multiline_text_span() {
        let text = "SPDXVersion: SPDX-2.3\nPackageName: a\nPackageSourceInfo: <text>ecosystem: npm;\nfound_in: package.json</text>\n";
        let sbom = parse(text).unwrap();
        assert_eq!(sbom.components()[0].ecosystem, Ecosystem::JavaScript);
        assert_eq!(sbom.components()[0].found_in, "package.json");
    }

    #[test]
    fn missing_colon_is_an_error_with_line() {
        let err = parse("SPDXVersion: SPDX-2.3\nnot a tag line\n").unwrap_err();
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn malformed_external_ref_is_an_error() {
        let text = "SPDXVersion: SPDX-2.3\nPackageName: a\nExternalRef: purl-only\n";
        assert!(parse(text).is_err());
    }

    #[test]
    fn unterminated_text_is_an_error() {
        assert!(parse("SPDXVersion: SPDX-2.3\nPackageSourceInfo: <text>open\n").is_err());
    }

    #[test]
    fn rejects_non_spdx() {
        assert!(parse("{\"bomFormat\": \"CycloneDX\"}").is_err());
        assert!(parse("").is_err());
    }
}
