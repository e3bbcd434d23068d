//! SBOM document formats: CycloneDX JSON, SPDX JSON and SPDX tag-value.
//!
//! The studied tools emit one of these formats (§III-B); the differential
//! engine extracts dependencies back out of them. Both directions have one
//! implementation each: the per-format serializers, which are
//! deterministic (no timestamps or random serials — document identity
//! derives from tool + subject) so experiment outputs are reproducible
//! byte-for-byte, and the streaming [`ingest`] reader, which every surface
//! reads documents through.
//!
//! §V-F notes current SBOM formats lack a dependency-scope field; we carry
//! scope through a vendor property (CycloneDX `properties`, SPDX
//! `sourceInfo`) exactly because the standard schema cannot express it —
//! mirroring the paper's best-practice discussion.

pub mod cyclonedx;
pub mod ingest;
pub mod spdx;
pub mod tagvalue;
pub mod vex;

pub use vex::{VexDocument, VexStatement, VexStatus};

use sbomdiff_textformats::TextError;
use sbomdiff_types::{DepScope, Sbom};

/// Maps the wire label of a dependency scope back to [`DepScope`]
/// (`None` for unknown labels — unparseable scopes degrade to absent).
pub(crate) fn scope_from_label(label: &str) -> Option<DepScope> {
    match label {
        "runtime" => Some(DepScope::Runtime),
        "dev" => Some(DepScope::Dev),
        "optional" => Some(DepScope::Optional),
        _ => None,
    }
}

/// The SBOM interchange formats supported by the studied tools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SbomFormat {
    /// OWASP CycloneDX JSON (emitted as 1.5, read as 1.4/1.5).
    CycloneDx,
    /// ISO/IEC 5962 SPDX JSON (emitted as 2.3, read as 2.2/2.3).
    Spdx,
    /// SPDX tag-value (the `SPDXVersion: ...` line format).
    SpdxTagValue,
}

impl SbomFormat {
    /// Every format, in metrics-label order.
    pub const ALL: [SbomFormat; 3] = [
        SbomFormat::CycloneDx,
        SbomFormat::Spdx,
        SbomFormat::SpdxTagValue,
    ];

    /// Stable label used as the metrics `format` label and in API output.
    pub fn label(self) -> &'static str {
        match self {
            SbomFormat::CycloneDx => "cyclonedx",
            SbomFormat::Spdx => "spdx-json",
            SbomFormat::SpdxTagValue => "spdx-tag-value",
        }
    }

    /// Serializes an SBOM in this format.
    pub fn serialize(self, sbom: &Sbom) -> String {
        match self {
            SbomFormat::CycloneDx => cyclonedx::to_string_pretty(sbom),
            SbomFormat::Spdx => spdx::to_string_pretty(sbom),
            SbomFormat::SpdxTagValue => tagvalue::to_string(sbom),
        }
    }

    /// Parses a document in this format back into an SBOM, through
    /// [`ingest::ingest_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`TextError`] when ingestion fails (at the line of the fatal
    /// diagnostic, when it has one) or the document is in another format.
    pub fn parse(self, text: &str) -> Result<Sbom, TextError> {
        let outcome = ingest::ingest_bytes(text.as_bytes());
        if let Some(fatal) = outcome.fatal {
            return Err(TextError::new(
                fatal.line.map_or(0, |l| l as usize),
                fatal.message,
            ));
        }
        match outcome.format {
            Some(found) if found == self => Ok(outcome.sbom),
            found => Err(TextError::new(
                0,
                format!(
                    "not a {} document (found {})",
                    self.label(),
                    found.map_or("none", SbomFormat::label)
                ),
            )),
        }
    }

    /// Sniffs the format of a document: the format it ingests as, `None`
    /// when it does not ingest.
    pub fn detect(text: &str) -> Option<SbomFormat> {
        ingest::ingest_bytes(text.as_bytes()).format
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbomdiff_types::{Component, Ecosystem};

    fn sample() -> Sbom {
        let mut sbom = Sbom::new("demo-tool", "1.0").with_subject("repo-x");
        sbom.push(Component::new(
            Ecosystem::Python,
            "requests",
            Some("2.31.0".into()),
        ));
        sbom
    }

    #[test]
    fn detect_formats() {
        let s = sample();
        for format in SbomFormat::ALL {
            assert_eq!(SbomFormat::detect(&format.serialize(&s)), Some(format));
        }
        assert_eq!(SbomFormat::detect("{}"), None);
        assert_eq!(SbomFormat::detect("not json"), None);
    }

    #[test]
    fn cross_parse_errors() {
        let s = sample();
        let cdx = SbomFormat::CycloneDx.serialize(&s);
        let err = SbomFormat::Spdx.parse(&cdx).unwrap_err();
        assert_eq!(err.message(), "not a spdx-json document (found cyclonedx)");
        assert!(SbomFormat::CycloneDx.parse(&cdx).is_ok());
    }

    #[test]
    fn parse_errors_keep_the_fatal_line() {
        let err = SbomFormat::CycloneDx
            .parse("{\n  \"bomFormat\": \"CycloneDX\",\n  oops\n}")
            .unwrap_err();
        assert_eq!(err.line(), 3, "{err}");
    }

    #[test]
    fn format_labels_are_stable() {
        let labels: Vec<&str> = SbomFormat::ALL.iter().map(|f| f.label()).collect();
        assert_eq!(labels, vec!["cyclonedx", "spdx-json", "spdx-tag-value"]);
    }
}
