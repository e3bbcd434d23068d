//! Vulnerability Exploitability eXchange (VEX) documents.
//!
//! §II-A notes SBOMs' "compatibility with Vulnerability Exploitability
//! eXchange (VEX), a structured database detailing product vulnerabilities"
//! — VEX is the companion artifact through which vendors communicate
//! whether a vulnerability in an SBOM component actually affects the
//! product. This module emits a minimal OpenVEX-shaped JSON document and
//! parses it back, so impact assessments can round-trip alongside the
//! SBOMs they annotate.

use sbomdiff_textformats::{json, TextError, Value};
use sbomdiff_types::fnv1a;

/// A VEX statement status (OpenVEX vocabulary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VexStatus {
    /// The product is affected by the vulnerability.
    Affected,
    /// The product is not affected.
    NotAffected,
    /// The vulnerability has been fixed in this product version.
    Fixed,
    /// Analysis is ongoing.
    UnderInvestigation,
}

impl VexStatus {
    fn as_str(self) -> &'static str {
        match self {
            VexStatus::Affected => "affected",
            VexStatus::NotAffected => "not_affected",
            VexStatus::Fixed => "fixed",
            VexStatus::UnderInvestigation => "under_investigation",
        }
    }

    fn parse(s: &str) -> Option<VexStatus> {
        Some(match s {
            "affected" => VexStatus::Affected,
            "not_affected" => VexStatus::NotAffected,
            "fixed" => VexStatus::Fixed,
            "under_investigation" => VexStatus::UnderInvestigation,
            _ => return None,
        })
    }
}

impl std::fmt::Display for VexStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One VEX statement: a vulnerability, the products (PURLs) it concerns,
/// and the assessed status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VexStatement {
    /// Vulnerability identifier (CVE/advisory id).
    pub vulnerability: String,
    /// Product identifiers (PURLs) the statement applies to.
    pub products: Vec<String>,
    /// Assessed status.
    pub status: VexStatus,
    /// Optional justification / impact statement.
    pub justification: Option<String>,
}

/// A VEX document: an author plus statements.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VexDocument {
    /// Document author (tool or organization).
    pub author: String,
    /// The statements.
    pub statements: Vec<VexStatement>,
}

impl VexDocument {
    /// Creates an empty document.
    pub fn new(author: impl Into<String>) -> Self {
        VexDocument {
            author: author.into(),
            statements: Vec::new(),
        }
    }

    /// Adds a statement.
    pub fn push(&mut self, statement: VexStatement) {
        self.statements.push(statement);
    }

    /// Serializes as OpenVEX-shaped JSON (deterministic).
    pub fn to_string_pretty(&self) -> String {
        let mut doc = Value::object();
        doc.set("@context", Value::from("https://openvex.dev/ns/v0.2.0"));
        doc.set(
            "@id",
            Value::from(format!(
                "https://sbomdiff.example/vex/{}",
                fnv1a(self.author.as_bytes())
            )),
        );
        doc.set("author", Value::from(self.author.clone()));
        doc.set("version", Value::from(1i64));
        let statements: Vec<Value> = self
            .statements
            .iter()
            .map(|s| {
                let mut st = Value::object();
                let mut vuln = Value::object();
                vuln.set("name", Value::from(s.vulnerability.clone()));
                st.set("vulnerability", vuln);
                let products: Vec<Value> = s
                    .products
                    .iter()
                    .map(|p| {
                        let mut prod = Value::object();
                        prod.set("@id", Value::from(p.clone()));
                        prod
                    })
                    .collect();
                st.set("products", Value::Array(products));
                st.set("status", Value::from(s.status.as_str()));
                if let Some(j) = &s.justification {
                    st.set("justification", Value::from(j.clone()));
                }
                st
            })
            .collect();
        doc.set("statements", Value::Array(statements));
        json::to_string_pretty(&doc)
    }

    /// Parses an OpenVEX-shaped JSON document (also available through the
    /// standard [`std::str::FromStr`]).
    ///
    /// # Errors
    ///
    /// Returns [`TextError`] on malformed JSON or a document without the
    /// OpenVEX context.
    pub fn parse(text: &str) -> Result<VexDocument, TextError> {
        let doc = json::parse(text)?;
        let context = doc.get("@context").and_then(Value::as_str).unwrap_or("");
        if !context.contains("openvex") {
            return Err(TextError::new(0, "not an OpenVEX document"));
        }
        let author = doc
            .get("author")
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_string();
        let mut out = VexDocument::new(author);
        if let Some(statements) = doc.get("statements").and_then(Value::as_array) {
            for st in statements {
                let Some(vulnerability) = st
                    .pointer("vulnerability/name")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                else {
                    continue;
                };
                let Some(status) = st
                    .get("status")
                    .and_then(Value::as_str)
                    .and_then(VexStatus::parse)
                else {
                    continue;
                };
                let products = st
                    .get("products")
                    .and_then(Value::as_array)
                    .map(|ps| {
                        ps.iter()
                            .filter_map(|p| p.get("@id").and_then(Value::as_str))
                            .map(str::to_string)
                            .collect()
                    })
                    .unwrap_or_default();
                out.push(VexStatement {
                    vulnerability,
                    products,
                    status,
                    justification: st
                        .get("justification")
                        .and_then(Value::as_str)
                        .map(str::to_string),
                });
            }
        }
        Ok(out)
    }
}

impl std::str::FromStr for VexDocument {
    type Err = TextError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        VexDocument::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> VexDocument {
        let mut doc = VexDocument::new("sbomdiff");
        doc.push(VexStatement {
            vulnerability: "SYN-2023-0001".into(),
            products: vec!["pkg:pypi/numpy@1.19.2".into()],
            status: VexStatus::Affected,
            justification: None,
        });
        doc.push(VexStatement {
            vulnerability: "SYN-2023-0002".into(),
            products: vec!["pkg:pypi/requests@2.31.0".into()],
            status: VexStatus::NotAffected,
            justification: Some("vulnerable code not present".into()),
        });
        doc
    }

    #[test]
    fn roundtrip() {
        let doc = sample();
        let text = doc.to_string_pretty();
        let back = VexDocument::parse(&text).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn deterministic() {
        assert_eq!(sample().to_string_pretty(), sample().to_string_pretty());
    }

    #[test]
    fn openvex_shape() {
        let text = sample().to_string_pretty();
        let v = json::parse(&text).unwrap();
        assert!(v
            .get("@context")
            .and_then(Value::as_str)
            .unwrap()
            .contains("openvex"));
        assert_eq!(
            v.pointer("statements/1/status").and_then(Value::as_str),
            Some("not_affected")
        );
    }

    #[test]
    fn rejects_non_vex() {
        assert!(VexDocument::parse("{}").is_err());
        assert!(VexDocument::parse("nope").is_err());
    }

    #[test]
    fn status_vocabulary_roundtrips() {
        for status in [
            VexStatus::Affected,
            VexStatus::NotAffected,
            VexStatus::Fixed,
            VexStatus::UnderInvestigation,
        ] {
            assert_eq!(VexStatus::parse(status.as_str()), Some(status));
        }
        assert_eq!(VexStatus::parse("bogus"), None);
    }
}
