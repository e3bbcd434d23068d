//! SPDX 2.3 JSON serialization; [`crate::ingest`] reads it back.

use sbomdiff_textformats::{json, Value};
use sbomdiff_types::{Component, Cpe, DepScope, Ecosystem, Purl, Sbom, Symbol};

/// One SPDX package as a reader sees it, field by field, before
/// [`RawSpdxPackage::into_component`] settles its ecosystem. The ingester
/// fills it from SPDX JSON packages and the tag-value
/// [`Builder`](crate::tagvalue::Builder) from its package lines, so the two
/// SPDX forms cannot drift apart. Each field is converted straight from
/// the text it is read from.
#[derive(Debug, Default)]
pub(crate) struct RawSpdxPackage {
    pub(crate) name: Option<Symbol>,
    pub(crate) version: Option<Symbol>,
    purl: Option<Purl>,
    cpe: Option<Cpe>,
    supplier: Option<Symbol>,
    // What `sourceInfo` (`ecosystem: ...; found_in: ...; scope: ...`)
    // names: its first ecosystem that parses, its last `found_in`, its
    // last scope (`None` for an unknown label).
    ecosystem: Option<Ecosystem>,
    found_in: Option<Symbol>,
    scope: Option<DepScope>,
}

/// Normalizes an SPDX `supplier` value to the bare supplier name:
/// strips the `Organization:` / `Person:` prefix and treats empty or
/// `NOASSERTION` values as absent.
pub(crate) fn supplier_name(raw: &str) -> Option<&str> {
    let v = raw.trim();
    let v = v
        .strip_prefix("Organization:")
        .or_else(|| v.strip_prefix("Person:"))
        .unwrap_or(v)
        .trim();
    (!v.is_empty() && v != "NOASSERTION").then_some(v)
}

impl RawSpdxPackage {
    /// A package with only its name read.
    pub(crate) fn named(name: &str) -> Self {
        RawSpdxPackage {
            name: Some(Symbol::from(name)),
            ..RawSpdxPackage::default()
        }
    }

    /// Reads a `sourceInfo` value, replacing what an earlier one set.
    pub(crate) fn source_info(&mut self, info: &str) {
        (self.ecosystem, self.found_in, self.scope) = (None, None, None);
        for part in info.split(';') {
            let part = part.trim();
            if let Some(v) = part.strip_prefix("ecosystem:") {
                self.ecosystem = self.ecosystem.or_else(|| v.trim().parse().ok());
            } else if let Some(v) = part.strip_prefix("found_in:") {
                self.found_in = Some(Symbol::from(v.trim()));
            } else if let Some(v) = part.strip_prefix("scope:") {
                self.scope = crate::scope_from_label(v.trim());
            }
        }
    }

    /// Reads a `supplier` value, replacing an earlier one.
    pub(crate) fn supplier(&mut self, raw: &str) {
        self.supplier = supplier_name(raw).map(Symbol::from);
    }

    /// Reads one external reference in document order: the last `purl`
    /// and the last `cpe23Type` reference win, and one without a locator
    /// or with one that does not parse leaves that field absent.
    pub(crate) fn external_ref(&mut self, rtype: &str, locator: Option<&str>) {
        match rtype {
            "purl" => self.purl = locator.and_then(|l| l.parse().ok()),
            "cpe23Type" => self.cpe = locator.and_then(|l| l.parse().ok()),
            _ => {}
        }
    }

    /// Converts the package into a [`Component`] (`None`: no name, entry
    /// is skipped). A PURL-derived ecosystem wins over the `sourceInfo`
    /// one.
    pub(crate) fn into_component(self) -> Option<Component> {
        let ecosystem = self
            .purl
            .as_ref()
            .and_then(|p| p.ptype().parse::<Ecosystem>().ok())
            .or(self.ecosystem);
        let mut c = Component::interned(
            ecosystem.unwrap_or(Ecosystem::Python),
            self.name?,
            self.version,
        )
        .with_found_in(self.found_in.unwrap_or_default());
        c.purl = self.purl;
        c.cpe = self.cpe;
        c.scope = self.scope;
        c.supplier = self.supplier;
        Some(c)
    }
}

/// Splits a `"Tool: {name}-{version}"` creator into `(name, version)`,
/// falling back to `("unknown", "")`.
pub(crate) fn creator_tool(creator: &str) -> (String, String) {
    creator
        .strip_prefix("Tool: ")
        .and_then(|t| t.rsplit_once('-'))
        .map(|(n, v)| (n.to_string(), v.to_string()))
        .unwrap_or_else(|| ("unknown".to_string(), String::new()))
}

/// Recovers the analyzed subject from a `{subject}-{tool}` document name.
pub(crate) fn subject_from_doc_name(doc_name: &str, tool_name: &str) -> String {
    doc_name
        .strip_suffix(&format!("-{tool_name}"))
        .unwrap_or("")
        .to_string()
}

/// Serializes an SBOM as an SPDX 2.3 JSON [`Value`].
pub fn to_value(sbom: &Sbom) -> Value {
    let mut doc = Value::object();
    doc.set("spdxVersion", Value::from("SPDX-2.3"));
    doc.set("dataLicense", Value::from("CC0-1.0"));
    doc.set("SPDXID", Value::from("SPDXRef-DOCUMENT"));
    doc.set(
        "name",
        Value::from(format!("{}-{}", sbom.meta.subject, sbom.meta.tool_name)),
    );
    doc.set(
        "documentNamespace",
        Value::from(format!(
            "https://sbomdiff.example/spdx/{}/{}",
            sbom.meta.tool_name, sbom.meta.subject
        )),
    );
    let mut creation = Value::object();
    creation.set(
        "creators",
        Value::Array(vec![Value::from(format!(
            "Tool: {}-{}",
            sbom.meta.tool_name, sbom.meta.tool_version
        ))]),
    );
    if let Some(ts) = &sbom.meta.timestamp {
        creation.set("created", Value::from(ts.clone()));
    }
    doc.set("creationInfo", creation);

    let mut packages = Vec::new();
    let mut relationships = Vec::new();
    for (i, c) in sbom.components().iter().enumerate() {
        let spdx_id = format!("SPDXRef-Package-{i}");
        packages.push(component_to_value(c, &spdx_id));
        let mut rel = Value::object();
        rel.set("spdxElementId", Value::from("SPDXRef-DOCUMENT"));
        rel.set("relationshipType", Value::from("DESCRIBES"));
        rel.set("relatedSpdxElement", Value::from(spdx_id));
        relationships.push(rel);
    }
    doc.set("packages", Value::Array(packages));
    doc.set("relationships", Value::Array(relationships));
    doc
}

fn component_to_value(c: &Component, spdx_id: &str) -> Value {
    let mut pkg = Value::object();
    pkg.set("name", Value::from(c.name.as_str()));
    pkg.set("SPDXID", Value::from(spdx_id));
    if let Some(v) = &c.version {
        pkg.set("versionInfo", Value::from(v.as_str()));
    }
    pkg.set("downloadLocation", Value::from("NOASSERTION"));
    if let Some(s) = &c.supplier {
        pkg.set("supplier", Value::from(format!("Organization: {s}")));
    }
    // SPDX has no dependency-scope field (§V-F); sourceInfo carries our
    // structured annotation.
    let mut source_info = format!("ecosystem: {}", c.ecosystem.label());
    if !c.found_in.is_empty() {
        source_info.push_str(&format!("; found_in: {}", c.found_in));
    }
    if let Some(scope) = c.scope {
        source_info.push_str(&format!("; scope: {}", scope.label()));
    }
    pkg.set("sourceInfo", Value::from(source_info));
    let mut refs = Vec::new();
    if let Some(p) = &c.purl {
        let mut r = Value::object();
        r.set("referenceCategory", Value::from("PACKAGE-MANAGER"));
        r.set("referenceType", Value::from("purl"));
        r.set("referenceLocator", Value::from(p.to_string()));
        refs.push(r);
    }
    if let Some(cpe) = &c.cpe {
        let mut r = Value::object();
        r.set("referenceCategory", Value::from("SECURITY"));
        r.set("referenceType", Value::from("cpe23Type"));
        r.set("referenceLocator", Value::from(cpe.to_string()));
        refs.push(r);
    }
    if !refs.is_empty() {
        pkg.set("externalRefs", Value::Array(refs));
    }
    pkg
}

/// Serializes an SBOM as pretty-printed SPDX JSON.
pub fn to_string_pretty(sbom: &Sbom) -> String {
    json::to_string_pretty(&to_value(sbom))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SbomFormat;

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
        let original = sample();
        let text = to_string_pretty(&original);
        let back = SbomFormat::Spdx.parse(&text).unwrap();
        assert_eq!(back.meta.tool_name, "trivy");
        assert_eq!(back.meta.tool_version, "0.43.0");
        assert_eq!(back.meta.subject, "demo-repo");
        assert_eq!(back.len(), 2);
        assert_eq!(back.components()[0].name, "serde");
        assert_eq!(back.components()[0].found_in, "Cargo.lock");
        assert_eq!(back.components()[0].scope, Some(DepScope::Runtime));
        assert_eq!(
            back.components()[0].supplier.as_deref(),
            Some("crates.io:serde")
        );
        assert_eq!(back.components()[1].ecosystem, Ecosystem::Java);
        assert_eq!(back.components()[1].supplier, None);
        assert_eq!(back.meta.timestamp.as_deref(), Some("2024-06-24T00:00:00Z"));
    }

    #[test]
    fn supplier_value_normalization() {
        assert_eq!(supplier_name("Organization: pypi"), Some("pypi"));
        assert_eq!(supplier_name("Person: Jane Doe"), Some("Jane Doe"));
        assert_eq!(supplier_name("bare-name"), Some("bare-name"));
        assert_eq!(supplier_name("NOASSERTION"), None);
        assert_eq!(supplier_name("Organization: NOASSERTION"), None);
        assert_eq!(supplier_name("   "), None);
    }

    #[test]
    fn document_shape() {
        let text = to_string_pretty(&sample());
        let doc = json::parse(&text).unwrap();
        assert_eq!(
            doc.get("spdxVersion").and_then(Value::as_str),
            Some("SPDX-2.3")
        );
        assert_eq!(
            doc.pointer("packages/0/SPDXID").and_then(Value::as_str),
            Some("SPDXRef-Package-0")
        );
        assert_eq!(
            doc.pointer("relationships/0/relationshipType")
                .and_then(Value::as_str),
            Some("DESCRIBES")
        );
    }

    #[test]
    fn deterministic() {
        assert_eq!(to_string_pretty(&sample()), to_string_pretty(&sample()));
    }

    #[test]
    fn rejects_non_spdx() {
        let parse = |text| SbomFormat::Spdx.parse(text);
        assert!(parse("{\"bomFormat\": \"CycloneDX\"}").is_err());
        assert!(parse("[]").is_err());
    }
}
