//! CycloneDX 1.5 JSON serialization; [`crate::ingest`] reads it back.

use std::hash::Hasher;

use sbomdiff_textformats::{json, Value};
use sbomdiff_types::{Component, Cpe, DepScope, Ecosystem, Fnv1a, Purl, Sbom, Symbol};

pub(crate) const PROP_ECOSYSTEM: &str = "sbomdiff:ecosystem";
pub(crate) const PROP_FOUND_IN: &str = "sbomdiff:found_in";
pub(crate) const PROP_DEP_SCOPE: &str = "sbomdiff:dependency_scope";

/// One CycloneDX component entry as the ingester reads it, field by field,
/// before [`RawCdxComponent::into_component`] settles its ecosystem. Each
/// field is converted straight from the token text, so nothing is copied
/// that the component does not keep.
#[derive(Debug, Default)]
pub(crate) struct RawCdxComponent {
    pub(crate) name: Option<Symbol>,
    pub(crate) version: Option<Symbol>,
    /// `purl`, when it parses.
    pub(crate) purl: Option<Purl>,
    /// `cpe`, when it parses.
    pub(crate) cpe: Option<Cpe>,
    /// `publisher`, when not empty.
    pub(crate) supplier: Option<Symbol>,
    /// The first ecosystem property that parses.
    ecosystem: Option<Ecosystem>,
    /// The last found-in property.
    found_in: Option<Symbol>,
    /// The last scope property (`None` for an unknown label).
    scope: Option<DepScope>,
}

/// The component properties [`RawCdxComponent::property`] reads.
pub(crate) const PROPERTIES: [&str; 3] = [PROP_ECOSYSTEM, PROP_FOUND_IN, PROP_DEP_SCOPE];

impl RawCdxComponent {
    /// Applies one `properties` entry whose name and value are strings, in
    /// document order.
    pub(crate) fn property(&mut self, name: &str, value: &str) {
        match name {
            PROP_ECOSYSTEM => self.ecosystem = self.ecosystem.or_else(|| value.parse().ok()),
            PROP_FOUND_IN => self.found_in = Some(Symbol::from(value)),
            PROP_DEP_SCOPE => self.scope = crate::scope_from_label(value),
            _ => {}
        }
    }

    /// Converts the entry into a [`Component`] (`None`: no name, entry is
    /// skipped). Field semantics: PURL-derived ecosystem wins over the
    /// ecosystem property; for the other properties the last occurrence
    /// wins; unparseable PURL/CPE/scope values degrade to absent.
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

/// Serializes an SBOM as a CycloneDX 1.5 JSON [`Value`].
pub fn to_value(sbom: &Sbom) -> Value {
    let mut doc = Value::object();
    doc.set("bomFormat", Value::from("CycloneDX"));
    doc.set("specVersion", Value::from("1.5"));
    doc.set(
        "serialNumber",
        Value::from(format!(
            "urn:uuid:{}",
            deterministic_uuid(&sbom.meta.tool_name, &sbom.meta.subject)
        )),
    );
    doc.set("version", Value::from(1i64));

    let mut metadata = Value::object();
    let mut tool = Value::object();
    tool.set("vendor", Value::from("sbomdiff"));
    tool.set("name", Value::from(sbom.meta.tool_name.clone()));
    tool.set("version", Value::from(sbom.meta.tool_version.clone()));
    metadata.set("tools", Value::Array(vec![tool]));
    if let Some(ts) = &sbom.meta.timestamp {
        metadata.set("timestamp", Value::from(ts.clone()));
    }
    if !sbom.meta.subject.is_empty() {
        let mut subject = Value::object();
        subject.set("type", Value::from("application"));
        subject.set("name", Value::from(sbom.meta.subject.clone()));
        metadata.set("component", subject);
    }
    doc.set("metadata", metadata);

    let components: Vec<Value> = sbom
        .components()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let mut v = component_to_value(c);
            v.set("bom-ref", Value::from(format!("component-{i}")));
            v
        })
        .collect();
    doc.set("components", Value::Array(components));

    // Dependency graph: flat SBOMs relate the subject to every component
    // (the shape real metadata-based tools emit; §II's "hierarchical
    // relationships" need resolution data the tools don't have).
    let mut root_dep = Value::object();
    root_dep.set("ref", Value::from("root"));
    root_dep.set(
        "dependsOn",
        Value::Array(
            (0..sbom.len())
                .map(|i| Value::from(format!("component-{i}")))
                .collect(),
        ),
    );
    doc.set("dependencies", Value::Array(vec![root_dep]));
    doc
}

fn component_to_value(c: &Component) -> Value {
    let mut out = Value::object();
    out.set("type", Value::from("library"));
    out.set("name", Value::from(c.name.as_str()));
    if let Some(v) = &c.version {
        out.set("version", Value::from(v.as_str()));
    }
    if let Some(p) = &c.purl {
        out.set("purl", Value::from(p.to_string()));
    }
    if let Some(cpe) = &c.cpe {
        out.set("cpe", Value::from(cpe.to_string()));
    }
    if let Some(s) = &c.supplier {
        out.set("publisher", Value::from(s.as_str()));
    }
    let mut props = vec![prop(PROP_ECOSYSTEM, c.ecosystem.label())];
    if !c.found_in.is_empty() {
        props.push(prop(PROP_FOUND_IN, &c.found_in));
    }
    if let Some(scope) = c.scope {
        props.push(prop(PROP_DEP_SCOPE, scope.label()));
    }
    out.set("properties", Value::Array(props));
    out
}

fn prop(name: &str, value: &str) -> Value {
    let mut p = Value::object();
    p.set("name", Value::from(name));
    p.set("value", Value::from(value));
    p
}

/// Serializes an SBOM as pretty-printed CycloneDX JSON.
pub fn to_string_pretty(sbom: &Sbom) -> String {
    json::to_string_pretty(&to_value(sbom))
}

/// Deterministic pseudo-UUID from tool and subject (FNV-1a based), so
/// repeated runs produce identical documents.
fn deterministic_uuid(tool: &str, subject: &str) -> String {
    let mut fnv = Fnv1a::default();
    fnv.write(tool.as_bytes());
    fnv.write(subject.as_bytes());
    let h1 = fnv.finish();
    let mut h2 = h1.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h2 ^= h2 >> 29;
    format!(
        "{:08x}-{:04x}-4{:03x}-8{:03x}-{:012x}",
        (h1 >> 32) as u32,
        (h1 >> 16) as u16,
        (h1 & 0xfff) as u16,
        (h2 & 0xfff) as u16,
        h2 >> 16 & 0xffff_ffff_ffff
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SbomFormat;

    fn sample() -> Sbom {
        let mut sbom = Sbom::new("syft", "0.84.1")
            .with_subject("demo-repo")
            .with_timestamp("2024-06-24T00:00:00Z");
        sbom.push(
            Component::new(Ecosystem::Python, "requests", Some("2.31.0".into()))
                .with_found_in("requirements.txt")
                .with_scope(DepScope::Runtime)
                .with_purl(Purl::for_package(
                    Ecosystem::Python,
                    "requests",
                    Some("2.31.0"),
                ))
                .with_cpe(Cpe::for_package(Ecosystem::Python, "requests", "2.31.0"))
                .with_supplier("pypi:requests"),
        );
        sbom.push(Component::new(Ecosystem::Go, "github.com/a/b", None));
        sbom
    }

    #[test]
    fn roundtrip() {
        let original = sample();
        let text = to_string_pretty(&original);
        let back = SbomFormat::CycloneDx.parse(&text).unwrap();
        assert_eq!(back.meta.tool_name, "syft");
        assert_eq!(back.meta.subject, "demo-repo");
        assert_eq!(back.len(), 2);
        assert_eq!(back.components()[0].name, "requests");
        assert_eq!(back.components()[0].found_in, "requirements.txt");
        assert_eq!(back.components()[0].scope, Some(DepScope::Runtime));
        assert!(back.components()[0].purl.is_some());
        assert!(back.components()[0].cpe.is_some());
        assert_eq!(
            back.components()[0].supplier.as_deref(),
            Some("pypi:requests")
        );
        assert_eq!(back.components()[1].ecosystem, Ecosystem::Go);
        assert_eq!(back.components()[1].version, None);
        assert_eq!(back.components()[1].supplier, None);
        assert_eq!(back.meta.timestamp.as_deref(), Some("2024-06-24T00:00:00Z"));
    }

    #[test]
    fn serialization_is_deterministic() {
        let a = to_string_pretty(&sample());
        let b = to_string_pretty(&sample());
        assert_eq!(a, b);
    }

    #[test]
    fn document_shape() {
        let text = to_string_pretty(&sample());
        let doc = json::parse(&text).unwrap();
        assert_eq!(
            doc.get("bomFormat").and_then(Value::as_str),
            Some("CycloneDX")
        );
        assert_eq!(doc.get("specVersion").and_then(Value::as_str), Some("1.5"));
        assert!(doc
            .get("serialNumber")
            .and_then(Value::as_str)
            .unwrap()
            .starts_with("urn:uuid:"));
        assert_eq!(
            doc.pointer("components/0/type").and_then(Value::as_str),
            Some("library")
        );
        assert_eq!(
            doc.pointer("components/0/bom-ref").and_then(Value::as_str),
            Some("component-0")
        );
        assert_eq!(
            doc.pointer("dependencies/0/dependsOn/1")
                .and_then(Value::as_str),
            Some("component-1")
        );
    }

    #[test]
    fn rejects_non_cyclonedx() {
        let parse = |text| SbomFormat::CycloneDx.parse(text);
        assert!(parse("{\"spdxVersion\": \"SPDX-2.3\"}").is_err());
        assert!(parse("broken").is_err());
    }
}
