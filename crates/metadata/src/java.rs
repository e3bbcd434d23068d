//! Java metadata parsing: `pom.xml` (with property interpolation, parent
//! versions and `dependencyManagement`), `gradle.lockfile`, `MANIFEST.MF`
//! and `pom.properties`.
//!
//! Java package names are compound (`group:artifact`) — §V-E shows the
//! studied tools render them in three different conventions; parsers here
//! always produce the structured `group:artifact` raw form and leave
//! rendering to the tool profiles.

use std::collections::HashMap;

use sbomdiff_types::{
    ConstraintFlavor, DeclaredDependency, DepScope, DiagClass, Diagnostic, Ecosystem, VersionReq,
};

use sbomdiff_textformats::{properties, xml, Element};

use crate::{format_error_diag, Parsed};

/// Parses `pom.xml` `<dependencies>` with `${property}` interpolation,
/// `<parent>` version fallback and `<dependencyManagement>` version lookup.
pub fn parse_pom_xml(text: &str) -> Parsed {
    let root = match xml::parse(text) {
        Ok(root) => root,
        Err(e) => return Parsed::fail(format_error_diag("pom.xml", &e)),
    };
    if root.name != "project" {
        return Parsed::fail(Diagnostic::new(
            DiagClass::MalformedFile,
            format!("pom.xml: root element is <{}>, not <project>", root.name),
        ));
    }
    let props = collect_properties(&root);
    let managed = collect_managed_versions(&root, &props);

    let mut out = Parsed::default();
    if let Some(deps) = root.child("dependencies") {
        for dep in deps.children_named("dependency") {
            if let Some(d) = parse_dependency_element(dep, &props, &managed) {
                out.deps.push(d);
            } else {
                out.push_diag(Diagnostic::new(
                    DiagClass::MissingField,
                    "dependency element without groupId/artifactId",
                ));
            }
        }
    }
    out
}

fn collect_properties(root: &Element) -> HashMap<String, String> {
    let mut props = HashMap::new();
    if let Some(parent) = root.child("parent") {
        if let Some(v) = parent.child_text("version") {
            props.insert("project.parent.version".to_string(), v.to_string());
            props.insert("parent.version".to_string(), v.to_string());
        }
    }
    if let Some(v) = root
        .child_text("version")
        .or_else(|| root.child("parent").and_then(|p| p.child_text("version")))
    {
        props.insert("project.version".to_string(), v.to_string());
        props.insert("version".to_string(), v.to_string());
    }
    if let Some(p) = root.child("properties") {
        for child in &p.children {
            props.insert(child.name.clone(), child.text.clone());
        }
    }
    props
}

fn collect_managed_versions(
    root: &Element,
    props: &HashMap<String, String>,
) -> HashMap<(String, String), String> {
    let mut managed = HashMap::new();
    if let Some(dm) = root.child("dependencyManagement") {
        if let Some(deps) = dm.child("dependencies") {
            for dep in deps.children_named("dependency") {
                let (Some(g), Some(a)) = (dep.child_text("groupId"), dep.child_text("artifactId"))
                else {
                    continue;
                };
                if let Some(v) = dep.child_text("version") {
                    managed.insert(
                        (interpolate(g, props), interpolate(a, props)),
                        interpolate(v, props),
                    );
                }
            }
        }
    }
    managed
}

fn parse_dependency_element(
    dep: &Element,
    props: &HashMap<String, String>,
    managed: &HashMap<(String, String), String>,
) -> Option<DeclaredDependency> {
    let group = interpolate(dep.child_text("groupId")?, props);
    let artifact = interpolate(dep.child_text("artifactId")?, props);
    let version = dep
        .child_text("version")
        .map(|v| interpolate(v, props))
        .or_else(|| managed.get(&(group.clone(), artifact.clone())).cloned());
    let scope = match dep.child_text("scope") {
        Some("test") => DepScope::Dev,
        Some("provided") | Some("system") => DepScope::Optional,
        _ => DepScope::Runtime,
    };
    let name = format!("{group}:{artifact}");
    let req = version
        .as_deref()
        .and_then(|v| VersionReq::parse(v, ConstraintFlavor::Maven).ok());
    let mut d = DeclaredDependency::new(Ecosystem::Java, name, req).with_scope(scope);
    d.req_text = version.unwrap_or_default();
    Some(d)
}

/// Substitutes `${prop}` references (one level, as Maven effectively does
/// for simple poms).
fn interpolate(s: &str, props: &HashMap<String, String>) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(start) = rest.find("${") {
        out.push_str(&rest[..start]);
        match rest[start..].find('}') {
            Some(end_rel) => {
                let key = &rest[start + 2..start + end_rel];
                match props.get(key) {
                    Some(v) => out.push_str(v),
                    None => {
                        out.push_str(&rest[start..start + end_rel + 1]);
                    }
                }
                rest = &rest[start + end_rel + 1..];
            }
            None => {
                out.push_str(&rest[start..]);
                return out;
            }
        }
    }
    out.push_str(rest);
    out
}

/// Parses `gradle.lockfile`: `group:artifact:version=configuration,...`
/// lines.
pub fn parse_gradle_lockfile(text: &str) -> Parsed {
    let mut out = Parsed::default();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("empty=") {
            continue;
        }
        let coord = line.split('=').next().unwrap_or(line);
        let mut parts = coord.split(':');
        let parsed = match (parts.next(), parts.next(), parts.next()) {
            (Some(group), Some(artifact), Some(version))
                if !group.is_empty() && !artifact.is_empty() && !version.is_empty() =>
            {
                Some((group, artifact, version))
            }
            _ => None,
        };
        let Some((group, artifact, version)) = parsed else {
            out.push_diag(
                Diagnostic::new(
                    DiagClass::UnsupportedSyntax,
                    format!(
                        "gradle.lockfile line is not a group:artifact:version coordinate: {}",
                        sbomdiff_types::diagnostic::excerpt(line)
                    ),
                )
                .with_line(lineno as u32 + 1),
            );
            continue;
        };
        let req = sbomdiff_types::Version::parse(version)
            .ok()
            .map(VersionReq::exact);
        let mut dep = DeclaredDependency::new(Ecosystem::Java, format!("{group}:{artifact}"), req);
        dep.req_text = version.to_string();
        out.deps.push(dep);
    }
    out
}

/// Parses `MANIFEST.MF`, reporting the bundle (or implementation) itself as
/// a single component — the way Trivy/Syft treat JAR manifests.
pub fn parse_manifest_mf(text: &str) -> Parsed {
    let pairs = properties::parse_manifest(text);
    let name = properties::get_ignore_case(&pairs, "Bundle-SymbolicName")
        .map(|s| s.split(';').next().unwrap_or(s).trim().to_string())
        .or_else(|| {
            properties::get_ignore_case(&pairs, "Implementation-Title")
                .map(|s| s.trim().to_string())
        });
    let version = properties::get_ignore_case(&pairs, "Bundle-Version")
        .or_else(|| properties::get_ignore_case(&pairs, "Implementation-Version"));
    match name {
        Some(n) if !n.is_empty() => {
            let req = version
                .and_then(|v| sbomdiff_types::Version::parse(v).ok())
                .map(VersionReq::exact);
            let mut dep = DeclaredDependency::new(Ecosystem::Java, n, req);
            dep.req_text = version.unwrap_or_default().to_string();
            Parsed::ok(vec![dep])
        }
        _ => Parsed::fail(Diagnostic::new(
            DiagClass::MissingField,
            "MANIFEST.MF without Bundle-SymbolicName or Implementation-Title",
        )),
    }
}

/// Parses `pom.properties` (groupId/artifactId/version triple).
///
/// Broken `\uXXXX` escapes (lone surrogates, short hex runs) degrade to
/// U+FFFD in the parsed values and surface here as classified
/// `EncodingError` diagnostics rather than corrupting the component name.
pub fn parse_pom_properties(text: &str) -> Parsed {
    let parse = properties::parse_properties_full(text);
    let pairs = parse.pairs;
    let mut diags = Vec::new();
    for issue in &parse.issues {
        diags.push(Diagnostic::new(
            DiagClass::EncodingError,
            format!("pom.properties line {}: {}", issue.line, issue.message),
        ));
    }
    let (Some(g), Some(a)) = (
        properties::get(&pairs, "groupId"),
        properties::get(&pairs, "artifactId"),
    ) else {
        let mut out = Parsed::fail(Diagnostic::new(
            DiagClass::MissingField,
            "pom.properties without groupId/artifactId",
        ));
        for d in diags {
            out.push_diag(d);
        }
        return out;
    };
    let version = properties::get(&pairs, "version");
    let req = version
        .and_then(|v| sbomdiff_types::Version::parse(v).ok())
        .map(VersionReq::exact);
    let mut dep = DeclaredDependency::new(Ecosystem::Java, format!("{g}:{a}"), req);
    dep.req_text = version.unwrap_or_default().to_string();
    let mut out = Parsed::ok(vec![dep]);
    for d in diags {
        out.push_diag(d);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pom_with_properties_and_management() {
        let deps = parse_pom_xml(
            r#"<?xml version="1.0"?>
<project>
  <groupId>com.example</groupId>
  <artifactId>app</artifactId>
  <version>1.0.0</version>
  <properties>
    <guava.version>32.1.2</guava.version>
  </properties>
  <dependencyManagement>
    <dependencies>
      <dependency>
        <groupId>org.slf4j</groupId>
        <artifactId>slf4j-api</artifactId>
        <version>2.0.7</version>
      </dependency>
    </dependencies>
  </dependencyManagement>
  <dependencies>
    <dependency>
      <groupId>com.google.guava</groupId>
      <artifactId>guava</artifactId>
      <version>${guava.version}</version>
    </dependency>
    <dependency>
      <groupId>org.slf4j</groupId>
      <artifactId>slf4j-api</artifactId>
    </dependency>
    <dependency>
      <groupId>org.junit.jupiter</groupId>
      <artifactId>junit-jupiter</artifactId>
      <version>5.9.2</version>
      <scope>test</scope>
    </dependency>
  </dependencies>
</project>"#,
        );
        assert_eq!(deps.len(), 3);
        assert_eq!(deps[0].name.raw(), "com.google.guava:guava");
        assert_eq!(deps[0].req_text, "32.1.2");
        assert_eq!(deps[1].req_text, "2.0.7"); // from dependencyManagement
        assert_eq!(deps[2].scope, DepScope::Dev);
    }

    #[test]
    fn pom_parent_version_property() {
        let deps = parse_pom_xml(
            r#"<project>
  <parent><groupId>g</groupId><artifactId>p</artifactId><version>3.2.1</version></parent>
  <artifactId>child</artifactId>
  <dependencies>
    <dependency>
      <groupId>g</groupId>
      <artifactId>sibling</artifactId>
      <version>${project.version}</version>
    </dependency>
  </dependencies>
</project>"#,
        );
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].req_text, "3.2.1");
    }

    #[test]
    fn pom_unresolved_property_kept_verbatim() {
        let deps = parse_pom_xml(
            "<project><dependencies><dependency><groupId>g</groupId><artifactId>a</artifactId><version>${missing}</version></dependency></dependencies></project>",
        );
        assert_eq!(deps[0].req_text, "${missing}");
        assert!(deps[0].req.is_none());
    }

    #[test]
    fn gradle_lockfile_lines() {
        let deps = parse_gradle_lockfile(
            "# This is a Gradle generated file\ncom.google.guava:guava:32.1.2=compileClasspath,runtimeClasspath\norg.slf4j:slf4j-api:2.0.7=runtimeClasspath\nempty=annotationProcessor\n",
        );
        assert_eq!(deps.len(), 2);
        assert_eq!(deps[0].name.raw(), "com.google.guava:guava");
        assert_eq!(deps[0].pinned_version().unwrap().to_string(), "32.1.2");
    }

    #[test]
    fn manifest_bundle() {
        let deps = parse_manifest_mf(
            "Manifest-Version: 1.0\nBundle-SymbolicName: org.example.lib;singleton:=true\nBundle-Version: 4.5.6\n",
        );
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].name.raw(), "org.example.lib");
        assert_eq!(deps[0].pinned_version().unwrap().to_string(), "4.5.6");
    }

    #[test]
    fn pom_properties_triple() {
        let deps = parse_pom_properties(
            "groupId=org.apache.commons\nartifactId=commons-lang3\nversion=3.12.0\n",
        );
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].name.raw(), "org.apache.commons:commons-lang3");
    }

    #[test]
    fn malformed_inputs_empty() {
        assert!(parse_pom_xml("<not-a-project/>").is_empty());
        assert!(parse_pom_xml("garbage").is_empty());
        assert!(parse_manifest_mf("").is_empty());
        assert!(parse_pom_properties("flavor=vanilla").is_empty());
    }

    #[test]
    fn malformed_carries_classified_diagnostics() {
        let p = parse_pom_xml("<not-a-project/>");
        assert_eq!(p.diags[0].class, DiagClass::MalformedFile);
        let p = parse_pom_xml(
            "<project><dependencies><dependency><version>1</version></dependency></dependencies></project>",
        );
        assert_eq!(p.diags[0].class, DiagClass::MissingField);
        let p = parse_gradle_lockfile("not a coordinate\n");
        assert_eq!(p.diags[0].class, DiagClass::UnsupportedSyntax);
        assert_eq!(p.diags[0].line, Some(1));
        let p = parse_manifest_mf("Manifest-Version: 1.0\n");
        assert_eq!(p.diags[0].class, DiagClass::MissingField);
        let p = parse_pom_properties("flavor=vanilla");
        assert_eq!(p.diags[0].class, DiagClass::MissingField);
    }

    #[test]
    fn pom_properties_lone_surrogate_degrades_with_encoding_diagnostic() {
        // A lone high surrogate in the artifactId becomes U+FFFD and the
        // component is still reported, alongside an EncodingError diagnostic.
        let p = parse_pom_properties("groupId=org.example\nartifactId=lib\\ud83d\nversion=1.0.0\n");
        assert_eq!(p.deps.len(), 1);
        assert_eq!(p.deps[0].name.raw(), "org.example:lib\u{FFFD}");
        assert_eq!(p.diags.len(), 1);
        assert_eq!(p.diags[0].class, DiagClass::EncodingError);
        assert!(
            p.diags[0].message.contains("line 2"),
            "{}",
            p.diags[0].message
        );
        // A valid surrogate pair decodes cleanly: no diagnostic.
        let p = parse_pom_properties(
            "groupId=org.example\nartifactId=lib\\ud83d\\ude00\nversion=1.0.0\n",
        );
        assert_eq!(p.deps[0].name.raw(), "org.example:lib\u{1F600}");
        assert!(p.diags.is_empty());
        // The diagnostic also survives the missing-field failure path.
        let p = parse_pom_properties("flavor=\\ude00\n");
        assert!(p.deps.is_empty());
        assert_eq!(p.diags[0].class, DiagClass::MissingField);
        assert_eq!(p.diags[1].class, DiagClass::EncodingError);
    }
}
