//! Benchmarks of the text-format substrate (JSON/TOML/YAML/XML) and the
//! CycloneDX / SPDX document layer.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use sbomdiff_sbomfmt::{ingest, SbomFormat};
use sbomdiff_textformats::{json, toml, xml, yaml, Value};
use sbomdiff_types::{Component, Cpe, DepScope, Ecosystem, Purl, Sbom};

fn big_json(entries: usize) -> String {
    let mut s = String::from("{\"items\": [");
    for i in 0..entries {
        s.push_str(&format!(
            "{{\"name\": \"pkg-{i}\", \"version\": \"1.{}.{}\", \"dev\": {}, \"deps\": [\"a\", \"b\"]}},",
            i % 30,
            i % 7,
            i % 2 == 0
        ));
    }
    s.pop();
    s.push_str("]}");
    s
}

fn bench_container_formats(c: &mut Criterion) {
    let mut group = c.benchmark_group("container_formats");

    let json_doc = big_json(500);
    group.throughput(Throughput::Bytes(json_doc.len() as u64));
    group.bench_function("json_parse", |b| {
        b.iter(|| json::parse(black_box(&json_doc)).unwrap())
    });
    let parsed = json::parse(&json_doc).unwrap();
    group.bench_function("json_emit_pretty", |b| {
        b.iter(|| json::to_string_pretty(black_box(&parsed)))
    });

    let mut toml_doc = String::from("version = 3\n");
    for i in 0..300 {
        toml_doc.push_str(&format!(
            "\n[[package]]\nname = \"p{i}\"\nversion = \"1.{}.0\"\ndependencies = [\"a\", \"b\"]\n",
            i % 9
        ));
    }
    group.bench_function("toml_parse", |b| {
        b.iter(|| toml::parse(black_box(&toml_doc)).unwrap())
    });

    let mut yaml_doc = String::from("packages:\n\n");
    for i in 0..300 {
        yaml_doc.push_str(&format!(
            "  /pkg-{i}@2.{}.{}:\n    resolution: {{integrity: sha512-x}}\n    dev: false\n\n",
            i % 12,
            i % 5
        ));
    }
    group.bench_function("yaml_parse", |b| {
        b.iter(|| yaml::parse(black_box(&yaml_doc)).unwrap())
    });

    let mut xml_doc = String::from("<root>");
    for i in 0..300 {
        xml_doc.push_str(&format!(
            "<item attr=\"v{i}\"><name>n{i}</name><version>3.{}</version></item>",
            i % 8
        ));
    }
    xml_doc.push_str("</root>");
    group.bench_function("xml_parse", |b| {
        b.iter(|| xml::parse(black_box(&xml_doc)).unwrap())
    });
    group.finish();
}

fn sample_sbom(components: usize) -> Sbom {
    let mut sbom = Sbom::new("bench-tool", "1.0").with_subject("bench-repo");
    for i in 0..components {
        let name = format!("pkg-{i}");
        let version = format!("1.{}.{}", i % 30, i % 7);
        sbom.push(
            Component::new(Ecosystem::Python, &name, Some(version.clone()))
                .with_found_in("requirements.txt")
                .with_purl(Purl::for_package(Ecosystem::Python, &name, Some(&version))),
        );
    }
    sbom
}

fn bench_sbom_documents(c: &mut Criterion) {
    let sbom = sample_sbom(400);
    let mut group = c.benchmark_group("sbom_documents");
    for format in [
        SbomFormat::CycloneDx,
        SbomFormat::Spdx,
        SbomFormat::SpdxTagValue,
    ] {
        let label = match format {
            SbomFormat::CycloneDx => "cyclonedx",
            SbomFormat::Spdx => "spdx",
            SbomFormat::SpdxTagValue => "spdx-tag-value",
        };
        group.bench_function(format!("{label}_serialize"), |b| {
            b.iter(|| format.serialize(black_box(&sbom)))
        });
        let text = format.serialize(&sbom);
        group.throughput(Throughput::Bytes(text.len() as u64));
        group.bench_function(format!("{label}_parse"), |b| {
            b.iter(|| format.parse(black_box(&text)).unwrap())
        });
    }
    group.finish();
}

/// A monorepo-sized SBOM: `components` entries over every ecosystem, with
/// the PURLs, CPEs, scopes, suppliers and source paths tool emulators
/// attach.
fn monorepo_sbom(tool: &str, components: usize) -> Sbom {
    let mut sbom = Sbom::new(tool, "1.0")
        .with_subject("monorepo")
        .with_timestamp("2024-06-24T00:00:00Z");
    for i in 0..components {
        let eco = Ecosystem::ALL[i % Ecosystem::ALL.len()];
        let name = match eco {
            Ecosystem::Java => format!("org.example.g{}:artifact-{i}", i % 40),
            Ecosystem::Go => format!("github.com/org{}/module-{i}", i % 40),
            Ecosystem::JavaScript if i % 3 == 0 => format!("@scope{}/pkg-{i}", i % 20),
            _ => format!("package-{i}"),
        };
        let version = format!("{}.{}.{}", i % 5, i % 30, i % 7);
        let mut c = Component::new(eco, &name, Some(version.clone()))
            .with_found_in(format!(
                "services/svc-{}/lockfile-{}",
                i % 60,
                eco.purl_type()
            ))
            .with_purl(Purl::for_package(eco, &name, Some(&version)));
        if i % 2 == 0 {
            c = c.with_cpe(Cpe::for_package(eco, &name, &version));
        }
        if i % 3 != 0 {
            c = c.with_scope([DepScope::Runtime, DepScope::Dev][i % 2]);
        }
        if i % 4 == 0 {
            c = c.with_supplier(format!("{}:{name}", eco.purl_type()));
        }
        sbom.push(c);
    }
    sbom
}

/// The per-byte work of one `serve-large` `/v1/diff` request, without a
/// server: the request envelope that carries two pretty-printed documents,
/// then each ~1,750-component document through the streaming ingester.
fn bench_monorepo_documents(c: &mut Criterion) {
    const COMPONENTS: usize = 1_750;
    let a = SbomFormat::CycloneDx.serialize(&monorepo_sbom("syft", COMPONENTS));
    let b = SbomFormat::Spdx.serialize(&monorepo_sbom("trivy", COMPONENTS));
    let tv = SbomFormat::SpdxTagValue.serialize(&monorepo_sbom("sbom-tool", COMPONENTS));
    let mut envelope = Value::object();
    envelope.set("match", Value::from("tiered"));
    envelope.set("a", Value::from(a.clone()));
    envelope.set("b", Value::from(b.clone()));
    let envelope = json::to_string(&envelope);

    let mut group = c.benchmark_group("monorepo_documents");
    group.throughput(Throughput::Bytes(envelope.len() as u64));
    group.bench_function("diff_envelope_json_parse", |bench| {
        bench.iter(|| json::parse(black_box(&envelope)).unwrap())
    });
    for (label, text) in [("cyclonedx", &a), ("spdx", &b), ("spdx-tag-value", &tv)] {
        group.throughput(Throughput::Bytes(text.len() as u64));
        group.bench_function(format!("{label}_ingest"), |bench| {
            bench.iter(|| {
                let out = ingest::ingest_bytes(black_box(text.as_bytes()));
                assert_eq!(out.sbom.len(), COMPONENTS);
                out
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_container_formats,
    bench_sbom_documents,
    bench_monorepo_documents
);
criterion_main!(benches);
