//! Ingest-vs-emit identity: every document the studied tool emulators and
//! the best-practice generator emit, in every serialization format, must
//! re-ingest through the streaming reader to a byte-identical document —
//! for every corpus repo × profile, with jobs=1 and jobs=4 emitting
//! byte-identical inputs, and an empty diff against itself.
//!
//! This is the paper's differential method turned on our own consumption
//! path: the emit side and the ingest side are independent
//! implementations, so any divergence between them is a correctness bug
//! in one of the two.

use sbomdiff::corpus::{Corpus, CorpusConfig};
use sbomdiff::diff::key_set;
use sbomdiff::generators::{
    studied_tools, BestPracticeGenerator, ParseCache, SbomGenerator, ScanContext,
};
use sbomdiff::registry::Registries;
use sbomdiff::sbomfmt::ingest::{ingest_bytes, ingest_reader, IngestOptions};
use sbomdiff::sbomfmt::SbomFormat;
use sbomdiff::Ecosystem;

const FORMATS: [SbomFormat; 3] = [
    SbomFormat::CycloneDx,
    SbomFormat::Spdx,
    SbomFormat::SpdxTagValue,
];

#[test]
fn every_emitted_document_reingests_to_identity() {
    let regs = Registries::generate(271);
    let config = CorpusConfig {
        repos_per_language: 4,
        seed: 828,
    };
    for eco in [Ecosystem::Python, Ecosystem::JavaScript, Ecosystem::Rust] {
        let repos = Corpus::build_language(&regs, &config, eco);
        let tools = studied_tools(&regs, 0.0);
        for repo in &repos {
            let mut sboms: Vec<_> = tools.iter().map(|t| t.generate(repo)).collect();
            sboms.push(BestPracticeGenerator::new(&regs).generate(repo));
            for sbom in &sboms {
                for format in FORMATS {
                    let text = format.serialize(sbom);
                    let outcome = ingest_bytes(text.as_bytes());
                    assert!(
                        outcome.fatal.is_none(),
                        "{:?} for {} did not re-ingest: {:?}",
                        format,
                        repo.name(),
                        outcome.fatal
                    );
                    // Identity: re-serializing the ingested document
                    // reproduces the emitted bytes exactly.
                    assert_eq!(
                        format.serialize(&outcome.sbom),
                        text,
                        "{:?} ingest of {} is not the identity",
                        format,
                        repo.name()
                    );
                    // …so the diff against itself is empty.
                    let emitted = key_set(sbom);
                    let ingested = key_set(&outcome.sbom);
                    assert!(emitted.difference(&ingested).next().is_none());
                    assert!(ingested.difference(&emitted).next().is_none());
                    // Streaming in small chunks sees the same document.
                    let opts = IngestOptions {
                        chunk_size: 512,
                        fault_key: String::new(),
                    };
                    let streamed = ingest_reader(text.as_bytes(), opts, &mut |_| {});
                    assert_eq!(format.serialize(&streamed.sbom), text);
                }
            }
        }
    }
}

#[test]
fn parallel_emit_is_byte_identical_then_reingests() {
    let regs = Registries::generate(99);
    let repos = Corpus::build_language(
        &regs,
        &CorpusConfig {
            repos_per_language: 6,
            seed: 515,
        },
        Ecosystem::Go,
    );
    let tools = studied_tools(&regs, 0.0);
    let emit = |jobs: usize| -> Vec<String> {
        let counters = ParseCache::new();
        repos
            .iter()
            .flat_map(|repo| {
                let scan = ScanContext::new(repo, &counters);
                let sboms =
                    sbomdiff::parallel::par_map(jobs, &tools, |_, t| t.generate_with_scan(&scan));
                sboms
                    .iter()
                    .map(|s| SbomFormat::CycloneDx.serialize(s))
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    let serial = emit(1);
    let parallel = emit(4);
    assert_eq!(
        serial, parallel,
        "jobs=1 and jobs=4 emits must be identical"
    );
    for text in &serial {
        let outcome = ingest_bytes(text.as_bytes());
        assert!(outcome.fatal.is_none());
        assert_eq!(&SbomFormat::CycloneDx.serialize(&outcome.sbom), text);
    }
}
