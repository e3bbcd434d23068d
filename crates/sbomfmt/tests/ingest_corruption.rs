//! Corruption/fuzz suite for the streaming SBOM ingester.
//!
//! The ingester is the only SBOM reader — `SbomFormat::parse`/`detect`,
//! the CLI and every service endpoint read through it — and the service's
//! front door for arbitrary externally generated documents, so it must
//! never panic, must classify every failure into a typed diagnostic, and
//! must hold its peak buffering under a hard cap no matter what bytes
//! arrive. This suite mangles valid documents — exhaustive truncation,
//! deterministic bit flips, invalid UTF-8 splices, deep-nesting bombs,
//! pathological string lengths — and asserts all three properties on
//! every mutant, plus, whenever a mutant still parses, that it
//! re-serializes without panicking and that streaming is self-consistent
//! (tiny chunks vs one-shot ingestion agree byte-for-byte).
//!
//! Deterministic by construction: fixed seeds, fixed iteration counts.
//! `INGEST_FUZZ_BUDGET` scales the mutation count (CI smoke uses a
//! reduced budget; the default exercises the full matrix).

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::{rngs::StdRng, Rng, SeedableRng};
use sbomdiff_sbomfmt::ingest::{ingest_bytes, ingest_reader, IngestOptions, IngestOutcome};
use sbomdiff_sbomfmt::SbomFormat;
use sbomdiff_textformats::stream::{DEFAULT_CHUNK, MAX_TOKEN};
use sbomdiff_types::{Component, DepScope, DiagClass, Ecosystem, Sbom, Severity};

/// Hard ceiling on reader buffering: one chunk in flight plus one
/// maximum-size token of scratch, with a small allowance for the
/// tokenizer's bookkeeping.
const PEAK_CAP: usize = DEFAULT_CHUNK + MAX_TOKEN + 4096;

/// Mutations per (document, corruption family). Override with
/// `INGEST_FUZZ_BUDGET` for CI smoke runs.
fn budget() -> usize {
    std::env::var("INGEST_FUZZ_BUDGET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

fn valid_documents() -> Vec<String> {
    let mut sboms = Vec::new();
    sboms.push(Sbom::new("fuzz-tool", "0.0.1").with_subject("empty-repo"));
    let mut rich = Sbom::new("fuzz-tool", "9.9").with_subject("rich-repo");
    rich.push(
        Component::new(Ecosystem::Python, "requests", Some("2.31.0".into()))
            .with_found_in("requirements.txt")
            .with_scope(DepScope::Runtime),
    );
    rich.push(
        Component::new(Ecosystem::JavaScript, "left-pad", Some("1.3.0".into()))
            .with_scope(DepScope::Dev),
    );
    rich.push(Component::new(Ecosystem::Go, "github.com/pkg/errors", None));
    sboms.push(rich);
    let mut awkward =
        Sbom::new("tool \"quoted\" \\ name", "1.0\n2.0").with_subject("weird/sub\tject");
    awkward.push(Component::new(
        Ecosystem::Java,
        "grüß-gott:パッケージ",
        Some("1.0.0-beta+exp.sha.5114f85".into()),
    ));
    sboms.push(awkward);
    sboms
        .iter()
        .flat_map(|s| {
            [
                SbomFormat::CycloneDx.serialize(s),
                SbomFormat::Spdx.serialize(s),
                SbomFormat::SpdxTagValue.serialize(s),
            ]
        })
        .collect()
}

/// Ingests a mutant under a panic boundary and asserts the universal
/// invariants: no panic, classified fatal (if any), bounded buffering, and
/// a parsed mutant re-serializes in every format without panicking (the
/// service echoes documents back).
fn probe(bytes: &[u8]) -> IngestOutcome {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let outcome = ingest_bytes(bytes);
        if outcome.fatal.is_none() {
            for format in SbomFormat::ALL {
                format.serialize(&outcome.sbom);
            }
        }
        outcome
    }))
    .unwrap_or_else(|_| panic!("ingest panicked on {} mutated bytes", bytes.len()));
    assert!(
        outcome.stats.peak_buffered <= PEAK_CAP,
        "peak buffering {} over cap {PEAK_CAP}",
        outcome.stats.peak_buffered
    );
    if let Some(fatal) = &outcome.fatal {
        assert_eq!(fatal.severity, Severity::Error);
        assert!(
            matches!(
                fatal.class,
                DiagClass::MalformedFile
                    | DiagClass::TruncatedInput
                    | DiagClass::EncodingError
                    | DiagClass::UnsupportedSyntax
                    | DiagClass::IoError
            ),
            "unclassified fatal: {fatal}"
        );
        assert!(!fatal.message.is_empty());
    }
    outcome
}

/// When a mutant still parses, tiny-chunk streaming must agree with the
/// one-shot path on every observable: components, metadata, diagnostics.
fn assert_stream_consistent(bytes: &[u8], oneshot: &IngestOutcome) {
    let opts = IngestOptions {
        chunk_size: 512,
        fault_key: String::new(),
    };
    let streamed = ingest_reader(bytes, opts, &mut |_| {});
    assert_eq!(streamed.format, oneshot.format);
    assert_eq!(streamed.fatal.is_some(), oneshot.fatal.is_some());
    let serialize = |s: &Sbom| SbomFormat::CycloneDx.serialize(s);
    assert_eq!(serialize(&streamed.sbom), serialize(&oneshot.sbom));
    assert_eq!(
        streamed.sbom.diagnostics().len(),
        oneshot.sbom.diagnostics().len()
    );
}

#[test]
fn truncation_at_every_offset_never_panics() {
    for doc in valid_documents() {
        let bytes = doc.as_bytes();
        // Exhaustive for small documents; stride keeps big ones bounded.
        let stride = (bytes.len() / budget().max(1)).max(1);
        for cut in (0..bytes.len()).step_by(stride) {
            let outcome = probe(&bytes[..cut]);
            if outcome.fatal.is_none() {
                assert_stream_consistent(&bytes[..cut], &outcome);
            }
        }
        // The empty prefix is its own class: a truncated nothing.
        let outcome = probe(b"");
        let fatal = outcome.fatal.expect("empty input is fatal");
        assert_eq!(fatal.class, DiagClass::TruncatedInput);
    }
}

#[test]
fn bit_flips_are_classified_not_panics() {
    let mut rng = StdRng::seed_from_u64(0xB17F11B5);
    for doc in valid_documents() {
        for _ in 0..budget() {
            let mut bytes = doc.clone().into_bytes();
            let pos = rng.gen_range(0..bytes.len());
            let bit = rng.gen_range(0..8u32);
            bytes[pos] ^= 1 << bit;
            let outcome = probe(&bytes);
            if outcome.fatal.is_none() {
                assert_stream_consistent(&bytes, &outcome);
            }
        }
    }
}

#[test]
fn invalid_utf8_yields_encoding_diagnostics() {
    let mut rng = StdRng::seed_from_u64(0x0FF_BEEF);
    let mut saw_encoding_error = false;
    for doc in valid_documents() {
        for _ in 0..budget() {
            let mut bytes = doc.clone().into_bytes();
            let pos = rng.gen_range(0..bytes.len());
            // Lone continuation bytes, overlong starts, and 0xFF are all
            // invalid in UTF-8.
            bytes[pos] = [0x80, 0xC0, 0xF8, 0xFFu8][rng.gen_range(0..4)];
            let outcome = probe(&bytes);
            if let Some(fatal) = &outcome.fatal {
                if fatal.class == DiagClass::EncodingError {
                    saw_encoding_error = true;
                }
            }
        }
    }
    assert!(
        saw_encoding_error,
        "no mutant was classified as an encoding error"
    );
}

#[test]
fn deep_nesting_bomb_is_rejected_with_bounded_memory() {
    // A components array opening thousands of nested arrays: the depth
    // cap must fire long before memory does.
    let mut doc = String::from("{\"bomFormat\":\"CycloneDX\",\"components\":");
    for _ in 0..10_000 {
        doc.push('[');
    }
    let outcome = probe(doc.as_bytes());
    let fatal = outcome.fatal.expect("nesting bomb must be fatal");
    assert_eq!(fatal.class, DiagClass::UnsupportedSyntax);

    // Same bomb inside an SPDX-flavored JSON document.
    let mut doc = String::from("{\"spdxVersion\":\"SPDX-2.3\",\"packages\":");
    for _ in 0..10_000 {
        doc.push('[');
    }
    let outcome = probe(doc.as_bytes());
    assert_eq!(
        outcome.fatal.expect("nesting bomb must be fatal").class,
        DiagClass::UnsupportedSyntax
    );
}

#[test]
fn pathological_string_lengths_hit_the_token_cap() {
    // One component name longer than the token cap: rejected, and peak
    // buffering stays within the cap-sized scratch allowance.
    let mut doc = String::from("{\"bomFormat\":\"CycloneDX\",\"components\":[{\"name\":\"");
    doc.reserve(MAX_TOKEN + 64);
    for _ in 0..(MAX_TOKEN + 16) {
        doc.push('x');
    }
    doc.push_str("\"}]}");
    let outcome = probe(doc.as_bytes());
    let fatal = outcome.fatal.expect("oversized token must be fatal");
    assert_eq!(fatal.class, DiagClass::UnsupportedSyntax);

    // A run of escapes decodes inside the tokenizer's escape loop; the cap
    // holds there too.
    let doc = format!("{{\"bomFormat\":\"{}\"}}", "\\ud83d".repeat(MAX_TOKEN / 2));
    let outcome = probe(doc.as_bytes());
    let fatal = outcome.fatal.expect("oversized token must be fatal");
    assert_eq!(fatal.class, DiagClass::UnsupportedSyntax);

    // An endless unterminated string must also terminate at the cap
    // rather than buffering the whole input.
    let mut doc = String::from("{\"bomFormat\":\"");
    for _ in 0..(2 * MAX_TOKEN) {
        doc.push('y');
    }
    let outcome = probe(doc.as_bytes());
    assert!(outcome.fatal.is_some());
}

#[test]
fn splice_and_delete_mutations_keep_all_invariants() {
    let mut rng = StdRng::seed_from_u64(0x5EED_5EED);
    for doc in valid_documents() {
        for _ in 0..budget() {
            let mut bytes = doc.clone().into_bytes();
            match rng.gen_range(0..3u32) {
                // Delete a random segment.
                0 => {
                    let start = rng.gen_range(0..bytes.len());
                    let len = rng.gen_range(0..=(bytes.len() - start).min(32));
                    bytes.drain(start..start + len);
                }
                // Splice random bytes in.
                1 => {
                    let at = rng.gen_range(0..=bytes.len());
                    let insert: Vec<u8> = (0..rng.gen_range(1..16usize))
                        .map(|_| rng.gen_range(0..=255u8))
                        .collect();
                    bytes.splice(at..at, insert);
                }
                // Duplicate a segment (duplicate keys, repeated clauses).
                _ => {
                    let start = rng.gen_range(0..bytes.len());
                    let len = (bytes.len() - start).min(24);
                    let segment: Vec<u8> = bytes[start..start + len].to_vec();
                    bytes.splice(start..start, segment);
                }
            }
            let outcome = probe(&bytes);
            if outcome.fatal.is_none() {
                assert_stream_consistent(&bytes, &outcome);
            }
        }
    }
}

#[test]
fn pathological_inputs_are_classified() {
    let deep_open = "[".repeat(100_000);
    let deep_mixed = "{\"a\":".repeat(50_000);
    let long_string = format!("{{\"bomFormat\":\"{}\"", "x".repeat(1_000_000));
    let nul_heavy = "\u{0}".repeat(4096);
    for case in [
        deep_open.as_str(),
        deep_mixed.as_str(),
        long_string.as_str(),
        nul_heavy.as_str(),
        "\u{feff}{\"bomFormat\":\"CycloneDX\"}",
        "{\"bomFormat\": 3.0e309}",
        "{\"components\": [null]}",
    ] {
        let outcome = probe(case.as_bytes());
        assert!(outcome.fatal.is_some(), "{:?}", &case[..case.len().min(40)]);
    }
}

#[test]
fn uncorrupted_documents_round_trip() {
    // Sanity: mutants start from documents that ingest and re-serialize
    // byte-identically. Only the JSON forms: tag-value cannot spell the
    // awkward SBOM's multi-line tool version.
    for doc in valid_documents().into_iter().filter(|d| d.starts_with('{')) {
        let outcome = probe(doc.as_bytes());
        let format = outcome.format.expect("corpus doc ingests");
        assert_eq!(format.serialize(&outcome.sbom), doc);
    }
}
