//! Cross-surface consistency of vulnerability impact.
//!
//! One batch per corpus repository: the best-practice SBOM (document 0,
//! hence the ground truth) followed by the four studied tool profiles, the
//! shape `loadgen --impact` sends. Every surface must report the same
//! actual, detected, missed and false-alarm advisory ids for each document:
//!
//! * the library, as `experiments vuln` calls it: `assess_in` over the
//!   in-memory SBOMs, with the best-practice SBOM's pinned components as
//!   the truth and the advisory database seeded like the experiment's;
//! * `POST /v1/impact` with the documents serialized (CycloneDX, SPDX JSON
//!   or SPDX tag-value, rotating by repository) and the language pinned in
//!   `"ecosystem"`;
//! * the same body sent as one `/v1/batch` entry.

use std::collections::BTreeSet;

use sbomdiff_corpus::{Corpus, CorpusConfig};
use sbomdiff_generators::{studied_tools, BestPracticeGenerator, SbomGenerator};
use sbomdiff_registry::Registries;
use sbomdiff_sbomfmt::SbomFormat;
use sbomdiff_service::api::{handle, AppState};
use sbomdiff_service::http::Request;
use sbomdiff_textformats::{json, Value};
use sbomdiff_vuln::{assess_in, pinned_truth, AdvisoryDb, ImpactReport};

const SEED: u64 = 11;
const SHARE: f64 = 0.25;

/// The four id sets of one report, in `ImpactReport` field order.
type IdSets = [BTreeSet<String>; 4];

fn library_sets(report: &ImpactReport) -> IdSets {
    [
        report.actual.clone(),
        report.detected.clone(),
        report.missed.clone(),
        report.false_alarms.clone(),
    ]
}

/// The id sets of every report row in a batched `/v1/impact` response.
fn response_sets(body: &str) -> Vec<IdSets> {
    let doc = json::parse(body).expect("impact response is JSON");
    assert_eq!(doc.get("degraded").and_then(Value::as_bool), Some(false));
    let rows = doc
        .get("reports")
        .and_then(Value::as_array)
        .expect("batched response has reports");
    rows.iter()
        .map(|row| {
            ["actual", "detected", "missed", "false_alarms"].map(|field| {
                row.get(field)
                    .and_then(Value::as_array)
                    .unwrap_or_else(|| panic!("report row without {field}: {body}"))
                    .iter()
                    .map(|id| id.as_str().expect("advisory id string").to_string())
                    .collect()
            })
        })
        .collect()
}

fn post(state: &AppState, path: &str, body: String) -> String {
    let request = Request {
        method: "POST".into(),
        path: path.into(),
        body: body.into_bytes(),
    };
    let response = handle(state, &request, 0);
    let text = String::from_utf8(response.body).expect("UTF-8 response");
    assert_eq!(response.status, 200, "{path}: {text}");
    text
}

#[test]
fn library_impact_and_batch_entries_agree_on_every_id() {
    let registries = Registries::generate(SEED);
    let corpus = Corpus::build_with_jobs(
        &registries,
        &CorpusConfig {
            repos_per_language: 2,
            seed: SEED,
        },
        1,
    );
    let db = AdvisoryDb::generate(&registries, SEED, SHARE);
    let best = BestPracticeGenerator::new(&registries);
    let tools = studied_tools(&registries, 0.18);
    // Fresh states, so neither endpoint can answer from the other's cache.
    let impact_state = AppState::new(SEED, 64);
    let batch_state = AppState::new(SEED, 64);
    let mut languages = BTreeSet::new();
    let mut compared = 0;
    let mut ids = [0usize; 4];
    for (eco, repos) in corpus.iter() {
        for (i, repo) in repos.iter().enumerate() {
            let format = SbomFormat::ALL[(i + eco as usize) % 3];
            let mut sboms = vec![best.generate(repo)];
            sboms.extend(tools.iter().map(|t| t.generate(repo)));
            let truth = pinned_truth(&sboms[0]);
            let expected: Vec<IdSets> = sboms
                .iter()
                .map(|sbom| library_sets(&assess_in(&db, eco, sbom, &truth)))
                .collect();

            let docs = sboms
                .iter()
                .map(|sbom| Value::from(format.serialize(sbom)))
                .collect();
            let mut body = Value::object();
            body.set("sboms", Value::Array(docs));
            body.set("seed", Value::from(SEED as i64));
            body.set("advisory_seed", Value::from(SEED as i64));
            body.set("vulnerable_share", Value::from(SHARE));
            body.set("ecosystem", Value::from(eco.label()));

            let direct = post(&impact_state, "/v1/impact", json::to_string(&body));
            let mut entry = Value::object();
            entry.set("path", Value::from("/v1/impact"));
            entry.set("body", body);
            let mut envelope = Value::object();
            envelope.set("requests", Value::Array(vec![entry]));
            let batched = post(&batch_state, "/v1/batch", json::to_string(&envelope));
            let batched = json::parse(&batched).expect("batch response is JSON");
            let row = &batched
                .get("responses")
                .and_then(Value::as_array)
                .expect("batch responses")[0];
            assert_eq!(row.get("status").and_then(Value::as_i64), Some(200));
            let sub_body = row.get("body").and_then(Value::as_str).expect("sub-body");

            let subject = repo.name();
            assert_eq!(
                response_sets(&direct),
                expected,
                "{eco} {subject}: /v1/impact differs from assess_in"
            );
            assert_eq!(
                response_sets(sub_body),
                expected,
                "{eco} {subject}: /v1/batch entry differs from assess_in"
            );
            languages.insert(eco);
            compared += expected.len();
            for sets in &expected {
                for (n, set) in ids.iter_mut().zip(sets) {
                    *n += set.len();
                }
            }
        }
    }
    assert_eq!(languages.len(), 9, "every corpus language is covered");
    assert_eq!(compared, 9 * 2 * 5);
    assert!(
        ids.iter().all(|&n| n > 0),
        "every id set is exercised: {ids:?}"
    );
}
