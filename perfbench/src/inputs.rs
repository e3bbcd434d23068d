//! Seeded inputs for the serving workloads, built before any clock starts.
//!
//! Every measured request carries different content, so none of them can be
//! answered from the service's response cache. The corpus repositories come
//! from the program's own seeded corpus generator over the package universe
//! of the server's default world seed, so every package a request names
//! exists in the registries the server resolves against.

use sbomdiff_corpus::{Corpus, CorpusConfig};
use sbomdiff_generators::{studied_tools, BestPracticeGenerator, SbomGenerator, ToolEmulator};
use sbomdiff_metadata::RepoFs;
use sbomdiff_parallel::par_map;
use sbomdiff_registry::Registries;
use sbomdiff_sbomfmt::SbomFormat;
use sbomdiff_types::{Ecosystem, Sbom};

use crate::stats::push_json_str;

/// `sbomdiff-serve`'s default world seed: requests carry no seed, so the
/// server resolves and scores against this world.
pub const SERVER_SEED: u64 = 42;

/// The `experiments` binary's default seed; input seed 0 reproduces a default
/// `experiments all` run.
pub const BASE_SEED: u64 = 2024;

pub struct Payload {
    pub path: &'static str,
    /// The complete HTTP/1.1 request, built once so the timed loop only
    /// writes bytes.
    pub request: Vec<u8>,
    /// Length of the JSON body inside `request`.
    pub body_len: usize,
}

impl Payload {
    fn new(path: &'static str, body: String) -> Self {
        let mut request = format!(
            "POST {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body.as_bytes());
        Payload {
            path,
            request,
            body_len: body.len(),
        }
    }

    pub fn body(&self) -> &[u8] {
        &self.request[self.request.len() - self.body_len..]
    }
}

pub struct ServeInputs {
    /// Requests sent before the clock starts: they build the default-seed
    /// registries and advisory database, and none is repeated later.
    pub warmup: Vec<Payload>,
    pub measured: Vec<Payload>,
}

fn corpus(registries: &Registries, repos_per_language: usize, seed: u64, jobs: usize) -> Corpus {
    Corpus::build_with_jobs(
        registries,
        &CorpusConfig {
            repos_per_language,
            seed: BASE_SEED + seed,
        },
        jobs,
    )
}

fn analyze_body(repo: &RepoFs) -> String {
    let mut body = String::from("{\"name\":");
    push_json_str(&mut body, repo.name());
    body.push_str(",\"include_sboms\":true,\"files\":{");
    for (i, (path, text)) in repo.text_files().iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        push_json_str(&mut body, path);
        body.push(':');
        push_json_str(&mut body, text);
    }
    body.push_str("}}");
    body
}

fn diff_body(a: &str, b: &str) -> String {
    let mut body = String::from("{\"match\":\"tiered\",\"a\":");
    push_json_str(&mut body, a);
    body.push_str(",\"b\":");
    push_json_str(&mut body, b);
    body.push('}');
    body
}

fn impact_body(docs: &[String]) -> String {
    let mut body = String::from("{\"sboms\":[");
    for (i, doc) in docs.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        push_json_str(&mut body, doc);
    }
    body.push_str("]}");
    body
}

/// One `serve-cold` request for `repo` on `endpoint` (0 analyze, 1 diff,
/// 2 impact); `rotation` picks the diffed tool pair.
fn cold_payload(
    endpoint: usize,
    repo: &RepoFs,
    rotation: usize,
    tools: &[ToolEmulator<'_>],
    best: &BestPracticeGenerator<'_>,
) -> Payload {
    match endpoint {
        0 => Payload::new("/v1/analyze", analyze_body(repo)),
        1 => {
            let a = tools[rotation % 4].generate(repo);
            let b = tools[(rotation + 1) % 4].generate(repo);
            Payload::new(
                "/v1/diff",
                diff_body(
                    &SbomFormat::CycloneDx.serialize(&a),
                    &SbomFormat::Spdx.serialize(&b),
                ),
            )
        }
        _ => {
            let mut docs = vec![SbomFormat::CycloneDx.serialize(&best.generate(repo))];
            docs.extend(
                tools
                    .iter()
                    .map(|t| SbomFormat::CycloneDx.serialize(&t.generate(repo))),
            );
            Payload::new("/v1/impact", impact_body(&docs))
        }
    }
}

/// Warm-up requests, one per endpoint, over the last repository of three
/// languages (measured requests never use it): the analyze request builds
/// the server's registries and the impact request its advisory database.
fn warmup(
    corpus: &Corpus,
    tools: &[ToolEmulator<'_>],
    best: &BestPracticeGenerator<'_>,
) -> Vec<Payload> {
    (0..3)
        .map(|endpoint| {
            let repos = corpus.language(Ecosystem::ALL[endpoint]);
            cold_payload(endpoint, &repos[repos.len() - 1], 0, tools, best)
        })
        .collect()
}

/// `serve-cold`: `n` requests rotating analyze, diff, impact; languages
/// interleave, and each request carries a different corpus repository.
pub fn serve_cold(seed: u64, n: usize, jobs: usize) -> ServeInputs {
    let registries = Registries::generate(SERVER_SEED);
    // Request i uses endpoint i % 3 and language (i / 3) % 9; within one
    // (endpoint, language) cell each request takes the next repository.
    let per_language = 3 * n.div_ceil(27) + 1;
    let corpus = corpus(&registries, per_language, seed, jobs);
    let tools = studied_tools(&registries, 0.0);
    let best = BestPracticeGenerator::new(&registries);
    let indices: Vec<usize> = (0..n).collect();
    let measured = par_map(jobs, &indices, |_, &i| {
        let (endpoint, cell) = (i % 3, i / 3);
        let repo = &corpus.language(Ecosystem::ALL[cell % 9])[3 * (cell / 9) + endpoint];
        cold_payload(endpoint, repo, cell / 9, &tools, &best)
    });
    ServeInputs {
        warmup: warmup(&corpus, &tools, &best),
        measured,
    }
}

/// One side of a synthetic monorepo: one tool's SBOMs of consecutive corpus
/// repositories of one language, merged until `target` components.
fn monorepo_side(sboms: &[Sbom], start: usize, target: usize, subject: &str) -> Sbom {
    let first = &sboms[start % sboms.len()];
    let mut merged = Sbom::new(
        first.meta.tool_name.clone(),
        first.meta.tool_version.clone(),
    )
    .with_subject(subject);
    // Wraps around the language's repositories when they hold fewer than
    // `target` components in one pass; bounded in case all are empty.
    for k in 0..8 * sboms.len() {
        if merged.len() >= target {
            break;
        }
        for c in sboms[(start + k) % sboms.len()].components() {
            merged.push(c.clone());
        }
    }
    merged
}

/// `serve-large`: `n` `/v1/diff` requests, each carrying two documents of
/// one synthetic monorepo of about `target` components per side, in two
/// different formats.
pub fn serve_large(seed: u64, n: usize, target: usize, jobs: usize) -> ServeInputs {
    const FORMATS: [SbomFormat; 3] = [
        SbomFormat::CycloneDx,
        SbomFormat::Spdx,
        SbomFormat::SpdxTagValue,
    ];
    const PER_LANGUAGE: usize = 60;
    let registries = Registries::generate(SERVER_SEED);
    let corpus = corpus(&registries, PER_LANGUAGE + 1, seed, jobs);
    let tools = studied_tools(&registries, 0.0);
    // sboms[language][tool][repository], over the first PER_LANGUAGE repos.
    let sboms: Vec<Vec<Vec<Sbom>>> = Ecosystem::ALL
        .iter()
        .map(|&eco| {
            let repos = &corpus.language(eco)[..PER_LANGUAGE];
            let per_repo = par_map(jobs, repos, |_, repo| {
                tools.iter().map(|t| t.generate(repo)).collect::<Vec<_>>()
            });
            (0..tools.len())
                .map(|t| per_repo.iter().map(|s| s[t].clone()).collect())
                .collect()
        })
        .collect();
    let build = |r: usize, subject: &str| -> Payload {
        let lang = r % 9;
        let round = r / 9;
        let (ta, tb) = (round % 4, (round + 1) % 4);
        let start = round * 7 + seed as usize;
        let a = monorepo_side(&sboms[lang][ta], start, target, subject);
        let b = monorepo_side(&sboms[lang][tb], start + 3, target, subject);
        let (fa, fb) = (FORMATS[r % 3], FORMATS[(r + 1) % 3]);
        Payload::new("/v1/diff", diff_body(&fa.serialize(&a), &fb.serialize(&b)))
    };
    let indices: Vec<usize> = (0..n).collect();
    let measured = par_map(jobs, &indices, |_, &r| build(r, &format!("monorepo-{r}")));
    let best = BestPracticeGenerator::new(&registries);
    let mut warmup = warmup(&corpus, &tools, &best);
    warmup.push(build(0, "warmup"));
    ServeInputs { warmup, measured }
}
