//! Seeded universe generation: curated anchor packages (so the paper's
//! concrete examples reproduce exactly) plus a bulk synthetic package DAG
//! with realistic name, version and constraint-style distributions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sbomdiff_types::{ConstraintFlavor, Ecosystem, Version, VersionReq};

use crate::universe::{PackageEntry, PackageUniverse, RegistryDep, VersionEntry};

/// Configuration for synthetic universe generation.
#[derive(Debug, Clone)]
pub struct UniverseConfig {
    /// Target ecosystem.
    pub ecosystem: Ecosystem,
    /// Number of synthetic packages (curated anchors are added on top).
    pub package_count: usize,
    /// Maximum published versions per package.
    pub max_versions: usize,
    /// Maximum dependency edges per package.
    pub max_deps: usize,
    /// Probability that a dependency edge is gated behind an extra
    /// (Python only).
    pub extras_prob: f64,
    /// Probability that an edge carries a platform marker excluding it on
    /// the evaluation platform.
    pub platform_excluded_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl UniverseConfig {
    /// Ecosystem-appropriate defaults derived from one seed.
    ///
    /// Dependency-graph density matches the ecosystem's character: npm
    /// graphs fan out hard (lockfiles routinely hold hundreds of
    /// transitives), while PyPI/crates.io graphs are much shallower.
    pub fn for_ecosystem(ecosystem: Ecosystem, seed: u64) -> Self {
        let max_deps = match ecosystem {
            Ecosystem::JavaScript => 12,
            Ecosystem::Go => 4,
            Ecosystem::Python => 2,
            _ => 3,
        };
        UniverseConfig {
            ecosystem,
            package_count: 600,
            max_versions: 8,
            max_deps,
            extras_prob: if ecosystem == Ecosystem::Python {
                0.15
            } else {
                0.0
            },
            platform_excluded_prob: 0.06,
            seed,
        }
    }
}

/// Generates a universe per the configuration.
pub fn generate(config: &UniverseConfig) -> PackageUniverse {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5b0a_d1f0_0000_0000);
    let mut uni = PackageUniverse::new(config.ecosystem);

    curated(config.ecosystem, &mut uni);

    // Synthetic DAG: package i may only depend on packages j < i.
    let mut names: Vec<String> = Vec::with_capacity(config.package_count);
    let mut seen = std::collections::BTreeSet::new();
    while names.len() < config.package_count {
        let name = gen_name(config.ecosystem, &mut rng);
        let key = sbomdiff_types::name::normalize(config.ecosystem, &name);
        if seen.insert(key) && uni.lookup(&name).is_none() {
            names.push(name);
        }
    }

    for i in 0..names.len() {
        let version_count = 1 + rng.gen_range(0..config.max_versions);
        let versions = gen_versions(version_count, &mut rng);
        // Candidate dependency targets: earlier synthetic packages.
        let dep_count = if i == 0 {
            0
        } else {
            rng.gen_range(0..=config.max_deps.min(i))
        };
        let mut dep_targets = Vec::new();
        for _ in 0..dep_count {
            let j = rng.gen_range(0..i);
            if !dep_targets.contains(&j) {
                dep_targets.push(j);
            }
        }
        let mut ventries = Vec::with_capacity(versions.len());
        for (vi, version) in versions.iter().enumerate() {
            let mut deps = Vec::new();
            for &j in &dep_targets {
                // Later versions may gain edges; early ones have a subset.
                if vi * 2 < versions.len() && rng.gen_bool(0.3) {
                    continue;
                }
                let target = &names[j];
                let target_versions = uni.versions(target);
                let anchor = target_versions
                    .get(
                        rng.gen_range(0..target_versions.len().max(1))
                            .min(target_versions.len().saturating_sub(1)),
                    )
                    .copied()
                    .cloned()
                    .unwrap_or_else(|| Version::new(1, 0, 0));
                let req = gen_requirement(config.ecosystem, &anchor, &mut rng);
                let extra = if rng.gen_bool(config.extras_prob) {
                    Some(EXTRA_NAMES[rng.gen_range(0..EXTRA_NAMES.len())].to_string())
                } else {
                    None
                };
                let platform_excluded = rng.gen_bool(config.platform_excluded_prob);
                deps.push(
                    RegistryDep::new(target.clone(), req)
                        .with_extra(extra)
                        .with_platform_excluded(platform_excluded),
                );
            }
            ventries.push(VersionEntry {
                version: version.clone(),
                deps,
                yanked: rng.gen_bool(0.02),
            });
        }
        // The newest version must usually be available.
        if let Some(last) = ventries.last_mut() {
            last.yanked = false;
        }
        uni.insert(PackageEntry {
            name: names[i].clone(),
            versions: ventries,
        });
    }
    uni
}

const EXTRA_NAMES: [&str; 6] = ["security", "socks", "dev", "test", "docs", "async"];

const SYLLABLES: [&str; 24] = [
    "ar", "bel", "cor", "dex", "fen", "gal", "hex", "ion", "jet", "kal", "lum", "mar", "nex",
    "ori", "pix", "qua", "rum", "sol", "tor", "umb", "vex", "wiz", "yar", "zen",
];

const WORDS: [&str; 20] = [
    "data", "net", "http", "json", "auth", "cache", "log", "test", "async", "core", "util",
    "parse", "crypt", "time", "file", "task", "mesh", "grid", "flow", "sync",
];

fn syllable_word(rng: &mut StdRng) -> String {
    let n = rng.gen_range(2..4);
    (0..n)
        .map(|_| SYLLABLES[rng.gen_range(0..SYLLABLES.len())])
        .collect()
}

fn base_name(rng: &mut StdRng) -> String {
    if rng.gen_bool(0.5) {
        format!(
            "{}{}",
            WORDS[rng.gen_range(0..WORDS.len())],
            syllable_word(rng)
        )
    } else {
        syllable_word(rng)
    }
}

fn gen_name(eco: Ecosystem, rng: &mut StdRng) -> String {
    match eco {
        Ecosystem::Python => {
            let base = base_name(rng);
            match rng.gen_range(0..4) {
                0 => format!("{}-{}", base, WORDS[rng.gen_range(0..WORDS.len())]),
                1 => format!("{}_{}", base, WORDS[rng.gen_range(0..WORDS.len())]),
                _ => base,
            }
        }
        Ecosystem::JavaScript => {
            let base = base_name(rng);
            if rng.gen_bool(0.2) {
                format!("@{}/{}", syllable_word(rng), base)
            } else {
                base
            }
        }
        Ecosystem::Ruby => {
            let base = base_name(rng);
            if rng.gen_bool(0.3) {
                format!("{}-{}", base, WORDS[rng.gen_range(0..WORDS.len())])
            } else {
                base
            }
        }
        Ecosystem::Php => format!("{}/{}", syllable_word(rng), base_name(rng)),
        Ecosystem::Java => format!(
            "org.{}.{}:{}",
            syllable_word(rng),
            syllable_word(rng),
            base_name(rng)
        ),
        Ecosystem::Go => {
            if rng.gen_bool(0.15) {
                format!("golang.org/x/{}", base_name(rng))
            } else {
                format!("github.com/{}/{}", syllable_word(rng), base_name(rng))
            }
        }
        Ecosystem::Rust => {
            let base = base_name(rng);
            if rng.gen_bool(0.3) {
                format!("{}-{}", base, WORDS[rng.gen_range(0..WORDS.len())])
            } else {
                base
            }
        }
        Ecosystem::Swift => {
            // CamelCase pod names.
            let mut s = base_name(rng);
            if let Some(c) = s.get_mut(0..1) {
                let upper = c.to_uppercase();
                s.replace_range(0..1, &upper);
            }
            format!("{}Kit", s)
        }
        Ecosystem::DotNet => {
            let mut parts = Vec::new();
            for _ in 0..rng.gen_range(2..4) {
                let mut w = syllable_word(rng);
                if let Some(c) = w.get(0..1) {
                    let upper = c.to_uppercase();
                    w.replace_range(0..1, &upper);
                }
                parts.push(w);
            }
            parts.join(".")
        }
    }
}

fn gen_versions(count: usize, rng: &mut StdRng) -> Vec<Version> {
    let mut v = if rng.gen_bool(0.4) {
        Version::new(0, rng.gen_range(1..5), 0)
    } else {
        Version::new(rng.gen_range(1..4), 0, 0)
    };
    let mut out = vec![v.clone()];
    for _ in 1..count {
        v = match rng.gen_range(0..10) {
            0 => v.bump_major(),
            1..=3 => v.bump_minor(),
            _ => v.bump_patch(),
        };
        out.push(v.clone());
    }
    out
}

/// Generates a constraint in the ecosystem's dominant styles, anchored on a
/// real published version of the target.
fn gen_requirement(eco: Ecosystem, anchor: &Version, rng: &mut StdRng) -> VersionReq {
    let flavor = eco.constraint_flavor();
    let text = match flavor {
        ConstraintFlavor::Pep440 => match rng.gen_range(0..10) {
            0..=3 => format!(">={anchor}"),
            4..=5 => format!(">={},<{}", anchor, anchor.bump_major()),
            6 => format!("=={anchor}"),
            7 => format!("~={}.{}", anchor.segment(0), anchor.segment(1)),
            _ => String::new(),
        },
        ConstraintFlavor::Npm => match rng.gen_range(0..10) {
            0..=5 => format!("^{anchor}"),
            6..=7 => format!("~{anchor}"),
            8 => format!(">={anchor}"),
            _ => "*".to_string(),
        },
        ConstraintFlavor::Cargo => match rng.gen_range(0..10) {
            0..=6 => anchor.to_string(),
            7 => format!("={anchor}"),
            _ => format!(">={anchor}"),
        },
        ConstraintFlavor::RubyGems => match rng.gen_range(0..10) {
            0..=5 => format!("~> {}.{}", anchor.segment(0), anchor.segment(1)),
            6..=7 => format!(">= {anchor}"),
            _ => String::new(),
        },
        ConstraintFlavor::Composer => match rng.gen_range(0..10) {
            0..=5 => format!("^{anchor}"),
            6 => format!("~{anchor}"),
            _ => format!(">={anchor}"),
        },
        ConstraintFlavor::Maven => match rng.gen_range(0..10) {
            0..=6 => anchor.to_string(),
            _ => format!("[{},{})", anchor, anchor.bump_major()),
        },
        ConstraintFlavor::Go => anchor.to_v_prefixed(),
    };
    if text.is_empty() {
        VersionReq::any()
    } else {
        VersionReq::parse(&text, flavor).unwrap_or_else(|_| VersionReq::any())
    }
}

/// Curated anchor packages with fixed versions, so the paper's concrete
/// examples (Table IV `numpy` → `1.25.2`; `requests[security]`, `urllib3`)
/// reproduce exactly regardless of seed.
fn curated(eco: Ecosystem, uni: &mut PackageUniverse) {
    let flavor = eco.constraint_flavor();
    let req = |s: &str| VersionReq::parse(s, flavor).unwrap_or_else(|_| VersionReq::any());
    let entry = |name: &str, versions: &[(&str, Vec<RegistryDep>)]| PackageEntry {
        name: name.to_string(),
        versions: versions
            .iter()
            .map(|(v, deps)| VersionEntry {
                version: Version::parse(v).expect("curated version is valid"),
                deps: deps.clone(),
                yanked: false,
            })
            .collect(),
    };
    match eco {
        Ecosystem::Python => {
            uni.insert(entry(
                "certifi",
                &[("2022.12.7", vec![]), ("2023.7.22", vec![])],
            ));
            uni.insert(entry("idna", &[("2.10", vec![]), ("3.4", vec![])]));
            uni.insert(entry(
                "charset-normalizer",
                &[("2.1.1", vec![]), ("3.2.0", vec![])],
            ));
            uni.insert(entry(
                "pyopenssl",
                &[("22.1.0", vec![]), ("23.2.0", vec![])],
            ));
            uni.insert(entry("pysocks", &[("1.7.0", vec![]), ("1.7.1", vec![])]));
            uni.insert(entry("urllib3", &[("1.26.15", vec![]), ("2.0.4", vec![])]));
            uni.insert(entry(
                "requests",
                &[
                    ("2.8.1", vec![RegistryDep::new("urllib3", req(">=1.21"))]),
                    (
                        "2.31.0",
                        vec![
                            RegistryDep::new("urllib3", req(">=1.21.1,<3")),
                            RegistryDep::new("idna", req(">=2.5,<4")),
                            RegistryDep::new("charset-normalizer", req(">=2,<4")),
                            RegistryDep::new("certifi", req(">=2017.4.17")),
                            RegistryDep::new("pyopenssl", req(">=0.14"))
                                .with_extra(Some("security".into())),
                            RegistryDep::new("pysocks", req(">=1.5.6"))
                                .with_extra(Some("socks".into())),
                        ],
                    ),
                ],
            ));
            uni.insert(entry(
                "numpy",
                &[
                    ("1.19.2", vec![]),
                    ("1.21.0", vec![]),
                    ("1.24.3", vec![]),
                    ("1.25.2", vec![]),
                ],
            ));
            uni.insert(entry("markupsafe", &[("2.0.1", vec![]), ("2.1.3", vec![])]));
            uni.insert(entry(
                "jinja2",
                &[
                    (
                        "2.11.3",
                        vec![RegistryDep::new("markupsafe", req(">=0.23"))],
                    ),
                    ("3.1.2", vec![RegistryDep::new("markupsafe", req(">=2.0"))]),
                ],
            ));
            uni.insert(entry(
                "werkzeug",
                &[
                    ("2.0.0", vec![RegistryDep::new("markupsafe", req(">=2.0"))]),
                    (
                        "2.3.6",
                        vec![RegistryDep::new("markupsafe", req(">=2.1.1"))],
                    ),
                ],
            ));
            uni.insert(entry("click", &[("7.1.2", vec![]), ("8.1.6", vec![])]));
            uni.insert(entry(
                "itsdangerous",
                &[("1.1.0", vec![]), ("2.1.2", vec![])],
            ));
            uni.insert(entry(
                "flask",
                &[
                    (
                        "1.1.4",
                        vec![
                            RegistryDep::new("werkzeug", req(">=2.0")),
                            RegistryDep::new("jinja2", req(">=2.11")),
                            RegistryDep::new("click", req(">=5.1")),
                            RegistryDep::new("itsdangerous", req(">=1.1")),
                        ],
                    ),
                    (
                        "2.3.2",
                        vec![
                            RegistryDep::new("werkzeug", req(">=2.3.3")),
                            RegistryDep::new("jinja2", req(">=3.1.2")),
                            RegistryDep::new("click", req(">=8.1.3")),
                            RegistryDep::new("itsdangerous", req(">=2.1.2")),
                        ],
                    ),
                ],
            ));
            uni.insert(entry("pytest", &[("7.0.0", vec![]), ("7.4.0", vec![])]));
            uni.insert(entry("pywin32", &[("305", vec![]), ("306", vec![])]));
        }
        Ecosystem::JavaScript => {
            uni.insert(entry("lodash", &[("4.17.20", vec![]), ("4.17.21", vec![])]));
            uni.insert(entry(
                "ms",
                &[("2.0.0", vec![]), ("2.1.2", vec![]), ("2.1.3", vec![])],
            ));
            uni.insert(entry(
                "debug",
                &[
                    ("4.3.0", vec![RegistryDep::new("ms", req("^2.1.1"))]),
                    ("4.3.4", vec![RegistryDep::new("ms", req("2.1.2"))]),
                ],
            ));
            uni.insert(entry(
                "express",
                &[("4.18.2", vec![RegistryDep::new("debug", req("^4.3.4"))])],
            ));
            uni.insert(entry("jest", &[("29.6.2", vec![])]));
            uni.insert(entry("@babel/core", &[("7.22.9", vec![])]));
        }
        Ecosystem::Ruby => {
            uni.insert(entry("rake", &[("13.0.6", vec![])]));
            uni.insert(entry(
                "rails",
                &[
                    ("6.1.7", vec![]),
                    ("7.0.4", vec![RegistryDep::new("rake", req(">= 12.2"))]),
                ],
            ));
            uni.insert(entry("rspec", &[("3.12.0", vec![])]));
        }
        Ecosystem::Php => {
            uni.insert(entry("psr/log", &[("2.0.0", vec![]), ("3.0.0", vec![])]));
            uni.insert(entry(
                "monolog/monolog",
                &[(
                    "3.4.0",
                    vec![RegistryDep::new("psr/log", req("^2.0 || ^3.0"))],
                )],
            ));
            uni.insert(entry("phpunit/phpunit", &[("10.2.1", vec![])]));
        }
        Ecosystem::Java => {
            uni.insert(entry(
                "org.slf4j:slf4j-api",
                &[("1.7.36", vec![]), ("2.0.7", vec![])],
            ));
            uni.insert(entry(
                "com.google.guava:guava",
                &[("31.1", vec![]), ("32.1.2", vec![])],
            ));
            uni.insert(entry(
                "org.junit.jupiter:junit-jupiter",
                &[("5.9.2", vec![])],
            ));
        }
        Ecosystem::Go => {
            uni.insert(entry(
                "github.com/stretchr/testify",
                &[("v1.8.0", vec![]), ("v1.8.4", vec![])],
            ));
            uni.insert(entry("golang.org/x/sync", &[("v0.3.0", vec![])]));
            uni.insert(entry("github.com/pkg/errors", &[("v0.9.1", vec![])]));
        }
        Ecosystem::Rust => {
            uni.insert(entry("serde", &[("1.0.160", vec![]), ("1.0.188", vec![])]));
            uni.insert(entry("rand", &[("0.8.5", vec![])]));
            uni.insert(entry("proptest", &[("1.2.0", vec![])]));
        }
        Ecosystem::Swift => {
            uni.insert(entry("FirebaseAuth", &[("10.12.0", vec![])]));
            uni.insert(entry(
                "Firebase",
                &[(
                    "10.12.0",
                    vec![RegistryDep::new("FirebaseAuth", req("~> 10.12"))],
                )],
            ));
            uni.insert(entry("SnapKit", &[("5.6.0", vec![])]));
            uni.insert(entry("GoogleUtilities", &[("7.11.0", vec![])]));
        }
        Ecosystem::DotNet => {
            uni.insert(entry(
                "Newtonsoft.Json",
                &[("12.0.3", vec![]), ("13.0.3", vec![])],
            ));
            uni.insert(entry("System.Memory", &[("4.5.5", vec![])]));
            uni.insert(entry("Serilog", &[("3.0.1", vec![])]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_ecosystem_shape() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            assert!(gen_name(Ecosystem::Php, &mut rng).contains('/'));
            assert!(gen_name(Ecosystem::Java, &mut rng).contains(':'));
            assert!(gen_name(Ecosystem::Go, &mut rng).contains('/'));
            let swift = gen_name(Ecosystem::Swift, &mut rng);
            assert!(
                swift.starts_with(|c: char| c.is_ascii_uppercase()),
                "{swift}"
            );
            assert!(gen_name(Ecosystem::DotNet, &mut rng).contains('.'));
        }
    }

    #[test]
    fn versions_ascend() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let vs = gen_versions(6, &mut rng);
            for w in vs.windows(2) {
                assert!(w[0] < w[1], "{} !< {}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn requirements_match_their_anchor() {
        let mut rng = StdRng::seed_from_u64(11);
        for eco in Ecosystem::ALL {
            for _ in 0..30 {
                let anchor = Version::new(2, 3, 4);
                let req = gen_requirement(eco, &anchor, &mut rng);
                assert!(
                    req.matches(&anchor),
                    "{eco}: {req} should match its anchor {anchor}"
                );
            }
        }
    }

    #[test]
    fn curated_requests_extras() {
        let config = UniverseConfig::for_ecosystem(Ecosystem::Python, 5);
        let uni = generate(&config);
        let v = Version::parse("2.31.0").unwrap();
        let with_security = uni.deps_of("requests", &v, &["security".into()], true);
        let plain = uni.deps_of("requests", &v, &[], true);
        assert_eq!(with_security.len(), plain.len() + 1);
    }

    #[test]
    fn dag_property_no_cycles() {
        // Transitive closure terminates for every package (cycle-free).
        let config = UniverseConfig {
            package_count: 120,
            ..UniverseConfig::for_ecosystem(Ecosystem::Python, 21)
        };
        let uni = generate(&config);
        for name in uni.package_names() {
            let mut visited = std::collections::BTreeSet::new();
            let mut stack = vec![name.to_string()];
            let mut steps = 0;
            while let Some(n) = stack.pop() {
                steps += 1;
                assert!(steps < 100_000, "dependency closure too large — cycle?");
                if !visited.insert(n.clone()) {
                    continue;
                }
                if let Some(latest) = uni.latest(&n).cloned() {
                    for d in uni.deps_of(&n, &latest, &[], true) {
                        stack.push(d.name.clone());
                    }
                }
            }
        }
    }
}
