//! The borrowing resolver against its clone-based predecessor.
//!
//! `reference::resolve` is the breadth-first walk `engine::resolve` used to
//! be. Every resolution the corpus, the best-practice generator and the
//! ground-truth dry run compute must come out byte-identical, so the
//! property below compares the two over generated universes of all nine
//! ecosystems, and the unit cases pin the rules a borrowed walk could most
//! easily break.
//!
//! `engine::resolve` follows registry edges through the memo each edge
//! keeps of where it lands; the reference only asks name-keyed queries.
//! The property resolves each universe six times (three policies, markers
//! on and off), so all but the first resolution of every case run on warm
//! memos. The memo cases below insert into a universe after resolving it,
//! move an entry between universes, and race threads on cold memos.

mod reference;

use std::collections::BTreeSet;
use std::sync::Barrier;
use std::thread;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use reference::{summary, Summary, POLICIES};
use sbomdiff_registry::{PackageEntry, PackageUniverse, RegistryDep, UniverseConfig, VersionEntry};
use sbomdiff_resolver::engine::{resolve, DedupPolicy, RootDep};
use sbomdiff_types::{ConstraintFlavor, DepScope, Ecosystem, Version, VersionReq};

/// Both resolvers under every policy, markers on and off.
fn assert_equivalent(uni: &PackageUniverse, roots: &[RootDep]) -> Result<(), TestCaseError> {
    for policy in POLICIES {
        for honor_markers in [true, false] {
            let got = summary(&resolve(uni, roots, policy, honor_markers));
            let want = summary(&reference::resolve(uni, roots, policy, honor_markers));
            prop_assert!(
                got == want,
                "{policy:?}, markers {honor_markers}\n got: {got:?}\nwant: {want:?}"
            );
        }
    }
    Ok(())
}

/// One root drawn from a universe's entries. `spelling` picks the registry spelling,
/// an upper-cased or underscored variant (same package, different `chosen`
/// key) or an unknown name; `req` picks no requirement, one of the
/// registry's own edge requirements, an exact pin of a published version
/// (yanked and pre-release ones included) or a requirement nothing meets.
fn draw_root(
    entries: &[(&str, &[VersionEntry])],
    extras: &[String],
    (pick, spelling, req, extra_bits): (u32, u8, u8, u8),
) -> RootDep {
    let (name, versions) = entries[pick as usize % entries.len()];
    let name = match spelling % 4 {
        0 => name.to_string(),
        1 => name.to_uppercase(),
        2 => name.replace('-', "_"),
        _ => format!("ghost-{pick}"),
    };
    let published = &versions[pick as usize / 7 % versions.len()];
    let req = match req % 4 {
        0 => None,
        1 => versions
            .iter()
            .flat_map(|v| &v.deps)
            .nth(pick as usize / 3 % 5)
            .map(|edge| edge.req.clone()),
        2 => Some(VersionReq::exact(published.version.clone())),
        _ => Some(VersionReq::exact(Version::new(999, 0, 0))),
    };
    let extras = extras
        .iter()
        .enumerate()
        .filter(|(i, _)| extra_bits >> (i % 8) & 1 == 1)
        .map(|(i, e)| {
            if i % 2 == 0 {
                e.clone()
            } else {
                e.to_uppercase()
            }
        })
        .collect();
    RootDep {
        name,
        req,
        scope: if pick % 5 == 0 {
            DepScope::Dev
        } else {
            DepScope::Runtime
        },
        extras,
    }
}

proptest! {
    // 64 cases unless `PROPTEST_CASES` says otherwise (CI runs 1,024).
    #![proptest_config(ProptestConfig::default())]

    /// Same packages (name, version spelling, scope, transitive flag) in
    /// the same order, same failures, same pruned count.
    #[test]
    fn borrowed_resolution_matches_reference(
        seed in 0u64..10_000,
        eco_idx in 0usize..9,
        picks in prop::collection::vec((any::<u32>(), any::<u8>(), any::<u8>(), any::<u8>()), 0..8),
    ) {
        let uni = PackageUniverse::generate(&UniverseConfig::for_ecosystem(
            Ecosystem::ALL[eco_idx],
            seed,
        ));
        let extras: Vec<String> = uni
            .entries()
            .flat_map(|(_, versions)| versions)
            .flat_map(|v| &v.deps)
            .filter_map(|d| d.extra.clone())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let entries: Vec<(&str, &[VersionEntry])> = uni.entries().collect();
        let roots: Vec<RootDep> =
            picks.into_iter().map(|p| draw_root(&entries, &extras, p)).collect();
        assert_equivalent(&uni, &roots)?;
    }
}

fn pep440(s: &str) -> VersionReq {
    VersionReq::parse(s, ConstraintFlavor::Pep440).unwrap()
}

fn package(name: &str, versions: Vec<(Version, Vec<RegistryDep>)>) -> PackageEntry {
    PackageEntry {
        name: name.into(),
        versions: versions
            .into_iter()
            .map(|(version, deps)| VersionEntry {
                version,
                deps,
                yanked: false,
            })
            .collect(),
    }
}

fn names_and_versions(
    uni: &PackageUniverse,
    roots: &[RootDep],
    policy: DedupPolicy,
) -> Vec<String> {
    resolve(uni, roots, policy, true)
        .packages
        .iter()
        .map(|p| format!("{}@{}", p.name, p.version))
        .collect()
}

/// A package that is already chosen, revisited through a requirement
/// nothing meets, still counts: as a pruned transitive from an edge, as a
/// failure from a root.
#[test]
fn unmatched_revisit_of_a_chosen_package_counts() {
    let mut uni = PackageUniverse::new(Ecosystem::Python);
    uni.insert(package(
        "a",
        vec![(
            Version::new(1, 0, 0),
            vec![RegistryDep::new("b", pep440(">=1"))],
        )],
    ));
    uni.insert(package(
        "b",
        vec![(
            Version::new(1, 0, 0),
            vec![RegistryDep::new("a", pep440(">=9"))],
        )],
    ));
    let roots = [
        RootDep::new("a", None),
        RootDep::new("a", Some(pep440(">=9"))),
    ];
    for policy in POLICIES {
        let r = resolve(&uni, &roots, policy, true);
        assert_eq!(
            names_and_versions(&uni, &roots, policy),
            ["a@1.0.0", "b@1.0.0"]
        );
        assert_eq!(r.failures, ["a"]);
        assert_eq!(r.pruned_transitives, 1);
    }
    assert_equivalent(&uni, &roots).unwrap();
}

/// A root whose own requirement fails stays in `failures` even though
/// another root's edge pulls the package in; the entry is transitive.
#[test]
fn failed_root_pulled_in_transitively_stays_a_failure() {
    let mut uni = PackageUniverse::new(Ecosystem::Python);
    uni.insert(package(
        "top",
        vec![(
            Version::new(1, 0, 0),
            vec![RegistryDep::new("leaf", pep440(">=1"))],
        )],
    ));
    uni.insert(package("leaf", vec![(Version::new(1, 0, 0), vec![])]));
    let roots = [
        RootDep::new("top", None),
        RootDep::new("leaf", Some(pep440(">=2"))),
    ];
    let r = resolve(&uni, &roots, DedupPolicy::HighestWins, true);
    assert_eq!(r.failures, ["leaf"]);
    assert_eq!(r.pruned_transitives, 0);
    assert_eq!(r.packages.len(), 2);
    assert_eq!(r.packages[1].name, "leaf");
    assert!(r.packages[1].transitive);
    assert_equivalent(&uni, &roots).unwrap();
}

/// HighestWins upgrades a chosen package in place and expands the higher
/// version's edges too; the lower version's edges stay expanded.
#[test]
fn highest_wins_upgrade_re_expands_edges() {
    let mut uni = PackageUniverse::new(Ecosystem::Python);
    uni.insert(package(
        "lib",
        vec![
            (
                Version::new(1, 0, 0),
                vec![RegistryDep::new("old", pep440(">=1"))],
            ),
            (
                Version::new(2, 0, 0),
                vec![RegistryDep::new("new", pep440(">=1"))],
            ),
        ],
    ));
    uni.insert(package("old", vec![(Version::new(1, 0, 0), vec![])]));
    uni.insert(package("new", vec![(Version::new(1, 0, 0), vec![])]));
    let roots = [
        RootDep::new("lib", Some(pep440("==1.0.0"))),
        RootDep::new("lib", Some(pep440(">=2"))),
    ];
    assert_eq!(
        names_and_versions(&uni, &roots, DedupPolicy::HighestWins),
        ["lib@2.0.0", "old@1.0.0", "new@1.0.0"]
    );
    assert_eq!(
        names_and_versions(&uni, &roots, DedupPolicy::FirstWins),
        ["lib@1.0.0", "old@1.0.0"]
    );
    assert_equivalent(&uni, &roots).unwrap();
}

/// PerMajor keys a scoped npm name by `(name, major)`: two majors of
/// `@scope/pkg` both resolve, a second requirement inside major 1 does not.
#[test]
fn per_major_keeps_two_majors_of_a_scoped_name() {
    let npm = |s: &str| VersionReq::parse(s, ConstraintFlavor::Npm).unwrap();
    let mut uni = PackageUniverse::new(Ecosystem::JavaScript);
    uni.insert(package(
        "@scope/pkg",
        vec![
            (Version::new(1, 0, 0), vec![]),
            (
                Version::new(1, 2, 0),
                vec![RegistryDep::new("@scope/util", npm("^1.0.0"))],
            ),
            (
                Version::new(2, 0, 0),
                vec![RegistryDep::new("@scope/util", npm("^2.0.0"))],
            ),
        ],
    ));
    uni.insert(package(
        "@scope/util",
        vec![
            (Version::new(1, 0, 0), vec![]),
            (Version::new(2, 0, 0), vec![]),
        ],
    ));
    let roots = [
        RootDep::new("@scope/pkg", Some(npm("^1.0.0"))),
        RootDep::new("@scope/pkg", Some(npm("^2.0.0"))),
        RootDep::new("@scope/pkg", Some(npm("~1.0.0"))),
    ];
    assert_eq!(
        names_and_versions(&uni, &roots, DedupPolicy::PerMajor),
        [
            "@scope/pkg@1.2.0",
            "@scope/pkg@2.0.0",
            "@scope/util@1.0.0",
            "@scope/util@2.0.0"
        ]
    );
    assert_eq!(
        names_and_versions(&uni, &roots, DedupPolicy::HighestWins),
        ["@scope/pkg@2.0.0", "@scope/util@2.0.0"]
    );
    assert_equivalent(&uni, &roots).unwrap();
}

/// Two published spellings of one version: selection takes the last of
/// the equal maxima, edge expansion the first published entry.
#[test]
fn edges_come_from_the_first_equal_published_entry() {
    let mut uni = PackageUniverse::new(Ecosystem::Python);
    uni.insert(package(
        "dup",
        vec![
            (
                Version::parse("1.0").unwrap(),
                vec![RegistryDep::new("first", pep440(">=1"))],
            ),
            (
                Version::parse("1.0.0").unwrap(),
                vec![RegistryDep::new("second", pep440(">=1"))],
            ),
        ],
    ));
    uni.insert(package("first", vec![(Version::new(1, 0, 0), vec![])]));
    uni.insert(package("second", vec![(Version::new(1, 0, 0), vec![])]));
    let roots = [RootDep::new("dup", Some(pep440(">=1")))];
    assert_eq!(
        names_and_versions(&uni, &roots, DedupPolicy::HighestWins),
        ["dup@1.0.0", "first@1.0.0"]
    );
    assert_equivalent(&uni, &roots).unwrap();
}

/// `entry` plus a patch release right after `at`, carrying the edges of the
/// entry it follows.
fn with_patch_release(entry: &PackageEntry, at: &Version) -> PackageEntry {
    let mut entry = entry.clone();
    let newer = at.bump_patch();
    let i = entry.versions.partition_point(|v| v.version <= newer);
    let mut release = entry.versions[i - 1].clone();
    release.version = newer;
    entry.versions.insert(i, release);
    entry
}

/// Resolving, then inserting a newer release of every transitive target,
/// then resolving again gives what the same inserts give on a universe
/// that was never resolved: `insert` clears the memos the first
/// resolution filled.
#[test]
fn insert_after_resolving_matches_a_fresh_universe() {
    let mut moved = 0;
    for eco in Ecosystem::ALL {
        let config = UniverseConfig {
            package_count: 120,
            ..UniverseConfig::for_ecosystem(eco, 5)
        };
        let mut uni = PackageUniverse::generate(&config);
        let roots: Vec<RootDep> = uni
            .package_names()
            .step_by(11)
            .map(|n| RootDep::new(n, None))
            .collect();
        let before = summary(&resolve(&uni, &roots, DedupPolicy::HighestWins, true));
        let patched: Vec<PackageEntry> = resolve(&uni, &roots, DedupPolicy::PerMajor, false)
            .packages
            .iter()
            .filter(|p| p.transitive)
            .map(|p| with_patch_release(uni.lookup(&p.name).unwrap(), &p.version))
            .collect();
        let mut fresh = PackageUniverse::generate(&config);
        for entry in patched {
            uni.insert(entry.clone());
            fresh.insert(entry);
        }
        for policy in POLICIES {
            for honor_markers in [true, false] {
                let got = summary(&resolve(&uni, &roots, policy, honor_markers));
                let want = summary(&resolve(&fresh, &roots, policy, honor_markers));
                assert_eq!(got, want, "{eco} {policy:?} markers {honor_markers}");
            }
        }
        assert_equivalent(&uni, &roots).unwrap();
        let after = summary(&resolve(&uni, &roots, DedupPolicy::HighestWins, true));
        moved += usize::from(after != before);
    }
    assert!(moved > 0, "no patch release was ever selected");
}

/// An entry cloned out of a resolved universe carries that universe's
/// positions in its edge memos; inserted into another universe it must
/// resolve as if built there.
#[test]
fn entry_cloned_from_a_resolved_universe_matches_a_fresh_universe() {
    let app = |lib_req: &str| {
        package(
            "app",
            vec![(
                Version::new(1, 0, 0),
                vec![RegistryDep::new("lib", pep440(lib_req))],
            )],
        )
    };
    let mut a = PackageUniverse::new(Ecosystem::Python);
    a.insert(app(">=1"));
    a.insert(package(
        "lib",
        vec![
            (Version::new(1, 0, 0), vec![]),
            (Version::new(2, 0, 0), vec![]),
        ],
    ));
    let roots = [RootDep::new("app", None)];
    assert_eq!(
        names_and_versions(&a, &roots, DedupPolicy::HighestWins),
        ["app@1.0.0", "lib@2.0.0"]
    );
    // In `b`, `a`'s positions of lib@2.0.0 hold zeta@3.0.0 and its edge.
    let b_with = |app: PackageEntry| {
        let mut b = PackageUniverse::new(Ecosystem::Python);
        b.insert(package(
            "lib",
            vec![
                (Version::new(1, 0, 0), vec![]),
                (Version::new(1, 5, 0), vec![]),
            ],
        ));
        b.insert(package(
            "zeta",
            vec![
                (Version::new(1, 0, 0), vec![]),
                (
                    Version::new(3, 0, 0),
                    vec![RegistryDep::new("lib", pep440("<1.5"))],
                ),
            ],
        ));
        b.insert(app);
        b
    };
    let moved = PackageEntry {
        name: "app".into(),
        versions: vec![a.lookup("app").unwrap().versions[0].clone()],
    };
    let b = b_with(moved);
    let fresh = b_with(app(">=1"));
    assert_eq!(
        names_and_versions(&b, &roots, DedupPolicy::HighestWins),
        ["app@1.0.0", "lib@1.5.0"]
    );
    for policy in POLICIES {
        for honor_markers in [true, false] {
            assert_eq!(
                summary(&resolve(&b, &roots, policy, honor_markers)),
                summary(&resolve(&fresh, &roots, policy, honor_markers)),
                "{policy:?} markers {honor_markers}"
            );
        }
    }
    assert_equivalent(&b, &roots).unwrap();
}

/// Threads released together on a freshly generated universe race to fill
/// the same cold memos; every one of them resolves as the reference does.
#[test]
fn racing_threads_on_cold_memos_match_reference() {
    const THREADS: usize = 4;
    for policy in POLICIES {
        let uni =
            PackageUniverse::generate(&UniverseConfig::for_ecosystem(Ecosystem::JavaScript, 9));
        let roots: Vec<RootDep> = uni
            .package_names()
            .step_by(13)
            .map(|n| RootDep::new(n, None))
            .collect();
        let want = summary(&reference::resolve(&uni, &roots, policy, false));
        let barrier = Barrier::new(THREADS);
        let got: Vec<Summary> = thread::scope(|s| {
            let racers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        summary(&resolve(&uni, &roots, policy, false))
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        for got in got {
            assert_eq!(got, want, "{policy:?}");
        }
    }
}
