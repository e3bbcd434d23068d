//! Property-based tests for the OSV range semantics in `sbomdiff-vuln`.
//!
//! Four invariant families from the enrichment-pipeline contract:
//!
//! 1. **Event ordering** — `affects` evaluates a *sorted* walk, so the
//!    declaration order of `events[]` must never change the verdict, and
//!    the boundary conventions (introduced inclusive, fixed exclusive,
//!    last_affected inclusive) must hold for arbitrary event versions.
//! 2. **OSV vs legacy equivalence** — an advisory with the single
//!    half-open-from-zero shape the pre-OSV generator emitted is the
//!    legacy requirement `<fixed` ([`legacy_req`], this suite's oracle);
//!    the event walk and the constraint matcher must agree on every probed
//!    version.
//! 3. **Pre-release boundaries** — a pre-release version only matches a
//!    range that itself mentions a pre-release, mirroring the
//!    `VersionReq` gate, and agreement must survive pre-release event
//!    versions.
//! 4. **Affects monotonicity** — a single well-formed range describes one
//!    contiguous affected interval: walking any ascending version chain,
//!    the verdict switches at most twice (off→on→off) and never
//!    re-enters the affected state.

use proptest::prelude::*;
use sbomdiff_registry::Registries;
use sbomdiff_types::{ConstraintFlavor, Version, VersionReq};
use sbomdiff_vuln::{Advisory, AdvisoryDb, OsvEvent, OsvRange, RangeKind};

/// Release-only versions: 1–3 numeric segments, small enough that
/// collisions (equal versions, adjacent versions) are common.
fn release_strategy() -> impl Strategy<Value = Version> {
    prop::collection::vec(0u64..12, 1..4).prop_map(|segs| {
        let text = segs
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(".");
        Version::parse(&text).expect("numeric dotted version parses")
    })
}

/// Versions with an optional pre-release tail, for the gate properties.
fn version_strategy() -> impl Strategy<Value = Version> {
    let pre = prop_oneof![
        Just(String::new()),
        (0u64..4).prop_map(|n| format!("-alpha.{n}")),
        (0u64..4).prop_map(|n| format!("-rc.{n}")),
    ];
    (prop::collection::vec(0u64..12, 1..4), pre).prop_map(|(segs, pre)| {
        let release = segs
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(".");
        Version::parse(&format!("{release}{pre}")).expect("version parses")
    })
}

fn kind_strategy() -> impl Strategy<Value = RangeKind> {
    prop_oneof![Just(RangeKind::Semver), Just(RangeKind::Ecosystem)]
}

/// Orders an arbitrary pair into a strictly ascending `(floor, ceiling)`
/// (the vendored proptest has no `prop_assume`, so equality is resolved
/// by appending a segment, which sorts strictly above its prefix).
fn ascending(a: Version, b: Version) -> (Version, Version) {
    match a.cmp(&b) {
        std::cmp::Ordering::Less => (a, b),
        std::cmp::Ordering::Greater => (b, a),
        std::cmp::Ordering::Equal => {
            let bumped = Version::parse(&format!("{}.1", a.to_unprefixed()))
                .expect("appending a segment still parses");
            (a, bumped)
        }
    }
}

/// Arbitrary event lists (1–5 events, possibly ill-ordered or even
/// ill-formed) — `affects` must be a total function over all of them.
fn events_strategy() -> impl Strategy<Value = Vec<OsvEvent>> {
    let event = prop_oneof![
        Just(OsvEvent::Introduced(None)),
        version_strategy().prop_map(|v| OsvEvent::Introduced(Some(v))),
        version_strategy().prop_map(OsvEvent::Fixed),
        version_strategy().prop_map(OsvEvent::LastAffected),
    ];
    prop::collection::vec(event, 1..6)
}

proptest! {
    // ---- 1. event ordering -------------------------------------------

    /// Declaration order is irrelevant: evaluation sorts the events, so
    /// any permutation (here: reversal and a rotation, which together
    /// generate non-trivial reorderings) yields the same verdict.
    #[test]
    fn affects_is_independent_of_event_declaration_order(
        kind in kind_strategy(),
        events in events_strategy(),
        rotate in 0usize..6,
        probe in version_strategy(),
    ) {
        let baseline = OsvRange { kind, events: events.clone() };
        let mut reversed = events.clone();
        reversed.reverse();
        let mut rotated = events.clone();
        rotated.rotate_left(rotate % events.len().max(1));
        let reversed = OsvRange { kind, events: reversed };
        let rotated = OsvRange { kind, events: rotated };
        prop_assert_eq!(baseline.affects(&probe), reversed.affects(&probe));
        prop_assert_eq!(baseline.affects(&probe), rotated.affects(&probe));
    }

    /// Boundary conventions on the dominant half-open shape: the
    /// `introduced` floor is inclusive, the `fixed` ceiling exclusive,
    /// for arbitrary (well-ordered) event versions.
    #[test]
    fn half_open_boundaries_are_inclusive_exclusive(
        kind in kind_strategy(),
        a in release_strategy(),
        b in release_strategy(),
    ) {
        let (intro, fixed) = ascending(a, b);
        let range = OsvRange::half_open(kind, Some(intro.clone()), fixed.clone());
        prop_assert!(range.validate().is_empty());
        prop_assert!(range.affects(&intro), "introduced version is affected");
        prop_assert!(!range.affects(&fixed), "fixed version is not affected");
    }

    /// `last_affected` is inclusive: the named version is still affected.
    #[test]
    fn closed_range_includes_its_last_affected(
        kind in kind_strategy(),
        a in release_strategy(),
        b in release_strategy(),
    ) {
        let (intro, last) = if a <= b { (a, b) } else { (b, a) };
        let range = OsvRange::closed(kind, Some(intro.clone()), last.clone());
        prop_assert!(range.validate().is_empty());
        prop_assert!(range.affects(&intro));
        prop_assert!(range.affects(&last), "last_affected version is affected");
    }

    /// An empty window — `fixed` at its own `introduced` — matches
    /// nothing, and `validate` flags the shape.
    #[test]
    fn fixed_at_introduced_is_an_empty_flagged_range(
        kind in kind_strategy(),
        at in release_strategy(),
        probe in version_strategy(),
    ) {
        let range = OsvRange::half_open(kind, Some(at.clone()), at.clone());
        prop_assert!(!range.affects(&probe));
        prop_assert!(!range.validate().is_empty(), "degenerate range is flagged");
    }

    // ---- 3. pre-release boundaries -----------------------------------

    /// The gate: a pre-release probe never matches a range whose events
    /// are all final releases, regardless of where it falls numerically.
    #[test]
    fn prerelease_probe_requires_a_prerelease_mention(
        kind in kind_strategy(),
        events in events_strategy(),
        release in release_strategy(),
        tag in 0u64..4,
    ) {
        let probe = Version::parse(&format!("{}-rc.{tag}", release.to_unprefixed()))
            .expect("pre-release parses");
        let range = OsvRange { kind, events };
        if !range.mentions_prerelease() {
            prop_assert!(!range.affects(&probe));
        }
    }

    /// With the gate open (a pre-release `fixed` event), pre-releases
    /// below the fix are affected and the fix itself is still excluded.
    #[test]
    fn prerelease_fixed_event_opens_the_gate(
        kind in kind_strategy(),
        release in release_strategy(),
        fix_tag in 1u64..5,
        probe_tag in 0u64..5,
    ) {
        let base = release.to_unprefixed();
        let fixed = Version::parse(&format!("{base}-rc.{fix_tag}")).unwrap();
        let probe = Version::parse(&format!("{base}-rc.{probe_tag}")).unwrap();
        let range = OsvRange::half_open(kind, None, fixed.clone());
        prop_assert!(range.mentions_prerelease());
        prop_assert_eq!(range.affects(&probe), probe < fixed);
    }

    /// A closed range whose `last_affected` carries a pre-release suffix,
    /// probed at exactly that version under ECOSYSTEM ordering: the
    /// boundary is inclusive, and the walk agrees with the equivalent
    /// `<=last` constraint on the boundary and on every nearby probe.
    #[test]
    fn prerelease_last_affected_boundary_agrees_with_legacy_constraint(
        release in release_strategy(),
        tag in 0u64..4,
        probe_tag in 0u64..4,
    ) {
        let base = release.to_unprefixed();
        let last = Version::parse(&format!("{base}-rc.{tag}")).unwrap();
        let range = OsvRange::closed(RangeKind::Ecosystem, None, last.clone());
        let req = VersionReq::parse(
            &format!("<={}", last.to_unprefixed()),
            ConstraintFlavor::Pep440,
        )
        .unwrap();
        // Inclusive boundary, both paths.
        prop_assert!(range.affects(&last), "last_affected version is affected");
        prop_assert!(req.matches(&last));
        // PEP 440 compact respelling of the same version still matches.
        let respelled = Version::parse(&format!("{base}rc{tag}")).unwrap();
        prop_assert!(range.affects(&respelled));
        // Probes around the boundary agree with the constraint path.
        for probe in [
            Version::parse(&format!("{base}-rc.{probe_tag}")).unwrap(),
            Version::parse(&format!("{base}-alpha.{probe_tag}")).unwrap(),
            release.clone(),
            release.bump_patch(),
        ] {
            prop_assert_eq!(
                range.affects(&probe),
                req.matches(&probe),
                "walk vs constraint at {}",
                probe.canonical()
            );
        }
    }

    /// Two intervals touching at one shared pre-release boundary —
    /// `last_affected x` immediately followed by `introduced x` — cover
    /// the union of both: the walk must agree with the pair of legacy
    /// constraints (`<=x` OR `>=x,<=y`) on every probe. The pre-fix walk
    /// let the inclusive close at `x` erase the co-located open, dropping
    /// the entire second interval.
    #[test]
    fn adjacent_intervals_keep_their_shared_prerelease_boundary(
        release in release_strategy(),
        tag in 0u64..4,
        chain in prop::collection::btree_set(version_strategy(), 2..16),
    ) {
        let x = Version::parse(&format!("{}-rc.{tag}", release.to_unprefixed())).unwrap();
        let y = Version::parse(&format!("{}.9", release.bump_major().to_unprefixed())).unwrap();
        let range = OsvRange {
            kind: RangeKind::Ecosystem,
            events: vec![
                OsvEvent::Introduced(None),
                OsvEvent::LastAffected(x.clone()),
                OsvEvent::Introduced(Some(x.clone())),
                OsvEvent::LastAffected(y.clone()),
            ],
        };
        prop_assert!(range.validate().is_empty());
        let first = VersionReq::parse(
            &format!("<={}", x.to_unprefixed()),
            ConstraintFlavor::Pep440,
        )
        .unwrap();
        let second = VersionReq::parse(
            &format!(">={},<={}", x.to_unprefixed(), y.to_unprefixed()),
            ConstraintFlavor::Pep440,
        )
        .unwrap();
        prop_assert!(range.affects(&x), "shared boundary is affected");
        for probe in chain {
            let legacy = first.matches(&probe) || second.matches(&probe);
            prop_assert_eq!(
                range.affects(&probe),
                legacy,
                "walk vs constraint pair at {}",
                probe.canonical()
            );
        }
    }

    // ---- 4. affects monotonicity -------------------------------------

    /// A single well-formed range is one contiguous interval: along any
    /// ascending chain of versions the verdict changes at most twice and
    /// never returns to `true` after leaving it.
    #[test]
    fn single_range_affected_set_is_contiguous(
        kind in kind_strategy(),
        open_floor in any::<bool>(),
        a in release_strategy(),
        b in release_strategy(),
        use_last_affected in any::<bool>(),
        chain in prop::collection::btree_set(release_strategy(), 2..24),
    ) {
        let (floor, limit) = ascending(a, b);
        let intro = if open_floor { None } else { Some(floor) };
        let range = if use_last_affected {
            OsvRange::closed(kind, intro, limit)
        } else {
            OsvRange::half_open(kind, intro, limit)
        };
        prop_assert!(range.validate().is_empty());
        // BTreeSet iteration is ascending and duplicate-free.
        let verdicts: Vec<bool> = chain.iter().map(|v| range.affects(v)).collect();
        let transitions = verdicts.windows(2).filter(|w| w[0] != w[1]).count();
        prop_assert!(
            transitions <= 2,
            "affected set is not an interval: {verdicts:?}"
        );
        if transitions == 2 {
            prop_assert!(
                !verdicts[0] && !verdicts[verdicts.len() - 1],
                "two transitions must be off→on→off: {verdicts:?}"
            );
        }
    }
}

// ---- 2. OSV vs legacy `VersionReq` equivalence -----------------------
//
// Generated universes are the realistic input distribution, so the
// equivalence is checked there rather than over synthetic strategies:
// every advisory that has a legacy requirement must agree with the event
// walk on every published version of its package, the exact boundary
// versions of its events, and a fixed spread of versions from far below
// to far above any published one.

/// The legacy `VersionReq` equivalent (`<fixed`) of an advisory with the
/// single half-open-from-zero shape the pre-OSV generator emitted; `None`
/// for every other shape.
fn legacy_req(advisory: &Advisory) -> Option<VersionReq> {
    let [range] = advisory.ranges.as_slice() else {
        return None;
    };
    let [OsvEvent::Introduced(None), OsvEvent::Fixed(fixed)] = range.events.as_slice() else {
        return None;
    };
    VersionReq::parse(
        &format!("<{}", fixed.to_unprefixed()),
        ConstraintFlavor::Pep440,
    )
    .ok()
}

#[test]
fn legacy_req_equivalence_over_generated_universes() {
    let mut checked = 0usize;
    for seed in [1u64, 9, 77] {
        let registries = Registries::generate(7);
        let db = AdvisoryDb::generate(&registries, seed, 0.35);
        assert!(!db.is_empty());
        for (eco, universe) in registries.iter() {
            for (name, published) in universe.entries() {
                let normalized = sbomdiff_types::name::normalize(eco, name);
                for advisory in db.for_package(eco, &normalized) {
                    let Some(req) = legacy_req(advisory) else {
                        continue;
                    };
                    let mut probes: Vec<Version> =
                        published.iter().map(|r| r.version.clone()).collect();
                    for range in &advisory.ranges {
                        probes.extend(range.events.iter().filter_map(|e| e.version().cloned()));
                    }
                    probes.extend(
                        ["0.1.0", "1.0.0", "1.19.2", "2.5.0", "9.9.9"]
                            .map(|v| Version::parse(v).expect("probe version parses")),
                    );
                    for v in &probes {
                        assert_eq!(
                            advisory.affects(v),
                            req.matches(v),
                            "{} diverges from its legacy requirement at {}",
                            advisory.id,
                            v.canonical()
                        );
                    }
                    checked += 1;
                }
            }
        }
    }
    assert!(
        checked > 100,
        "too few half-open advisories checked: {checked}"
    );
}
