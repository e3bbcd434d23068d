//! The borrowing resolver against its clone-based predecessor with the
//! `resolver.visit` fault point firing. Fault plans are process-global, so
//! this runs in a test binary of its own.

mod reference;

use reference::{summary, POLICIES};
use sbomdiff_faultline as fault;
use sbomdiff_registry::{PackageUniverse, UniverseConfig};
use sbomdiff_resolver::engine::{resolve, RootDep};
use sbomdiff_types::Ecosystem;

/// Faults fire once per visit, keyed by the visited name, before any
/// lookup: both resolvers drop the same visits, account them the same way
/// and fire the same number of faults.
#[test]
fn visit_faults_drop_the_same_visits() {
    let _plan = fault::install(fault::FaultPlan {
        seed: 11,
        rules: vec![fault::FaultRule::new(
            fault::sites::RESOLVER_VISIT,
            200_000,
            fault::FaultAction::Error,
        )],
    });
    let mut fired = 0;
    for (i, eco) in Ecosystem::ALL.into_iter().enumerate() {
        let uni = PackageUniverse::generate(&UniverseConfig {
            package_count: 120,
            ..UniverseConfig::for_ecosystem(eco, 31 + i as u64)
        });
        let mut roots: Vec<RootDep> = uni
            .package_names()
            .step_by(19)
            .take(6)
            .map(|n| RootDep::new(n, None))
            .collect();
        roots.push(RootDep::new("ghost", None));
        for policy in POLICIES {
            for honor_markers in [true, false] {
                let before = fault::stats().injected;
                let got = resolve(&uni, &roots, policy, honor_markers);
                let between = fault::stats().injected;
                let want = reference::resolve(&uni, &roots, policy, honor_markers);
                let after = fault::stats().injected;
                assert_eq!(summary(&got), summary(&want), "{eco} {policy:?}");
                assert_eq!(between - before, after - between, "{eco} {policy:?}");
                // Every fired fault is visible as a failure or a prune.
                assert!(got.failures.len() + got.pruned_transitives >= (between - before) as usize);
                fired += between - before;
            }
        }
    }
    assert!(fired > 0, "the plan never fired");
}
