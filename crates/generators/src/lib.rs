//! SBOM generator emulators.
//!
//! Each of the paper's four studied tools — Trivy 0.43.0, Syft 0.84.1,
//! Microsoft sbom-tool 1.1.6 and the GitHub Dependency Graph — is modeled
//! as a [`ToolProfile`] (an explicit bundle of the behaviors §V documents:
//! supported file types, version-constraint policy, naming conventions,
//! dev-dependency policy, transitive resolution) executed by one shared
//! [`ToolEmulator`] walker. Every quirk is a toggleable field, which makes
//! the ablation benches possible.
//!
//! [`BestPracticeGenerator`] implements the paper's §VII recommendations
//! (package-manager dry run for lockfile generation, PURL + CPE on every
//! component, duplicate merging) as a fifth generator.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bestpractice;
pub mod emulator;
pub mod profile;
pub mod scan;
pub mod support;

pub use bestpractice::BestPracticeGenerator;
pub use emulator::ToolEmulator;
pub use profile::{GoVersionStyle, JavaNaming, SubspecNaming, ToolProfile, VersionPolicy};
pub use scan::{ParseCache, ScanContext};
pub use support::SupportMatrix;

use sbomdiff_metadata::RepoFs;
use sbomdiff_registry::Registries;
use sbomdiff_types::Sbom;

/// Identifies one of the studied tools (plus the best-practice reference).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ToolId {
    /// Aqua Security Trivy 0.43.0.
    Trivy,
    /// Anchore Syft 0.84.1.
    Syft,
    /// Microsoft SBOM Tool 1.1.6.
    SbomTool,
    /// GitHub Dependency Graph.
    GithubDg,
    /// The paper's §VII best-practice design.
    BestPractice,
}

impl ToolId {
    /// The four studied tools, in the paper's column order.
    pub const STUDIED: [ToolId; 4] = [
        ToolId::Trivy,
        ToolId::Syft,
        ToolId::SbomTool,
        ToolId::GithubDg,
    ];

    /// Display label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            ToolId::Trivy => "Trivy",
            ToolId::Syft => "Syft",
            ToolId::SbomTool => "sbom-tool",
            ToolId::GithubDg => "GitHub DG",
            ToolId::BestPractice => "best-practice",
        }
    }

    /// Emulated tool version (the versions evaluated in §III-A).
    pub fn version(self) -> &'static str {
        match self {
            ToolId::Trivy => "0.43.0",
            ToolId::Syft => "0.84.1",
            ToolId::SbomTool => "1.1.6",
            ToolId::GithubDg => "live",
            ToolId::BestPractice => "0.1.0",
        }
    }
}

impl std::fmt::Display for ToolId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// An SBOM generator: scans a repository and produces an SBOM.
///
/// `Sync` is a supertrait so any generator can be driven by the parallel
/// `(repository × tool)` fan-out in `sbomdiff-experiments`; scanning takes
/// `&self` and must be free of unsynchronized interior mutability (the
/// sbom-tool emulator's flaky registry counter, for example, lives in a
/// per-scan client, not in the emulator).
pub trait SbomGenerator: Sync {
    /// The tool identity.
    fn id(&self) -> ToolId;

    /// Scans the repository and produces an SBOM document.
    fn generate(&self, repo: &RepoFs) -> Sbom;
}

/// Builds all four studied-tool emulators against a registry set.
///
/// The registry is only contacted by the sbom-tool emulator (the others are
/// offline, §V-C); `sbom_tool_failure_rate` models its unreliable
/// resolution.
pub fn studied_tools<'r>(
    registries: &'r Registries,
    sbom_tool_failure_rate: f64,
) -> Vec<ToolEmulator<'r>> {
    vec![
        ToolEmulator::trivy(),
        ToolEmulator::syft(),
        ToolEmulator::sbom_tool(registries, sbom_tool_failure_rate),
        ToolEmulator::github_dg(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tool_labels_and_versions() {
        assert_eq!(ToolId::Trivy.label(), "Trivy");
        assert_eq!(ToolId::SbomTool.version(), "1.1.6");
        assert_eq!(ToolId::STUDIED.len(), 4);
    }

    #[test]
    fn studied_tools_builds_four() {
        let regs = Registries::generate(1);
        let tools = studied_tools(&regs, 0.0);
        let ids: Vec<ToolId> = tools.iter().map(|t| t.id()).collect();
        assert_eq!(ids, ToolId::STUDIED.to_vec());
    }

    #[test]
    fn generators_are_send_and_sync() {
        // The parallel fan-out moves shared references to emulators across
        // worker threads; regressing these bounds would break it.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ToolEmulator<'static>>();
        assert_send_sync::<BestPracticeGenerator<'static>>();
        assert_send_sync::<ParseCache>();
        assert_send_sync::<ScanContext<'static>>();
    }
}
