//! Downstream vulnerability-impact assessment.
//!
//! The paper's motivation (§I): "Discrepancies or omissions in the SBOM
//! can lead to false assurances of security or compliance". This crate
//! makes that loss measurable: a seeded synthetic advisory database over
//! the same package universe the generators see, a matcher that works the
//! way SCA scanners consume SBOMs (canonical name + concrete version), and
//! an impact report comparing what an SBOM-driven scan finds against what
//! is *actually* installed.
//!
//! The headline effects fall straight out of §V's findings:
//!
//! * Trivy/Syft's silently-dropped unpinned dependencies (§V-D) become
//!   **missed vulnerabilities**;
//! * GitHub DG's verbatim ranges carry no concrete version, so scanners
//!   cannot match them — more **missed vulnerabilities**;
//! * sbom-tool's marker-blind, latest-pinned entries produce **false
//!   alarms** and version-shifted matches.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod advisory;
pub mod enrich;
pub mod impact;
pub mod osv;

pub use advisory::{Advisory, AdvisoryDb, Severity};
pub use enrich::{assess_cached, EnrichCache};
pub use impact::{assess, assess_in, inferred_ecosystem, pinned_truth, ImpactCounts, ImpactReport};
pub use osv::{db_to_osv_json, ingest_osv, OsvEvent, OsvRange, RangeKind};
