//! Core domain types for the sbomdiff workspace.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! reproduction of *"On the Correctness of Metadata-Based SBOM Generation"*
//! (DSN 2024): software ecosystems, package names and their normalization
//! rules, versions, version constraints in the dialects used by real package
//! managers, declared and resolved dependencies, SBOM components, and the
//! PURL / CPE identifier formats the paper's best practices call for.
//!
//! # Examples
//!
//! ```
//! use sbomdiff_types::{Version, VersionReq, ConstraintFlavor};
//!
//! let v = Version::parse("1.19.2").unwrap();
//! let req = VersionReq::parse(">=1.2.3, <2.0.0", ConstraintFlavor::Pep440).unwrap();
//! assert!(req.matches(&v));
//! ```

pub mod cache;
pub mod component;
pub mod constraint;
pub mod cpe;
pub mod dependency;
pub mod diagnostic;
pub mod ecosystem;
pub mod error;
pub mod intern;
pub mod name;
pub mod purl;
pub mod version;

pub use cache::{CacheStats, Sharded};
pub use component::{Component, ComponentKey, Sbom, SbomMeta};
pub use constraint::{Comparator, ConstraintFlavor, Op, VersionReq};
pub use cpe::Cpe;
pub use dependency::{DeclaredDependency, DepScope, DependencySource, ResolvedPackage, VcsKind};
pub use diagnostic::{DiagClass, Diagnostic, Severity};
pub use ecosystem::Ecosystem;
pub use error::ParseError;
pub use intern::{fnv1a, intern, Fnv1a, Interner, Symbol};
pub use name::PackageName;
pub use purl::Purl;
pub use version::{PreKind, Version};
