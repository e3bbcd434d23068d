//! Dependency resolution over the synthetic registry.
//!
//! Three layers:
//!
//! * [`platform`] — evaluation of PEP 508 environment markers against the
//!   fixed evaluation platform (Linux, CPython 3.11 — matching the paper's
//!   §V-H setup of Python 3.11 / pip 23.1.2);
//! * [`engine`] — a breadth-first resolver with per-ecosystem
//!   deduplication policies, used by the corpus generator to synthesize
//!   lockfiles that are *consistent* with raw metadata;
//! * [`ground_truth`] — the `pip install --dry-run` simulator that produces
//!   the ground-truth install set for Table III.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod engine;
pub mod ground_truth;
pub mod platform;

pub use engine::{DedupPolicy, Resolution, ResolvedEntry, RootDep};
pub use ground_truth::{dry_run, DryRunReport};
pub use platform::{marker_allows, Platform};
