//! Software ecosystems (language package-manager universes) studied by the
//! paper's evaluation: Python, Ruby, PHP, Java, Swift, C#/.NET, Rust, Go and
//! JavaScript (§III-B).

use std::fmt;
use std::str::FromStr;

use crate::constraint::ConstraintFlavor;
use crate::error::ParseError;

/// A package ecosystem evaluated in the paper.
///
/// Each ecosystem maps to one primary package manager and defines the name
/// normalization and version-constraint dialect used there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Ecosystem {
    /// Python / pip / PyPI.
    Python,
    /// JavaScript / npm (also yarn, pnpm).
    JavaScript,
    /// Ruby / RubyGems / bundler.
    Ruby,
    /// PHP / Composer / Packagist.
    Php,
    /// Java / Maven (also Gradle).
    Java,
    /// Go modules.
    Go,
    /// Rust / Cargo / crates.io.
    Rust,
    /// Swift / CocoaPods and Swift Package Manager.
    Swift,
    /// C# / NuGet.
    DotNet,
}

impl Ecosystem {
    /// All ecosystems, in the order the paper's figures present them.
    pub const ALL: [Ecosystem; 9] = [
        Ecosystem::Python,
        Ecosystem::Java,
        Ecosystem::JavaScript,
        Ecosystem::Go,
        Ecosystem::DotNet,
        Ecosystem::Php,
        Ecosystem::Ruby,
        Ecosystem::Rust,
        Ecosystem::Swift,
    ];

    /// Human-readable language label used in the paper's tables
    /// (e.g. `.NET` rather than `DotNet`).
    pub fn label(self) -> &'static str {
        match self {
            Ecosystem::Python => "Python",
            Ecosystem::JavaScript => "JavaScript",
            Ecosystem::Ruby => "Ruby",
            Ecosystem::Php => "PHP",
            Ecosystem::Java => "Java",
            Ecosystem::Go => "Go",
            Ecosystem::Rust => "Rust",
            Ecosystem::Swift => "Swift",
            Ecosystem::DotNet => ".NET",
        }
    }

    /// The `pkg:` PURL type for this ecosystem (per the PURL spec).
    pub fn purl_type(self) -> &'static str {
        match self {
            Ecosystem::Python => "pypi",
            Ecosystem::JavaScript => "npm",
            Ecosystem::Ruby => "gem",
            Ecosystem::Php => "composer",
            Ecosystem::Java => "maven",
            Ecosystem::Go => "golang",
            Ecosystem::Rust => "cargo",
            Ecosystem::Swift => "cocoapods",
            Ecosystem::DotNet => "nuget",
        }
    }

    /// The version-constraint dialect this ecosystem's raw metadata uses.
    pub fn constraint_flavor(self) -> ConstraintFlavor {
        match self {
            Ecosystem::Python => ConstraintFlavor::Pep440,
            Ecosystem::JavaScript => ConstraintFlavor::Npm,
            Ecosystem::Ruby => ConstraintFlavor::RubyGems,
            Ecosystem::Php => ConstraintFlavor::Composer,
            Ecosystem::Java => ConstraintFlavor::Maven,
            Ecosystem::Go => ConstraintFlavor::Go,
            Ecosystem::Rust => ConstraintFlavor::Cargo,
            Ecosystem::Swift => ConstraintFlavor::RubyGems,
            Ecosystem::DotNet => ConstraintFlavor::Maven,
        }
    }

    /// Whether package names in this ecosystem are case-insensitive.
    pub fn case_insensitive_names(self) -> bool {
        matches!(self, Ecosystem::Python | Ecosystem::DotNet | Ecosystem::Php)
    }

    /// Whether canonical versions in this ecosystem carry a leading `v`
    /// (Go modules, §V-E).
    pub fn uses_v_prefix(self) -> bool {
        matches!(self, Ecosystem::Go)
    }
}

impl fmt::Display for Ecosystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for Ecosystem {
    type Err = ParseError;

    /// Case-insensitive; compares in place rather than lowercasing a copy,
    /// since ingest parses one per PURL.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        const NAMES: [(Ecosystem, &[&str]); 9] = [
            (Ecosystem::Python, &["python", "pypi", "pip"]),
            (Ecosystem::JavaScript, &["javascript", "js", "npm", "node"]),
            (Ecosystem::Ruby, &["ruby", "gem", "rubygems"]),
            (Ecosystem::Php, &["php", "composer", "packagist"]),
            (Ecosystem::Java, &["java", "maven", "gradle"]),
            (Ecosystem::Go, &["go", "golang"]),
            (Ecosystem::Rust, &["rust", "cargo", "crates"]),
            (Ecosystem::Swift, &["swift", "cocoapods", "pods"]),
            (
                Ecosystem::DotNet,
                &[".net", "dotnet", "csharp", "c#", "nuget"],
            ),
        ];
        NAMES
            .iter()
            .find(|(_, names)| names.iter().any(|n| n.eq_ignore_ascii_case(s)))
            .map(|&(eco, _)| eco)
            .ok_or_else(|| ParseError::new(s, "unknown ecosystem"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_nine_unique_ecosystems() {
        let mut v = Ecosystem::ALL.to_vec();
        v.sort();
        v.dedup();
        assert_eq!(v.len(), 9);
    }

    #[test]
    fn roundtrip_from_label() {
        for eco in Ecosystem::ALL {
            let parsed: Ecosystem = eco.label().parse().unwrap();
            assert_eq!(parsed, eco);
        }
    }

    #[test]
    fn purl_types_are_lowercase_and_known() {
        for eco in Ecosystem::ALL {
            let t = eco.purl_type();
            assert!(!t.is_empty());
            assert_eq!(t, t.to_lowercase());
        }
    }

    #[test]
    fn unknown_ecosystem_errors() {
        assert!("fortran".parse::<Ecosystem>().is_err());
    }

    #[test]
    fn go_uses_v_prefix_others_do_not() {
        assert!(Ecosystem::Go.uses_v_prefix());
        assert!(!Ecosystem::Python.uses_v_prefix());
        assert!(!Ecosystem::Rust.uses_v_prefix());
    }
}
