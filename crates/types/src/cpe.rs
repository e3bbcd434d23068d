//! CPE 2.3 (Common Platform Enumeration) formatted-string support.
//!
//! §VII recommends each SBOM component carry a CPE alongside its PURL for
//! vulnerability-database matching. This implements the 11-field
//! `cpe:2.3:part:vendor:product:version:update:edition:lang:sw_edition:target_sw:target_hw:other`
//! formatted string with the subset of quoting needed for package data.

use std::fmt;
use std::str::FromStr;

use crate::ecosystem::Ecosystem;
use crate::error::ParseError;

/// A CPE 2.3 name for an application component.
///
/// # Examples
///
/// ```
/// use sbomdiff_types::Cpe;
///
/// let c = Cpe::application("numpy", "numpy", "1.19.2");
/// assert_eq!(c.to_string(), "cpe:2.3:a:numpy:numpy:1.19.2:*:*:*:*:*:*:*");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cpe {
    part: char,
    vendor: String,
    product: String,
    version: String,
    update: String,
    edition: String,
    language: String,
    sw_edition: String,
    target_sw: String,
    target_hw: String,
    other: String,
}

impl Cpe {
    /// Creates an application (`a`) CPE with wildcards for the trailing
    /// fields.
    pub fn application(
        vendor: impl Into<String>,
        product: impl Into<String>,
        version: impl Into<String>,
    ) -> Self {
        Cpe {
            part: 'a',
            vendor: canonical_field(&vendor.into()),
            product: canonical_field(&product.into()),
            version: canonical_field(&version.into()),
            update: "*".into(),
            edition: "*".into(),
            language: "*".into(),
            sw_edition: "*".into(),
            target_sw: "*".into(),
            target_hw: "*".into(),
            other: "*".into(),
        }
    }

    /// Builds a CPE for a package in a studied ecosystem, using the package
    /// name as both vendor and product (the convention NVD data commonly
    /// follows for language packages) and the ecosystem as `target_sw`.
    pub fn for_package(eco: Ecosystem, name: &str, version: &str) -> Self {
        let pname = crate::name::PackageName::new(eco, name);
        let vendor = pname
            .namespace()
            .map(|ns| ns.trim_start_matches('@').to_string())
            .unwrap_or_else(|| pname.base().to_string());
        let mut cpe = Cpe::application(vendor, pname.base(), version);
        cpe.target_sw = canonical_field(eco.purl_type());
        cpe
    }

    /// The part field (`a` for applications).
    pub fn part(&self) -> char {
        self.part
    }

    /// The vendor field.
    pub fn vendor(&self) -> &str {
        &self.vendor
    }

    /// The product field.
    pub fn product(&self) -> &str {
        &self.product
    }

    /// The version field.
    pub fn version(&self) -> &str {
        &self.version
    }

    /// The target software field (ecosystem).
    pub fn target_sw(&self) -> &str {
        &self.target_sw
    }

    /// Whether this CPE matches another treating `*` as a wildcard in either.
    pub fn matches(&self, other: &Cpe) -> bool {
        fn fm(a: &str, b: &str) -> bool {
            a == "*" || b == "*" || a == b
        }
        self.part == other.part
            && fm(&self.vendor, &other.vendor)
            && fm(&self.product, &other.product)
            && fm(&self.version, &other.version)
            && fm(&self.target_sw, &other.target_sw)
    }
}

/// Lowercases and quotes the characters CPE 2.3 requires quoting.
fn canonical_field(s: &str) -> String {
    if s.is_empty() {
        return "*".into();
    }
    if s == "*" || s == "-" {
        return s.into();
    }
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            'A'..='Z' => out.push(c.to_ascii_lowercase()),
            'a'..='z' | '0'..='9' | '_' | '.' | '-' => out.push(c),
            ' ' => out.push('_'),
            other => {
                out.push('\\');
                out.push(other);
            }
        }
    }
    out
}

/// Splits a formatted string at colons that no backslash escapes. Escapes
/// stay in the fields; a lone backslash at the very end is dropped.
fn split_unescaped_colons(s: &str) -> Vec<&str> {
    let bytes = s.as_bytes();
    let mut fields = Vec::with_capacity(13);
    let (mut start, mut i) = (0, 0);
    while i < bytes.len() {
        match bytes[i] {
            // Skips the escaped byte; a multi-byte character's other bytes
            // are never `:` or `\`.
            b'\\' => i += 2,
            b':' => {
                fields.push(&s[start..i]);
                start = i + 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    // `i` overshoots the end by one after a lone trailing backslash.
    let end = if i > bytes.len() { bytes.len() - 1 } else { i };
    fields.push(&s[start..end]);
    fields
}

impl fmt::Display for Cpe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cpe:2.3:{}:{}:{}:{}:{}:{}:{}:{}:{}:{}:{}",
            self.part,
            self.vendor,
            self.product,
            self.version,
            self.update,
            self.edition,
            self.language,
            self.sw_edition,
            self.target_sw,
            self.target_hw,
            self.other
        )
    }
}

impl FromStr for Cpe {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let fields = split_unescaped_colons(s);
        if fields.len() != 13 || fields[0] != "cpe" || fields[1] != "2.3" {
            return Err(ParseError::new(s, "not a cpe 2.3 formatted string"));
        }
        let part = fields[2]
            .chars()
            .next()
            .filter(|c| matches!(c, 'a' | 'o' | 'h' | '*'))
            .ok_or_else(|| ParseError::new(s, "invalid cpe part"))?;
        Ok(Cpe {
            part,
            vendor: fields[3].into(),
            product: fields[4].into(),
            version: fields[5].into(),
            update: fields[6].into(),
            edition: fields[7].into(),
            language: fields[8].into(),
            sw_edition: fields[9].into(),
            target_sw: fields[10].into(),
            target_hw: fields[11].into(),
            other: fields[12].into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_format() {
        let c = Cpe::application("numpy", "numpy", "1.19.2");
        assert_eq!(c.to_string(), "cpe:2.3:a:numpy:numpy:1.19.2:*:*:*:*:*:*:*");
    }

    #[test]
    fn roundtrip() {
        let c = Cpe::for_package(Ecosystem::Java, "com.google.guava:guava", "32.0");
        let s = c.to_string();
        let back: Cpe = s.parse().unwrap();
        assert_eq!(back, c);
        assert_eq!(back.vendor(), "com.google.guava");
        assert_eq!(back.product(), "guava");
        assert_eq!(back.target_sw(), "maven");
    }

    #[test]
    fn fields_are_lowercased_and_quoted() {
        let c = Cpe::application("Google LLC", "My+Lib", "1.0");
        assert_eq!(c.vendor(), "google_llc");
        assert_eq!(c.product(), "my\\+lib");
    }

    #[test]
    fn wildcard_matching() {
        let concrete = Cpe::application("numpy", "numpy", "1.19.2");
        let any_version = Cpe::application("numpy", "numpy", "*");
        assert!(concrete.matches(&any_version));
        let other = Cpe::application("scipy", "scipy", "*");
        assert!(!concrete.matches(&other));
    }

    #[test]
    fn rejects_malformed() {
        assert!("cpe:2.3:a:only:three".parse::<Cpe>().is_err());
        assert!("cpe:/a:legacy:uri:1.0".parse::<Cpe>().is_err());
        assert!("not-a-cpe".parse::<Cpe>().is_err());
    }

    #[test]
    fn split_keeps_escapes_and_drops_a_trailing_lone_backslash() {
        assert_eq!(split_unescaped_colons("a\\:b:c"), ["a\\:b", "c"]);
        assert_eq!(split_unescaped_colons("x:\\é:y\\"), ["x", "\\é", "y"]);
        assert_eq!(split_unescaped_colons(":\\"), ["", ""]);
        assert_eq!(split_unescaped_colons(""), [""]);
    }

    #[test]
    fn escaped_colon_in_field_survives_roundtrip() {
        let c = Cpe::application("a:b", "p", "1.0");
        let s = c.to_string();
        let back: Cpe = s.parse().unwrap();
        assert_eq!(back.vendor(), "a\\:b");
    }
}
