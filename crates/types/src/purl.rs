//! Package URL (PURL) support.
//!
//! §VII of the paper recommends every SBOM component carry a PURL for
//! consistent naming and vulnerability-database compatibility. This module
//! implements the `pkg:` scheme: `pkg:type/namespace/name@version?qualifiers#subpath`.

use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;

use crate::ecosystem::Ecosystem;
use crate::error::ParseError;
use crate::intern::Symbol;

/// A parsed Package URL.
///
/// # Examples
///
/// ```
/// use sbomdiff_types::Purl;
///
/// let p: Purl = "pkg:pypi/requests@2.31.0".parse()?;
/// assert_eq!(p.ptype(), "pypi");
/// assert_eq!(p.name(), "requests");
/// assert_eq!(p.version(), Some("2.31.0"));
/// # Ok::<(), sbomdiff_types::ParseError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Purl {
    // Interned: the same `pypi`/`npm` type strings, package names and
    // versions recur across every profile's PURLs for a repository.
    ptype: Symbol,
    namespace: Option<Symbol>,
    name: Symbol,
    version: Option<Symbol>,
    qualifiers: Vec<(String, String)>,
    subpath: Option<String>,
}

impl Purl {
    /// Creates a PURL from parts.
    pub fn new(ptype: impl Into<String>, name: impl Into<Symbol>) -> Self {
        Purl {
            ptype: ptype.into().to_ascii_lowercase().into(),
            namespace: None,
            name: name.into(),
            version: None,
            qualifiers: Vec::new(),
            subpath: None,
        }
    }

    /// Builds a PURL for a package in a studied ecosystem, splitting
    /// compound names into namespace/name per the PURL spec.
    pub fn for_package(eco: Ecosystem, name: &str, version: Option<&str>) -> Self {
        Purl::build(eco, name, None, version.map(Symbol::from))
    }

    /// [`Purl::for_package`] for already-interned component fields: when
    /// the PURL name is the component name unchanged (no namespace split,
    /// no Python renormalization), the symbols are reused — a refcount
    /// bump per field instead of a pool round trip. This is the emulator
    /// hot path: four profiles attach a PURL to every component.
    pub fn for_component(eco: Ecosystem, name: &Symbol, version: Option<&Symbol>) -> Self {
        Purl::build(eco, name.as_str(), Some(name), version.cloned())
    }

    fn build(eco: Ecosystem, raw: &str, reuse: Option<&Symbol>, version: Option<Symbol>) -> Self {
        let (namespace, base) = split_for_purl(eco, raw);
        let name: Symbol = if eco == Ecosystem::Python {
            // Python names never split, so a borrowed (already-canonical)
            // normalization means the name passes through unchanged.
            match crate::name::normalized(eco, base) {
                std::borrow::Cow::Borrowed(b) => match reuse {
                    Some(sym) if b.len() == raw.len() => sym.clone(),
                    _ => b.into(),
                },
                std::borrow::Cow::Owned(o) => o.into(),
            }
        } else if base.len() == raw.len() {
            match reuse {
                Some(sym) => sym.clone(),
                None => base.into(),
            }
        } else {
            base.into()
        };
        Purl {
            ptype: type_symbol(eco),
            namespace: namespace.map(|ns| ns.trim_start_matches('@').into()),
            name,
            version,
            qualifiers: Vec::new(),
            subpath: None,
        }
    }

    /// Builder-style namespace.
    pub fn with_namespace(mut self, ns: impl Into<Symbol>) -> Self {
        self.namespace = Some(ns.into());
        self
    }

    /// Builder-style version.
    pub fn with_version(mut self, v: impl Into<Symbol>) -> Self {
        self.version = Some(v.into());
        self
    }

    /// Builder-style qualifier.
    pub fn with_qualifier(mut self, k: impl Into<String>, v: impl Into<String>) -> Self {
        self.qualifiers.push((k.into(), v.into()));
        self
    }

    /// Builder-style subpath.
    pub fn with_subpath(mut self, sp: impl Into<String>) -> Self {
        self.subpath = Some(sp.into());
        self
    }

    /// The package type (`pypi`, `npm`, ...).
    pub fn ptype(&self) -> &str {
        &self.ptype
    }

    /// The namespace/group/scope, if any.
    pub fn namespace(&self) -> Option<&str> {
        self.namespace.as_deref()
    }

    /// The package name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The version, if any.
    pub fn version(&self) -> Option<&str> {
        self.version.as_deref()
    }

    /// The qualifier key/value pairs.
    pub fn qualifiers(&self) -> &[(String, String)] {
        &self.qualifiers
    }

    /// The subpath, if any.
    pub fn subpath(&self) -> Option<&str> {
        self.subpath.as_deref()
    }
}

/// The PURL-spec namespace/name split of a raw package name, borrowed
/// from the input (the structural rules of
/// [`PackageName`](crate::name::PackageName), without its allocations).
fn split_for_purl(eco: Ecosystem, raw: &str) -> (Option<&str>, &str) {
    match eco {
        Ecosystem::Java => match raw.split_once(':') {
            Some((group, artifact)) => (Some(group), artifact),
            None => (None, raw),
        },
        Ecosystem::JavaScript => {
            match raw.starts_with('@').then(|| raw.split_once('/')).flatten() {
                Some((scope, name)) => (Some(scope), name),
                None => (None, raw),
            }
        }
        Ecosystem::Swift => (None, raw.split('/').next().unwrap_or(raw)),
        Ecosystem::Go => match raw.rsplit_once('/') {
            Some((ns, base)) => (Some(ns), base),
            None => (None, raw),
        },
        _ => (None, raw),
    }
}

/// The interned `pkg:` type string for an ecosystem, cached so PURL
/// construction is a refcount bump rather than an intern per component.
fn type_symbol(eco: Ecosystem) -> Symbol {
    use std::sync::OnceLock;
    // Declaration order (`eco as usize` indexes this).
    const DECL: [Ecosystem; 9] = [
        Ecosystem::Python,
        Ecosystem::JavaScript,
        Ecosystem::Ruby,
        Ecosystem::Php,
        Ecosystem::Java,
        Ecosystem::Go,
        Ecosystem::Rust,
        Ecosystem::Swift,
        Ecosystem::DotNet,
    ];
    static TYPES: OnceLock<[Symbol; 9]> = OnceLock::new();
    TYPES.get_or_init(|| DECL.map(|e| Symbol::from(e.purl_type())))[eco as usize].clone()
}

fn pct_encode(s: &str, extra_ok: &[char]) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        let c = b as char;
        if c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_' | '~') || extra_ok.contains(&c)
        {
            out.push(c);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// Percent-decodes `s`, borrowing it when it holds no `%` (as almost
/// every PURL field does).
fn pct_decode(s: &str) -> Cow<'_, str> {
    fn hex(b: u8) -> Option<u8> {
        match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            b'A'..=b'F' => Some(b - b'A' + 10),
            _ => None,
        }
    }
    if !s.contains('%') {
        return Cow::Borrowed(s);
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            if let (Some(hi), Some(lo)) = (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                out.push(hi << 4 | lo);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    Cow::Owned(String::from_utf8_lossy(&out).into_owned())
}

impl fmt::Display for Purl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkg:{}", self.ptype)?;
        if let Some(ns) = &self.namespace {
            let encoded: Vec<String> = ns.split('/').map(|p| pct_encode(p, &[])).collect();
            write!(f, "/{}", encoded.join("/"))?;
        }
        write!(f, "/{}", pct_encode(&self.name, &[]))?;
        if let Some(v) = &self.version {
            write!(f, "@{}", pct_encode(v, &[]))?;
        }
        if !self.qualifiers.is_empty() {
            let mut qs: Vec<&(String, String)> = self.qualifiers.iter().collect();
            qs.sort_by(|a, b| a.0.cmp(&b.0));
            // Keys are percent-encoded too: a literal `=`, `&` or `%` in a
            // key would otherwise shift the key/value split on re-parse.
            let parts: Vec<String> = qs
                .iter()
                .map(|(k, v)| {
                    format!(
                        "{}={}",
                        pct_encode(&k.to_ascii_lowercase(), &[]),
                        pct_encode(v, &[':', '/'])
                    )
                })
                .collect();
            write!(f, "?{}", parts.join("&"))?;
        }
        if let Some(sp) = &self.subpath {
            let encoded: Vec<String> = sp.split('/').map(|seg| pct_encode(seg, &[])).collect();
            write!(f, "#{}", encoded.join("/"))?;
        }
        Ok(())
    }
}

impl FromStr for Purl {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let rest = s
            .strip_prefix("pkg:")
            .ok_or_else(|| ParseError::new(s, "purl must start with 'pkg:'"))?;
        let rest = rest.trim_start_matches('/');

        let (rest, subpath) = match rest.split_once('#') {
            Some((r, sp)) => {
                let decoded: Vec<Cow<'_, str>> = sp.split('/').map(pct_decode).collect();
                (r, Some(decoded.join("/")))
            }
            None => (rest, None),
        };
        let (rest, qualifiers) = match rest.split_once('?') {
            Some((r, q)) => {
                let mut quals = Vec::new();
                for pair in q.split('&') {
                    if let Some((k, v)) = pair.split_once('=') {
                        // Decode the key *after* splitting on the raw `=`,
                        // mirroring the encode side: encoded `%3D`/`%26` in
                        // keys never collide with the separators.
                        quals.push((
                            pct_decode(k).to_ascii_lowercase(),
                            pct_decode(v).into_owned(),
                        ));
                    }
                }
                (r, quals)
            }
            None => (rest, Vec::new()),
        };
        let (rest, version) = match rest.rsplit_once('@') {
            // '@' inside a namespace segment (npm scopes are encoded, so a
            // real '@' here is the version separator) — but guard against
            // `pkg:npm/@scope/name` style leniency.
            Some((r, v)) if !v.contains('/') => (r, Some(pct_decode(v))),
            _ => (rest, None),
        };

        // Empty segments (doubled or trailing slashes) do not count.
        let mut segments = rest.split('/').filter(|s| !s.is_empty());
        let (Some(ptype), Some(name)) = (segments.next(), segments.next_back()) else {
            return Err(ParseError::new(s, "purl needs at least type and name"));
        };
        let namespace = match (segments.next(), segments.next()) {
            (None, _) => None,
            (Some(only), None) => Some(Symbol::from(&*pct_decode(only))),
            (Some(first), Some(second)) => {
                let mut joined = pct_decode(first).into_owned();
                for segment in std::iter::once(second).chain(segments) {
                    joined.push('/');
                    joined.push_str(&pct_decode(segment));
                }
                Some(Symbol::from(joined))
            }
        };
        Ok(Purl {
            ptype: ptype.to_ascii_lowercase().into(),
            namespace,
            name: Symbol::from(&*pct_decode(name)),
            version: version.map(|v| Symbol::from(&*v)),
            qualifiers,
            subpath,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_roundtrip() {
        let p = Purl::new("pypi", "requests").with_version("2.31.0");
        let s = p.to_string();
        assert_eq!(s, "pkg:pypi/requests@2.31.0");
        let back: Purl = s.parse().unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn namespace_roundtrip() {
        let p = Purl::new("maven", "guava")
            .with_namespace("com.google.guava")
            .with_version("32.1.2");
        let s = p.to_string();
        assert_eq!(s, "pkg:maven/com.google.guava/guava@32.1.2");
        let back: Purl = s.parse().unwrap();
        assert_eq!(back.namespace(), Some("com.google.guava"));
        assert_eq!(back.name(), "guava");
    }

    #[test]
    fn go_multi_segment_namespace() {
        let p = Purl::for_package(Ecosystem::Go, "github.com/stretchr/testify", Some("v1.8.0"));
        assert_eq!(
            p.to_string(),
            "pkg:golang/github.com/stretchr/testify@v1.8.0"
        );
        let back: Purl = p.to_string().parse().unwrap();
        assert_eq!(back.namespace(), Some("github.com/stretchr"));
    }

    #[test]
    fn npm_scope_strips_at_in_namespace() {
        let p = Purl::for_package(Ecosystem::JavaScript, "@babel/core", Some("7.22.0"));
        assert_eq!(p.to_string(), "pkg:npm/babel/core@7.22.0");
    }

    #[test]
    fn python_name_normalized() {
        let p = Purl::for_package(Ecosystem::Python, "Flask_SQLAlchemy", Some("3.0.0"));
        assert_eq!(p.name(), "flask-sqlalchemy");
    }

    #[test]
    fn qualifiers_sorted_and_encoded() {
        let p = Purl::new("npm", "x")
            .with_qualifier("repository_url", "https://r.example/npm")
            .with_qualifier("arch", "amd64");
        let s = p.to_string();
        assert!(s.contains("arch=amd64&repository_url="));
        let back: Purl = s.parse().unwrap();
        assert_eq!(back.qualifiers().len(), 2);
    }

    #[test]
    fn percent_encoding_roundtrip() {
        let p = Purl::new("gem", "my gem").with_version("1.0+build");
        let s = p.to_string();
        assert!(s.contains("my%20gem"));
        let back: Purl = s.parse().unwrap();
        assert_eq!(back.name(), "my gem");
        assert_eq!(back.version(), Some("1.0+build"));
    }

    #[test]
    fn qualifier_separator_chars_roundtrip() {
        // `%`, `+`, `=` and `&` in keys and values must survive
        // emit → parse without shifting the pair or key/value splits.
        let p = Purl::new("npm", "x")
            .with_qualifier("checksum", "sha256:ab%2Bcd=ef&gh")
            .with_qualifier("odd=key", "plus+value")
            .with_qualifier("pct%key", "100%");
        let s = p.to_string();
        let back: Purl = s.parse().unwrap();
        let mut want = vec![
            ("checksum".to_string(), "sha256:ab%2Bcd=ef&gh".to_string()),
            ("odd=key".to_string(), "plus+value".to_string()),
            ("pct%key".to_string(), "100%".to_string()),
        ];
        want.sort();
        let mut got = back.qualifiers().to_vec();
        got.sort();
        assert_eq!(got, want);
        // And the emitted string itself is a fixed point.
        assert_eq!(back.to_string(), s);
    }

    #[test]
    fn subpath_roundtrips_encoded() {
        let p = Purl::new("golang", "mod").with_subpath("src/dir with space/file#1");
        let s = p.to_string();
        assert!(s.contains("#src/dir%20with%20space/file%231"));
        let back: Purl = s.parse().unwrap();
        assert_eq!(back.subpath(), Some("src/dir with space/file#1"));
    }

    #[test]
    fn truncated_percent_escape_is_literal() {
        // A trailing `%` or `%X` is not a valid escape; decoding must not
        // panic or eat bytes.
        let back: Purl = "pkg:npm/x?k=a%2".parse().unwrap();
        assert_eq!(back.qualifiers(), &[("k".to_string(), "a%2".to_string())]);
    }

    #[test]
    fn rejects_non_purl() {
        assert!("http://x".parse::<Purl>().is_err());
        assert!("pkg:onlytype".parse::<Purl>().is_err());
    }
}
