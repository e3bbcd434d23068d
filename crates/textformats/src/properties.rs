//! Java `.properties` files and JAR `MANIFEST.MF` parsing.
//!
//! `pom.properties` (groupId/artifactId/version) uses the properties format;
//! `MANIFEST.MF` uses RFC-822-style headers with 72-byte line folding
//! (continuation lines start with a single space).

use crate::UnicodeEscape;

/// One malformed `\uXXXX` escape found while parsing a properties file:
/// a lone or unpaired surrogate, or a truncated/non-hex escape. The text
/// still parses — the offending escape decodes to U+FFFD — and the caller
/// can surface the issue as a classified diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EscapeIssue {
    /// 1-based line number of the logical line the escape started on.
    pub line: usize,
    /// Human-readable description of the malformed escape.
    pub message: String,
}

/// A properties parse carrying both the pairs and any escape issues.
#[derive(Debug, Clone, Default)]
pub struct PropertiesParse {
    /// Ordered key/value pairs, escapes decoded.
    pub pairs: Vec<(String, String)>,
    /// Malformed `\uXXXX` escapes encountered (each decoded as U+FFFD).
    pub issues: Vec<EscapeIssue>,
}

/// Parses a Java properties file into ordered key/value pairs.
///
/// Supports `=` and `:` separators, `#`/`!` comments, backslash line
/// continuations and the common escapes (`\n`, `\t`, `\\`, `\uXXXX`).
/// Surrogate pairs spelled as two consecutive `\uXXXX` escapes decode to
/// the astral code point; malformed escapes decode to U+FFFD (use
/// [`parse_properties_full`] to observe them).
pub fn parse_properties(input: &str) -> Vec<(String, String)> {
    parse_properties_full(input).pairs
}

/// Like [`parse_properties`], also reporting malformed `\uXXXX` escapes.
pub fn parse_properties_full(input: &str) -> PropertiesParse {
    let mut out = PropertiesParse::default();
    let mut logical = String::new();
    let mut logical_start = 0usize;
    for (idx, raw) in input.lines().enumerate() {
        let line = raw.trim_start();
        if logical.is_empty() && (line.starts_with('#') || line.starts_with('!')) {
            continue;
        }
        if line.is_empty() && logical.is_empty() {
            continue;
        }
        if logical.is_empty() {
            logical_start = idx + 1;
        }
        // Continuation: odd number of trailing backslashes.
        let trailing = raw.chars().rev().take_while(|&c| c == '\\').count();
        if trailing % 2 == 1 {
            logical.push_str(&line[..line.len() - 1]);
            continue;
        }
        logical.push_str(line);
        if let Some((k, v)) = split_kv(&logical) {
            let key = unescape(&k, logical_start, &mut out.issues);
            let value = unescape(&v, logical_start, &mut out.issues);
            out.pairs.push((key, value));
        }
        logical.clear();
    }
    if !logical.is_empty() {
        if let Some((k, v)) = split_kv(&logical) {
            let key = unescape(&k, logical_start, &mut out.issues);
            let value = unescape(&v, logical_start, &mut out.issues);
            out.pairs.push((key, value));
        }
    }
    out
}

fn split_kv(line: &str) -> Option<(String, String)> {
    let mut escape = false;
    for (i, c) in line.char_indices() {
        if escape {
            escape = false;
            continue;
        }
        match c {
            '\\' => escape = true,
            '=' | ':' => {
                return Some((
                    line[..i].trim().to_string(),
                    line[i + 1..].trim().to_string(),
                ));
            }
            _ => {}
        }
    }
    let trimmed = line.trim();
    if trimmed.is_empty() {
        None
    } else {
        Some((trimmed.to_string(), String::new()))
    }
}

/// Reads exactly four hex digits from the iterator; `None` when the
/// escape is truncated or contains a non-hex character (the offending
/// characters are consumed either way, like `java.util.Properties`).
fn hex4(chars: &mut std::str::Chars<'_>) -> Option<u32> {
    let mut n = Some(0u32);
    for _ in 0..4 {
        let c = chars.next()?;
        n = match (n, c.to_digit(16)) {
            (Some(n), Some(d)) => Some(n * 16 + d),
            _ => None,
        };
    }
    n
}

fn unescape(s: &str, line: usize, issues: &mut Vec<EscapeIssue>) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    let mut issue = |message: String| {
        issues.push(EscapeIssue { line, message });
    };
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('u') => {
                let Some(unit) = hex4(&mut chars) else {
                    issue("malformed \\uXXXX escape (expected 4 hex digits)".to_string());
                    out.push('\u{FFFD}');
                    continue;
                };
                // Java's native2ascii spells an astral code point as two
                // escapes, a UTF-16 surrogate pair.
                let mut probe = chars.clone();
                let next = (probe.next() == Some('\\') && probe.next() == Some('u'))
                    .then(|| hex4(&mut probe))
                    .flatten();
                let decoded = UnicodeEscape::decode(unit, next);
                match decoded {
                    UnicodeEscape::Pair(_) => chars = probe,
                    UnicodeEscape::LoneHigh => {
                        issue(format!("lone high surrogate \\u{unit:04X} in escape"))
                    }
                    UnicodeEscape::UnpairedLow => {
                        issue(format!("unpaired low surrogate \\u{unit:04X} in escape"))
                    }
                    UnicodeEscape::Char(_) => {}
                }
                out.push(decoded.char());
            }
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

/// Parses a `MANIFEST.MF` main section into ordered header/value pairs.
///
/// Handles the manifest continuation rule: a line beginning with a single
/// space continues the previous header's value. Parsing stops at the first
/// blank line (the end of the main section — per-entry sections follow).
pub fn parse_manifest(input: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for raw in input.lines() {
        if raw.trim().is_empty() {
            break;
        }
        if let Some(cont) = raw.strip_prefix(' ') {
            if let Some(last) = out.last_mut() {
                last.1.push_str(cont.trim_end());
            }
            continue;
        }
        if let Some((k, v)) = raw.split_once(':') {
            out.push((k.trim().to_string(), v.trim().to_string()));
        }
    }
    out
}

/// Convenience: first value for a key in parsed pairs. Java properties
/// keys are case-sensitive; use [`get_ignore_case`] for MANIFEST headers.
pub fn get<'a>(pairs: &'a [(String, String)], key: &str) -> Option<&'a str> {
    pairs
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// Case-insensitive lookup (RFC-822-style MANIFEST headers).
pub fn get_ignore_case<'a>(pairs: &'a [(String, String)], key: &str) -> Option<&'a str> {
    pairs
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(key))
        .map(|(_, v)| v.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pom_properties() {
        let pairs = parse_properties(
            "#Generated by Maven\n#Tue Jan 01 00:00:00 UTC 2024\ngroupId=org.apache.commons\nartifactId=commons-lang3\nversion=3.12.0\n",
        );
        assert_eq!(get(&pairs, "groupId"), Some("org.apache.commons"));
        assert_eq!(get(&pairs, "artifactId"), Some("commons-lang3"));
        assert_eq!(get(&pairs, "version"), Some("3.12.0"));
    }

    #[test]
    fn colon_separator_and_escapes() {
        let pairs = parse_properties("key: va\\nlue\nuni=\\u0041");
        assert_eq!(get(&pairs, "key"), Some("va\nlue"));
        assert_eq!(get(&pairs, "uni"), Some("A"));
    }

    #[test]
    fn line_continuation() {
        let pairs = parse_properties("long=part1\\\npart2\\\npart3\nnext=x");
        assert_eq!(get(&pairs, "long"), Some("part1part2part3"));
        assert_eq!(get(&pairs, "next"), Some("x"));
    }

    #[test]
    fn escaped_backslash_is_not_continuation() {
        let pairs = parse_properties("p=a\\\\\nq=b");
        assert_eq!(get(&pairs, "p"), Some("a\\"));
        assert_eq!(get(&pairs, "q"), Some("b"));
    }

    #[test]
    fn manifest_basic() {
        let pairs = parse_manifest(
            "Manifest-Version: 1.0\nBundle-SymbolicName: org.example.bundle\nBundle-Version: 1.2.3\n",
        );
        assert_eq!(
            get(&pairs, "Bundle-SymbolicName"),
            Some("org.example.bundle")
        );
        assert_eq!(get(&pairs, "Bundle-Version"), Some("1.2.3"));
    }

    #[test]
    fn manifest_folded_lines() {
        let pairs = parse_manifest(
            "Import-Package: org.osgi.framework;version=\"[1.8\n ,2)\",org.slf4j\nMain-Class: com.example.App\n",
        );
        assert_eq!(
            get(&pairs, "Import-Package"),
            Some("org.osgi.framework;version=\"[1.8,2)\",org.slf4j")
        );
        assert_eq!(get(&pairs, "Main-Class"), Some("com.example.App"));
    }

    #[test]
    fn manifest_stops_at_blank_line() {
        let pairs = parse_manifest("A: 1\n\nName: entry\nB: 2\n");
        assert_eq!(pairs.len(), 1);
        assert_eq!(get(&pairs, "A"), Some("1"));
        assert_eq!(get(&pairs, "B"), None);
    }

    #[test]
    fn bare_key_without_value() {
        let pairs = parse_properties("standalone\nk=v");
        assert_eq!(get(&pairs, "standalone"), Some(""));
    }

    #[test]
    fn surrogate_pair_escapes_decode_to_astral_code_points() {
        // native2ascii spells 😀 (U+1F600) as a UTF-16 escape pair.
        let parsed = parse_properties_full("emoji=\\uD83D\\uDE00 ok");
        assert_eq!(get(&parsed.pairs, "emoji"), Some("\u{1F600} ok"));
        assert!(parsed.issues.is_empty(), "{:?}", parsed.issues);
        // A pair split across a line continuation still decodes.
        let folded = parse_properties_full("emoji=\\uD83D\\\n\\uDE00");
        assert_eq!(get(&folded.pairs, "emoji"), Some("\u{1F600}"));
        assert!(folded.issues.is_empty());
    }

    #[test]
    fn lone_surrogates_degrade_to_replacement_with_an_issue() {
        // High surrogate followed by a non-surrogate escape: U+FFFD, and
        // the following escape decodes on its own instead of vanishing.
        let parsed = parse_properties_full("k=\\uD83D\\u0041");
        assert_eq!(get(&parsed.pairs, "k"), Some("\u{FFFD}A"));
        assert_eq!(parsed.issues.len(), 1);
        assert!(parsed.issues[0].message.contains("lone high surrogate"));
        assert_eq!(parsed.issues[0].line, 1);
        // Unpaired low surrogate.
        let low = parse_properties_full("a=1\nk=x\\uDE00y");
        assert_eq!(get(&low.pairs, "k"), Some("x\u{FFFD}y"));
        assert_eq!(low.issues.len(), 1);
        assert!(low.issues[0].message.contains("unpaired low surrogate"));
        assert_eq!(low.issues[0].line, 2);
        // High surrogate at end of value.
        let tail = parse_properties_full("k=\\uD83D");
        assert_eq!(get(&tail.pairs, "k"), Some("\u{FFFD}"));
        assert_eq!(tail.issues.len(), 1);
    }

    #[test]
    fn two_high_surrogates_then_low_pair_from_the_second() {
        // The first high surrogate is lone; the second pairs with the low.
        let parsed = parse_properties_full("k=\\uD83D\\uD83D\\uDE00");
        assert_eq!(get(&parsed.pairs, "k"), Some("\u{FFFD}\u{1F600}"));
        assert_eq!(parsed.issues.len(), 1);
    }

    #[test]
    fn malformed_hex_escapes_are_replacement_not_dropped() {
        let parsed = parse_properties_full("k=a\\uZZ99b");
        // The four characters after \u are consumed like java.util.Properties.
        assert_eq!(get(&parsed.pairs, "k"), Some("a\u{FFFD}b"));
        assert_eq!(parsed.issues.len(), 1);
        assert!(parsed.issues[0].message.contains("4 hex digits"));
        // Truncated escape at end of input.
        let short = parse_properties_full("k=\\u12");
        assert_eq!(get(&short.pairs, "k"), Some("\u{FFFD}"));
        assert_eq!(short.issues.len(), 1);
        // The plain API still parses, silently.
        assert_eq!(get(&parse_properties("k=\\u12"), "k"), Some("\u{FFFD}"));
    }
}
