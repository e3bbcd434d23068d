//! JSON parsing and serialization (RFC 8259).
//!
//! Used for package-lock.json, composer.lock, Pipfile.lock, packages.lock.json
//! and for emitting CycloneDX / SPDX SBOM documents.

use crate::value::Value;
use crate::{simple_escape, string_run, TextError, UnicodeEscape};

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a [`TextError`] with the line of the first syntax error.
pub fn parse(input: &str) -> Result<Value, TextError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// Parses a JSON document from raw bytes, rejecting invalid UTF-8 with a
/// positioned error instead of panicking or lossily replacing (RFC 8259
/// §8.1 requires UTF-8). Callers that read documents straight from disk
/// (OSV advisory files, corrupted uploads) use this to turn encoding
/// damage into a classified diagnostic.
///
/// # Errors
///
/// Returns a [`TextError`] naming the line of the first invalid byte or,
/// once decoded, the first syntax error.
pub fn parse_bytes(input: &[u8]) -> Result<Value, TextError> {
    match std::str::from_utf8(input) {
        Ok(text) => parse(text),
        Err(e) => {
            let line = 1 + input[..e.valid_up_to()]
                .iter()
                .filter(|&&b| b == b'\n')
                .count();
            Err(TextError::new(
                line,
                format!("invalid UTF-8 at byte {}", e.valid_up_to()),
            ))
        }
    }
}

/// Serializes a value as compact JSON.
pub fn to_string(v: &Value) -> String {
    let mut out = String::new();
    write_value(v, None, 0, &mut out);
    out
}

/// Serializes a value as pretty-printed JSON with two-space indentation.
pub fn to_string_pretty(v: &Value) -> String {
    let mut out = String::new();
    write_value(v, Some(2), 0, &mut out);
    out
}

fn write_value(v: &Value, indent: Option<usize>, level: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => {
            if n.fract() == 0.0 && n.is_finite() && n.abs() < 9e15 {
                out.push_str(&format!("{}", *n as i64));
            } else if n.is_finite() {
                out.push_str(&format!("{n}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_escaped(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, level + 1, out);
                write_value(item, indent, level + 1, out);
            }
            newline_indent(indent, level, out);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, level + 1, out);
                write_escaped(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(item, indent, level + 1, out);
            }
            newline_indent(indent, level, out);
            out.push('}');
        }
    }
}

fn newline_indent(indent: Option<usize>, level: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..level * width {
            out.push(' ');
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

const MAX_DEPTH: usize = 200;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> TextError {
        let line = self.bytes[..self.pos.min(self.bytes.len())]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
            + 1;
        TextError::new(line, msg)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Value, TextError> {
        if self.depth > MAX_DEPTH {
            return Err(self.err("maximum nesting depth exceeded"));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, v: Value) -> Result<Value, TextError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn number(&mut self) -> Result<Value, TextError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .map(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
            .unwrap_or(false)
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf-8 in number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }

    /// Reads a string token; the opening quote is at the current position.
    ///
    /// Runs between escapes are found by [`string_run`] and copied as
    /// slices of the input `&str`: a run starts after an ASCII byte and
    /// ends at one, so every slice falls on character boundaries and
    /// nothing is re-validated. A string without escapes is one copy.
    fn string(&mut self) -> Result<String, TextError> {
        debug_assert_eq!(self.peek(), Some(b'"'));
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            self.pos += string_run(&self.bytes[start..]);
            let run = self
                .text
                .get(start..self.pos)
                .ok_or_else(|| self.err("invalid utf-8 in string"))?;
            match self.peek() {
                Some(b'"') if out.is_empty() => {
                    self.pos += 1;
                    return Ok(run.to_owned());
                }
                Some(b'"') => {
                    out.push_str(run);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(run);
                    self.pos += 1;
                    match self.peek().and_then(simple_escape) {
                        Some(b) => {
                            out.push(char::from(b));
                            self.pos += 1;
                        }
                        None if self.peek() == Some(b'u') => out.push(self.unicode_escape()?),
                        None => return Err(self.err("invalid escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Decodes `\uXXXX` through the shared [`UnicodeEscape`] policy. An
    /// escape that follows but does not pair is left unconsumed, so it
    /// decodes on its own. Out of line: such escapes are rare, and inlined
    /// into [`Parser::string`] this slows every string.
    #[cold]
    fn unicode_escape(&mut self) -> Result<char, TextError> {
        // self.pos is at 'u'
        self.pos += 1;
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let unit = hex4(hex).ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        let next = match self.bytes.get(self.pos..self.pos + 6) {
            Some([b'\\', b'u', hex @ ..]) => hex4(hex),
            _ => None,
        };
        let decoded = UnicodeEscape::decode(unit, next);
        if matches!(decoded, UnicodeEscape::Pair(_)) {
            self.pos += 6;
        }
        Ok(decoded.char())
    }

    fn object(&mut self) -> Result<Value, TextError> {
        self.pos += 1; // '{'
        self.depth += 1;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':'"));
            }
            self.pos += 1;
            self.skip_ws();
            let v = self.value()?;
            entries.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, TextError> {
        self.pos += 1; // '['
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}

/// The value of the four hex digits of a `\uXXXX` escape (`None` when a
/// byte is not a hex digit).
fn hex4(bytes: &[u8]) -> Option<u32> {
    bytes
        .iter()
        .try_fold(0, |n, &b| Some(n * 16 + (b as char).to_digit(16)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("-1.5e2").unwrap(), Value::Num(-150.0));
        assert_eq!(parse(r#""hi""#).unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.pointer("a/1/b"), Some(&Value::Null));
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x"));
    }

    #[test]
    fn escapes_roundtrip() {
        let v = parse(r#""line\nquote\" tab\t uA emoji😀""#).unwrap();
        assert_eq!(v.as_str(), Some("line\nquote\" tab\t uA emoji😀"));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("tru").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("").is_err());
        // A sign is not a hex digit (the streaming reader agrees).
        assert!(parse(r#""\u+041""#).is_err());
    }

    #[test]
    fn error_reports_line() {
        let e = parse("{\n\"a\": \n@}").unwrap_err();
        assert_eq!(e.line(), 3);
    }

    #[test]
    fn emit_compact_and_pretty() {
        let v = parse(r#"{"a":[1,2],"b":{"c":true}}"#).unwrap();
        assert_eq!(to_string(&v), r#"{"a":[1,2],"b":{"c":true}}"#);
        let pretty = to_string_pretty(&v);
        assert!(pretty.contains("\n  \"a\": ["));
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn roundtrip_preserves_key_order() {
        let v = parse(r#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(to_string(&v), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let mut s = String::new();
        for _ in 0..500 {
            s.push('[');
        }
        assert!(parse(&s).is_err());
    }

    #[test]
    fn special_floats_serialize_as_null() {
        assert_eq!(to_string(&Value::Num(f64::NAN)), "null");
        assert_eq!(to_string(&Value::Num(f64::INFINITY)), "null");
    }

    #[test]
    fn unicode_content_survives() {
        let v = parse("\"héllo wörld ✓\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo wörld ✓"));
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
    }

    #[test]
    fn lone_high_surrogate_becomes_replacement() {
        let v = parse(r#""\ud83d""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{FFFD}"));
    }
}
