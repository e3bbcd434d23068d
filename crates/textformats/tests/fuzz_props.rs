//! Fuzz-style property tests: no parser may panic on arbitrary input, and
//! serializers must round-trip. The `cross_reader_*` properties hold the
//! two JSON readers, `json::parse` and `stream::JsonStream`, to one
//! answer.

use proptest::prelude::*;
use sbomdiff_textformats::stream::{ChunkSource, JsonStream, JsonToken, StreamError, MAX_DEPTH};
use sbomdiff_textformats::{json, properties, toml, xml, yaml, Value};

fn value_strategy() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1_000_000i64..1_000_000).prop_map(|n| Value::Num(n as f64)),
        "[a-zA-Z0-9 _.,:/@#\\-]{0,20}".prop_map(Value::Str),
        // strings with characters that need escaping
        prop_oneof![
            Just("\"quoted\"".to_string()),
            Just("a\\b\nc\td".to_string())
        ]
        .prop_map(Value::Str),
    ];
    leaf.prop_recursive(4, 64, 8, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Value::Array),
            prop::collection::vec(("[a-zA-Z][a-zA-Z0-9_-]{0,10}", inner), 0..6).prop_map(
                |entries| {
                    // Deduplicate keys: Value::set semantics make duplicate
                    // keys unrepresentable after a roundtrip.
                    let mut v = Value::object();
                    for (k, item) in entries {
                        v.set(k, item);
                    }
                    v
                }
            ),
        ]
    })
}

/// Rebuilds the `Value` a document's `JsonStream` tokens describe, reading
/// it in `chunk`-byte refills.
fn stream_value(text: &str, chunk: usize) -> Result<Value, StreamError> {
    let mut js = JsonStream::from_source(ChunkSource::with_chunk_size(text.as_bytes(), chunk));
    // Open containers, each with the key it will be stored under.
    let mut open: Vec<(Value, Option<String>)> = Vec::new();
    let (mut key, mut root) = (None, Value::Null);
    while let Some(token) = js.next_token()? {
        let value = match token {
            JsonToken::ObjectStart | JsonToken::ArrayStart => {
                let empty = match token {
                    JsonToken::ObjectStart => Value::object(),
                    _ => Value::Array(Vec::new()),
                };
                open.push((empty, key.take()));
                continue;
            }
            JsonToken::Key => {
                key = Some(js.text().to_string());
                continue;
            }
            JsonToken::ObjectEnd | JsonToken::ArrayEnd => {
                let (done, under) = open.pop().expect("the stream balances containers");
                key = under;
                done
            }
            JsonToken::Str => Value::Str(js.text().to_string()),
            JsonToken::Num(n) => Value::Num(n),
            JsonToken::Bool(b) => Value::Bool(b),
            JsonToken::Null => Value::Null,
        };
        match open.last_mut() {
            Some((Value::Array(items), _)) => items.push(value),
            Some((Value::Object(entries), _)) => {
                entries.push((key.take().expect("a key precedes each member"), value))
            }
            Some(_) => unreachable!("only containers are open"),
            None => root = value,
        }
    }
    Ok(root)
}

/// A JSON document with one random edit: cut short, a byte dropped, or a
/// character from `palette` put in, at `at` (taken modulo the length).
fn mutate(text: &str, edit: u8, at: usize, palette_index: usize) -> String {
    const PALETTE: [&str; 14] = [
        "\"", "\\", "{", "}", "[", "]", ",", ":", "-", "e", "\\u", "\\ud83d", "\u{1}", "é",
    ];
    let mut cut = at % (text.len() + 1);
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    let (head, tail) = text.split_at(cut);
    match edit % 3 {
        0 => head.to_string(),
        1 => {
            let mut rest = tail.chars();
            rest.next();
            format!("{head}{}", rest.as_str())
        }
        _ => format!("{head}{}{tail}", PALETTE[palette_index % PALETTE.len()]),
    }
}

proptest! {
    #[test]
    fn cross_reader_tokens_rebuild_the_parsed_value(v in value_strategy()) {
        for text in [json::to_string(&v), json::to_string_pretty(&v)] {
            let parsed = json::parse(&text).unwrap();
            for chunk in [512, 4096, 65536] {
                prop_assert_eq!(&stream_value(&text, chunk).unwrap(), &parsed, "chunk {}", chunk);
            }
        }
    }

    #[test]
    fn cross_reader_accept_and_reject_together(
        s in "\\PC{0,200}",
        v in value_strategy(),
        edit in (0u8..3, 0usize..4096, 0usize..64),
    ) {
        // Below both nesting caps (the stream's MAX_DEPTH is the lower),
        // the readers accept the same documents; a near-miss mutant of a
        // valid document tests the edges that random text rarely reaches.
        let mutant = mutate(&json::to_string_pretty(&v), edit.0, edit.1, edit.2);
        for text in [s, mutant] {
            let opens = text.chars().filter(|c| matches!(c, '[' | '{')).count();
            if opens > MAX_DEPTH {
                continue;
            }
            let parsed = json::parse(&text);
            for chunk in [512, 4096] {
                let streamed = stream_value(&text, chunk);
                prop_assert_eq!(
                    parsed.is_ok(),
                    streamed.is_ok(),
                    "{:?}: json::parse {:?}, JsonStream {:?}",
                    text,
                    parsed,
                    streamed
                );
                if let (Ok(a), Ok(b)) = (&parsed, &streamed) {
                    prop_assert_eq!(a, b);
                }
            }
        }
    }

    #[test]
    fn json_parse_never_panics(s in "\\PC{0,200}") {
        let _ = json::parse(&s);
    }

    #[test]
    fn json_roundtrip(v in value_strategy()) {
        let compact = json::to_string(&v);
        let back = json::parse(&compact).unwrap();
        prop_assert_eq!(&back, &v);
        let pretty = json::to_string_pretty(&v);
        prop_assert_eq!(&json::parse(&pretty).unwrap(), &v);
    }

    #[test]
    fn toml_parse_never_panics(s in "\\PC{0,200}") {
        let _ = toml::parse(&s);
    }

    #[test]
    fn toml_simple_tables_roundtrip(
        keys in prop::collection::btree_set("[a-z][a-z0-9_-]{0,8}", 1..6),
        vals in prop::collection::vec("[a-zA-Z0-9 ./^~=<>*,-]{0,12}", 6)
    ) {
        let mut doc = String::new();
        for (k, val) in keys.iter().zip(&vals) {
            doc.push_str(&format!("{k} = \"{val}\"\n"));
        }
        let parsed = toml::parse(&doc).unwrap();
        for (k, val) in keys.iter().zip(&vals) {
            prop_assert_eq!(parsed.get(k).and_then(Value::as_str), Some(val.as_str()));
        }
    }

    #[test]
    fn yaml_parse_never_panics(s in "\\PC{0,200}") {
        let _ = yaml::parse(&s);
    }

    #[test]
    fn yaml_flat_mapping_roundtrip(
        keys in prop::collection::btree_set("[a-z][a-z0-9_-]{0,8}", 1..6),
        vals in prop::collection::vec("[a-zA-Z0-9_./-]{1,12}", 6)
    ) {
        let mut doc = String::new();
        for (k, val) in keys.iter().zip(&vals) {
            doc.push_str(&format!("{k}: \"{val}\"\n"));
        }
        let parsed = yaml::parse(&doc).unwrap();
        for (k, val) in keys.iter().zip(&vals) {
            prop_assert_eq!(parsed.get(k).and_then(Value::as_str), Some(val.as_str()));
        }
    }

    #[test]
    fn xml_parse_never_panics(s in "\\PC{0,200}") {
        let _ = xml::parse(&s);
    }

    #[test]
    fn xml_roundtrip(
        tag in "[a-zA-Z][a-zA-Z0-9]{0,8}",
        attr in "[a-zA-Z][a-zA-Z0-9]{0,8}",
        attr_val in "[a-zA-Z0-9 <>&\"']{0,12}",
        text in "[a-zA-Z0-9 <>&]{0,20}",
    ) {
        let mut root = xml::Element::new(tag.clone());
        root.attrs.push((attr.clone(), attr_val.clone()));
        let mut child = xml::Element::new("child");
        child.text = text.trim().to_string();
        root.children.push(child);
        let s = xml::to_string(&root);
        let back = xml::parse(&s).unwrap();
        prop_assert_eq!(back.attr(&attr), Some(attr_val.as_str()));
        prop_assert_eq!(&back.children[0].text, &root.children[0].text);
    }

    #[test]
    fn properties_never_panics(s in "\\PC{0,200}") {
        let _ = properties::parse_properties(&s);
        let _ = properties::parse_manifest(&s);
    }

    #[test]
    fn properties_roundtrip(
        keys in prop::collection::btree_set("[a-zA-Z][a-zA-Z0-9.]{0,8}", 1..6),
        vals in prop::collection::vec("[a-zA-Z0-9 ._/-]{0,12}", 6)
    ) {
        let mut doc = String::new();
        for (k, val) in keys.iter().zip(&vals) {
            doc.push_str(&format!("{k}={val}\n"));
        }
        let pairs = properties::parse_properties(&doc);
        for (k, val) in keys.iter().zip(&vals) {
            prop_assert_eq!(properties::get(&pairs, k), Some(val.trim()));
        }
    }
}
