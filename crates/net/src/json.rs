//! A minimal JSON parser for the admin plane's request bodies.
//!
//! The workspace is zero-external-dependency, so the HTTP admin plane
//! carries its own parser: a small recursive-descent reader covering the
//! full JSON grammar (objects, arrays, strings with escapes, numbers,
//! literals). It is used only on the *admin* path — rule batches and
//! snapshot triggers — never on the lookup hot path, which speaks the
//! binary protocol. `tcam_bench::jsonline` reads flat bench records
//! through it too, so the workspace has one JSON grammar.

/// Deepest container nesting [`Json::parse`] accepts. The parser is
/// recursive-descent and the admin plane accepts multi-megabyte bodies,
/// so without a bound a body of `[[[[…` would recurse once per byte and
/// overflow the thread stack, aborting the whole process.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string, escapes resolved.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object: pairs in document order, keys unique.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parses `text` as one JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first syntax error, including
    /// documents nested deeper than `MAX_DEPTH` containers and objects
    /// that repeat a key (a body saying `"priority"` twice must not have
    /// one of the two silently win).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut at = 0usize;
        let value = parse_value(bytes, &mut at, 0)?;
        skip_ws(bytes, &mut at);
        if at != bytes.len() {
            return Err(format!("trailing garbage at byte {at}"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` unless this is an object with `key`).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], at: &mut usize) {
    while *at < bytes.len() && matches!(bytes[*at], b' ' | b'\t' | b'\n' | b'\r') {
        *at += 1;
    }
}

fn parse_value(bytes: &[u8], at: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, at);
    match bytes.get(*at) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {at}",
            at = *at
        )),
        Some(b'{') => parse_object(bytes, at, depth),
        Some(b'[') => parse_array(bytes, at, depth),
        Some(b'"') => Ok(Json::String(parse_string(bytes, at)?)),
        Some(b't') => parse_literal(bytes, at, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, at, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, at, "null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, at),
        Some(_) => Err(format!("expected a value at byte {at}", at = *at)),
    }
}

fn parse_literal(bytes: &[u8], at: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*at..].starts_with(lit.as_bytes()) {
        *at += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {at}", at = *at))
    }
}

fn parse_number(bytes: &[u8], at: &mut usize) -> Result<Json, String> {
    let start = *at;
    if bytes.get(*at) == Some(&b'-') {
        *at += 1;
    }
    while *at < bytes.len() && matches!(bytes[*at], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *at += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*at]).map_err(|_| "non-utf8 number")?;
    text.parse::<f64>()
        .map(Json::Number)
        .map_err(|_| format!("bad number {text:?} at byte {start}"))
}

fn parse_string(bytes: &[u8], at: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*at], b'"');
    *at += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*at) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *at += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *at += 1;
                match bytes.get(*at) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes.get(*at + 1..*at + 5).ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "non-utf8 escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Surrogates are rejected rather than paired: the
                        // admin plane has no use for astral characters.
                        out.push(char::from_u32(code).ok_or("surrogate \\u escape")?);
                        *at += 4;
                    }
                    _ => return Err(format!("bad escape at byte {at}", at = *at)),
                }
                *at += 1;
            }
            Some(&c) if c < 0x20 => return Err("raw control character in string".into()),
            Some(_) => {
                // Copy one UTF-8 scalar (multi-byte sequences intact).
                let s =
                    std::str::from_utf8(&bytes[*at..]).map_err(|_| "non-utf8 string content")?;
                let ch = s.chars().next().expect("non-empty");
                out.push(ch);
                *at += ch.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], at: &mut usize, depth: usize) -> Result<Json, String> {
    *at += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, at);
    if bytes.get(*at) == Some(&b']') {
        *at += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, at, depth + 1)?);
        skip_ws(bytes, at);
        match bytes.get(*at) {
            Some(b',') => *at += 1,
            Some(b']') => {
                *at += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {at}", at = *at)),
        }
    }
}

fn parse_object(bytes: &[u8], at: &mut usize, depth: usize) -> Result<Json, String> {
    *at += 1; // '{'
    let mut pairs = Vec::new();
    skip_ws(bytes, at);
    if bytes.get(*at) == Some(&b'}') {
        *at += 1;
        return Ok(Json::Object(pairs));
    }
    loop {
        skip_ws(bytes, at);
        if bytes.get(*at) != Some(&b'"') {
            return Err(format!("expected object key at byte {at}", at = *at));
        }
        let key = parse_string(bytes, at)?;
        skip_ws(bytes, at);
        if bytes.get(*at) != Some(&b':') {
            return Err(format!("expected ':' at byte {at}", at = *at));
        }
        *at += 1;
        pairs.push((key, parse_value(bytes, at, depth + 1)?));
        skip_ws(bytes, at);
        match bytes.get(*at) {
            Some(b',') => *at += 1,
            Some(b'}') => {
                *at += 1;
                break;
            }
            _ => return Err(format!("expected ',' or '}}' at byte {at}", at = *at)),
        }
    }
    // Sorted once at the end: a hostile body with a million keys costs
    // n log n here, not the n² of checking each key as it arrives.
    let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    if let Some(dup) = keys.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!(
            "duplicate key {:?} in object ending at byte {at}",
            dup[0],
            at = *at
        ));
    }
    Ok(Json::Object(pairs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_admin_body_shape() {
        let doc = Json::parse(
            r#"{"width": 8, "changes": [
                {"op": "insert", "priority": 1, "word": "10XX01XX"},
                {"op": "remove", "priority": 2},
                {"op": "modify", "priority": 1, "word": "XXXXXXXX"}
            ]}"#,
        )
        .unwrap();
        assert_eq!(doc.get("width").and_then(Json::as_u64), Some(8));
        let changes = doc.get("changes").and_then(Json::as_array).unwrap();
        assert_eq!(changes.len(), 3);
        assert_eq!(changes[0].get("op").and_then(Json::as_str), Some("insert"));
        assert_eq!(changes[1].get("priority").and_then(Json::as_u64), Some(2));
        assert!(changes[1].get("word").is_none());
    }

    #[test]
    fn covers_the_grammar_corners() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Number(-250.0));
        assert_eq!(
            Json::parse(r#""a\"b\\c\ndA""#).unwrap(),
            Json::String("a\"b\\c\ndA".into())
        );
        assert_eq!(Json::parse("[]").unwrap(), Json::Array(vec![]));
        assert_eq!(Json::parse("{}").unwrap(), Json::Object(vec![]));
        assert_eq!(
            Json::parse("[1, [2, {\"k\": 3}]]").unwrap(),
            Json::Array(vec![
                Json::Number(1.0),
                Json::Array(vec![
                    Json::Number(2.0),
                    Json::Object(vec![("k".to_string(), Json::Number(3.0))]),
                ])
            ])
        );
        // Objects keep document order.
        assert_eq!(
            Json::parse(r#"{"b": 1, "a": 2}"#).unwrap(),
            Json::Object(vec![
                ("b".to_string(), Json::Number(1.0)),
                ("a".to_string(), Json::Number(2.0)),
            ])
        );
        // Unicode passes through untouched.
        assert_eq!(
            Json::parse("\"héllo → wörld\"").unwrap(),
            Json::String("héllo → wörld".into())
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"open",
            "{\"k\" 1}",
            "tru",
            "1 2",
            "{\"k\":}",
            "nan",
            "\"\u{1}\"",
            "+1",
            ".5",
            // A repeated key, at any depth: neither value may silently win.
            r#"{"op": "insert", "priority": 1, "word": "10XX", "priority": 9}"#,
            r#"{"changes": [{"k": 1, "k": 1}]}"#,
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_bound_rejects_instead_of_overflowing_the_stack() {
        // Just inside the bound parses fine…
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        // …one deeper is a syntax error…
        let deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&deep).is_err());
        // …and a hostile megabyte of open brackets (the admin plane's
        // attack shape: never balanced) errors instead of aborting.
        for doc in ["[".repeat(1 << 20), "{\"k\":".repeat(1 << 17)] {
            assert!(Json::parse(&doc).is_err());
        }
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let doc = format!("\"{}\"", tcam_obs::json_escape(nasty));
        assert_eq!(Json::parse(&doc).unwrap(), Json::String(nasty.into()));
    }
}
