//! Minimal validator for the single-line flat JSON records the bench
//! binaries emit.
//!
//! The tier-1 gate used to pipe bench output into `python3 -c "json.loads..."`
//! to prove the records parse; that made the test harness depend on a
//! Python toolchain the Rust workspace never needed. This module is a
//! hand-rolled parser for exactly the dialect the binaries produce — one
//! flat object per line, values limited to strings, numbers, booleans and
//! null — so the binaries can validate their own output (`--check`) with
//! zero non-cargo dependencies.
//!
//! It is deliberately *not* a general JSON parser: nested objects/arrays
//! are rejected, which doubles as a schema check (a bench record growing a
//! nested value should be a conscious decision, not an accident).

/// A parsed flat-JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, widened to f64 (bench counters fit losslessly).
    Num(f64),
    /// A string with escapes decoded.
    Str(String),
}

impl JsonValue {
    /// Returns the numeric value, if this is a number.
    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parsed key/value pairs in emission order.
pub type FlatObject = Vec<(String, JsonValue)>;

/// Looks up `key` and returns its numeric value.
#[must_use]
pub fn num(obj: &FlatObject, key: &str) -> Option<f64> {
    obj.iter().find(|(k, _)| k == key)?.1.as_num()
}

/// Looks up `key` and returns its string value.
#[must_use]
pub fn str_of<'a>(obj: &'a FlatObject, key: &str) -> Option<&'a str> {
    obj.iter().find(|(k, _)| k == key)?.1.as_str()
}

struct Scanner<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            chars: s.chars().peekable(),
            pos: 0,
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next()?;
        self.pos += 1;
        Some(c)
    }

    fn peek(&mut self) -> Option<char> {
        self.chars.peek().copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t')) {
            self.bump();
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.bump() {
            Some(c) if c == want => Ok(()),
            got => Err(format!(
                "expected '{want}' at char {}, got {got:?}",
                self.pos
            )),
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at char {}", self.pos)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|c| c.to_digit(16))
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            code = code * 16 + d;
                        }
                        let c = char::from_u32(code)
                            .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                        out.push(c);
                    }
                    other => return Err(self.err(&format!("bad escape {other:?}"))),
                },
                Some(c) if (c as u32) < 0x20 => {
                    return Err(self.err("raw control character in string"))
                }
                Some(c) => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let mut raw = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                raw.push(c);
                self.bump();
            } else {
                break;
            }
        }
        raw.parse::<f64>()
            .map_err(|e| self.err(&format!("bad number {raw:?}: {e}")))
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        for want in word.chars() {
            match self.bump() {
                Some(c) if c == want => {}
                _ => return Err(self.err(&format!("expected literal `{word}`"))),
            }
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some('"') => Ok(JsonValue::Str(self.string()?)),
            Some('t') => self.literal("true", JsonValue::Bool(true)),
            Some('f') => self.literal("false", JsonValue::Bool(false)),
            Some('n') => self.literal("null", JsonValue::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => Ok(JsonValue::Num(self.number()?)),
            Some('{' | '[') => Err(self.err("nested values are not part of the bench schema")),
            other => Err(self.err(&format!("expected a value, got {other:?}"))),
        }
    }
}

/// Parses a single-line flat JSON object (`{"k": v, ...}`) into its
/// key/value pairs. Rejects nested objects/arrays, duplicate keys, and
/// trailing garbage — each of those indicates a malformed bench record.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax problem,
/// with a character offset into the line.
pub fn parse_flat_object(line: &str) -> Result<FlatObject, String> {
    let mut sc = Scanner::new(line.trim_end_matches(['\n', '\r']));
    sc.skip_ws();
    sc.expect('{')?;
    let mut obj: FlatObject = Vec::new();
    sc.skip_ws();
    if sc.peek() == Some('}') {
        sc.bump();
    } else {
        loop {
            sc.skip_ws();
            let key = sc.string()?;
            if obj.iter().any(|(k, _)| *k == key) {
                return Err(sc.err(&format!("duplicate key {key:?}")));
            }
            sc.skip_ws();
            sc.expect(':')?;
            sc.skip_ws();
            let value = sc.value()?;
            obj.push((key, value));
            sc.skip_ws();
            match sc.bump() {
                Some(',') => {}
                Some('}') => break,
                got => return Err(sc.err(&format!("expected ',' or '}}', got {got:?}"))),
            }
        }
    }
    sc.skip_ws();
    if sc.peek().is_some() {
        return Err(sc.err("trailing garbage after object"));
    }
    Ok(obj)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_bench_style_record() {
        let line = "{\"bench\":\"trace_bench\",\"seed\":1,\"throughput_lps\":1.23e6,\
                    \"ok\":true,\"worst_unknown\":null,\"mean_ns\":-0.0}";
        let obj = parse_flat_object(line).unwrap();
        assert_eq!(str_of(&obj, "bench"), Some("trace_bench"));
        assert_eq!(num(&obj, "seed"), Some(1.0));
        assert_eq!(num(&obj, "throughput_lps"), Some(1.23e6));
        assert_eq!(obj[3].1, JsonValue::Bool(true));
        assert_eq!(obj[4].1, JsonValue::Null);
        assert_eq!(num(&obj, "mean_ns"), Some(0.0));
        assert_eq!(num(&obj, "absent"), None);
    }

    #[test]
    fn decodes_string_escapes() {
        let obj = parse_flat_object(r#"{"k":"a\"b\\cA\n"}"#).unwrap();
        assert_eq!(str_of(&obj, "k"), Some("a\"b\\cA\n"));
    }

    #[test]
    fn parses_solver_trace_shape() {
        // The exact shape `SolverTrace::to_json_line` emits.
        let line = "{\"trace\":\"solver\",\"steps_accepted\":42,\
                    \"min_dt_used\":1.000e-12,\"worst_unknown\":\"v(ml)\"}";
        let obj = parse_flat_object(line).unwrap();
        assert_eq!(str_of(&obj, "trace"), Some("solver"));
        assert_eq!(num(&obj, "steps_accepted"), Some(42.0));
        assert_eq!(num(&obj, "min_dt_used"), Some(1e-12));
    }

    #[test]
    fn accepts_the_empty_object() {
        assert!(parse_flat_object("{}").unwrap().is_empty());
        assert!(parse_flat_object("{ }\n").unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "{\"k\":}",
            "{\"k\":1,}",
            "{\"k\":1}x",
            "{\"k\":{\"nested\":1}}",
            "{\"k\":[1,2]}",
            "{\"k\":1,\"k\":2}",
            "{\"k\":nul}",
            "{\"k\":1e}",
            "{\"k\":\"unterminated}",
            "{k:1}",
        ] {
            assert!(parse_flat_object(bad).is_err(), "accepted {bad:?}");
        }
    }
}
