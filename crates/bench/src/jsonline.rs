//! The single-line flat JSON records `stack_bench` emits and reads back:
//! one object per line, values limited to strings, numbers, booleans and
//! null, keys in emission order.
//!
//! The grammar is `tcam_net::json`'s; this module adds the schema: the
//! top level is an object and nothing nests (a record growing a nested
//! value should be a conscious decision, not an accident).

use tcam_net::json::Json;

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

/// Parses a single-line flat JSON object (`{"k": v, ...}`) into its
/// key/value pairs. Rejects nested objects/arrays, duplicate keys, and
/// trailing garbage — each of those indicates a malformed bench record.
///
/// # Errors
///
/// Returns a human-readable description of the first problem.
pub fn parse_flat_object(line: &str) -> Result<FlatObject, String> {
    let Json::Object(pairs) = Json::parse(line)? else {
        return Err("top level is not an object".into());
    };
    pairs
        .into_iter()
        .map(|(key, value)| {
            let value = match value {
                Json::Null => JsonValue::Null,
                Json::Bool(b) => JsonValue::Bool(b),
                Json::Number(n) => JsonValue::Num(n),
                Json::String(s) => JsonValue::Str(s),
                Json::Array(_) | Json::Object(_) => {
                    return Err(format!(
                        "nested value under {key:?} is not part of the bench schema"
                    ))
                }
            };
            Ok((key, value))
        })
        .collect()
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
