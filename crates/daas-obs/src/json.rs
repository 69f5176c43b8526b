//! A minimal JSON value model: enough to emit the sinks' output by hand
//! (string escaping, float formatting) and to parse it back for schema
//! validation and the JSONL-stability tests — without pulling a serde
//! `Value` the shimmed `serde_json` does not provide.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value. Objects keep sorted keys (`BTreeMap`), which is
/// exactly what the deterministic sinks emit anyway.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The JSON type name (`object`, `array`, `string`, `number`,
    /// `boolean`, `null`) — the vocabulary the metrics schema uses.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }
}

/// Escapes `s` as a JSON string literal (with quotes) into `out`.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats `v` as a JSON number: integral values without a fraction,
/// everything else via `{:?}` (shortest round-trip), non-finite as
/// `null` (JSON has no NaN/Inf).
pub fn fmt_num(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v:?}");
    }
}

/// Parses one JSON document. Returns the value and errors on trailing
/// garbage (other than whitespace).
pub fn parse(input: &str) -> Result<Value, String> {
    let mut pos = 0;
    let value = parse_value(input, &mut pos)?;
    skip_ws(input.as_bytes(), &mut pos);
    if pos != input.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

// The parse functions take the whole `&str` so string contents can be
// sliced out of it as already-validated UTF-8; positions only ever
// land after an ASCII byte, so every slice starts on a char boundary.

fn parse_value(input: &str, pos: &mut usize) -> Result<Value, String> {
    let bytes = input.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(input, pos),
        Some(b'[') => parse_array(input, pos),
        Some(b'"') => Ok(Value::Str(parse_string(input, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Value,
) -> Result<Value, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(input: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = input.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run of plain characters up to the next quote
                // or backslash in one slice: both are ASCII, so the run
                // ends on a char boundary, and each byte is visited once.
                let start = *pos;
                while !matches!(bytes.get(*pos), None | Some(b'"') | Some(b'\\')) {
                    *pos += 1;
                }
                out.push_str(&input[start..*pos]);
            }
        }
    }
}

fn parse_array(input: &str, pos: &mut usize) -> Result<Value, String> {
    let bytes = input.as_bytes();
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(input, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

/// Validates `doc` against `schema`, returning human-readable errors
/// with their JSON paths (empty = conforms). The schema dialect is the
/// JSON-Schema subset the repo's checked-in schemas use: `type`,
/// `required`, `properties`, `additionalProperties`, `items` and
/// `minItems` — enough to pin key presence and value types without an
/// external validator crate. An empty schema object `{}` matches any
/// value (used for union-typed fields). Shared by the `obs_validate`
/// and `scenario_validate` CI gates.
pub fn validate_schema(schema: &Value, doc: &Value) -> Vec<String> {
    let mut errors = Vec::new();
    validate_at(schema, doc, "$", &mut errors);
    errors
}

/// Recursively checks `doc` against `schema`, appending errors.
fn validate_at(schema: &Value, doc: &Value, path: &str, errors: &mut Vec<String>) {
    let Some(schema) = schema.as_obj() else {
        errors.push(format!("{path}: schema node is not an object"));
        return;
    };
    if let Some(expected) = schema.get("type").and_then(Value::as_str) {
        let actual = doc.type_name();
        let matches = match expected {
            "integer" => doc.as_num().is_some_and(|n| n == n.trunc()),
            other => actual == other,
        };
        if !matches {
            errors.push(format!("{path}: expected {expected}, got {actual}"));
            return;
        }
    }
    if let Some(required) = schema.get("required").and_then(Value::as_arr) {
        if let Some(obj) = doc.as_obj() {
            for key in required.iter().filter_map(Value::as_str) {
                if !obj.contains_key(key) {
                    errors.push(format!("{path}: missing required key \"{key}\""));
                }
            }
        }
    }
    if let (Some(properties), Some(obj)) =
        (schema.get("properties").and_then(Value::as_obj), doc.as_obj())
    {
        for (key, sub_schema) in properties {
            if let Some(sub_doc) = obj.get(key) {
                validate_at(sub_schema, sub_doc, &format!("{path}.{key}"), errors);
            }
        }
    }
    if let (Some(additional), Some(obj)) = (schema.get("additionalProperties"), doc.as_obj()) {
        if additional.as_obj().is_some() {
            let declared: Vec<&str> = schema
                .get("properties")
                .and_then(Value::as_obj)
                .map(|p| p.keys().map(String::as_str).collect())
                .unwrap_or_default();
            for (key, sub_doc) in obj {
                if !declared.contains(&key.as_str()) {
                    validate_at(additional, sub_doc, &format!("{path}.{key}"), errors);
                }
            }
        }
    }
    if let (Some(items), Some(arr)) = (schema.get("items"), doc.as_arr()) {
        for (i, item) in arr.iter().enumerate() {
            validate_at(items, item, &format!("{path}[{i}]"), errors);
        }
    }
    if let (Some(min), Some(arr)) = (schema.get("minItems").and_then(Value::as_num), doc.as_arr())
    {
        if (arr.len() as f64) < min {
            errors.push(format!("{path}: fewer than {min} items ({})", arr.len()));
        }
    }
}

fn parse_object(input: &str, pos: &mut usize) -> Result<Value, String> {
    let bytes = input.as_bytes();
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(input, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        map.insert(key, parse_value(input, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true, "e": null}}"#;
        let value = parse(doc).unwrap();
        let obj = value.as_obj().unwrap();
        let a = obj["a"].as_arr().unwrap();
        assert_eq!(a[0].as_num(), Some(1.0));
        assert_eq!(a[2].as_num(), Some(-300.0));
        let b = obj["b"].as_obj().unwrap();
        assert_eq!(b["c"].as_str(), Some("x\ny"));
        assert_eq!(b["d"], Value::Bool(true));
        assert_eq!(b["e"], Value::Null);
    }

    #[test]
    fn escape_round_trips() {
        let nasty = "a\"b\\c\nd\te\u{1}f→g";
        let mut doc = String::new();
        escape_into(&mut doc, nasty);
        assert_eq!(parse(&doc).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn parses_megabyte_documents_in_linear_time() {
        // ≥ 1 MB of strings mixing ASCII, escapes and 2-, 3- and 4-byte
        // characters. The quadratic parser this replaced needed
        // seconds for a few hundred KB; a linear one needs milliseconds.
        let strings: Vec<String> = (0..20_000)
            .map(|i| format!("é{i}→ \"addr\" ✓ 🦀 {}", "x".repeat(i % 64)))
            .collect();
        let mut doc = String::from("[");
        for (i, s) in strings.iter().enumerate() {
            if i > 0 {
                doc.push(',');
            }
            escape_into(&mut doc, s);
        }
        doc.push(']');
        assert!(doc.len() >= 1 << 20, "document is only {} bytes", doc.len());

        let started = std::time::Instant::now();
        let value = parse(&doc).unwrap();
        let took = started.elapsed();
        let parsed: Vec<&str> =
            value.as_arr().unwrap().iter().map(|v| v.as_str().unwrap()).collect();
        assert_eq!(parsed, strings);
        assert!(took.as_secs() < 5, "parse took {took:?}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn schema_validation_subset() {
        let schema = parse(
            r#"{
                "type": "object",
                "required": ["name", "count"],
                "properties": {
                    "name": {"type": "string"},
                    "count": {"type": "integer"},
                    "tags": {"type": "array", "minItems": 1, "items": {"type": "string"}},
                    "anything": {}
                }
            }"#,
        )
        .unwrap();
        let good =
            parse(r#"{"name": "x", "count": 3, "tags": ["a"], "anything": [1, {"k": null}]}"#)
                .unwrap();
        assert!(validate_schema(&schema, &good).is_empty());

        let bad = parse(r#"{"name": 5, "tags": []}"#).unwrap();
        let errors = validate_schema(&schema, &bad);
        assert!(errors.iter().any(|e| e.contains("missing required key \"count\"")));
        assert!(errors.iter().any(|e| e.contains("$.name: expected string")));
        assert!(errors.iter().any(|e| e.contains("$.tags: fewer than 1")));
    }

    #[test]
    fn schema_additional_properties() {
        let schema = parse(
            r#"{"type": "object", "additionalProperties": {"type": "number"}}"#,
        )
        .unwrap();
        assert!(validate_schema(&schema, &parse(r#"{"a": 1, "b": 2.5}"#).unwrap()).is_empty());
        let errors = validate_schema(&schema, &parse(r#"{"a": "no"}"#).unwrap());
        assert_eq!(errors.len(), 1);
        assert!(errors[0].starts_with("$.a"));
    }

    #[test]
    fn number_formatting() {
        let mut out = String::new();
        fmt_num(&mut out, 3.0);
        out.push(' ');
        fmt_num(&mut out, 0.25);
        out.push(' ');
        fmt_num(&mut out, f64::NAN);
        assert_eq!(out, "3 0.25 null");
    }
}
