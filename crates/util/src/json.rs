//! Minimal JSON support: a value tree, a pretty printer, a `ToJson`
//! trait for the artifact types the `repro` harness writes to
//! `target/repro/*.json` and `runs/*.json`, and a small
//! recursive-descent parser ([`Json::parse`]) so tests and CI checks can
//! round-trip those artifacts (e.g. validating Chrome-trace exports)
//! without external dependencies.
//!
//! `Result<T, E>` serializes as `{"Ok": …}` / `{"Err": …}`, matching the
//! externally-tagged convention the previous serde-based output used, so
//! downstream consumers of the artifact files see an unchanged schema.

use std::fmt::{self, Write};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(String),
    Array(Vec<Json>),
    /// Insertion-ordered object (field order is part of the artifact
    /// schema, as with `#[derive(Serialize)]` field order).
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Pretty-print with two-space indentation and a trailing newline,
    /// like `serde_json::to_string_pretty`.
    pub fn to_pretty(&self) -> String {
        let mut s = String::new();
        self.write_pretty(&mut s, 0);
        s
    }

    /// Serialize to one line with no whitespace — the NDJSON form
    /// (`repro serve` emits one compact object per result line).
    pub fn to_compact(&self) -> String {
        let mut s = String::new();
        let _ = self.write_compact(&mut s);
        s
    }

    /// Write the compact form into any `fmt::Write` sink: a `String`, or a
    /// hasher that never holds the text (a trace id hashes a request's
    /// compact form this way).
    pub fn write_compact<W: Write>(&self, out: &mut W) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => out.write_str(if *b { "true" } else { "false" }),
            Json::Int(v) => write!(out, "{v}"),
            Json::UInt(v) => write!(out, "{v}"),
            // Shortest roundtrip form; integral floats keep a ".0" so the
            // value stays typed as a number with decimals.
            Json::Float(v) if v.is_finite() && v.fract() == 0.0 && v.abs() < 1e15 => {
                write!(out, "{v:.1}")
            }
            Json::Float(v) if v.is_finite() => write!(out, "{v}"),
            // JSON has no NaN/Inf; serde_json errors, we degrade.
            Json::Float(_) => out.write_str("null"),
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    item.write_compact(out)?;
                }
                out.write_char(']')
            }
            Json::Object(fields) => {
                out.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    write_escaped(out, k)?;
                    out.write_char(':')?;
                    v.write_compact(out)?;
                }
                out.write_char('}')
            }
        }
    }

    /// Parse a JSON document (the full input must be one value plus
    /// optional trailing whitespace). Integers without fraction/exponent
    /// parse to `UInt`/`Int`; everything else numeric parses to `Float` —
    /// the same split the emitter produces, so emit → parse round-trips.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data"));
        }
        Ok(v)
    }

    /// Object field lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string value if this is a string.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a u64 if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(v) => Some(v),
            Json::Int(v) if v >= 0 => Some(v as u64),
            _ => None,
        }
    }

    /// The value as an f64 if it is any kind of number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::UInt(v) => Some(v as f64),
            Json::Int(v) => Some(v as f64),
            Json::Float(v) => Some(v),
            _ => None,
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    let _ = write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            // Scalars print identically in both forms.
            scalar => {
                let _ = scalar.write_compact(out);
            }
        }
    }
}

fn push_indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

/// Write `s` as a JSON string literal. Only ASCII bytes are escaped, so the
/// text between two escapes (non-ASCII characters included) is copied as
/// one run.
fn write_escaped<W: Write>(out: &mut W, s: &str) -> fmt::Result {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.write_char('"')?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "\\u00",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        out.write_str(escape)?;
        if escape == "\\u00" {
            out.write_char(HEX[usize::from(b >> 4)] as char)?;
            out.write_char(HEX[usize::from(b & 0xf)] as char)?;
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

/// A parse failure, carrying the byte offset at which it was detected so
/// callers can point at the malformed region of the document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub message: String,
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    /// An error positioned at the current cursor.
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
            offset: self.pos,
        }
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{}`, found {:?}",
                b as char,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(self.err(format!("unexpected {:?}", other.map(|c| c as char)))),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| JsonError {
                    message: "invalid UTF-8 in string".to_string(),
                    offset: start,
                })?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err(format!("bad \\u escape `{hex}`")))?;
                            self.pos += 4;
                            // Surrogate pairs are not emitted by our writer;
                            // map lone surrogates to the replacement char.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(self.err(format!("bad escape `\\{}`", other as char))),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>().map(Json::Float).map_err(|_| JsonError {
            message: format!("bad number `{text}`"),
            offset: start,
        })
    }
}

/// Conversion into a [`Json`] tree.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

macro_rules! impl_tojson_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::UInt(*self as u64)
            }
        }
    )*};
}
macro_rules! impl_tojson_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i64)
            }
        }
    )*};
}
impl_tojson_uint!(u8, u16, u32, u64, usize);
impl_tojson_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Float(*self as f64)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson, E: ToJson> ToJson for Result<T, E> {
    fn to_json(&self) -> Json {
        match self {
            Ok(v) => Json::obj(vec![("Ok", v.to_json())]),
            Err(e) => Json::obj(vec![("Err", e.to_json())]),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_strings_render() {
        assert_eq!(42u64.to_json().to_pretty(), "42");
        assert_eq!((-3i32).to_json().to_pretty(), "-3");
        assert_eq!(1.5f64.to_json().to_pretty(), "1.5");
        assert_eq!(2.0f64.to_json().to_pretty(), "2.0");
        assert_eq!("a\"b\n".to_json().to_pretty(), r#""a\"b\n""#);
    }

    #[test]
    fn escapes_sit_between_verbatim_runs() {
        let s = "\"lead run µ\u{1f}\\\\tail ✓\t\r\n\u{0}x\u{7f}\"";
        let want = "\"\\\"lead run µ\\u001f\\\\\\\\tail ✓\\t\\r\\n\\u0000x\u{7f}\\\"\"";
        assert_eq!(s.to_json().to_compact(), want);
        assert_eq!(Json::parse(want).unwrap().as_str(), Some(s));
        assert_eq!("".to_json().to_compact(), r#""""#);
        assert_eq!("plain".to_json().to_compact(), r#""plain""#);
    }

    #[test]
    fn nested_structure_pretty_prints() {
        let v = Json::obj(vec![
            ("name", "vecadd".to_json()),
            ("cells", vec![1u64, 2].to_json()),
            ("empty", Json::Array(vec![])),
        ]);
        let s = v.to_pretty();
        assert!(s.starts_with("{\n  \"name\": \"vecadd\""), "{s}");
        assert!(s.contains("\"cells\": [\n    1,\n    2\n  ]"), "{s}");
        assert!(s.contains("\"empty\": []"), "{s}");
    }

    #[test]
    fn result_uses_externally_tagged_form() {
        let ok: Result<u64, String> = Ok(7);
        let err: Result<u64, String> = Err("boom".into());
        assert_eq!(ok.to_json().to_pretty(), "{\n  \"Ok\": 7\n}");
        assert_eq!(err.to_json().to_pretty(), "{\n  \"Err\": \"boom\"\n}");
    }

    #[test]
    fn option_and_nonfinite_degrade_to_null() {
        let none: Option<u32> = None;
        assert_eq!(none.to_json().to_pretty(), "null");
        assert_eq!(f64::NAN.to_json().to_pretty(), "null");
    }

    #[test]
    fn parse_round_trips_emitter_output() {
        let v = Json::obj(vec![
            ("name", "vecadd".to_json()),
            ("count", 42u64.to_json()),
            ("delta", (-3i32).to_json()),
            ("ratio", 1.5f64.to_json()),
            ("flag", true.to_json()),
            ("nothing", Json::Null),
            ("cells", vec![1u64, 2].to_json()),
            ("empty", Json::Array(vec![])),
            ("nested", Json::obj(vec![("s", "a\"b\n\t\\".to_json())])),
        ]);
        assert_eq!(Json::parse(&v.to_pretty()).unwrap(), v);
    }

    #[test]
    fn compact_form_is_one_line_and_round_trips() {
        let v = Json::obj(vec![
            ("id", 7u64.to_json()),
            ("label", "Vecadd/vortex".to_json()),
            ("walls", vec![0.5f64, 1.25].to_json()),
            ("empty_obj", Json::Object(vec![])),
            ("nested", Json::obj(vec![("ok", true.to_json())])),
        ]);
        let line = v.to_compact();
        assert!(!line.contains('\n'));
        assert!(!line.contains(' '), "no padding anywhere: {line}");
        assert_eq!(
            line,
            r#"{"id":7,"label":"Vecadd/vortex","walls":[0.5,1.25],"empty_obj":{},"nested":{"ok":true}}"#
        );
        assert_eq!(Json::parse(&line).unwrap(), v);
    }

    #[test]
    fn parse_handles_compact_and_spaced_forms() {
        let v = Json::parse(r#"{"a":[1,2.5,-3,true,false,null],"b":{}}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap(),
            &[
                Json::UInt(1),
                Json::Float(2.5),
                Json::Int(-3),
                Json::Bool(true),
                Json::Bool(false),
                Json::Null
            ]
        );
        assert_eq!(v.get("b"), Some(&Json::Object(vec![])));
        let spaced = Json::parse(" [ 1 , \"x\" ] ").unwrap();
        assert_eq!(
            spaced,
            Json::Array(vec![Json::UInt(1), Json::Str("x".into())])
        );
    }

    #[test]
    fn parse_unicode_and_number_edges() {
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9 é\"").unwrap(),
            Json::Str("Aé é".into())
        );
        assert_eq!(Json::parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::UInt(u64::MAX)
        );
        assert_eq!(
            Json::parse("-9223372036854775808").unwrap(),
            Json::Int(i64::MIN)
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,", "tru", "\"abc", "{\"a\" 1}", "1 2", "[1]]"] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parse_errors_carry_byte_offsets() {
        // (input, offset where the parser should point)
        let cases = [
            ("[1, x]", 4),     // unexpected value
            ("{\"a\": 1,", 8), // truncated object
            ("\"ab", 3),       // unterminated string
            ("\"a\\", 3),      // unterminated escape
            ("\"a\\q\"", 4),   // bad escape
            ("\"a\\u00\"", 4), // truncated \u escape
            ("[1] 2", 4),      // trailing data
            ("nul", 0),        // invalid literal
        ];
        for (input, offset) in cases {
            let e = Json::parse(input).unwrap_err();
            assert_eq!(e.offset, offset, "{input:?}: {e}");
            assert!(e.to_string().contains(&format!("at byte {offset}")));
        }
    }

    #[test]
    fn accessors_select_by_type() {
        let v = Json::parse(r#"{"n": 7, "s": "hi", "f": 2.5}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.get("s").unwrap().as_u64(), None);
    }
}
