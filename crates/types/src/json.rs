//! Minimal JSON value type, parser, and writer.
//!
//! The dataset (de)serialization layer used to lean on `serde_json`; the
//! build environment vendors no external crates, so this module provides
//! the small JSON subset the JSONL corpus format needs. Numbers are
//! `f64` and are written with Rust's shortest-round-trip `Display`, so
//! `f64` values survive a save/load cycle bit-for-bit.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::TypeError;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A number known to be exactly representable in `f32`, written with
    /// `f32`'s shortest-round-trip `Display` (≈9 significant digits
    /// instead of ≈17). This is what makes the compact `f32` model
    /// artifacts actually smaller on disk: printing an f32-valued number
    /// through `f64` would re-expand every mantissa.
    ///
    /// Write-side only: [`Json::parse`] always produces [`Json::Num`].
    /// The printed text is the *shortest* decimal that rounds to the f32,
    /// so re-parsing it as `f64` does not in general equal
    /// `f64::from(x)` — readers of f32-encoded fields must narrow first
    /// (`value as f32 as f64`) to recover the exact stored value.
    F32(f32),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys are sorted (BTreeMap) so output is deterministic.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses one JSON document, rejecting trailing garbage.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::Io`] describing the first syntax error.
    pub fn parse(text: &str) -> Result<Json, TypeError> {
        let mut pos = 0;
        let value = parse_value(text, &mut pos)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(err(pos, "trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number (widening [`Json::F32`]).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::F32(n) => Some(f64::from(*n)),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= usize::MAX as f64 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Looks up a key, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Fetches a required object field, with a descriptive error.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::Io`] naming the missing field.
    pub fn field(&self, key: &str) -> Result<&Json, TypeError> {
        self.get(key)
            .ok_or_else(|| TypeError::Io(format!("missing field `{key}`")))
    }

    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }
}

fn err(pos: usize, msg: &str) -> TypeError {
    TypeError::Io(format!("json error at byte {pos}: {msg}"))
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), TypeError> {
    if *pos < bytes.len() && bytes[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected `{}`", ch as char)))
    }
}

fn parse_value(text: &str, pos: &mut usize) -> Result<Json, TypeError> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(text, pos),
        Some(b'[') => parse_array(text, pos),
        Some(b'"') => parse_string(text, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(text, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, TypeError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(*pos, &format!("expected `{lit}`")))
    }
}

/// Parses a number per the JSON grammar
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, rejecting
/// values that overflow to infinity (the writer never emits them).
fn parse_number(text: &str, pos: &mut usize) -> Result<Json, TypeError> {
    let bytes = text.as_bytes();
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => expect_digits(bytes, pos)?,
        _ => return Err(err(*pos, "expected a digit in number")),
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        expect_digits(bytes, pos)?;
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        expect_digits(bytes, pos)?;
    }
    let literal = &text[start..*pos];
    match literal.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(Json::Num(n)),
        _ => Err(err(start, &format!("number `{literal}` out of range"))),
    }
}

/// Consumes a run of at least one ASCII digit.
fn expect_digits(bytes: &[u8], pos: &mut usize) -> Result<(), TypeError> {
    let start = *pos;
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    if *pos == start {
        return Err(err(*pos, "expected a digit in number"));
    }
    Ok(())
}

/// Parses a string literal in time linear in its length: each run of
/// bytes up to the next `"` or `\` is copied as one slice. Both
/// delimiters are ASCII, so run boundaries are always char boundaries of
/// the (already valid UTF-8) input.
fn parse_string(text: &str, pos: &mut usize) -> Result<String, TypeError> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or_else(|| err(bytes.len(), "unterminated string"))?;
        out.push_str(&text[*pos..*pos + run]);
        *pos += run;
        if bytes[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
        *pos += 1;
        let escape = bytes
            .get(*pos)
            .ok_or_else(|| err(*pos, "unterminated escape"))?;
        *pos += 1;
        match escape {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{0008}'),
            b'f' => out.push('\u{000C}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let code = parse_hex4(bytes, pos)?;
                let scalar = if (0xD800..0xDC00).contains(&code) {
                    // High surrogate: a \uXXXX low surrogate must
                    // follow (standard JSON pair encoding).
                    if bytes.get(*pos) != Some(&b'\\') || bytes.get(*pos + 1) != Some(&b'u') {
                        return Err(err(*pos, "high surrogate not followed by \\u"));
                    }
                    *pos += 2;
                    let low = parse_hex4(bytes, pos)?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(err(*pos, "invalid low surrogate"));
                    }
                    0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                } else if (0xDC00..0xE000).contains(&code) {
                    return Err(err(*pos, "unpaired low surrogate"));
                } else {
                    code
                };
                out.push(
                    char::from_u32(scalar).ok_or_else(|| err(*pos, "invalid unicode escape"))?,
                );
            }
            other => return Err(err(*pos, &format!("bad escape `\\{}`", *other as char))),
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, TypeError> {
    let hex = bytes
        .get(*pos..*pos + 4)
        .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
    let hex = std::str::from_utf8(hex).map_err(|_| err(*pos, "bad \\u escape"))?;
    let code = u32::from_str_radix(hex, 16).map_err(|_| err(*pos, "bad \\u escape"))?;
    *pos += 4;
    Ok(code)
}

fn parse_array(text: &str, pos: &mut usize) -> Result<Json, TypeError> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(text, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(*pos, "expected `,` or `]` in array")),
        }
    }
}

fn parse_object(text: &str, pos: &mut usize) -> Result<Json, TypeError> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(text, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(err(*pos, "expected `,` or `}` in object")),
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if n.is_finite() {
                    // Rust's Display for f64 is shortest-round-trip.
                    write!(f, "{n}")
                } else {
                    // JSON has no Inf/NaN; degrade to null like serde_json.
                    write!(f, "null")
                }
            }
            Json::F32(n) => {
                if n.is_finite() {
                    // Shortest round-trip for f32: parsing the text back as
                    // f64 then narrowing to f32 recovers the exact value.
                    write!(f, "{n}")
                } else {
                    write!(f, "null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for ch in s.chars() {
        match ch {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

/// Types that can render themselves as a [`Json`] value.
pub trait ToJson {
    /// Converts to a JSON value.
    fn to_json(&self) -> Json;

    /// Serializes to a compact JSON string.
    fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }
}

/// Types that can be reconstructed from a [`Json`] value.
pub trait FromJson: Sized {
    /// Parses from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::Io`] when the value has the wrong shape and
    /// domain-specific errors when validation fails.
    fn from_json(value: &Json) -> Result<Self, TypeError>;

    /// Parses from a JSON string.
    ///
    /// # Errors
    ///
    /// See [`FromJson::from_json`].
    fn from_json_str(text: &str) -> Result<Self, TypeError> {
        Self::from_json(&Json::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e1").unwrap(), Json::Num(-25.0));
        for (text, value) in [
            ("0", 0.0f64),
            ("-0", -0.0),
            ("7", 7.0),
            ("-12.50", -12.5),
            ("1e5", 1e5),
            ("2E-3", 2e-3),
            ("0.5e+2", 50.0),
            ("1e-400", 0.0),
        ] {
            let parsed = Json::parse(text).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), value.to_bits(), "{text}");
        }
        assert_eq!(
            Json::parse("\"a\\nb\"").unwrap(),
            Json::Str("a\nb".to_owned())
        );
    }

    #[test]
    fn parse_nested_structures() {
        let v = Json::parse(r#"{"name":"x","items":[1,2,{"k":true}],"empty":[]}"#).unwrap();
        assert_eq!(v.field("name").unwrap().as_str(), Some("x"));
        let items = v.field("items").unwrap().as_arr().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[1].as_usize(), Some(2));
        assert_eq!(items[2].get("k"), Some(&Json::Bool(true)));
        assert_eq!(v.field("empty").unwrap().as_arr().unwrap().len(), 0);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("not json").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        // Numbers outside the JSON grammar, and ones that overflow f64
        // (the writer prints non-finite numbers as `null`).
        for text in [
            "+1", ".5", "1.", "01", "-01", "-", "1e", "1e+", "1.e5", "0x10", "1e400", "-1e400",
            "[1e999]", "Infinity", "NaN",
        ] {
            let e = Json::parse(text).unwrap_err().to_string();
            assert!(e.contains("json error at byte"), "{text}: {e}");
        }
    }

    /// Parsing must stay linear in the document size. A per-character
    /// re-validation of the remaining input turns this ~2.9 MB document
    /// into minutes of work; a linear parser needs milliseconds, even in
    /// a debug build, so the bound below is deliberately loose.
    #[test]
    fn multi_megabyte_documents_parse_in_linear_time() {
        let big = "ab中é".repeat(300_000);
        let macs: Vec<Json> = (0..40_000u64)
            .map(|i| {
                let b = (0x0200_0000_0000 + i).to_be_bytes();
                Json::Str(format!(
                    "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
                    b[2], b[3], b[4], b[5], b[6], b[7]
                ))
            })
            .collect();
        let doc = Json::obj([("big", Json::Str(big)), ("macs", Json::Arr(macs))]);
        let text = doc.to_string();
        assert!(text.len() > 2_500_000, "{} bytes", text.len());
        let started = std::time::Instant::now();
        let parsed = Json::parse(&text).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(parsed, doc);
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "parsing {} bytes took {elapsed:?}",
            text.len()
        );
    }

    #[test]
    fn display_round_trips() {
        let text = r#"{"a":[1,2.5,-3],"b":"he said \"hi\"","c":null,"d":false}"#;
        let v = Json::parse(text).unwrap();
        let printed = v.to_string();
        assert_eq!(Json::parse(&printed).unwrap(), v);
    }

    #[test]
    fn f64_round_trips_exactly() {
        for x in [0.1, -119.0, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300] {
            let printed = Json::Num(x).to_string();
            let back = Json::parse(&printed).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} reprinted as {printed}");
        }
    }

    #[test]
    fn unicode_survives() {
        let v = Json::Str("héllo ✓".to_owned());
        let back = Json::parse(&v.to_string()).unwrap();
        assert_eq!(back, v);
        // \u escapes parse too.
        assert_eq!(
            Json::parse("\"\\u0041\"").unwrap(),
            Json::Str("A".to_owned())
        );
        // Every escape, with multi-byte UTF-8 touching it on both sides,
        // decodes the same whether a copied run stops right before it or
        // not, and so does the writer's encoding of the decoded text.
        let escapes = [
            ("\\\"", "\""),
            ("\\\\", "\\"),
            ("\\/", "/"),
            ("\\b", "\u{0008}"),
            ("\\f", "\u{000C}"),
            ("\\n", "\n"),
            ("\\r", "\r"),
            ("\\t", "\t"),
            ("\\u0041", "A"),
            ("\\u00e9", "é"),
            ("\\ud83d\\ude00", "😀"),
        ];
        for wide in ["é", "中", "😀"] {
            for (escaped, decoded) in escapes {
                let text = format!("\"{wide}{escaped}{wide}{escaped}{escaped}x{wide}\"");
                let want = format!("{wide}{decoded}{wide}{decoded}{decoded}x{wide}");
                assert_eq!(
                    Json::parse(&text).unwrap(),
                    Json::Str(want.clone()),
                    "{text}"
                );
                let printed = Json::Str(want.clone()).to_string();
                assert_eq!(Json::parse(&printed).unwrap(), Json::Str(want), "{printed}");
            }
        }
        assert_eq!(Json::parse("\"\"").unwrap(), Json::Str(String::new()));
        assert_eq!(
            Json::parse(r#"["a\"b\\c", "", "\\", {"k\"":"\\\""}]"#).unwrap(),
            Json::Arr(vec![
                Json::Str("a\"b\\c".to_owned()),
                Json::Str(String::new()),
                Json::Str("\\".to_owned()),
                Json::obj([("k\"", Json::Str("\\\"".to_owned()))]),
            ])
        );
        for text in ["\"abc", "\"é中😀", "\"a\\nb", "[\"x\", \"y", "{\"k"] {
            let e = Json::parse(text).unwrap_err().to_string();
            assert!(e.contains("unterminated string"), "{text}: {e}");
        }
        let e = Json::parse("\"ab\\").unwrap_err().to_string();
        assert!(e.contains("unterminated escape"), "{e}");
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_error() {
        // 😀 U+1F600 encoded the standard JSON way.
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("😀".to_owned())
        );
        assert!(Json::parse("\"\\ud83d\"").is_err()); // unpaired high
        assert!(Json::parse("\"\\ude00\"").is_err()); // unpaired low
        assert!(Json::parse("\"\\ud83dx\"").is_err()); // high + garbage
    }

    #[test]
    fn f32_prints_short_and_round_trips_via_f64() {
        for x in [0.1f32, -87.25, 1.0 / 3.0, f32::MIN_POSITIVE, 3.4e38] {
            let printed = Json::F32(x).to_string();
            // Narrow-then-widen is the documented reader contract: the
            // shortest decimal for an f32 need not reparse to f64::from(x).
            let back = Json::parse(&printed).unwrap().as_f64().unwrap();
            assert_eq!((back as f32).to_bits(), x.to_bits(), "{x} -> {printed}");
        }
        // Model-artifact magnitudes (RSSI, unit embeddings) stay short;
        // Display never switches to scientific notation, so only moderate
        // values get the size win.
        for x in [0.1f32, -87.25, 1.0 / 3.0, -0.021470382] {
            let printed = Json::F32(x).to_string();
            assert!(
                printed.len() <= 12,
                "f32 {x} printed as {printed} ({} bytes)",
                printed.len()
            );
        }
        assert_eq!(Json::F32(f32::NAN).to_string(), "null");
    }

    #[test]
    fn as_usize_guards_fractions_and_negatives() {
        assert_eq!(Json::Num(3.0).as_usize(), Some(3));
        assert_eq!(Json::Num(3.5).as_usize(), None);
        assert_eq!(Json::Num(-1.0).as_usize(), None);
    }
}
