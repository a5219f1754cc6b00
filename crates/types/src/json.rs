//! Minimal JSON value type, pull reader, and writer.
//!
//! The dataset (de)serialization layer used to lean on `serde_json`; the
//! build environment vendors no external crates, so this module provides
//! the small JSON subset the JSONL corpus format, the serving protocol
//! and the model artifact need. Numbers are `f64` and are written with
//! Rust's shortest-round-trip `Display`, so `f64` values survive a
//! save/load cycle bit-for-bit.
//!
//! [`Reader`] is the one parser: a pull reader that walks the text once,
//! token by token, in time linear in its length. The grammar lives there
//! alone (the number rule, string escapes and surrogate pairs, and the
//! `json error at byte N` messages). Every typed input is decoded
//! straight from it with no tree in between: request frames
//! (`parse_frame` in `fis-serve`), corpus lines ([`Building::read`]),
//! scans ([`SignalSample::read`]) and the model artifact
//! (`FittedModel::from_json_str` in `fis-core`). [`Reader::decode`] keeps
//! such decoders faithful to a tree: the first syntax error wins, a shape
//! error waits until the whole text has parsed, and a later duplicate key
//! replaces an earlier one.
//!
//! [`Json`] is the value type for encoding and for small untyped
//! objects: a frame's `id` and `trace`, the corpus header, a model's
//! config, the journal lines `trace summarize` reads, and the benchmark
//! reports. [`Json::parse`] is a thin loop over [`Reader::value`]; frames
//! and corpus lines never go through it.
//!
//! [`Building::read`]: crate::Building::read
//! [`SignalSample::read`]: crate::SignalSample::read

use std::borrow::Cow;
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
        let mut reader = Reader::new(text);
        let value = reader.value()?;
        reader.finish()?;
        Ok(value)
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
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
        self.get(key).ok_or_else(|| missing_field(key))
    }

    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }
}

/// The error for a required object field that is absent, shared by
/// [`Json::field`] and the [`Reader`]-based decoders.
pub fn missing_field(key: &str) -> TypeError {
    TypeError::Io(format!("missing field `{key}`"))
}

#[cold]
fn err(pos: usize, msg: &str) -> TypeError {
    TypeError::Io(format!("json error at byte {pos}: {msg}"))
}

/// The end of the run of at least one ASCII digit at `start`.
#[inline]
fn digits(bytes: &[u8], start: usize) -> Result<usize, TypeError> {
    let run = bytes[start.min(bytes.len())..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    if run == 0 {
        return Err(err(start, "expected a digit in number"));
    }
    Ok(start + run)
}

/// The kind of the next value a [`Reader`] holds, judged by its first
/// byte. Anything that starts no other kind is a [`Kind::Num`], so the
/// number rule reports the error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`
    Null,
    /// `true` / `false`
    Bool,
    /// A number (or a syntax error).
    Num,
    /// A string.
    Str,
    /// An array.
    Arr,
    /// An object.
    Obj,
}

/// Where a [`Reader`] is inside one array or object: before its first
/// entry or after one. Returned by [`Reader::array`] and
/// [`Reader::object`].
#[derive(Debug, Clone, Copy)]
pub struct Seq {
    first: bool,
}

/// A pull reader over one JSON text: each call consumes the next token,
/// so a decoder walks the text once, straight into its own types, with
/// no [`Json`] tree in between. [`Json::parse`] is built on it, so both
/// share one grammar and one set of `json error at byte N` messages.
///
/// ```
/// use fis_types::json::{Kind, Reader};
///
/// let mut r = Reader::new(r#"{"xs":[1,2.5],"skip":{"a":null}}"#);
/// let (mut xs, mut fields) = (Vec::new(), r.object()?);
/// while let Some(key) = r.next_key(&mut fields)? {
///     if key == "xs" {
///         let mut items = r.array()?;
///         while r.next_item(&mut items)? {
///             xs.push(r.num()?);
///         }
///     } else {
///         r.skip()?;
///     }
/// }
/// r.finish()?;
/// assert_eq!(xs, [1.0, 2.5]);
/// # Ok::<(), fis_types::TypeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Self { text, pos: 0 }
    }

    #[inline]
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    #[inline]
    fn skip_ws(&mut self) {
        let bytes = self.bytes();
        while self.pos < bytes.len() && matches!(bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r') {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect(&mut self, ch: u8) -> Result<(), TypeError> {
        if self.bytes().get(self.pos) == Some(&ch) {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(self.pos, &format!("expected `{}`", ch as char)))
        }
    }

    /// The kind of the next value, without consuming it.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::Io`] at the end of the input.
    #[inline]
    pub fn peek(&mut self) -> Result<Kind, TypeError> {
        self.skip_ws();
        Ok(match self.bytes().get(self.pos) {
            None => return Err(err(self.pos, "unexpected end of input")),
            Some(b'{') => Kind::Obj,
            Some(b'[') => Kind::Arr,
            Some(b'"') => Kind::Str,
            Some(b't' | b'f') => Kind::Bool,
            Some(b'n') => Kind::Null,
            Some(_) => Kind::Num,
        })
    }

    /// Reads the next value as a [`Json`] tree.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::Io`] describing the first syntax error.
    pub fn value(&mut self) -> Result<Json, TypeError> {
        Ok(match self.peek()? {
            Kind::Null => self.literal("null", Json::Null)?,
            Kind::Bool if self.bytes()[self.pos] == b'f' => {
                self.literal("false", Json::Bool(false))?
            }
            Kind::Bool => self.literal("true", Json::Bool(true))?,
            Kind::Num => Json::Num(self.num()?),
            Kind::Str => Json::Str(self.str()?.into_owned()),
            Kind::Arr => {
                let (mut items, mut seq) = (Vec::new(), self.array()?);
                while self.next_item(&mut seq)? {
                    items.push(self.value()?);
                }
                Json::Arr(items)
            }
            Kind::Obj => {
                let (mut map, mut seq) = (BTreeMap::new(), self.object()?);
                while let Some(key) = self.next_key(&mut seq)? {
                    let value = self.value()?;
                    map.insert(key.into_owned(), value);
                }
                Json::Obj(map)
            }
        })
    }

    /// Consumes the next value, checking its syntax but keeping nothing.
    /// Decoders call it on the rare values they do not want (unknown
    /// keys, wrongly typed values), so it simply drops a [`Json`] tree.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::Io`] describing the first syntax error.
    pub fn skip(&mut self) -> Result<(), TypeError> {
        self.value().map(drop)
    }

    /// Reads the next value with `read`, keeping a *shape* error apart
    /// from a *syntax* error. If `read` fails, the value is read again
    /// from its start with [`Reader::skip`]: a syntax error there is
    /// returned as `Err`, exactly as [`Json::parse`] would report it;
    /// if the value is well-formed, `read`'s own error comes back as
    /// `Ok(Err(_))` with the reader past the value. A decoder can hold
    /// that error in a field slot and raise it only after the whole text
    /// parsed, so a later duplicate key replaces it, as in a [`Json::Obj`].
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::Io`] describing the first syntax error in
    /// the value.
    pub fn decode<T, E>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, E>,
    ) -> Result<Result<T, E>, TypeError> {
        let start = self.pos;
        match read(self) {
            Ok(value) => Ok(Ok(value)),
            Err(e) => {
                self.pos = start;
                self.skip()?;
                Ok(Err(e))
            }
        }
    }

    fn literal<T>(&mut self, lit: &str, value: T) -> Result<T, TypeError> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(err(self.pos, &format!("expected `{lit}`")))
        }
    }

    /// Reads a number per the JSON grammar
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, rejecting
    /// values that overflow to infinity (the writer never emits them).
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::Io`] if the next value is not such a number.
    #[inline]
    pub fn num(&mut self) -> Result<f64, TypeError> {
        self.skip_ws();
        let bytes = self.bytes();
        let start = self.pos;
        let mut pos = start;
        if bytes.get(pos) == Some(&b'-') {
            pos += 1;
        }
        match bytes.get(pos) {
            Some(b'0') => pos += 1,
            Some(b'1'..=b'9') => pos = digits(bytes, pos)?,
            _ => return Err(err(pos, "expected a digit in number")),
        }
        if bytes.get(pos) == Some(&b'.') {
            pos = digits(bytes, pos + 1)?;
        }
        if matches!(bytes.get(pos), Some(b'e' | b'E')) {
            pos += 1;
            if matches!(bytes.get(pos), Some(b'+' | b'-')) {
                pos += 1;
            }
            pos = digits(bytes, pos)?;
        }
        self.pos = pos;
        let literal = &self.text[start..pos];
        match literal.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(n),
            _ => Err(err(start, &format!("number `{literal}` out of range"))),
        }
    }

    /// Reads a string, borrowed from the text unless it holds an escape.
    ///
    /// Linear in the string's length: each run of bytes up to the next
    /// `"` or `\` is taken as one slice. Both delimiters are ASCII, so
    /// run boundaries are always char boundaries of the (already valid
    /// UTF-8) input.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::Io`] if the next value is not a well-formed
    /// string.
    #[inline]
    pub fn str(&mut self) -> Result<Cow<'a, str>, TypeError> {
        self.skip_ws();
        self.expect(b'"')?;
        let text = self.text;
        let bytes = self.bytes();
        let mut out = String::new();
        loop {
            let run = bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| err(bytes.len(), "unterminated string"))?;
            let slice = &text[self.pos..self.pos + run];
            self.pos += run;
            if bytes[self.pos] == b'"' {
                self.pos += 1;
                if out.is_empty() {
                    return Ok(Cow::Borrowed(slice));
                }
                out.push_str(slice);
                return Ok(Cow::Owned(out));
            }
            out.push_str(slice);
            self.pos += 1;
            let escape = *bytes
                .get(self.pos)
                .ok_or_else(|| err(self.pos, "unterminated escape"))?;
            self.pos += 1;
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
                    let code = self.hex4()?;
                    let scalar = if (0xD800..0xDC00).contains(&code) {
                        // High surrogate: a \uXXXX low surrogate must
                        // follow (standard JSON pair encoding).
                        if bytes.get(self.pos) != Some(&b'\\')
                            || bytes.get(self.pos + 1) != Some(&b'u')
                        {
                            return Err(err(self.pos, "high surrogate not followed by \\u"));
                        }
                        self.pos += 2;
                        let low = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&low) {
                            return Err(err(self.pos, "invalid low surrogate"));
                        }
                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                    } else if (0xDC00..0xE000).contains(&code) {
                        return Err(err(self.pos, "unpaired low surrogate"));
                    } else {
                        code
                    };
                    out.push(
                        char::from_u32(scalar)
                            .ok_or_else(|| err(self.pos, "invalid unicode escape"))?,
                    );
                }
                other => return Err(err(self.pos, &format!("bad escape `\\{}`", other as char))),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, TypeError> {
        let hex = self
            .bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| err(self.pos, "truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| err(self.pos, "bad \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| err(self.pos, "bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Enters an array: consumes its `[`. Walk its items with
    /// [`Reader::next_item`].
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::Io`] if the next value is not an array.
    #[inline]
    pub fn array(&mut self) -> Result<Seq, TypeError> {
        self.skip_ws();
        self.expect(b'[')?;
        Ok(Seq { first: true })
    }

    /// Moves to the array's next item: `true` if one follows (read it
    /// next), `false` once the closing `]` is consumed.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::Io`] if neither an item nor the end follows.
    #[inline]
    pub fn next_item(&mut self, seq: &mut Seq) -> Result<bool, TypeError> {
        self.skip_ws();
        let next = self.bytes().get(self.pos).copied();
        if next == Some(b']') {
            self.pos += 1;
            return Ok(false);
        }
        if std::mem::take(&mut seq.first) {
            return Ok(true);
        }
        if next == Some(b',') {
            self.pos += 1;
            return Ok(true);
        }
        Err(err(self.pos, "expected `,` or `]` in array"))
    }

    /// Reads a whole array, each item with `item`; `not_array()` when
    /// the next value is not an array (it is left unread, so
    /// [`Reader::decode`] skips it).
    ///
    /// # Errors
    ///
    /// Returns a syntax error, `not_array()`, or the first error `item`
    /// returns.
    pub fn array_of<T, E: From<TypeError>>(
        &mut self,
        not_array: impl FnOnce() -> E,
        mut item: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        if self.peek()? != Kind::Arr {
            return Err(not_array());
        }
        let (mut out, mut items) = (Vec::new(), self.array()?);
        while self.next_item(&mut items)? {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Enters an object: consumes its `{`. Walk its fields with
    /// [`Reader::next_key`].
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::Io`] if the next value is not an object.
    #[inline]
    pub fn object(&mut self) -> Result<Seq, TypeError> {
        self.skip_ws();
        self.expect(b'{')?;
        Ok(Seq { first: true })
    }

    /// Moves to the object's next field: its key, with the `:` after it
    /// consumed (read the value next), or `None` once the closing `}`
    /// is consumed.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::Io`] if neither a field nor the end follows.
    pub fn next_key(&mut self, seq: &mut Seq) -> Result<Option<Cow<'a, str>>, TypeError> {
        self.skip_ws();
        let next = self.bytes().get(self.pos).copied();
        if next == Some(b'}') {
            self.pos += 1;
            return Ok(None);
        }
        if !std::mem::take(&mut seq.first) {
            if next != Some(b',') {
                return Err(err(self.pos, "expected `,` or `}` in object"));
            }
            self.pos += 1;
        }
        let key = self.str()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Ends the document: only whitespace may follow the value read.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::Io`] on trailing characters.
    pub fn finish(mut self) -> Result<(), TypeError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(err(self.pos, "trailing characters after JSON value"));
        }
        Ok(())
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
    fn reader_decode_keeps_shape_errors_apart_from_syntax_errors() {
        let numbers = |r: &mut Reader| -> Result<Vec<f64>, &'static str> {
            let mut items = r.array().map_err(|_| "not an array")?;
            let mut out = Vec::new();
            while r.next_item(&mut items).map_err(|_| "syntax")? {
                match r.peek().map_err(|_| "syntax")? {
                    Kind::Num => out.push(r.num().map_err(|_| "syntax")?),
                    _ => return Err("not a number"),
                }
            }
            Ok(out)
        };
        // A well-formed value of the wrong shape: the decoder's error,
        // with the reader past the value.
        let mut r = Reader::new(r#"[[1,"x",{"a":[]}],[2]]"#);
        let mut items = r.array().unwrap();
        assert!(r.next_item(&mut items).unwrap());
        assert_eq!(r.decode(numbers).unwrap(), Err("not a number"));
        assert!(r.next_item(&mut items).unwrap());
        assert_eq!(r.decode(numbers).unwrap(), Ok(vec![2.0]));
        assert!(!r.next_item(&mut items).unwrap());
        r.finish().unwrap();
        // A syntax error anywhere in the value, even past a shape error:
        // exactly what `Json::parse` reports.
        for text in [r#"[1,"x",]"#, r#"[1,2"#, r#"[1,"x" 2]"#, "[1,01]"] {
            let got = Reader::new(text).decode(numbers).unwrap_err();
            assert_eq!(got, Json::parse(text).unwrap_err(), "{text}");
        }
        // Strings borrow from the text unless they hold an escape.
        let mut r = Reader::new(r#"["plain","esc\u0041ped"]"#);
        let mut items = r.array().unwrap();
        r.next_item(&mut items).unwrap();
        assert!(matches!(r.str().unwrap(), Cow::Borrowed("plain")));
        r.next_item(&mut items).unwrap();
        assert!(matches!(r.str().unwrap(), Cow::Owned(s) if s == "escAped"));
    }

    #[test]
    fn as_usize_guards_fractions_and_negatives() {
        assert_eq!(Json::Num(3.0).as_usize(), Some(3));
        assert_eq!(Json::Num(3.5).as_usize(), None);
        assert_eq!(Json::Num(-1.0).as_usize(), None);
    }
}
