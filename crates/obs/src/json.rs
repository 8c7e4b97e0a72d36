//! A minimal JSON document model and serializer.
//!
//! The manifest must be machine-readable without pulling serde_json into a
//! zero-dependency crate, so this is the smallest faithful writer: exact
//! integers for counters (`u64` survives round-trips that `f64` would
//! corrupt), standard escaping, and stable key order (insertion order —
//! callers build from sorted maps where determinism matters).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer, serialized exactly.
    U64(u64),
    /// Signed integer, serialized exactly.
    I64(i64),
    /// Floating point; non-finite values serialize as `null`.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert/overwrite a key on an object (panics on non-objects).
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Json {
        let Json::Obj(fields) = self else {
            panic!("Json::set on a non-object");
        };
        let value = value.into();
        match fields.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => fields.push((key.to_string(), value)),
        }
        self
    }

    /// Look up a key on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value as `f64` (integers convert; strings/other → `None`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            Json::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// Value as `u64` (only for non-negative integers).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            Json::I64(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object fields in document order.
    pub fn entries(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Parse a JSON document. This is the read half the writer above has
    /// always implied: round-trip tests, the benchmark's `compare`, and
    /// manifest-diff tooling all need to load documents this crate (or
    /// any standards-compliant writer) produced. Numbers parse to the
    /// narrowest faithful variant: non-negative integers → `U64`,
    /// negative integers → `I64`, everything else → `F64`. Containers
    /// nested deeper than `MAX_DEPTH` are an error: the parser recurses
    /// per level, and the text may be a damaged file.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Render with 2-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) => {
                if x.is_finite() {
                    // {:?} prints the shortest representation that
                    // round-trips, always with a decimal point or exponent.
                    let _ = write!(out, "{x:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d)
                });
            }
            Json::Obj(fields) => {
                write_seq(out, indent, depth, '{', '}', fields.len(), |out, i, d| {
                    let (k, v) = &fields[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, d);
                });
            }
        }
    }
}

/// Compact serialization; `Json::to_string()` comes from this impl.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(w * depth));
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Deepest container nesting [`Json::parse`] accepts. The deepest document
/// this workspace writes — a checkpoint with attribution rows — nests 6.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse one container, refusing to recurse past [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // surrogate pair: expect \uDC00..\uDFFF
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("bad low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(c)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?,
                            );
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or escape and
                    // validate it once. Neither delimiter byte can occur
                    // inside a multi-byte UTF-8 scalar, so the run ends on
                    // a scalar boundary.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.err(&format!("bad number '{text}'")))
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(v.into())
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::I64(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}
impl<T: Into<Json> + Clone> From<&BTreeMap<String, T>> for Json {
    fn from(m: &BTreeMap<String, T>) -> Json {
        Json::Obj(m.iter().map(|(k, v)| (k.clone(), v.clone().into())).collect())
    }
}

/// Hand `decode` every single-byte damage of `sample`: cut short at each
/// offset, with the byte there deleted, and with it replaced by each of a
/// few bytes a JSON reader branches on (every 7th offset past 2 KB).
/// What `decode` makes of a variant is its business, except that it must
/// return: a panic fails the sweep, naming the variant.
///
/// Public because every reader of bytes the process wrote earlier — here,
/// in `sos-probe`, `sos-core`, `seeds` and `sos-lint` — runs the same
/// sweep from its own tests.
pub fn single_byte_damage(sample: &[u8], mut decode: impl FnMut(&[u8])) {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let mut at = 0;
    while at < sample.len() {
        let cut = sample[..at].to_vec();
        let deleted = [&sample[..at], &sample[at + 1..]].concat();
        let replaced = b"\"{[,9-e\0\xFF".iter().map(|&byte| {
            let mut variant = sample.to_vec();
            variant[at] = byte;
            variant
        });
        for (n, variant) in [cut, deleted].into_iter().chain(replaced).enumerate() {
            if catch_unwind(AssertUnwindSafe(|| decode(&variant))).is_err() {
                panic!("variant {n} at byte {at} of {} panicked the decoder", sample.len());
            }
        }
        at += if at < 2048 { 1 } else { 7 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_serialize() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::U64(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(Json::I64(-3).to_string(), "-3");
        assert_eq!(Json::F64(0.5).to_string(), "0.5");
        assert_eq!(Json::F64(f64::NAN).to_string(), "null");
        assert_eq!(Json::F64(2.0).to_string(), "2.0", "floats keep a decimal point");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(Json::Str("a\"b\\c\nd\u{1}".into()).to_string(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn objects_keep_insertion_order_and_overwrite() {
        let mut o = Json::obj();
        o.set("b", 1u64).set("a", 2u64).set("b", 3u64);
        assert_eq!(o.to_string(), r#"{"b":3,"a":2}"#);
        assert_eq!(o.get("a"), Some(&Json::U64(2)));
        assert_eq!(o.get("missing"), None);
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let mut o = Json::obj();
        o.set("u", u64::MAX)
            .set("i", -42i64)
            .set("f", 0.25)
            .set("s", "a\"b\\c\nd\u{1}é")
            .set("b", true)
            .set("n", Json::Null)
            .set("xs", vec![1u64, 2, 3]);
        for text in [o.to_string(), o.to_string_pretty()] {
            let back = Json::parse(&text).expect("parses");
            assert_eq!(back, o, "round trip through {text}");
        }
    }

    #[test]
    fn parse_number_variants() {
        assert_eq!(Json::parse("18446744073709551615"), Ok(Json::U64(u64::MAX)));
        assert_eq!(Json::parse("-7"), Ok(Json::I64(-7)));
        assert_eq!(Json::parse("1.5e3"), Ok(Json::F64(1500.0)));
        assert_eq!(Json::parse("0"), Ok(Json::U64(0)));
    }

    #[test]
    fn parse_unicode_escapes() {
        assert_eq!(Json::parse(r#""\u0041""#), Ok(Json::Str("A".into())));
        // surrogate pair for U+1F600, plus literal multibyte chars
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#),
            Ok(Json::Str("\u{1F600}".into()))
        );
        assert_eq!(Json::parse(r#""\u00e9x""#), Ok(Json::Str("\u{e9}x".into())));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone high surrogate");
    }

    /// The string scanner copies runs between delimiters; a run boundary
    /// next to a 2-, 3- or 4-byte scalar must not split or drop it.
    #[test]
    fn parse_keeps_multibyte_scalars_adjacent_to_escapes() {
        let s = "é\"€\\😀\né\u{1}€\t😀";
        for text in [Json::Str(s.into()).to_string(), format!("[{}]", Json::Str(s.into()))] {
            let back = Json::parse(&text).expect("parses");
            let got = back.as_str().or_else(|| back.as_arr()?.first()?.as_str());
            assert_eq!(got, Some(s), "round trip through {text}");
        }
        assert_eq!(
            Json::parse("\"😀\\u00e9€\\\\é\""),
            Ok(Json::Str("😀é€\\é".into()))
        );
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2", "{\"a\":1,}"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    /// The parser recurses once per open container; text from a damaged
    /// file must not be able to run it out of stack.
    #[test]
    fn parse_refuses_nesting_past_the_bound() {
        let arrays = "[".repeat(100_000);
        let objects = "{\"a\":".repeat(100_000);
        let mixed = "[{\"a\":".repeat(50_000);
        for deep in [&arrays, &objects, &mixed] {
            let err = Json::parse(deep).expect_err("deeper than the bound");
            assert!(err.contains("nesting deeper than 128"), "{err}");
            // The same text as a journal line.
            assert!(crate::journal::Record::parse_line(deep).is_err());
        }
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_bound).is_ok(), "{MAX_DEPTH} deep parses");
        let past_bound = format!("[{at_bound}]");
        assert!(Json::parse(&past_bound).is_err());
        // Depth is what is open at one point, not what the document opened.
        let wide = format!("[{}]", vec![at_bound[1..at_bound.len() - 1].to_string(); 4].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    /// ROADMAP 6a for the parser itself, over a document with every kind
    /// of value: damage parses to something or is refused, never panics.
    #[test]
    fn single_byte_damage_never_panics_the_parser() {
        let mut o = Json::obj();
        o.set("u", u64::MAX)
            .set("i", -42i64)
            .set("f", 1.5e-3)
            .set("s", "a\"b\\c\nd\u{1}é€😀")
            .set("b", true)
            .set("n", Json::Null)
            .set("xs", vec![1u64, 2, 3])
            .set("o", Json::obj());
        for sample in [o.to_string(), o.to_string_pretty(), r#"["\ud83d\ude00\u00e9"]"#.to_string()] {
            assert!(Json::parse(&sample).is_ok(), "{sample}");
            single_byte_damage(sample.as_bytes(), |damaged| {
                let _ = Json::parse(&String::from_utf8_lossy(damaged));
            });
        }
    }

    #[test]
    fn accessors_narrow_types() {
        let doc = Json::parse(r#"{"n": 3, "x": 1.5, "s": "hi", "xs": [1]}"#).unwrap();
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.get("n").and_then(Json::as_f64), Some(3.0));
        assert_eq!(doc.get("x").and_then(Json::as_f64), Some(1.5));
        assert_eq!(doc.get("x").and_then(Json::as_u64), None);
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("hi"));
        assert_eq!(doc.get("xs").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        assert_eq!(doc.entries().map(<[(String, Json)]>::len), Some(4));
    }

    #[test]
    fn pretty_printing_nests() {
        let mut o = Json::obj();
        o.set("xs", vec![1u64, 2]);
        assert_eq!(o.to_string_pretty(), "{\n  \"xs\": [\n    1,\n    2\n  ]\n}");
        assert_eq!(Json::obj().to_string_pretty(), "{}");
    }
}
