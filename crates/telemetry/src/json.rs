//! A minimal JSON document builder.
//!
//! [`JsonValue`] covers exactly what the scrape endpoint and the
//! examples' `--report` writers need: objects, arrays, strings, numbers
//! and booleans, with correct string escaping and deterministic member
//! order (members render in insertion order). [`scalar_fields`] and
//! [`histogram_summary`] render counter families and distributions the
//! same way in every report.
//!
//! ```
//! use ltnc_telemetry::json::JsonValue;
//!
//! let doc = JsonValue::object()
//!     .field("scheme", "ltnc")
//!     .field("bytes_sent", 1024u64)
//!     .field("bit_exact", true);
//! assert_eq!(doc.render(), r#"{"scheme":"ltnc","bytes_sent":1024,"bit_exact":true}"#);
//! ```

use core::fmt;

use ltnc_metrics::{CounterFamily, LogHistogramSnapshot};

/// Schema version stamped as the top-level `schema_version` member of
/// every machine-readable run report in the workspace — the
/// `--report` JSON of the multi-hop and cache-serving examples, and the
/// flight recorder's dumps. Consumers (CI's uploaded artifacts, any
/// dashboard ingesting them) should check it before reading other
/// members; bump it on any breaking change to the member layout.
/// Version history: 1 — initial layout; 2 — a kernel scenario joined a
/// since-deleted benchmark report that shared this stamp; 3 — every
/// `latency` is per link, accept→payload on the receiver's clock, and
/// the multi-hop report's per-depth latency list went.
pub const REPORT_SCHEMA_VERSION: u64 = 3;

/// One JSON value; build with the constructors, render with
/// [`JsonValue::render`] (or `Display`).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (covers every counter in the workspace).
    Int(i64),
    /// A finite float, rendered with enough precision to round-trip;
    /// non-finite values render as `null` per JSON's limits.
    Float(f64),
    /// A string (escaped on render).
    Str(String),
    /// An ordered list.
    Array(Vec<JsonValue>),
    /// An object; members keep insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An empty object, ready for [`JsonValue::field`] chaining.
    #[must_use]
    pub fn object() -> JsonValue {
        JsonValue::Object(Vec::new())
    }

    /// An array of already-built values.
    #[must_use]
    pub fn array(items: Vec<JsonValue>) -> JsonValue {
        JsonValue::Array(items)
    }

    /// Appends a member to an object (panics if `self` is not an
    /// object — builder misuse, not data-dependent).
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<JsonValue>) -> JsonValue {
        match &mut self {
            JsonValue::Object(members) => members.push((key.to_string(), value.into())),
            _ => panic!("JsonValue::field on a non-object"),
        }
        self
    }

    /// Renders the value as compact JSON.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Parses a JSON document (the inverse of [`JsonValue::render`], used
    /// by the bench-report regression compare to read committed baseline
    /// files back). Strict enough for machine-written JSON: no comments,
    /// no trailing commas; numbers with a fraction or exponent become
    /// [`JsonValue::Float`], bare integers [`JsonValue::Int`].
    ///
    /// # Errors
    ///
    /// A static description of the first syntax problem encountered.
    pub fn parse(text: &str) -> Result<JsonValue, &'static str> {
        let mut parser = Parser { bytes: text.as_bytes(), pos: 0 };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err("trailing characters after the document");
        }
        Ok(value)
    }

    /// Member lookup on an object (`None` for other variants or a
    /// missing key).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value of an `Int` or `Float` (`None` otherwise).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The integer value of an `Int` (`None` otherwise).
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The borrowed string of a `Str` (`None` otherwise).
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The items of an `Array` (`None` otherwise).
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items.as_slice()),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => {
                out.push_str(&i.to_string());
            }
            JsonValue::Float(x) => {
                if x.is_finite() {
                    // `{:?}` keeps a fractional part ("1.0", not "1") and
                    // round-trips f64.
                    out.push_str(&format!("{x:?}"));
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends every scalar field of `family` to the object `doc` as a
/// number (flags as 0 or 1), in declaration order, skipping names `doc`
/// already has — so a caller can hoist a field to the front.
#[must_use]
pub fn scalar_fields(mut doc: JsonValue, family: &impl CounterFamily) -> JsonValue {
    for (name, field) in family.fields() {
        if let Some(value) = field.value() {
            if doc.get(name).is_none() {
                doc = doc.field(name, value);
            }
        }
    }
    doc
}

/// Appends the summary of one distribution to the object `doc`:
/// `count`, `mean`, `p50`, `p90`, `p99` and `max`. Callers that print a
/// unit put it in `doc` first.
#[must_use]
pub fn histogram_summary(doc: JsonValue, snapshot: &LogHistogramSnapshot) -> JsonValue {
    doc.field("count", snapshot.count())
        .field("mean", snapshot.mean())
        .field("p50", snapshot.p50())
        .field("p90", snapshot.p90())
        .field("p99", snapshot.p99())
        .field("max", snapshot.max)
}

/// Recursive-descent parser over the document bytes. Depth is bounded
/// by the recursion limit of the caller's stack; the machine-written
/// documents this reads nest a handful of levels.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), &'static str> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err("unexpected character")
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, &'static str> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err("invalid literal")
        }
    }

    fn value(&mut self) -> Result<JsonValue, &'static str> {
        match self.peek().ok_or("unexpected end of document")? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(JsonValue::Str(self.string()?)),
            b't' => self.literal("true", JsonValue::Bool(true)),
            b'f' => self.literal("false", JsonValue::Bool(false)),
            b'n' => self.literal("null", JsonValue::Null),
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err("unexpected character"),
        }
    }

    fn object(&mut self) -> Result<JsonValue, &'static str> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err("expected ',' or '}' in object"),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, &'static str> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err("expected ',' or ']' in array"),
            }
        }
    }

    fn string(&mut self) -> Result<String, &'static str> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek().ok_or("unterminated escape")? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not produced by the
                            // writer; map lone surrogates to the
                            // replacement character rather than erroring.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err("unknown escape"),
                    }
                    self.pos += 1;
                }
                first => {
                    // Multi-byte UTF-8 sequences pass through verbatim:
                    // the input is a &str, so they are already valid.
                    let start = self.pos;
                    let len = match first {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self.bytes.get(start..start + len).ok_or("truncated string")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|_| "invalid utf-8")?);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, &'static str> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(byte) = self.peek() {
            match byte {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "bad number")?;
        if float {
            text.parse::<f64>().map(JsonValue::Float).map_err(|_| "bad number")
        } else {
            text.parse::<i64>().map(JsonValue::Int).map_err(|_| "bad number")
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

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> JsonValue {
        JsonValue::Bool(b)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> JsonValue {
        // Counters beyond i64::MAX do not occur in practice; clamp rather
        // than emit JSON many parsers reject.
        JsonValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

impl From<u32> for JsonValue {
    fn from(v: u32) -> JsonValue {
        JsonValue::Int(i64::from(v))
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> JsonValue {
        JsonValue::from(v as u64)
    }
}

impl From<i64> for JsonValue {
    fn from(v: i64) -> JsonValue {
        JsonValue::Int(v)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> JsonValue {
        JsonValue::Float(v)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> JsonValue {
        JsonValue::Str(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> JsonValue {
        JsonValue::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_documents() {
        let doc = JsonValue::object()
            .field("name", "run")
            .field("ok", true)
            .field("none", JsonValue::Null)
            .field("hops", JsonValue::array(vec![JsonValue::from(1u64), JsonValue::from(2u64)]))
            .field("nested", JsonValue::object().field("rate", 0.25));
        assert_eq!(
            doc.render(),
            r#"{"name":"run","ok":true,"none":null,"hops":[1,2],"nested":{"rate":0.25}}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let doc = JsonValue::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(doc.render(), r#""a\"b\\c\nd\te\u0001""#);
    }

    #[test]
    fn floats_round_trip_and_nonfinite_is_null() {
        assert_eq!(JsonValue::from(1.0).render(), "1.0");
        assert_eq!(JsonValue::from(0.1).render(), "0.1");
        assert_eq!(JsonValue::from(f64::NAN).render(), "null");
        assert_eq!(JsonValue::from(f64::INFINITY).render(), "null");
    }

    #[test]
    fn histogram_summary_follows_the_unit_and_reads_max_off_the_snapshot() {
        let histogram = ltnc_metrics::LogHistogram::new();
        for value in [3, 90, 90, 4_001] {
            histogram.record(value);
        }
        let doc = histogram_summary(JsonValue::object().field("unit", "us"), &histogram.snapshot());
        assert_eq!(
            doc.render(),
            r#"{"unit":"us","count":4,"mean":1046.0,"p50":127,"p90":4001,"p99":4001,"max":4001}"#
        );
    }

    #[test]
    fn scalar_fields_keep_hoisted_members_in_place() {
        let wire =
            ltnc_metrics::WireCounters { bytes_sent: 7, decode_errors: 2, ..Default::default() };
        let doc = scalar_fields(JsonValue::object().field("decode_errors", 2u64), &wire);
        let JsonValue::Object(members) = &doc else { panic!("an object") };
        assert_eq!(members.len(), 21);
        assert_eq!(members[0].0, "decode_errors");
        assert_eq!(doc.get("bytes_sent"), Some(&JsonValue::Int(7)));
    }

    #[test]
    fn u64_clamps_to_i64() {
        assert_eq!(JsonValue::from(u64::MAX).render(), i64::MAX.to_string());
    }

    #[test]
    fn parse_round_trips_rendered_documents() {
        let doc = JsonValue::object()
            .field("name", "run \"x\"\n")
            .field("ok", true)
            .field("none", JsonValue::Null)
            .field("n", -42i64)
            .field("rate", 0.25)
            .field("hops", JsonValue::array(vec![JsonValue::from(1u64), JsonValue::from(2u64)]))
            .field("nested", JsonValue::object().field("goodput", 123456.5));
        let parsed = JsonValue::parse(&doc.render()).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(parsed.get("n").and_then(JsonValue::as_i64), Some(-42));
        assert_eq!(
            parsed.get("nested").and_then(|n| n.get("goodput")).and_then(JsonValue::as_f64),
            Some(123456.5)
        );
        assert_eq!(parsed.get("hops").and_then(JsonValue::as_array).map(<[_]>::len), Some(2));
        assert_eq!(parsed.get("name").and_then(JsonValue::as_str), Some("run \"x\"\n"));
    }

    #[test]
    fn parse_accepts_whitespace_and_rejects_garbage() {
        let parsed = JsonValue::parse(" { \"a\" : [ 1 , 2.5e1 , \"\\u0041\" ] } ").unwrap();
        let items = parsed.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(items[0], JsonValue::Int(1));
        assert_eq!(items[1], JsonValue::Float(25.0));
        assert_eq!(items[2], JsonValue::Str("A".to_string()));

        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(JsonValue::parse(bad).is_err(), "accepted invalid JSON: {bad:?}");
        }
    }
}
