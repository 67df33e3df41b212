//! A minimal std-only JSON value: parse and serialize.
//!
//! The job-server subsystem speaks JSON both ways — `JobSpec`s arrive as
//! JSON text, protocol frames carry JSON payloads, and exported
//! [`crate::Table`]s are JSON — but the build environment is offline, so
//! there is no serde. [`Json`] is hand-rolled: a recursive-descent parser
//! with a depth cap whose failures are typed [`PtError::InvalidConfig`]s
//! (position and reason included, never a panic), plus the crate's one
//! JSON writer — numbers round-trip `f64`s via Rust's shortest
//! representation, non-finite ones become `null` — which
//! [`crate::Table::to_json`] writes its numbers and strings through too.
//!
//! Objects preserve insertion order (a `Vec` of pairs, not a map): dumped
//! specs and protocol frames stay diff-stable, and duplicate keys are a
//! parse error rather than a silent last-wins.

use pt_ham::PtError;
use std::fmt::Write as _;

/// Maximum nesting depth the parser accepts — a malicious or runaway
/// input fails typed instead of blowing the stack.
const MAX_DEPTH: usize = 64;

/// One JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, PtError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Serialize. `f64`s use the shortest round-trip representation, so
    /// parsing the output recovers the exact bits; non-finite numbers
    /// (unrepresentable in JSON) become `null`.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Object field by key (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as a nonnegative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => Some(*x as u64),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if this is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object pairs, if this is one.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// Convenience: build an object from pairs.
pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A JSON number: shortest round-trip formatting; non-finite → `null`.
pub(crate) fn write_num(out: &mut String, x: f64) {
    if x.is_finite() {
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

/// A JSON string, quoted, with every character JSON requires escaped.
pub(crate) fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, reason: &str) -> PtError {
        PtError::InvalidConfig(format!("malformed JSON at byte {}: {reason}", self.pos))
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

    fn eat(&mut self, b: u8) -> Result<(), PtError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Json) -> Result<Json, PtError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, PtError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than the supported 64 levels"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(self.err(&format!("unexpected byte 0x{b:02x}"))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, PtError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, PtError> {
        self.eat(b'{')?;
        let mut pairs: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(self.err(&format!("duplicate object key '{key}'")));
            }
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let v = self.value(depth + 1)?;
            pairs.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, PtError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // high surrogate: a low surrogate must follow
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                // multi-byte UTF-8 continuation: the input is &str, so the
                // bytes are valid — copy the whole character through
                b if b >= 0x80 => {
                    let start = self.pos - 1;
                    while self.peek().is_some_and(|c| c & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect(
                        "invariant: bytes come from a &str, so char spans are valid UTF-8",
                    ));
                }
                b if b < 0x20 => return Err(self.err("raw control character in string")),
                b => out.push(b as char),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, PtError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("non-ASCII \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("non-hex \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, PtError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("invariant: number spans are ASCII only");
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => Err(self.err(&format!("invalid number '{text}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_and_objects() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e-3").unwrap(), Json::Num(-2.5e-3));
        assert_eq!(
            Json::parse("\"a\\nb\"").unwrap(),
            Json::Str("a\nb".to_string())
        );
        let v = Json::parse(r#"{"a": [1, 2, {"b": "c"}], "d": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2]
                .get("b")
                .unwrap()
                .as_str(),
            Some("c")
        );
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn dump_round_trips_f64_bits() {
        let vals = [0.1, 1.0 / 3.0, -2.5e-300, 6.02214076e23, 4.0];
        let v = Json::Arr(vals.iter().map(|&x| Json::Num(x)).collect());
        let text = v.dump();
        let back = Json::parse(&text).unwrap();
        for (a, b) in back.as_arr().unwrap().iter().zip(vals) {
            assert_eq!(a.as_f64().unwrap().to_bits(), b.to_bits());
        }
    }

    #[test]
    fn dump_escapes_and_preserves_order() {
        let v = obj([
            ("z\"\\\n", Json::Str("v\t".into())),
            ("a", Json::Bool(false)),
        ]);
        let text = v.dump();
        assert_eq!(text, "{\"z\\\"\\\\\\n\":\"v\\t\",\"a\":false}");
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn unicode_escapes_and_raw_utf8() {
        assert_eq!(
            Json::parse("\"\\u00e9\\ud83d\\ude00\"").unwrap(),
            Json::Str("é😀".into())
        );
        let v = Json::parse("\"héllo ψ\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo ψ"));
        assert_eq!(Json::parse(&v.dump()).unwrap(), v);
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"unterminated",
            "{\"a\":}",
            "{\"a\":1,}",
            "1 2",
            "{\"a\":1,\"a\":2}",
            "\"\\ud800\"",
            "nan",
            "1e999",
            "\"\\q\"",
            &("[".repeat(80) + &"]".repeat(80)),
        ] {
            match Json::parse(bad) {
                Err(PtError::InvalidConfig(msg)) => {
                    assert!(msg.contains("malformed JSON"), "{bad}: {msg}")
                }
                other => panic!("{bad:?} parsed to {other:?}"),
            }
        }
    }

    #[test]
    fn parses_table_export_output() {
        let mut t = crate::Table::new()
            .meta("bench", crate::Value::Str("x".into()))
            .meta("host_cores", crate::Value::U64(4));
        t.column("t", vec![0.0, 0.5]).unwrap();
        t.column("e", vec![-1.25, f64::NAN]).unwrap();
        let v = Json::parse(&t.to_json()).unwrap();
        assert_eq!(v.get("host_cores").unwrap().as_u64(), Some(4));
        let cols = v.get("columns").unwrap();
        assert_eq!(
            cols.get("t").unwrap().as_arr().unwrap()[1].as_f64(),
            Some(0.5)
        );
        // NaN was exported as null
        assert_eq!(cols.get("e").unwrap().as_arr().unwrap()[1], Json::Null);
    }

    #[test]
    fn integer_accessor_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(3.0).as_u64(), Some(3));
        assert_eq!(Json::Num(3.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Str("3".into()).as_u64(), None);
    }
}
