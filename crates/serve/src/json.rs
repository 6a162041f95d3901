//! A minimal JSON value type with a parser and a compact serializer.
//!
//! The daemon speaks line-delimited JSON-RPC with **byte-exact**
//! response goldens in its protocol suite, so serialization must be
//! fully deterministic: object keys keep insertion order, numbers that
//! are mathematically integral print without a decimal point, and no
//! whitespace is emitted. The parser accepts standard JSON (RFC 8259)
//! minus two conveniences nothing zero-dependency needs: `\uXXXX`
//! escapes for characters outside the two-character escape set are
//! supported, but surrogate pairs are combined only when well-formed
//! (lone surrogates are rejected). Arrays and objects nest at most
//! [`MAX_DEPTH`] deep, so a hostile line cannot exhaust the stack of the
//! thread that parses it.
//!
//! The writer renders a value into one buffer, sized by a walk over the
//! value first. Strings go through the workspace's one escaper
//! ([`json_escape_into`]), which copies each run of bytes that need no
//! escape in one piece, and integers are written from a stack buffer, so
//! a response costs no temporary string per field.

use hierarchy_core::lint::diagnostic::json_escape_into;
use std::fmt::{self, Write as _};

/// The deepest nesting of arrays and objects [`Json::parse`] accepts:
/// far beyond any request or response of the protocol, and shallow
/// enough that the parser's recursion fits a 2 MiB thread stack in every
/// build profile.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that is an exact integer.
    Int(i64),
    /// Any other finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs keep insertion order (serialization is
    /// deterministic, and duplicate keys are rejected by the parser).
    Obj(Vec<(String, Json)>),
    /// A pre-rendered JSON fragment spliced verbatim into the output
    /// (used to embed `lint::report_to_json` without re-parsing).
    Raw(String),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The value under `key`, for objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, when this is an integral number.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    /// Parses a JSON document (the whole string must be one value).
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    json_escape_into(out, s);
    out.push('"');
}

/// Appends the decimal form of `n`, as `n.to_string()` writes it.
fn push_int(out: &mut String, n: i64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut rest = n.unsigned_abs();
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
}

impl fmt::Display for Json {
    /// Compact serialization: no whitespace, insertion-ordered keys.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_line())
    }
}

impl Json {
    /// The compact serialization in one buffer, with room left for the
    /// newline that ends a response line.
    pub(crate) fn to_line(&self) -> String {
        let mut out = String::with_capacity(self.len_hint() + 1);
        self.write_into(&mut out);
        out
    }

    /// About the length of the compact serialization: exact for
    /// everything but numbers (taken at their widest) and strings that
    /// need escapes.
    fn len_hint(&self) -> usize {
        match self {
            Json::Null | Json::Bool(_) => 5,
            Json::Int(_) | Json::Num(_) => 20,
            Json::Str(s) | Json::Raw(s) => s.len() + 2,
            Json::Arr(xs) => 2 + xs.iter().map(|x| x.len_hint() + 1).sum::<usize>(),
            Json::Obj(pairs) => {
                2 + pairs
                    .iter()
                    .map(|(k, v)| k.len() + 4 + v.len_hint())
                    .sum::<usize>()
            }
        }
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => push_int(out, *n),
            Json::Num(x) => {
                // Integral floats print as integers so output never
                // depends on how a count was computed.
                if x.fract() == 0.0 && x.abs() < 9e15 {
                    push_int(out, *x as i64);
                } else {
                    write!(out, "{x}").expect("writing to a String cannot fail");
                }
            }
            Json::Str(s) => escape_into(out, s),
            Json::Arr(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, k);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
            Json::Raw(s) => out.push_str(s),
        }
    }
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') if self.literal("null") => Ok(Json::Null),
            Some(b't') if self.literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected byte {:?} at {}", c as char, self.pos)),
        }
    }

    /// Parses one array or object with `f`, within [`MAX_DEPTH`].
    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, String> {
        self.pos += 1;
        let mut xs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(xs));
        }
        loop {
            xs.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(xs));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.pos += 1;
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
                return Err(format!("duplicate key {key:?}"));
            }
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // `pos` sits on a character boundary of the source string.
            let mut chars = self.src[self.pos..].chars();
            let c = chars.next().ok_or("unterminated string")?;
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let e = chars.next().ok_or("dangling escape")?;
                    self.pos += e.len_utf8();
                    match e {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        't' => out.push('\t'),
                        'r' => out.push('\r'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'u' => {
                            let hi = self.hex4()?;
                            let scalar = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if !self.literal("\\u") {
                                    return Err("lone high surrogate".to_string());
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".to_string());
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(scalar)
                                    .ok_or_else(|| "invalid \\u escape".to_string())?,
                            );
                        }
                        other => return Err(format!("unknown escape \\{other}")),
                    }
                }
                c if (c as u32) < 0x20 => {
                    return Err("unescaped control character in string".to_string())
                }
                c => out.push(c),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let s = std::str::from_utf8(chunk).map_err(|_| "bad \\u escape".to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| format!("bad \\u escape {s:?}"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::Int(n));
            }
        }
        let x: f64 = text.parse().map_err(|_| format!("bad number {text:?}"))?;
        if !x.is_finite() {
            return Err(format!("non-finite number {text:?}"));
        }
        Ok(Json::Num(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_compactly() {
        for src in [
            "null",
            "true",
            "[1,2,3]",
            "{\"a\":1,\"b\":[false,\"x\"]}",
            "{\"nested\":{\"k\":\"v\"},\"n\":-7}",
            "\"tab\\tnewline\\n\"",
        ] {
            let v = Json::parse(src).unwrap();
            assert_eq!(v.to_string(), src, "compact round trip of {src}");
        }
    }

    #[test]
    fn parses_with_whitespace_and_preserves_key_order() {
        let v = Json::parse("  { \"z\" : 1 , \"a\" : 2 }  ").unwrap();
        assert_eq!(v.to_string(), "{\"z\":1,\"a\":2}");
        assert_eq!(v.get("z"), Some(&Json::Int(1)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn numbers_split_int_and_float() {
        assert_eq!(Json::parse("42"), Ok(Json::Int(42)));
        assert_eq!(Json::parse("-3"), Ok(Json::Int(-3)));
        assert!(matches!(Json::parse("1.5"), Ok(Json::Num(_))));
        assert!(matches!(Json::parse("1e3"), Ok(Json::Num(_))));
        assert_eq!(Json::parse("1.5").unwrap().to_string(), "1.5");
        assert_eq!(Json::parse("2e2").unwrap().to_string(), "200");
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(
            Json::parse("\"\\u00e9\\uD83D\\uDE00\"").unwrap(),
            Json::Str("é😀".to_string())
        );
        assert!(Json::parse("\"\\uD83D\"").is_err(), "lone surrogate");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\":1,\"a\":2}",
            "truex",
            "\"unterminated",
            "[1] 2",
            "{'a':1}",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    /// Runs `f` on a thread with the 2 MiB stack of a daemon connection.
    fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap()
    }

    #[test]
    fn nesting_is_bounded() {
        on_small_stack(|| {
            let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
            assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
            let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
            assert!(Json::parse(&objects).is_ok());
            for hostile in [nest(MAX_DEPTH + 1), "[".repeat(20_000)] {
                let e = Json::parse(&hostile).unwrap_err();
                assert!(e.contains("nesting deeper than"), "{e}");
            }
        });
    }

    /// A string decodes in one pass over its bytes: 1 MB, multibyte
    /// characters and escapes included, parses at once.
    #[test]
    fn long_strings_parse_in_linear_time() {
        let body = "aé😀\\n".repeat(1 << 17);
        let line = format!("{{\"s\":\"{body}\"}}");
        assert!(line.len() > 1 << 20);
        let start = std::time::Instant::now();
        let v = Json::parse(&line).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(
            v.get("s").and_then(Json::as_str),
            Some("aé😀\n".repeat(1 << 17).as_str())
        );
        assert!(elapsed.as_secs() < 5, "took {elapsed:?}");
    }

    #[test]
    fn raw_splices_verbatim() {
        let v = Json::obj([("diags", Json::Raw("[{\"x\": 1}]".to_string()))]);
        assert_eq!(v.to_string(), "{\"diags\":[{\"x\": 1}]}");
    }

    #[test]
    fn control_characters_escape_on_output() {
        assert_eq!(Json::Str("\u{1}".into()).to_string(), "\"\\u0001\"");
        let back = Json::parse("\"\\u0001\"").unwrap();
        assert_eq!(back, Json::Str("\u{1}".into()));
    }

    /// A reference escaper that works one character at a time.
    fn reference_escape(s: &str) -> String {
        let mut out = String::from('"');
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
        out
    }

    /// Seeded strings over every control character, DEL, the quote, the
    /// backslash, multibyte characters and plain letters render as the
    /// character-by-character reference does, as values and as keys, and
    /// parse back to themselves.
    #[test]
    fn run_copying_escaper_matches_the_reference_and_round_trips() {
        use hierarchy_core::automata::random::rng::{Rng, SeedableRng, StdRng};
        let pool: Vec<char> = (0u8..0x20)
            .map(char::from)
            .chain(['\u{7f}', '"', '\\', 'é', '😀', '□', '◇', 'a', 'Z', ' ', '/'])
            .collect();
        let mut rng = StdRng::seed_from_u64(0x5E21A1);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..400 {
            let len = rng.gen_range(0..24usize);
            let s: String = (0..len)
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect();
            seen.extend(s.chars());
            let want = reference_escape(&s);
            let value = Json::Str(s.clone());
            assert_eq!(value.to_string(), want, "{s:?}");
            assert_eq!(Json::parse(&want), Ok(value), "{s:?}");
            let keyed = Json::Obj(vec![(s.clone(), Json::Null)]);
            assert_eq!(keyed.to_string(), format!("{{{want}:null}}"), "{s:?}");
        }
        assert_eq!(seen.len(), pool.len(), "every character was drawn");
    }

    #[test]
    fn integers_render_as_to_string_does() {
        for n in [i64::MIN, -1, 0, 7, 10, i64::MAX] {
            assert_eq!(Json::Int(n).to_string(), n.to_string());
            assert_eq!(Json::parse(&n.to_string()), Ok(Json::Int(n)));
        }
        assert_eq!(Json::Num(-3.0).to_string(), "-3");
        assert_eq!(Json::Num(0.25).to_string(), "0.25");
    }
}
