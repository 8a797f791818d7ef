//! The workspace's one JSON reader and its escaping rules.
//!
//! Scenario and sweep configs ([`crate::scenario`], [`crate::sweep`]) and
//! the `psn-report/1` documents the result cache serves back (`psn`'s
//! report module) are all read here, so the accepted grammar, the string
//! escapes and the number rule are one definition. The build environment
//! vendors a marker-only serde, hence the hand-written reader.
//!
//! Input comes from outside the program, so the reader is bounded: arrays
//! and objects may nest at most [`MAX_DEPTH`] levels, and anything deeper
//! is a [`JsonError`] instead of a stack overflow.
//!
//! Strings accept `\"`, `\\`, `\/`, `\n`, `\t`, `\r` and `\uXXXX` outside
//! the surrogate range; [`escape`] emits only escapes [`decode_string`]
//! reads back. Numbers keep their spelling's type: a token of digits only
//! is [`Json::Int`], any other token Rust's `f64` grammar accepts is
//! [`Json::Num`] (see [`parse_number`]).

/// Deepest nesting of arrays and objects [`parse`] accepts. Rendered
/// reports nest 7 levels and configs at most 3.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Objects keep their fields in source order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// A number token of digits only that fits a `u64`.
    Int(u64),
    /// Any other number token.
    Num(f64),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object's fields in source order.
    Obj(Vec<(String, Json)>),
}

/// Error raised while reading JSON: what went wrong, at which byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    offset: usize,
    message: String,
}

impl JsonError {
    fn new(offset: usize, message: impl Into<String>) -> Self {
        Self { offset, message: message.into() }
    }

    /// Byte offset of the error in the text that was read.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The error without its offset.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "offset {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one complete JSON document.
///
/// # Errors
///
/// Malformed text, trailing content after the document, or arrays and
/// objects nested deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut reader = Reader { text, pos: 0 };
    let value = reader.value(0)?;
    if reader.peek().is_some() {
        return Err(reader.error("trailing content after the document"));
    }
    Ok(value)
}

/// Reads a number token: digits only is [`Json::Int`] when it fits a
/// `u64`; a token with `.`, `e`, `E`, `+` or `-`, an overflowing integer,
/// or a word such as `inf` is [`Json::Num`] when Rust's `f64` grammar
/// accepts it. `None` otherwise.
pub fn parse_number(token: &str) -> Option<Json> {
    if !token.contains(['.', 'e', 'E', '-', '+']) {
        if let Ok(v) = token.parse::<u64>() {
            return Some(Json::Int(v));
        }
    }
    token.parse::<f64>().ok().map(Json::Num)
}

/// Decodes the escapes of a string body (the text between its quotes).
/// The error offset is relative to `raw`.
///
/// # Errors
///
/// An escape outside the set the module docs list, a malformed `\u`
/// escape, or a `\u` escape naming a surrogate.
pub fn decode_string(raw: &str) -> Result<String, JsonError> {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.char_indices();
    while let Some((at, c)) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        let decoded = match chars.next().map(|(_, c)| c) {
            Some('"') => '"',
            Some('\\') => '\\',
            Some('/') => '/',
            Some('n') => '\n',
            Some('t') => '\t',
            Some('r') => '\r',
            Some('u') => {
                let mut code = 0u32;
                for _ in 0..4 {
                    let digit = chars
                        .next()
                        .and_then(|(_, c)| c.to_digit(16))
                        .ok_or_else(|| JsonError::new(at, "invalid \\u escape"))?;
                    code = code * 16 + digit;
                }
                // The escaper never emits a surrogate pair; reject one
                // rather than mis-decode it.
                char::from_u32(code)
                    .ok_or_else(|| JsonError::new(at, "unsupported \\u surrogate escape"))?
            }
            other => {
                return Err(JsonError::new(
                    at,
                    format!(
                        "unsupported string escape \\{}",
                        other.map(String::from).unwrap_or_default()
                    ),
                ))
            }
        };
        out.push(decoded);
    }
    Ok(out)
}

/// Escapes a string body for emission: quote, backslash, `\n`, `\t` and
/// `\r` by name and every other control character as `\u00XX`, as
/// RFC 8259 requires (strict readers reject them raw). TOML basic
/// strings share the escape set, so the config writers use it too.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            other => out.push(other),
        }
    }
    out
}

/// Formats an `f64` in shortest round-trip form (Rust's `{:?}`): integral
/// values keep a trailing `.0`, so [`parse_number`] reads them back as
/// [`Json::Num`], never as [`Json::Int`].
pub fn fmt_f64(v: f64) -> String {
    format!("{v:?}")
}

/// A cursor over the text being parsed.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError::new(self.pos, message)
    }

    /// The next non-whitespace byte, left unconsumed.
    fn peek(&mut self) -> Option<u8> {
        let rest = &self.text[self.pos..];
        self.pos = self.text.len() - rest.trim_start().len();
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, want: u8) -> bool {
        let found = self.peek() == Some(want);
        if found {
            self.pos += 1;
        }
        found
    }

    fn require(&mut self, want: u8) -> Result<(), JsonError> {
        match self.eat(want) {
            true => Ok(()),
            false => Err(self.error(format!("expected {:?}", want as char))),
        }
    }

    /// Reads one value nested inside `depth` arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                Err(self.error(format!("exceeds the nesting bound of {MAX_DEPTH} levels")))
            }
            Some(b'{') => {
                self.pos += 1;
                let fields = self.items(b'}', |r| {
                    let key = r.string()?;
                    r.require(b':')?;
                    Ok((key, r.value(depth + 1)?))
                })?;
                Ok(Json::Obj(fields))
            }
            Some(b'[') => {
                self.pos += 1;
                Ok(Json::Arr(self.items(b']', |r| r.value(depth + 1))?))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'n') if self.text[self.pos..].starts_with("null") => {
                self.pos += 4;
                Ok(Json::Null)
            }
            _ => self.number(),
        }
    }

    /// Reads comma-separated items up to and including `close`; the
    /// opening bracket is already consumed.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        let mut items = Vec::new();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(b',') {
                return Err(self.error(format!("expected ',' or {:?}", close as char)));
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.require(b'"')?;
        let start = self.pos;
        let bytes = self.text.as_bytes();
        let mut end = start;
        // `"` and `\` are ASCII, so they never occur inside a multi-byte
        // character and `end` stops on a char boundary.
        loop {
            match bytes.get(end) {
                None => return Err(JsonError::new(self.text.len(), "unterminated string")),
                Some(b'"') => break,
                Some(b'\\') => end += 2,
                Some(_) => end += 1,
            }
        }
        self.pos = end + 1;
        decode_string(&self.text[start..end])
            .map_err(|e| JsonError::new(start + e.offset, e.message))
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let len = self.text.as_bytes()[start..]
            .iter()
            .take_while(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
            .count();
        self.pos += len;
        let token = &self.text[start..self.pos];
        parse_number(token).ok_or_else(|| match token.is_empty() {
            true => JsonError::new(start, "expected a value"),
            false => JsonError::new(start, format!("invalid number {token:?}")),
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn nested(depth: usize) -> String {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn nesting_up_to_the_bound_parses_and_deeper_is_an_error() {
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset(), MAX_DEPTH, "{err}");
        assert!(err.to_string().contains("nesting bound of 64"), "{err}");
        // Far past the bound: an error, not a stack overflow.
        assert!(parse(&nested(200_000)).is_err());
        let objects = format!("{}{}", "{\"a\": ".repeat(200_000), "}".repeat(200_000));
        assert!(parse(&objects).is_err());
    }

    #[test]
    fn numbers_keep_the_type_of_their_spelling() {
        assert_eq!(parse("42").unwrap(), Json::Int(42));
        assert_eq!(parse("+42").unwrap(), Json::Num(42.0));
        assert_eq!(parse("-42").unwrap(), Json::Num(-42.0));
        assert_eq!(parse("42.0").unwrap(), Json::Num(42.0));
        assert_eq!(parse("4e1").unwrap(), Json::Num(40.0));
        assert_eq!(parse("18446744073709551616").unwrap(), Json::Num(18446744073709551616.0));
        assert_eq!(parse_number("inf"), Some(Json::Num(f64::INFINITY)));
        assert!(parse("inf").is_err(), "words are not JSON numbers");
        assert!(parse("1.2.3").is_err());
    }

    #[test]
    fn strings_decode_every_supported_escape() {
        let text = r#""q\" b\\ s\/ n\n t\t r\r uAé""#;
        assert_eq!(parse(text).unwrap(), Json::Str("q\" b\\ s/ n\n t\t r\r uAé".into()));
        for bad in [r#""\x""#, r#""\ud800""#, r#""\u12""#, r#""open"#, "\"\\"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        let err = decode_string("ok \\q").unwrap_err();
        assert_eq!(err.offset(), 3);
        assert_eq!(err.message(), "unsupported string escape \\q");
    }

    #[test]
    fn escape_round_trips_and_leaves_no_raw_control_character() {
        let all: String = (0u32..0x80).filter_map(char::from_u32).chain(['é', '😀']).collect();
        let escaped = escape(&all);
        assert!(!escaped.chars().any(|c| (c as u32) < 0x20), "{escaped:?}");
        assert_eq!(decode_string(&escaped).unwrap(), all);
        assert_eq!(parse(&format!("\"{escaped}\"")).unwrap(), Json::Str(all));
    }

    #[test]
    fn documents_keep_field_order_and_reject_trailing_content() {
        let value = parse(" { \"b\": [1, 2.5, null], \"a\": {} } ").unwrap();
        assert_eq!(
            value,
            Json::Obj(vec![
                ("b".into(), Json::Arr(vec![Json::Int(1), Json::Num(2.5), Json::Null])),
                ("a".into(), Json::Obj(Vec::new())),
            ])
        );
        for bad in ["{} x", "[1,]", "{\"a\" 1}", "{\"a\": 1 \"b\": 2}", "nul", ""] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
