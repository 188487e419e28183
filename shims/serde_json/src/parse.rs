//! A recursive-descent JSON reader that deserializers pull values from
//! directly: no tree is built unless the target type is a [`Value`].
//!
//! [`Value`]: crate::Value

use crate::{Error, Number};
use serde::de::{Deserialize, DeserializeSeed, Deserializer, MapAccess, Next, SeqAccess};
use std::borrow::Cow;

/// Nesting deeper than this is rejected rather than risking the stack
/// (the limit real serde_json uses).
const MAX_DEPTH: usize = 128;

/// Deserializes a `T` from the whole of `input`.
pub fn from_str<'de, T: Deserialize<'de>>(input: &'de str) -> Result<T, Error> {
    let mut p = Parser {
        src: input,
        pos: 0,
        depth: 0,
    };
    let value = T::deserialize(&mut p)?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

pub struct Parser<'de> {
    src: &'de str,
    pos: usize,
    depth: usize,
}

impl<'de> Parser<'de> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at offset {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal<S, M>(
        &mut self,
        lit: &str,
        value: Next<'de, S, M>,
    ) -> Result<Next<'de, S, M>, Error> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    /// Enters an array or object.
    fn open(&mut self) -> Result<(), Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("recursion limit exceeded"));
        }
        self.pos += 1;
        self.depth += 1;
        Ok(())
    }

    /// Reads the separator before the next element of a container that
    /// ends with `close`. `Ok(false)` means the container just ended.
    fn next_item(&mut self, first: &mut bool, close: u8) -> Result<bool, Error> {
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        if !std::mem::take(first) {
            if self.peek() != Some(b',') {
                return Err(self.err(&format!("expected ',' or '{}'", close as char)));
            }
            self.pos += 1;
            self.skip_ws();
        }
        Ok(true)
    }

    /// Reads a string literal, borrowing it from the input when it holds
    /// no escapes.
    fn string(&mut self) -> Result<Cow<'de, str>, Error> {
        self.expect(b'"')?;
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let mut end = start;
        while end < bytes.len() && bytes[end] != b'"' && bytes[end] != b'\\' {
            end += 1;
        }
        if end == bytes.len() {
            self.pos = end;
            return Err(self.err("unterminated string"));
        }
        // Quotes and backslashes are ASCII, so `end` is a char boundary.
        if bytes[end] == b'"' {
            self.pos = end + 1;
            return Ok(Cow::Borrowed(&self.src[start..end]));
        }
        let mut out = String::with_capacity(end - start + 16);
        out.push_str(&self.src[start..end]);
        self.pos = end;
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(Cow::Owned(out)),
                Some(b'\\') => self.escape(&mut out)?,
                Some(_) => {
                    let run = self.pos - 1;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[run..self.pos]);
                }
            }
        }
    }

    /// Decodes the escape after a backslash into `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), Error> {
        let c = match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b't') => '\t',
            Some(b'r') => '\r',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let code = self.hex4()?;
                // Surrogate pairs for astral-plane characters.
                let code = if (0xD800..0xDC00).contains(&code) {
                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                        return Err(self.err("unpaired surrogate"));
                    }
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("unpaired surrogate"));
                    }
                    0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    code
                };
                char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))?
            }
            _ => return Err(self.err("invalid escape")),
        };
        out.push(c);
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("invalid \\u escape")),
            };
            code = code * 16 + d;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Number, Error> {
        let start = self.pos;
        // Fast path: a plain non-negative integer that fits in a u64.
        let mut value = Some(0u64);
        while let Some(c @ b'0'..=b'9') = self.peek() {
            value = value
                .and_then(|v| v.checked_mul(10))
                .and_then(|v| v.checked_add((c - b'0') as u64));
            self.pos += 1;
        }
        if let Some(v) = value {
            if self.pos > start && !matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
                return Ok(Number::PosInt(v));
            }
        }
        self.pos = start;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            while matches!(p.peek(), Some(c) if c.is_ascii_digit()) {
                p.pos += 1;
            }
        };
        digits(self);
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            digits(self);
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self);
        }
        let text = &self.src[start..self.pos];
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::PosInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::NegInt(i));
            }
        }
        text.parse::<f64>()
            .map(Number::Float)
            .map_err(|_| self.err("invalid number"))
    }
}

impl<'a, 'de> Deserializer<'de> for &'a mut Parser<'de> {
    type Error = Error;
    type Seq = Items<'a, 'de>;
    type Map = Items<'a, 'de>;

    fn pull(self) -> Result<Next<'de, Items<'a, 'de>, Items<'a, 'de>>, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Next::Null),
            Some(b't') => self.literal("true", Next::Bool(true)),
            Some(b'f') => self.literal("false", Next::Bool(false)),
            Some(b'"') => self.string().map(Next::Str),
            Some(b'[') => {
                self.open()?;
                Ok(Next::Seq(Items::new(self)))
            }
            Some(b'{') => {
                self.open()?;
                Ok(Next::Map(Items::new(self)))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number().map(Next::Number),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }
}

/// The elements of an array or the entries of an object being read.
pub struct Items<'a, 'de> {
    parser: &'a mut Parser<'de>,
    first: bool,
    done: bool,
}

impl<'a, 'de> Items<'a, 'de> {
    fn new(parser: &'a mut Parser<'de>) -> Self {
        Items {
            parser,
            first: true,
            done: false,
        }
    }

    fn advance(&mut self, close: u8) -> Result<bool, Error> {
        if !self.done && !self.parser.next_item(&mut self.first, close)? {
            self.done = true;
        }
        Ok(!self.done)
    }
}

impl<'de> SeqAccess<'de> for Items<'_, 'de> {
    type Error = Error;
    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Error> {
        if !self.advance(b']')? {
            return Ok(None);
        }
        T::deserialize(&mut *self.parser).map(Some)
    }
}

impl<'de> MapAccess<'de> for Items<'_, 'de> {
    type Error = Error;
    fn next_key(&mut self) -> Result<Option<Cow<'de, str>>, Error> {
        if !self.advance(b'}')? {
            return Ok(None);
        }
        let key = self.parser.string()?;
        self.parser.skip_ws();
        self.parser.expect(b':')?;
        Ok(Some(key))
    }
    fn next_value_seed<T: DeserializeSeed<'de>>(&mut self, seed: T) -> Result<T::Value, Error> {
        seed.deserialize(&mut *self.parser)
    }
}

#[cfg(test)]
mod tests {
    use crate::{from_str, Number, Value};

    #[test]
    fn rejects_malformed_text() {
        for bad in [
            "",
            "[",
            "[1,]",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "{1:2}",
            "\"abc",
            "nul",
            "1 2",
            "\"\\x\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "-",
        ] {
            assert!(from_str::<Value>(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn numbers_keep_their_kind() {
        let v: Value =
            from_str("[0, 18446744073709551615, 18446744073709551616, -7, 2.5, 1e3, 007]").unwrap();
        let n = |i: usize| v[i].as_f64().unwrap();
        assert_eq!(v[0].as_u64(), Some(0));
        assert_eq!(v[1].as_u64(), Some(u64::MAX));
        assert!(
            matches!(v[2], Value::Number(Number::Float(_))),
            "overflow reads as a float"
        );
        assert_eq!(v[3].as_i64(), Some(-7));
        assert_eq!((n(4), n(5)), (2.5, 1000.0));
        assert_eq!(v[6].as_u64(), Some(7));
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(from_str::<Value>(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(from_str::<Value>(&ok).is_ok());
    }

    #[test]
    fn decodes_escapes_and_borrows_plain_strings() {
        let v: Value = from_str(r#"["plain", "tab\there", "\ud83d\ude00", "\u00e9"]"#).unwrap();
        assert_eq!(v[0], "plain");
        assert_eq!(v[1], "tab\there");
        assert_eq!(v[2], "\u{1F600}");
        assert_eq!(v[3], "é");
    }
}
