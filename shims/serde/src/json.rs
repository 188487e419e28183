//! The JSON text writer: a [`Serializer`] that appends to a `String` as
//! values stream in, with no tree in between. `serde_json::to_string`
//! and `Display for Content` both render through it.
//!
//! The output is the one the tree renderer produced: compact, or
//! pretty with two-space indentation; floats keep a `.0` when integral
//! below 1e15; non-finite floats render as `null`; empty containers
//! render as `[]` / `{}` in both modes.

use crate::ser::{Error, Serialize, SerializeMap, SerializeSeq, Serializer};
use std::fmt::Write as _;
use std::marker::PhantomData;

/// Renders `value` as JSON text; `pretty` selects two-space indentation.
pub fn to_json_string<T: Serialize + ?Sized, E: Error>(
    value: &T,
    pretty: bool,
) -> Result<String, E> {
    let mut writer = JsonWriter::<E>::new(pretty);
    value.serialize(&mut writer)?;
    Ok(writer.out)
}

/// Output buffer plus the indentation state of the value being written.
pub struct JsonWriter<E> {
    out: String,
    pretty: bool,
    depth: usize,
    _marker: PhantomData<E>,
}

impl<E> JsonWriter<E> {
    fn new(pretty: bool) -> Self {
        JsonWriter {
            out: String::new(),
            pretty,
            depth: 0,
            _marker: PhantomData,
        }
    }

    /// Starts a line at the current depth (pretty mode only).
    fn newline(&mut self) {
        const SPACES: &str = "                                ";
        if self.pretty {
            self.out.push('\n');
            let mut pad = 2 * self.depth;
            while pad > 0 {
                let n = pad.min(SPACES.len());
                self.out.push_str(&SPACES[..n]);
                pad -= n;
            }
        }
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.depth += 1;
    }

    /// Closes a container; `empty` containers stay on one line.
    fn close(&mut self, bracket: char, empty: bool) {
        self.depth -= 1;
        if !empty {
            self.newline();
        }
        self.out.push(bracket);
    }

    /// Writes the separator before an element or entry.
    fn item(&mut self, first: bool) {
        if !first {
            self.out.push(',');
        }
        self.newline();
    }

    fn key(&mut self, key: &str) {
        write_escaped(&mut self.out, key);
        self.out.push_str(if self.pretty { ": " } else { ":" });
    }

    fn open_variant(&mut self, variant: &str) {
        self.open('{');
        self.item(true);
        self.key(variant);
    }
}

/// Appends `s` as a JSON string literal, copying unescaped runs whole.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Escapable bytes are ASCII, so `i` is a char boundary.
        out.push_str(&s[start..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{:04x}", b);
        } else {
            out.push_str(escape);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Appends the decimal digits of `v` (without the formatting machinery:
/// ids and counts are most of a dataset's numbers).
fn write_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[start..] {
        out.push(d as char);
    }
}

/// An open array or object: whether an entry was written yet, and the
/// brackets to close it with (a variant wrapper closes twice).
pub struct Compound<'a, E> {
    writer: &'a mut JsonWriter<E>,
    first: bool,
    variant: bool,
}

impl<'a, E> Compound<'a, E> {
    fn new(writer: &'a mut JsonWriter<E>, variant: bool) -> Self {
        Compound {
            writer,
            first: true,
            variant,
        }
    }

    fn finish(self, bracket: char) {
        self.writer.close(bracket, self.first);
        if self.variant {
            self.writer.close('}', false);
        }
    }
}

impl<'a, E: Error> Serializer for &'a mut JsonWriter<E> {
    type Ok = ();
    type Error = E;
    type SerializeSeq = Compound<'a, E>;
    type SerializeMap = Compound<'a, E>;

    fn serialize_str(self, v: &str) -> Result<(), E> {
        write_escaped(&mut self.out, v);
        Ok(())
    }
    fn serialize_bool(self, v: bool) -> Result<(), E> {
        self.out.push_str(if v { "true" } else { "false" });
        Ok(())
    }
    fn serialize_u64(self, v: u64) -> Result<(), E> {
        write_u64(&mut self.out, v);
        Ok(())
    }
    fn serialize_i64(self, v: i64) -> Result<(), E> {
        if v < 0 {
            self.out.push('-');
        }
        write_u64(&mut self.out, v.unsigned_abs());
        Ok(())
    }
    fn serialize_f64(self, v: f64) -> Result<(), E> {
        if !v.is_finite() {
            self.out.push_str("null");
        } else if v.fract() == 0.0 && v.abs() < 1e15 {
            // Keep float-ness visible, as serde_json does.
            let _ = write!(self.out, "{v:.1}");
        } else {
            let _ = write!(self.out, "{v}");
        }
        Ok(())
    }
    fn serialize_unit(self) -> Result<(), E> {
        self.out.push_str("null");
        Ok(())
    }
    fn serialize_seq(self, _len: Option<usize>) -> Result<Compound<'a, E>, E> {
        self.open('[');
        Ok(Compound::new(self, false))
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<Compound<'a, E>, E> {
        self.open('{');
        Ok(Compound::new(self, false))
    }
    fn serialize_tuple_variant(
        self,
        variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'a, E>, E> {
        self.open_variant(variant);
        self.open('[');
        Ok(Compound::new(self, true))
    }
    fn serialize_struct_variant(
        self,
        variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'a, E>, E> {
        self.open_variant(variant);
        self.open('{');
        Ok(Compound::new(self, true))
    }
}

impl<E: Error> SerializeSeq for Compound<'_, E> {
    type Ok = ();
    type Error = E;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), E> {
        self.writer.item(self.first);
        self.first = false;
        value.serialize(&mut *self.writer)
    }
    fn end(self) -> Result<(), E> {
        self.finish(']');
        Ok(())
    }
}

impl<E: Error> SerializeMap for Compound<'_, E> {
    type Ok = ();
    type Error = E;
    fn serialize_entry<V: Serialize + ?Sized>(&mut self, key: &str, value: &V) -> Result<(), E> {
        self.writer.item(self.first);
        self.first = false;
        self.writer.key(key);
        value.serialize(&mut *self.writer)
    }
    fn end(self) -> Result<(), E> {
        self.finish('}');
        Ok(())
    }
}
