//! The self-describing value tree shared by the serde and serde_json
//! shims. `serde_json::Value` is a re-export of [`Content`].

use std::collections::BTreeMap;
use std::fmt;

/// Object representation: sorted keys, matching serde_json's default.
pub type Map = BTreeMap<String, Content>;

/// A JSON-style number. Integers keep their exact representation;
/// comparisons are numeric across variants.
#[derive(Clone, Copy, Debug)]
pub enum Number {
    /// A non-negative integer.
    PosInt(u64),
    /// A negative integer.
    NegInt(i64),
    /// A float.
    Float(f64),
}

impl Number {
    /// The value as an `f64`.
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::PosInt(n) => n as f64,
            Number::NegInt(n) => n as f64,
            Number::Float(n) => n,
        }
    }

    /// The value as a `u64`, if exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::PosInt(n) => Some(n),
            Number::NegInt(n) => u64::try_from(n).ok(),
            Number::Float(n) if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 => {
                Some(n as u64)
            }
            Number::Float(_) => None,
        }
    }

    /// The value as an `i64`, if exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::PosInt(n) => i64::try_from(n).ok(),
            Number::NegInt(n) => Some(n),
            Number::Float(n)
                if n.fract() == 0.0 && n >= i64::MIN as f64 && n <= i64::MAX as f64 =>
            {
                Some(n as i64)
            }
            Number::Float(_) => None,
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Number::PosInt(a), Number::PosInt(b)) => a == b,
            (Number::NegInt(a), Number::NegInt(b)) => a == b,
            _ => self.as_f64() == other.as_f64(),
        }
    }
}

/// A self-describing value: the entire serde data model of this shim.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum Content {
    /// JSON `null`.
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Content>),
    /// An object with sorted keys.
    Object(Map),
}

static NULL: Content = Content::Null;

impl Content {
    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Content::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Content::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a number exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Content::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The value as `i64`, if it is a number exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Content::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Content::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The array, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Content>> {
        match self {
            Content::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The object, if this is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Content::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Content::Null)
    }

    /// Whether this is a bool.
    pub fn is_boolean(&self) -> bool {
        matches!(self, Content::Bool(_))
    }

    /// Whether this is a number.
    pub fn is_number(&self) -> bool {
        matches!(self, Content::Number(_))
    }

    /// Whether this is a string.
    pub fn is_string(&self) -> bool {
        matches!(self, Content::String(_))
    }

    /// Whether this is an array.
    pub fn is_array(&self) -> bool {
        matches!(self, Content::Array(_))
    }

    /// Whether this is an object.
    pub fn is_object(&self) -> bool {
        matches!(self, Content::Object(_))
    }

    /// Member lookup: by key for objects, by index for arrays.
    pub fn get<I: ContentIndex>(&self, index: I) -> Option<&Content> {
        index.index_into(self)
    }
}

/// Index types usable with [`Content::get`] and `content[index]`.
pub trait ContentIndex {
    /// Looks `self` up in `v`.
    fn index_into<'v>(&self, v: &'v Content) -> Option<&'v Content>;
    /// Looks `self` up in `v`, inserting a slot when possible.
    fn index_into_mut<'v>(&self, v: &'v mut Content) -> &'v mut Content;
}

impl ContentIndex for str {
    fn index_into<'v>(&self, v: &'v Content) -> Option<&'v Content> {
        v.as_object().and_then(|m| m.get(self))
    }
    fn index_into_mut<'v>(&self, v: &'v mut Content) -> &'v mut Content {
        if v.is_null() {
            *v = Content::Object(Map::new());
        }
        match v {
            Content::Object(m) => m.entry(self.to_owned()).or_insert(Content::Null),
            _ => panic!("cannot index non-object value with string key {self:?}"),
        }
    }
}

impl ContentIndex for &str {
    fn index_into<'v>(&self, v: &'v Content) -> Option<&'v Content> {
        (*self).index_into(v)
    }
    fn index_into_mut<'v>(&self, v: &'v mut Content) -> &'v mut Content {
        (*self).index_into_mut(v)
    }
}

impl ContentIndex for String {
    fn index_into<'v>(&self, v: &'v Content) -> Option<&'v Content> {
        self.as_str().index_into(v)
    }
    fn index_into_mut<'v>(&self, v: &'v mut Content) -> &'v mut Content {
        self.as_str().index_into_mut(v)
    }
}

impl ContentIndex for usize {
    fn index_into<'v>(&self, v: &'v Content) -> Option<&'v Content> {
        v.as_array().and_then(|a| a.get(*self))
    }
    fn index_into_mut<'v>(&self, v: &'v mut Content) -> &'v mut Content {
        match v {
            Content::Array(a) => a.get_mut(*self).expect("array index out of bounds"),
            _ => panic!("cannot index non-array value with integer index"),
        }
    }
}

impl<I: ContentIndex> std::ops::Index<I> for Content {
    type Output = Content;
    fn index(&self, index: I) -> &Content {
        index.index_into(self).unwrap_or(&NULL)
    }
}

impl<I: ContentIndex> std::ops::IndexMut<I> for Content {
    fn index_mut(&mut self, index: I) -> &mut Content {
        index.index_into_mut(self)
    }
}

// -- literal comparisons (the serde_json::Value ergonomics tests rely on) --

impl PartialEq<str> for Content {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == Some(other)
    }
}

impl PartialEq<&str> for Content {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<String> for Content {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == Some(other.as_str())
    }
}

impl PartialEq<bool> for Content {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

macro_rules! num_eq {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for Content {
            fn eq(&self, other: &$t) -> bool {
                self.as_f64() == Some(*other as f64)
            }
        }
        impl PartialEq<Content> for $t {
            fn eq(&self, other: &Content) -> bool {
                other == self
            }
        }
    )*};
}
num_eq!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl fmt::Display for Content {
    /// Compact JSON rendering (matches the serde_json::Value Display).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = crate::json::to_json_string::<_, crate::ser::TreeError>(self, false)
            .map_err(|_| fmt::Error)?;
        f.write_str(&text)
    }
}
