//! Deserialization half of the shim.
//!
//! A [`Deserializer`] is pulled one value at a time: [`Deserializer::pull`]
//! yields the head of the next value as a [`Next`] — a scalar, or a
//! [`SeqAccess`] / [`MapAccess`] that the caller drains element by
//! element. Derived code drives it field by field, so a format that reads
//! text (`serde_json::from_str`) builds no intermediate tree;
//! [`ContentDeserializer`] offers the same interface over a [`Content`].
//!
//! Semantics every impl here keeps: unknown struct fields are skipped, a
//! missing field reads as `null` (so `Option` fields become `None`), a
//! repeated key takes its last value, and a unit enum variant is accepted
//! both as `"V"` and as `{"V": <anything>}`. A repeated key's earlier
//! values are still read, so each must be well-formed for the field.

use crate::content::{Content, Map, Number};
use std::borrow::Cow;
use std::fmt::Display;
use std::marker::PhantomData;

/// Error constraint for deserializer errors (mirrors `serde::de::Error`).
pub trait Error: Sized + std::error::Error {
    /// Builds an error from a message.
    fn custom<T: Display>(msg: T) -> Self;
}

/// The head of the next value in the input.
pub enum Next<'de, S, M> {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A number.
    Number(Number),
    /// A string, borrowed from the input when it needed no unescaping.
    Str(Cow<'de, str>),
    /// An array, to be drained element by element.
    Seq(S),
    /// An object, to be drained entry by entry.
    Map(M),
}

impl<S, M> Next<'_, S, M> {
    /// The JSON type name of the value.
    pub fn kind(&self) -> &'static str {
        match self {
            Next::Null => "null",
            Next::Bool(_) => "bool",
            Next::Number(_) => "number",
            Next::Str(_) => "string",
            Next::Seq(_) => "array",
            Next::Map(_) => "object",
        }
    }

    /// The error for finding this value where `expected` was wanted.
    pub fn unexpected<E: Error>(&self, expected: &str) -> E {
        E::custom(format!("expected {expected}, found {}", self.kind()))
    }
}

/// A data format that yields values one at a time.
pub trait Deserializer<'de>: Sized {
    /// Error type.
    type Error: Error;
    /// Accessor for the elements of an array.
    type Seq: SeqAccess<'de, Error = Self::Error>;
    /// Accessor for the entries of an object.
    type Map: MapAccess<'de, Error = Self::Error>;

    /// Reads the head of the next value.
    fn pull(self) -> Result<Next<'de, Self::Seq, Self::Map>, Self::Error>;
}

/// The elements of an array, read in order.
pub trait SeqAccess<'de> {
    /// Error type.
    type Error: Error;
    /// The next element, or `None` once the array is exhausted.
    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Self::Error>;
}

/// The entries of an object, read in order: each [`next_key`] must be
/// followed by one [`next_value`] (or [`next_value_seed`]).
///
/// [`next_key`]: MapAccess::next_key
/// [`next_value`]: MapAccess::next_value
/// [`next_value_seed`]: MapAccess::next_value_seed
pub trait MapAccess<'de> {
    /// Error type.
    type Error: Error;
    /// The next key, or `None` once the object is exhausted.
    fn next_key(&mut self) -> Result<Option<Cow<'de, str>>, Self::Error>;
    /// The value of the key just read, through `seed`.
    fn next_value_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<T::Value, Self::Error>;
    /// The value of the key just read.
    fn next_value<T: Deserialize<'de>>(&mut self) -> Result<T, Self::Error> {
        self.next_value_seed(PhantomData)
    }
}

/// A value constructible from the shim's data model.
pub trait Deserialize<'de>: Sized {
    /// Deserializes `Self`.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// Stateful deserialization, as in real serde: derived enums use it to
/// read a variant's payload once its name is known.
pub trait DeserializeSeed<'de>: Sized {
    /// The value produced.
    type Value;
    /// Deserializes the value.
    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<Self::Value, D::Error>;
}

impl<'de, T: Deserialize<'de>> DeserializeSeed<'de> for PhantomData<T> {
    type Value = T;
    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<T, D::Error> {
        T::deserialize(deserializer)
    }
}

/// Owned-deserializable marker, as in real serde.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

/// Reads and discards any one value.
pub struct IgnoredAny;

impl<'de> Deserialize<'de> for IgnoredAny {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.pull()? {
            Next::Seq(mut seq) => while seq.next_element::<IgnoredAny>()?.is_some() {},
            Next::Map(mut map) => {
                while map.next_key()?.is_some() {
                    map.next_value::<IgnoredAny>()?;
                }
            }
            _ => {}
        }
        Ok(IgnoredAny)
    }
}

/// A deserializer whose value head was already pulled: hands it on to
/// the next `Deserialize` impl (`Option<T>` peeks for `null` this way).
pub struct Pulled<'de, S, M>(pub Next<'de, S, M>);

impl<'de, S, M> Deserializer<'de> for Pulled<'de, S, M>
where
    S: SeqAccess<'de>,
    M: MapAccess<'de, Error = S::Error>,
{
    type Error = S::Error;
    type Seq = S;
    type Map = M;
    fn pull(self) -> Result<Next<'de, S, M>, S::Error> {
        Ok(self.0)
    }
}

/// A scalar as a deserializer, with the caller's error type.
fn scalar<'de, E: Error>(
    next: Next<'de, ContentSeq<E>, ContentMap<E>>,
) -> impl Deserializer<'de, Error = E> {
    Pulled(next)
}

/// Deserializes a field that the input left out: it reads as `null`.
pub fn missing_field<'de, T: Deserialize<'de>, E: Error>() -> Result<T, E> {
    T::deserialize(scalar::<E>(Next::Null))
}

/// Deserializer view over an in-memory tree, generic in its error type so
/// derived code can thread `D::Error` through nested fields.
pub struct ContentDeserializer<E> {
    content: Content,
    _marker: PhantomData<E>,
}

impl<E> ContentDeserializer<E> {
    /// Wraps a tree.
    pub fn new(content: Content) -> Self {
        ContentDeserializer {
            content,
            _marker: PhantomData,
        }
    }
}

/// The elements of a tree array.
pub struct ContentSeq<E> {
    items: std::vec::IntoIter<Content>,
    _marker: PhantomData<E>,
}

/// The entries of a tree object, with the value of the key just read.
pub struct ContentMap<E> {
    entries: std::collections::btree_map::IntoIter<String, Content>,
    value: Option<Content>,
    _marker: PhantomData<E>,
}

impl<'de, E: Error> Deserializer<'de> for ContentDeserializer<E> {
    type Error = E;
    type Seq = ContentSeq<E>;
    type Map = ContentMap<E>;
    fn pull(self) -> Result<Next<'de, ContentSeq<E>, ContentMap<E>>, E> {
        Ok(match self.content {
            Content::Null => Next::Null,
            Content::Bool(b) => Next::Bool(b),
            Content::Number(n) => Next::Number(n),
            Content::String(s) => Next::Str(Cow::Owned(s)),
            Content::Array(items) => Next::Seq(ContentSeq {
                items: items.into_iter(),
                _marker: PhantomData,
            }),
            Content::Object(map) => Next::Map(ContentMap {
                entries: map.into_iter(),
                value: None,
                _marker: PhantomData,
            }),
        })
    }
}

impl<'de, E: Error> SeqAccess<'de> for ContentSeq<E> {
    type Error = E;
    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, E> {
        self.items.next().map(from_content).transpose()
    }
}

impl<'de, E: Error> MapAccess<'de> for ContentMap<E> {
    type Error = E;
    fn next_key(&mut self) -> Result<Option<Cow<'de, str>>, E> {
        Ok(self.entries.next().map(|(key, value)| {
            self.value = Some(value);
            Cow::Owned(key)
        }))
    }
    fn next_value_seed<T: DeserializeSeed<'de>>(&mut self, seed: T) -> Result<T::Value, E> {
        let value = self
            .value
            .take()
            .ok_or_else(|| E::custom("map value requested before its key"))?;
        seed.deserialize(ContentDeserializer::new(value))
    }
}

/// Deserializes a `T` out of a tree, with the caller's error type.
pub fn from_content<'de, T: Deserialize<'de>, E: Error>(content: Content) -> Result<T, E> {
    T::deserialize(ContentDeserializer::new(content))
}

// ---------------------------------------------------------------- impls --

impl<'de> Deserialize<'de> for Content {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Ok(match deserializer.pull()? {
            Next::Null => Content::Null,
            Next::Bool(b) => Content::Bool(b),
            Next::Number(n) => Content::Number(n),
            Next::Str(s) => Content::String(s.into_owned()),
            Next::Seq(mut seq) => {
                let mut items = Vec::new();
                while let Some(item) = seq.next_element()? {
                    items.push(item);
                }
                Content::Array(items)
            }
            Next::Map(mut map) => {
                let mut object = Map::new();
                while let Some(key) = map.next_key()? {
                    let value = map.next_value()?;
                    object.insert(key.into_owned(), value);
                }
                Content::Object(object)
            }
        })
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.pull()? {
            Next::Bool(b) => Ok(b),
            other => Err(other.unexpected("bool")),
        }
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.pull()? {
            Next::Str(s) => Ok(s.into_owned()),
            other => Err(other.unexpected("string")),
        }
    }
}

impl<'de> Deserialize<'de> for char {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(D::Error::custom("expected single-character string")),
        }
    }
}

macro_rules! de_int {
    ($as:ident: $($t:ty),*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                match deserializer.pull()? {
                    Next::Number(n) => n
                        .$as()
                        .and_then(|v| <$t>::try_from(v).ok())
                        .ok_or_else(|| D::Error::custom(concat!("number out of range for ", stringify!($t)))),
                    other => Err(other.unexpected(stringify!($t))),
                }
            }
        }
    )*};
}
de_int!(as_u64: u8, u16, u32, u64, usize);
de_int!(as_i64: i8, i16, i32, i64, isize);

impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.pull()? {
            Next::Number(n) => Ok(n.as_f64()),
            other => Err(other.unexpected("f64")),
        }
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        f64::deserialize(deserializer).map(|v| v as f32)
    }
}

impl<'de> Deserialize<'de> for () {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.pull()? {
            Next::Null => Ok(()),
            other => Err(other.unexpected("null")),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.pull()? {
            Next::Null => Ok(None),
            next => T::deserialize(Pulled(next)).map(Some),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.pull()? {
            Next::Seq(mut seq) => {
                let mut items = Vec::new();
                while let Some(item) = seq.next_element()? {
                    items.push(item);
                }
                Ok(items)
            }
            other => Err(other.unexpected("array")),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        T::deserialize(deserializer).map(Box::new)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for std::sync::Arc<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        T::deserialize(deserializer).map(std::sync::Arc::new)
    }
}

// Mirrors serde's `rc` feature for shared string slices (interned post
// bodies and the like): deserialize through an owned `String`, then move
// into the shared allocation.
impl<'de> Deserialize<'de> for std::sync::Arc<str> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        String::deserialize(deserializer).map(std::sync::Arc::from)
    }
}

// Shared slices (peer lists, template sets): deserialize through an owned
// `Vec`, then move into the shared allocation.
impl<'de, T: Deserialize<'de>> Deserialize<'de> for std::sync::Arc<[T]> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Vec::<T>::deserialize(deserializer).map(std::sync::Arc::from)
    }
}

macro_rules! de_tuple {
    ($(($len:literal; $($t:ident),+))*) => {$(
        impl<'de, $($t: Deserialize<'de>),+> Deserialize<'de> for ($($t,)+) {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                let wrong_len = || D::Error::custom(concat!("expected array of length ", $len));
                match deserializer.pull()? {
                    Next::Seq(mut seq) => {
                        let tuple = ($(seq.next_element::<$t>()?.ok_or_else(wrong_len)?,)+);
                        match seq.next_element::<IgnoredAny>()? {
                            None => Ok(tuple),
                            Some(_) => Err(wrong_len()),
                        }
                    }
                    other => Err(other.unexpected(concat!("array of length ", $len))),
                }
            }
        }
    )*};
}
de_tuple! {
    (1; T0)
    (2; T0, T1)
    (3; T0, T1, T2)
    (4; T0, T1, T2, T3)
}

/// Recovers a map key from its JSON-object string form: first as the
/// string itself, then — for numeric or boolean key types — as the
/// number or bool it spells.
pub fn key_from_string<'de, K: Deserialize<'de>, E: Error>(key: Cow<'de, str>) -> Result<K, E> {
    let first = match K::deserialize(scalar::<E>(Next::Str(key.clone()))) {
        Ok(v) => return Ok(v),
        Err(first) => first,
    };
    let reparsed = if let Ok(u) = key.parse::<u64>() {
        Next::Number(Number::PosInt(u))
    } else if let Ok(i) = key.parse::<i64>() {
        Next::Number(Number::NegInt(i))
    } else if key == "true" || key == "false" {
        Next::Bool(key == "true")
    } else {
        return Err(first);
    };
    K::deserialize(scalar::<E>(reparsed)).map_err(|_| first)
}

fn deserialize_map<'de, K, V, D, C>(deserializer: D) -> Result<C, D::Error>
where
    K: Deserialize<'de>,
    V: Deserialize<'de>,
    D: Deserializer<'de>,
    C: Default + Extend<(K, V)>,
{
    match deserializer.pull()? {
        Next::Map(mut map) => {
            let mut out = C::default();
            while let Some(key) = map.next_key()? {
                let key = key_from_string(key)?;
                let value = map.next_value()?;
                out.extend(std::iter::once((key, value)));
            }
            Ok(out)
        }
        other => Err(other.unexpected("object")),
    }
}

impl<'de, K, V, H> Deserialize<'de> for std::collections::HashMap<K, V, H>
where
    K: Deserialize<'de> + std::hash::Hash + Eq,
    V: Deserialize<'de>,
    H: std::hash::BuildHasher + Default,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserialize_map(deserializer)
    }
}

impl<'de, K, V> Deserialize<'de> for std::collections::BTreeMap<K, V>
where
    K: Deserialize<'de> + Ord,
    V: Deserialize<'de>,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserialize_map(deserializer)
    }
}

/// `&'static str` deserialization leaks the string. Only catalog metadata
/// types carry static strings, and they are deserialized rarely (if ever)
/// — real serde would demand borrowed input here instead.
impl<'de> Deserialize<'de> for &'static str {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        String::deserialize(deserializer).map(|s| -> &'static str { Box::leak(s.into_boxed_str()) })
    }
}

impl<'de, T, H> Deserialize<'de> for std::collections::HashSet<T, H>
where
    T: Deserialize<'de> + std::hash::Hash + Eq,
    H: std::hash::BuildHasher + Default,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Vec::<T>::deserialize(deserializer).map(|v| v.into_iter().collect())
    }
}

impl<'de, T> Deserialize<'de> for std::collections::BTreeSet<T>
where
    T: Deserialize<'de> + Ord,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Vec::<T>::deserialize(deserializer).map(|v| v.into_iter().collect())
    }
}

impl<'de> Deserialize<'de> for std::time::Duration {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.pull()? {
            Next::Map(mut map) => {
                let (mut secs, mut nanos) = (0, 0);
                while let Some(key) = map.next_key()? {
                    // A field that is not a u64 reads as 0.
                    let value = map.next_value::<Content>()?.as_u64().unwrap_or(0);
                    match &*key {
                        "secs" => secs = value,
                        "nanos" => nanos = value,
                        _ => {}
                    }
                }
                Ok(std::time::Duration::new(secs, nanos as u32))
            }
            Next::Number(Number::PosInt(secs)) => Ok(std::time::Duration::from_secs(secs)),
            other => Err(other.unexpected("duration")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ser::TreeError;
    use std::collections::BTreeMap;

    fn tree(pairs: &[(&str, Content)]) -> Content {
        Content::Object(
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn option_reads_null_as_none() {
        assert_eq!(
            from_content::<Option<u8>, TreeError>(Content::Null).unwrap(),
            None
        );
        let three = Content::Number(Number::PosInt(3));
        assert_eq!(
            from_content::<Option<u8>, TreeError>(three).unwrap(),
            Some(3)
        );
        assert_eq!(missing_field::<Option<u8>, TreeError>().unwrap(), None);
        assert!(missing_field::<u8, TreeError>().is_err());
    }

    #[test]
    fn numeric_map_keys_come_back_from_strings() {
        let object = tree(&[("10", Content::Bool(true)), ("2", Content::Bool(false))]);
        let map: BTreeMap<u64, bool> = from_content::<_, TreeError>(object).unwrap();
        assert_eq!(map, BTreeMap::from([(2, false), (10, true)]));
        let bad = tree(&[("x", Content::Bool(true))]);
        assert!(from_content::<BTreeMap<u64, bool>, TreeError>(bad).is_err());
    }

    #[test]
    fn tuples_need_their_exact_length() {
        let arr =
            |n: u64| Content::Array((0..n).map(|i| Content::Number(Number::PosInt(i))).collect());
        assert_eq!(from_content::<(u8, u8), TreeError>(arr(2)).unwrap(), (0, 1));
        assert!(from_content::<(u8, u8), TreeError>(arr(1)).is_err());
        assert!(from_content::<(u8, u8), TreeError>(arr(3)).is_err());
    }
}
