//! Serialization half of the shim.
//!
//! A [`Serializer`] receives a value as a stream of calls — scalars
//! directly, containers through a [`SerializeSeq`] or [`SerializeMap`]
//! that takes the elements one at a time — so a format can write its
//! output as it goes. [`ContentSerializer`] is the one serializer that
//! builds a [`Content`] tree; `serde_json`'s text writer builds none.
//!
//! Object keys reach a serializer already in output order: derived
//! structs emit their fields sorted by name, and the map impls sort
//! their entries by rendered key, which is the order a
//! `BTreeMap<String, _>` tree would give.

use crate::content::{Content, Map, Number};
use std::fmt::{self, Display};
use std::marker::PhantomData;

/// Error constraint for serializer errors (mirrors `serde::ser::Error`).
pub trait Error: Sized + std::error::Error {
    /// Builds an error from a message.
    fn custom<T: Display>(msg: T) -> Self;
}

/// A data format that values stream themselves into.
pub trait Serializer: Sized {
    /// Output on success.
    type Ok;
    /// Error type.
    type Error: Error;
    /// Sink for the elements of an array.
    type SerializeSeq: SerializeSeq<Ok = Self::Ok, Error = Self::Error>;
    /// Sink for the entries of an object.
    type SerializeMap: SerializeMap<Ok = Self::Ok, Error = Self::Error>;

    /// Serializes a string.
    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error>;

    /// Serializes a bool.
    fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error>;

    /// Serializes an unsigned integer.
    fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error>;

    /// Serializes a signed integer; non-negative values go through
    /// [`serialize_u64`](Self::serialize_u64).
    fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error>;

    /// Serializes a float.
    fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error>;

    /// Serializes a unit value (`null`).
    fn serialize_unit(self) -> Result<Self::Ok, Self::Error>;

    /// Serializes `None` (`null`).
    fn serialize_none(self) -> Result<Self::Ok, Self::Error> {
        self.serialize_unit()
    }

    /// Begins an array.
    fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq, Self::Error>;

    /// Begins an object. Entries must arrive in output order.
    fn serialize_map(self, len: Option<usize>) -> Result<Self::SerializeMap, Self::Error>;

    /// Begins a struct: an object whose keys are its field names.
    fn serialize_struct(
        self,
        _name: &'static str,
        len: usize,
    ) -> Result<Self::SerializeMap, Self::Error> {
        self.serialize_map(Some(len))
    }

    /// Serializes `{"variant": value}`.
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        variant: &'static str,
        value: &T,
    ) -> Result<Self::Ok, Self::Error> {
        let mut map = self.serialize_map(Some(1))?;
        map.serialize_entry(variant, value)?;
        map.end()
    }

    /// Begins `{"variant": [ ... ]}`; `end` closes both levels.
    fn serialize_tuple_variant(
        self,
        variant: &'static str,
        len: usize,
    ) -> Result<Self::SerializeSeq, Self::Error>;

    /// Begins `{"variant": { ... }}`; `end` closes both levels.
    fn serialize_struct_variant(
        self,
        variant: &'static str,
        len: usize,
    ) -> Result<Self::SerializeMap, Self::Error>;
}

/// Receives the elements of an array.
pub trait SerializeSeq {
    /// Output on success.
    type Ok;
    /// Error type.
    type Error: Error;
    /// Serializes one element.
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;
    /// Closes the array.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Receives the entries of an object, in output order.
pub trait SerializeMap {
    /// Output on success.
    type Ok;
    /// Error type.
    type Error: Error;
    /// Serializes one `key: value` entry.
    fn serialize_entry<V: Serialize + ?Sized>(
        &mut self,
        key: &str,
        value: &V,
    ) -> Result<(), Self::Error>;
    /// Closes the object.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// A value serializable into the shim's data model.
pub trait Serialize {
    /// Serializes `self`.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// Error of in-memory tree (de)serialization.
#[derive(Debug)]
pub struct TreeError(String);

impl Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TreeError {}

impl Error for TreeError {
    fn custom<T: Display>(msg: T) -> Self {
        TreeError(msg.to_string())
    }
}

impl crate::de::Error for TreeError {
    fn custom<T: Display>(msg: T) -> Self {
        TreeError(msg.to_string())
    }
}

/// Serializer that materializes the value tree itself, with the
/// caller's error type.
pub struct ContentSerializer<E>(PhantomData<E>);

impl<E> ContentSerializer<E> {
    /// A tree serializer.
    pub fn new() -> Self {
        ContentSerializer(PhantomData)
    }
}

impl<E> Default for ContentSerializer<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Array or object under construction, with the variant name that
/// wraps it, if any.
pub struct ContentCompound<C, E> {
    items: C,
    variant: Option<&'static str>,
    _marker: PhantomData<E>,
}

impl<C, E> ContentCompound<C, E> {
    fn new(items: C, variant: Option<&'static str>) -> Self {
        ContentCompound {
            items,
            variant,
            _marker: PhantomData,
        }
    }

    fn finish(variant: Option<&'static str>, inner: Content) -> Content {
        match variant {
            Some(name) => Content::Object(Map::from([(name.to_owned(), inner)])),
            None => inner,
        }
    }
}

impl<E: Error> Serializer for ContentSerializer<E> {
    type Ok = Content;
    type Error = E;
    type SerializeSeq = ContentCompound<Vec<Content>, E>;
    type SerializeMap = ContentCompound<Map, E>;

    fn serialize_str(self, v: &str) -> Result<Content, E> {
        Ok(Content::String(v.to_owned()))
    }
    fn serialize_bool(self, v: bool) -> Result<Content, E> {
        Ok(Content::Bool(v))
    }
    fn serialize_u64(self, v: u64) -> Result<Content, E> {
        Ok(Content::Number(Number::PosInt(v)))
    }
    fn serialize_i64(self, v: i64) -> Result<Content, E> {
        if v >= 0 {
            self.serialize_u64(v as u64)
        } else {
            Ok(Content::Number(Number::NegInt(v)))
        }
    }
    fn serialize_f64(self, v: f64) -> Result<Content, E> {
        Ok(Content::Number(Number::Float(v)))
    }
    fn serialize_unit(self) -> Result<Content, E> {
        Ok(Content::Null)
    }
    fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq, E> {
        Ok(ContentCompound::new(
            Vec::with_capacity(len.unwrap_or(0)),
            None,
        ))
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<Self::SerializeMap, E> {
        Ok(ContentCompound::new(Map::new(), None))
    }
    fn serialize_tuple_variant(
        self,
        variant: &'static str,
        len: usize,
    ) -> Result<Self::SerializeSeq, E> {
        Ok(ContentCompound::new(Vec::with_capacity(len), Some(variant)))
    }
    fn serialize_struct_variant(
        self,
        variant: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeMap, E> {
        Ok(ContentCompound::new(Map::new(), Some(variant)))
    }
}

impl<E: Error> SerializeSeq for ContentCompound<Vec<Content>, E> {
    type Ok = Content;
    type Error = E;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), E> {
        self.items.push(value.serialize(ContentSerializer::new())?);
        Ok(())
    }
    fn end(self) -> Result<Content, E> {
        Ok(Self::finish(self.variant, Content::Array(self.items)))
    }
}

impl<E: Error> SerializeMap for ContentCompound<Map, E> {
    type Ok = Content;
    type Error = E;
    fn serialize_entry<V: Serialize + ?Sized>(&mut self, key: &str, value: &V) -> Result<(), E> {
        let value = value.serialize(ContentSerializer::new())?;
        self.items.insert(key.to_owned(), value);
        Ok(())
    }
    fn end(self) -> Result<Content, E> {
        Ok(Self::finish(self.variant, Content::Object(self.items)))
    }
}

/// Converts any serializable value to its tree form.
pub fn to_content<T: Serialize + ?Sized, E: Error>(value: &T) -> Result<Content, E> {
    value.serialize(ContentSerializer::new())
}

/// Serializer half of a format that cannot take containers: every
/// compound entry point of [`KeySerializer`] fails before one exists.
pub enum Impossible<Ok, E> {
    #[doc(hidden)]
    Never(std::convert::Infallible, PhantomData<(Ok, E)>),
}

impl<Ok, E: Error> SerializeSeq for Impossible<Ok, E> {
    type Ok = Ok;
    type Error = E;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, _value: &T) -> Result<(), E> {
        match *self {
            Impossible::Never(never, _) => match never {},
        }
    }
    fn end(self) -> Result<Ok, E> {
        match self {
            Impossible::Never(never, _) => match never {},
        }
    }
}

impl<Ok, E: Error> SerializeMap for Impossible<Ok, E> {
    type Ok = Ok;
    type Error = E;
    fn serialize_entry<V: Serialize + ?Sized>(&mut self, _key: &str, _value: &V) -> Result<(), E> {
        match *self {
            Impossible::Never(never, _) => match never {},
        }
    }
    fn end(self) -> Result<Ok, E> {
        match self {
            Impossible::Never(never, _) => match never {},
        }
    }
}

/// Renders a map key to its JSON-object string form. JSON object keys
/// must be strings; anything that serializes to a string, number or
/// bool qualifies — the same rule real serde_json enforces at runtime.
pub struct KeySerializer<E>(PhantomData<E>);

impl<E: Error> KeySerializer<E> {
    fn not_a_key(kind: &str) -> E {
        E::custom(format!(
            "map key must serialize to a string, number or bool, got {kind}"
        ))
    }
}

impl<E: Error> Serializer for KeySerializer<E> {
    type Ok = String;
    type Error = E;
    type SerializeSeq = Impossible<String, E>;
    type SerializeMap = Impossible<String, E>;

    fn serialize_str(self, v: &str) -> Result<String, E> {
        Ok(v.to_owned())
    }
    fn serialize_bool(self, v: bool) -> Result<String, E> {
        Ok(v.to_string())
    }
    fn serialize_u64(self, v: u64) -> Result<String, E> {
        Ok(v.to_string())
    }
    fn serialize_i64(self, v: i64) -> Result<String, E> {
        Ok(v.to_string())
    }
    fn serialize_f64(self, v: f64) -> Result<String, E> {
        Ok(v.to_string())
    }
    fn serialize_unit(self) -> Result<String, E> {
        Err(Self::not_a_key("null"))
    }
    fn serialize_seq(self, _len: Option<usize>) -> Result<Self::SerializeSeq, E> {
        Err(Self::not_a_key("an array"))
    }
    fn serialize_map(self, _len: Option<usize>) -> Result<Self::SerializeMap, E> {
        Err(Self::not_a_key("an object"))
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _variant: &'static str,
        _value: &T,
    ) -> Result<String, E> {
        Err(Self::not_a_key("an object"))
    }
    fn serialize_tuple_variant(
        self,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeSeq, E> {
        Err(Self::not_a_key("an object"))
    }
    fn serialize_struct_variant(
        self,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeMap, E> {
        Err(Self::not_a_key("an object"))
    }
}

/// Renders a map key through its serialized form (see [`KeySerializer`]).
pub fn key_string<K: Serialize + ?Sized, E: Error>(key: &K) -> Result<String, E> {
    key.serialize(KeySerializer(PhantomData))
}

/// Serializes map entries as an object sorted by rendered key, keeping
/// the last of entries whose keys render equal — the order and the
/// collision rule of a tree built with `BTreeMap<String, _>::insert`.
fn serialize_sorted_map<'a, K, V, I, S>(entries: I, serializer: S) -> Result<S::Ok, S::Error>
where
    K: Serialize + 'a,
    V: Serialize + 'a,
    I: ExactSizeIterator<Item = (&'a K, &'a V)>,
    S: Serializer,
{
    let mut keyed = Vec::with_capacity(entries.len());
    for (k, v) in entries {
        keyed.push((key_string::<K, S::Error>(k)?, v));
    }
    // Stable, so equal keys keep their iteration order and the last wins.
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    let mut map = serializer.serialize_map(Some(keyed.len()))?;
    for (i, (k, v)) in keyed.iter().enumerate() {
        if keyed.get(i + 1).is_some_and(|next| next.0 == *k) {
            continue;
        }
        map.serialize_entry(k, *v)?;
    }
    map.end()
}

fn serialize_iter<'a, T, I, S>(items: I, serializer: S) -> Result<S::Ok, S::Error>
where
    T: Serialize + 'a,
    I: ExactSizeIterator<Item = &'a T>,
    S: Serializer,
{
    let mut seq = serializer.serialize_seq(Some(items.len()))?;
    for item in items {
        seq.serialize_element(item)?;
    }
    seq.end()
}

// ---------------------------------------------------------------- impls --

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::rc::Rc<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_bool(*self)
    }
}

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_u64(*self as u64)
            }
        }
    )*};
}
ser_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_i64(*self as i64)
            }
        }
    )*};
}
ser_int!(i8, i16, i32, i64, isize);

impl Serialize for f32 {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_f64(*self as f64)
    }
}

impl Serialize for f64 {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_f64(*self)
    }
}

impl Serialize for char {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self.encode_utf8(&mut [0; 4]))
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
}

impl Serialize for () {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_unit()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(v) => v.serialize(serializer),
            None => serializer.serialize_none(),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serialize_iter(self.iter(), serializer)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(serializer)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(serializer)
    }
}

macro_rules! ser_tuple {
    ($(($len:literal; $($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                let mut seq = serializer.serialize_seq(Some($len))?;
                $(seq.serialize_element(&self.$n)?;)+
                seq.end()
            }
        }
    )*};
}
ser_tuple! {
    (1; 0 A)
    (2; 0 A, 1 B)
    (3; 0 A, 1 B, 2 C)
    (4; 0 A, 1 B, 2 C, 3 D)
}

impl<K: Serialize, V: Serialize, H> Serialize for std::collections::HashMap<K, V, H> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serialize_sorted_map(self.iter(), serializer)
    }
}

impl<K: Serialize, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serialize_sorted_map(self.iter(), serializer)
    }
}

impl<T: Serialize + Ord> Serialize for std::collections::BTreeSet<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serialize_iter(self.iter(), serializer)
    }
}

impl<T: Serialize, H> Serialize for std::collections::HashSet<T, H> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serialize_iter(self.iter(), serializer)
    }
}

/// A tree serializes by reference: objects are already in key order.
impl Serialize for Content {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Content::Null => serializer.serialize_unit(),
            Content::Bool(b) => serializer.serialize_bool(*b),
            Content::Number(Number::PosInt(n)) => serializer.serialize_u64(*n),
            Content::Number(Number::NegInt(n)) => serializer.serialize_i64(*n),
            Content::Number(Number::Float(n)) => serializer.serialize_f64(*n),
            Content::String(s) => serializer.serialize_str(s),
            Content::Array(items) => serialize_iter(items.iter(), serializer),
            Content::Object(map) => {
                let mut out = serializer.serialize_map(Some(map.len()))?;
                for (k, v) in map {
                    out.serialize_entry(k, v)?;
                }
                out.end()
            }
        }
    }
}

impl Serialize for std::time::Duration {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_struct("Duration", 2)?;
        map.serialize_entry("nanos", &self.subsec_nanos())?;
        map.serialize_entry("secs", &self.as_secs())?;
        map.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap};

    #[test]
    fn key_string_renders_scalars() {
        assert_eq!(key_string::<_, TreeError>("k").unwrap(), "k");
        assert_eq!(key_string::<_, TreeError>(&7u32).unwrap(), "7");
        assert_eq!(key_string::<_, TreeError>(&-3i64).unwrap(), "-3");
        assert_eq!(key_string::<_, TreeError>(&true).unwrap(), "true");
    }

    #[test]
    fn key_string_rejects_non_scalar_keys_with_an_error() {
        let err = key_string::<_, TreeError>(&vec![1u8]).unwrap_err();
        assert!(err.to_string().contains("map key"), "{err}");
        assert!(key_string::<_, TreeError>(&()).is_err());
        assert!(key_string::<_, TreeError>(&(1u8, 2u8)).is_err());
        // A map keyed by such a type fails to serialize instead of panicking.
        let map = BTreeMap::from([((1u8, 2u8), 3u8)]);
        assert!(map
            .serialize(ContentSerializer::<TreeError>::new())
            .is_err());
    }

    #[test]
    fn maps_order_entries_by_rendered_key() {
        // Numeric order 2 < 10; string order "10" < "2".
        let map = HashMap::from([(2u64, "two"), (10u64, "ten")]);
        let Ok(Content::Object(tree)) = to_content::<_, TreeError>(&map) else {
            panic!("a map renders as an object");
        };
        assert_eq!(tree.keys().collect::<Vec<_>>(), ["10", "2"]);
    }
}
