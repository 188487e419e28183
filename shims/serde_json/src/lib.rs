//! Offline shim for the subset of `serde_json` this workspace uses:
//! [`Value`] (re-exported from the serde shim's content tree), the
//! [`json!`] macro, string/byte (de)serialization, and value conversion.
//!
//! Typed text paths build no tree: [`to_string`] / [`to_vec`] stream
//! through the serde shim's JSON writer, and [`from_str`] /
//! [`from_slice`] pull values field by field out of the text. The tree
//! remains where a caller asks for one: [`Value`], [`to_value`],
//! [`from_value`] and [`json!`].

mod parse;

pub use serde::content::{Content as Value, Map, Number};
use serde::de::Error as DeErrorTrait;
use serde::ser::Error as SerErrorTrait;
use serde::{Deserialize, Serialize};
use std::fmt::{self, Display};

/// Errors from (de)serialization or parsing.
#[derive(Debug)]
pub struct Error(String);

impl Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl DeErrorTrait for Error {
    fn custom<T: Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

impl SerErrorTrait for Error {
    fn custom<T: Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

/// Result alias, as in the real crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes a value to its tree form.
pub fn to_value<T: Serialize>(value: T) -> Result<Value> {
    serde::ser::to_content(&value)
}

/// Deserializes a value out of a tree.
pub fn from_value<T: serde::de::DeserializeOwned>(value: Value) -> Result<T> {
    serde::de::from_content(value)
}

/// Renders a value as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    serde::json::to_json_string(value, false)
}

/// Renders a value as two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    serde::json::to_json_string(value, true)
}

/// Renders a value as compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Parses JSON text into any deserializable value.
pub fn from_str<'a, T: Deserialize<'a>>(s: &'a str) -> Result<T> {
    parse::from_str(s)
}

/// Parses JSON bytes into any deserializable value.
pub fn from_slice<'a, T: Deserialize<'a>>(bytes: &'a [u8]) -> Result<T> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error(format!("invalid utf-8: {e}")))?;
    from_str(s)
}

/// Builds a [`Value`] from JSON-like syntax, including interpolated
/// expressions in value position.
#[macro_export]
macro_rules! json {
    ($($json:tt)+) => {
        $crate::json_internal!($($json)+)
    };
}

/// Implementation detail of [`json!`]. A trimmed-down port of
/// serde_json's TT muncher: arrays and objects accumulate value tokens
/// until a comma at depth 0, recursing for nested `[]` / `{}` literals.
#[doc(hidden)]
#[macro_export]
macro_rules! json_internal {
    // ------------------------------------------------- array elements --
    (@array [$($elems:expr,)*]) => {
        vec![$($elems,)*]
    };
    (@array [$($elems:expr),*]) => {
        vec![$($elems),*]
    };
    (@array [$($elems:expr,)*] null $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(null)] $($rest)*)
    };
    (@array [$($elems:expr,)*] true $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(true)] $($rest)*)
    };
    (@array [$($elems:expr,)*] false $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(false)] $($rest)*)
    };
    (@array [$($elems:expr,)*] [$($array:tt)*] $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!([$($array)*])] $($rest)*)
    };
    (@array [$($elems:expr,)*] {$($map:tt)*} $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!({$($map)*})] $($rest)*)
    };
    (@array [$($elems:expr,)*] $next:expr, $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($next),] $($rest)*)
    };
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($last)])
    };
    (@array [$($elems:expr),*] , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)*] $($rest)*)
    };

    // -------------------------------------------------- object entries --
    // Done.
    (@object $object:ident () () ()) => {};
    // Insert the current entry followed by trailing comma.
    (@object $object:ident [$($key:tt)+] ($value:expr) , $($rest:tt)*) => {
        let _ = $object.insert(($($key)+).into(), $value);
        $crate::json_internal!(@object $object () ($($rest)*) ($($rest)*));
    };
    // Current entry followed by unexpected token (error path: absorb).
    (@object $object:ident [$($key:tt)+] ($value:expr) $unexpected:tt $($rest:tt)*) => {
        $crate::json_unexpected!($unexpected)
    };
    // Insert the last entry without trailing comma.
    (@object $object:ident [$($key:tt)+] ($value:expr)) => {
        let _ = $object.insert(($($key)+).into(), $value);
    };
    // Next value is `null`.
    (@object $object:ident ($($key:tt)+) (: null $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(null)) $($rest)*);
    };
    // Next value is `true`.
    (@object $object:ident ($($key:tt)+) (: true $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(true)) $($rest)*);
    };
    // Next value is `false`.
    (@object $object:ident ($($key:tt)+) (: false $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(false)) $($rest)*);
    };
    // Next value is an array.
    (@object $object:ident ($($key:tt)+) (: [$($array:tt)*] $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!([$($array)*])) $($rest)*);
    };
    // Next value is an object.
    (@object $object:ident ($($key:tt)+) (: {$($map:tt)*} $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!({$($map)*})) $($rest)*);
    };
    // Next value is an expression followed by a comma.
    (@object $object:ident ($($key:tt)+) (: $value:expr , $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)) , $($rest)*);
    };
    // Last value is an expression, no trailing comma.
    (@object $object:ident ($($key:tt)+) (: $value:expr) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)));
    };
    // Missing value for the last entry (error).
    (@object $object:ident ($($key:tt)+) (:) $copy:tt) => {
        $crate::json_internal!()
    };
    // Missing colon (error).
    (@object $object:ident ($($key:tt)+) () $copy:tt) => {
        $crate::json_internal!()
    };
    // Munch a token into the current key.
    (@object $object:ident ($($key:tt)*) ($tt:tt $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object ($($key)* $tt) ($($rest)*) ($($rest)*));
    };

    // ------------------------------------------------- primary entries --
    (null) => {
        $crate::Value::Null
    };
    (true) => {
        $crate::Value::Bool(true)
    };
    (false) => {
        $crate::Value::Bool(false)
    };
    ([]) => {
        $crate::Value::Array(::std::vec::Vec::new())
    };
    ([ $($tt:tt)+ ]) => {
        $crate::Value::Array($crate::json_internal!(@array [] $($tt)+))
    };
    ({}) => {
        $crate::Value::Object($crate::Map::new())
    };
    ({ $($tt:tt)+ }) => {
        $crate::Value::Object({
            let mut object = $crate::Map::new();
            $crate::json_internal!(@object object () ($($tt)+) ($($tt)+));
            object
        })
    };
    ($other:expr) => {
        $crate::to_value(&$other).expect("json! value must serialize")
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_unexpected {
    () => {};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_shapes() {
        let v = json!({
            "a": 1,
            "b": [true, null, "x"],
            "nested": {"deep": {"n": 2.5}},
            "expr": 40 + 2,
        });
        assert_eq!(v["a"], 1);
        assert_eq!(v["b"][2], "x");
        assert_eq!(v["nested"]["deep"]["n"], 2.5);
        assert_eq!(v["expr"], 42);
        assert!(v["missing"].is_null());
    }

    #[test]
    fn round_trip_string() {
        let v = json!({"k": [1, 2.5, "s", null, {"x": true}]});
        let s = to_string(&v).unwrap();
        let back: Value = from_str(&s).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn pretty_contains_newlines() {
        let s = to_string_pretty(&json!({"a": 1})).unwrap();
        assert!(s.contains('\n'));
        let back: Value = from_str(&s).unwrap();
        assert_eq!(back["a"], 1);
    }

    #[test]
    fn parses_escapes_and_numbers() {
        let v: Value = from_str(r#"{"s": "a\nbA", "n": -3, "f": 1.5e2}"#).unwrap();
        assert_eq!(v["s"], "a\nbA");
        assert_eq!(v["n"], -3);
        assert_eq!(v["f"], 150.0);
    }
}
