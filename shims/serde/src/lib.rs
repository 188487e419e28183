//! Offline shim for the subset of `serde` this workspace uses.
//!
//! The shim keeps serde's public shape — `Serialize` / `Deserialize`
//! traits generic over `Serializer` / `Deserializer`, plus derive macros —
//! over a reduced, self-describing data model (the JSON types). Values
//! stream through it: a [`Serializer`] takes scalars and container
//! elements as they come ([`json`] writes them straight into the output
//! text), and a [`Deserializer`] is pulled value by value, with derived
//! code reading struct fields as they appear in the input.
//!
//! The [`content::Content`] tree remains only where a caller asks for a
//! tree: `serde_json::Value`, `to_value` (which runs
//! [`ser::ContentSerializer`]), `from_value` (which reads through
//! [`de::ContentDeserializer`]) and `json!`.

pub mod content;
pub mod de;
pub mod json;
pub mod ser;

pub use de::{Deserialize, Deserializer};
pub use ser::{Serialize, Serializer};
pub use serde_derive::{Deserialize, Serialize};

/// Private helpers referenced by `serde_derive`-generated code.
#[doc(hidden)]
pub mod __private {
    pub use crate::de::missing_field;
}
