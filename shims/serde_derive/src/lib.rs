//! `#[derive(Serialize, Deserialize)]` for the offline serde shim.
//!
//! Hand-rolled over `proc_macro::TokenTree` (no `syn`/`quote` in the
//! offline environment). Supports the shapes this workspace uses:
//! named-field structs, tuple structs (serde newtype semantics for a
//! single field), unit structs, and externally-tagged enums with unit,
//! newtype, tuple and struct variants. Generics are not supported. A
//! raw-identifier field (`r#type`) uses its bare name as the JSON key.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::iter::Peekable;

enum Fields {
    Unit,
    Named(Vec<String>),
    Tuple(usize),
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

type Tokens = Peekable<proc_macro::token_stream::IntoIter>;

fn skip_attributes(tokens: &mut Tokens) {
    loop {
        match tokens.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                tokens.next();
                // The bracketed attribute body.
                tokens.next();
            }
            _ => break,
        }
    }
}

fn skip_visibility(tokens: &mut Tokens) {
    if let Some(TokenTree::Ident(i)) = tokens.peek() {
        if i.to_string() == "pub" {
            tokens.next();
            if let Some(TokenTree::Group(g)) = tokens.peek() {
                if g.delimiter() == Delimiter::Parenthesis {
                    tokens.next();
                }
            }
        }
    }
}

fn expect_ident(tokens: &mut Tokens, what: &str) -> String {
    match tokens.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde shim derive: expected {what}, found {other:?}"),
    }
}

/// Parses the fields of a brace-delimited body: `name: Type, ...`.
fn parse_named_fields(group: proc_macro::Group) -> Vec<String> {
    let mut names = Vec::new();
    let mut tokens: Tokens = group.stream().into_iter().peekable();
    loop {
        skip_attributes(&mut tokens);
        skip_visibility(&mut tokens);
        let Some(TokenTree::Ident(name)) = tokens.next() else {
            break;
        };
        names.push(name.to_string());
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde shim derive: expected ':' after field, found {other:?}"),
        }
        // Skip the type up to a comma at angle-bracket depth 0.
        let mut angle_depth = 0i32;
        loop {
            match tokens.peek() {
                None => break,
                Some(TokenTree::Punct(p)) => {
                    let c = p.as_char();
                    if c == ',' && angle_depth == 0 {
                        tokens.next();
                        break;
                    }
                    if c == '<' {
                        angle_depth += 1;
                    } else if c == '>' {
                        angle_depth -= 1;
                    }
                    tokens.next();
                }
                Some(_) => {
                    tokens.next();
                }
            }
        }
    }
    names
}

/// Counts the fields of a paren-delimited tuple body.
fn count_tuple_fields(group: proc_macro::Group) -> usize {
    let mut count = 0usize;
    let mut any = false;
    let mut angle_depth = 0i32;
    for tt in group.stream() {
        any = true;
        if let TokenTree::Punct(p) = &tt {
            match p.as_char() {
                ',' if angle_depth == 0 => count += 1,
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                _ => {}
            }
        }
    }
    if !any {
        0
    } else {
        // Trailing commas are not used in this codebase's tuple structs.
        count + 1
    }
}

fn parse_variants(group: proc_macro::Group) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut tokens: Tokens = group.stream().into_iter().peekable();
    loop {
        skip_attributes(&mut tokens);
        let Some(TokenTree::Ident(name)) = tokens.next() else {
            break;
        };
        let fields = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let g = g.clone();
                tokens.next();
                Fields::Tuple(count_tuple_fields(g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let g = g.clone();
                tokens.next();
                Fields::Named(parse_named_fields(g))
            }
            _ => Fields::Unit,
        };
        variants.push(Variant {
            name: name.to_string(),
            fields,
        });
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ',' => {}
            None => break,
            other => panic!("serde shim derive: expected ',' between variants, found {other:?}"),
        }
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let mut tokens: Tokens = input.into_iter().peekable();
    skip_attributes(&mut tokens);
    skip_visibility(&mut tokens);
    let kind = expect_ident(&mut tokens, "struct/enum keyword");
    let name = expect_ident(&mut tokens, "type name");
    if let Some(TokenTree::Punct(p)) = tokens.peek() {
        if p.as_char() == '<' {
            panic!("serde shim derive: generic types are not supported ({name})");
        }
    }
    match kind.as_str() {
        "struct" => {
            let fields = match tokens.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                other => panic!("serde shim derive: unexpected struct body {other:?}"),
            };
            Item::Struct { name, fields }
        }
        "enum" => {
            let variants = match tokens.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => parse_variants(g),
                other => panic!("serde shim derive: unexpected enum body {other:?}"),
            };
            Item::Enum { name, variants }
        }
        other => panic!("serde shim derive: cannot derive for `{other}` items"),
    }
}

// ------------------------------------------------------------ serialize --
//
// Generated serializers stream: a struct opens an object on the
// serializer and writes its fields one by one, sorted by name — the
// order a `BTreeMap<String, _>` tree gives, decided here at expansion
// time. Enums are externally tagged: `"Unit"`, `{"Variant": payload}`.

/// The JSON key of a field: its name, without any raw-identifier `r#`.
fn key(name: &str) -> &str {
    name.strip_prefix("r#").unwrap_or(name)
}

/// Field indices in output order: sorted by key.
fn sorted(names: &[String]) -> Vec<(usize, &String)> {
    let mut fields: Vec<_> = names.iter().enumerate().collect();
    fields.sort_by(|a, b| key(a.1).cmp(key(b.1)));
    fields
}

/// Statements writing named fields into the open object `__c`, then
/// closing it. `access(i, name)` is the expression for field `i`.
fn write_entries(names: &[String], access: impl Fn(usize, &str) -> String) -> String {
    let mut out = String::new();
    for (i, n) in sorted(names) {
        out.push_str(&format!(
            "::serde::ser::SerializeMap::serialize_entry(&mut __c, \"{}\", {})?;\n",
            key(n),
            access(i, n)
        ));
    }
    out + "::serde::ser::SerializeMap::end(__c)"
}

/// Statements writing `n` elements into the open array `__c`, then
/// closing it.
fn write_elements(n: usize, access: impl Fn(usize) -> String) -> String {
    let mut out = String::new();
    for i in 0..n {
        out.push_str(&format!(
            "::serde::ser::SerializeSeq::serialize_element(&mut __c, {})?;\n",
            access(i)
        ));
    }
    out + "::serde::ser::SerializeSeq::end(__c)"
}

fn gen_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => (name, serialize_struct_body(name, fields)),
        Item::Enum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| serialize_variant_arm(name, v))
                .collect();
            (name, format!("match self {{ {arms} }}"))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn serialize<__S: ::serde::Serializer>(&self, __serializer: __S) \
         -> ::core::result::Result<__S::Ok, __S::Error> {{\n{body}\n}}\n}}"
    )
}

fn serialize_struct_body(name: &str, fields: &Fields) -> String {
    match fields {
        Fields::Unit => "::serde::Serializer::serialize_unit(__serializer)".to_string(),
        Fields::Named(names) => format!(
            "let mut __c = ::serde::Serializer::serialize_struct(__serializer, \"{name}\", {})?;\n{}",
            names.len(),
            write_entries(names, |_, n| format!("&self.{n}"))
        ),
        Fields::Tuple(1) => "::serde::Serialize::serialize(&self.0, __serializer)".to_string(),
        Fields::Tuple(n) => format!(
            "let mut __c = ::serde::Serializer::serialize_seq(\
             __serializer, ::core::option::Option::Some({n}))?;\n{}",
            write_elements(*n, |i| format!("&self.{i}"))
        ),
    }
}

fn serialize_variant_arm(enum_name: &str, v: &Variant) -> String {
    let vname = &v.name;
    let path = format!("{enum_name}::{vname}");
    match &v.fields {
        Fields::Unit => {
            format!("{path} => ::serde::Serializer::serialize_str(__serializer, \"{vname}\"),\n")
        }
        Fields::Tuple(1) => format!(
            "{path}(__b0) => ::serde::Serializer::serialize_newtype_variant(\
             __serializer, \"{vname}\", __b0),\n"
        ),
        Fields::Tuple(n) => {
            let binds: Vec<String> = (0..*n).map(|i| format!("__b{i}")).collect();
            format!(
                "{path}({}) => {{\nlet mut __c = ::serde::Serializer::serialize_tuple_variant(\
                 __serializer, \"{vname}\", {n})?;\n{}\n}}\n",
                binds.join(", "),
                write_elements(*n, |i| format!("__b{i}"))
            )
        }
        Fields::Named(names) => {
            let binds: Vec<String> = names
                .iter()
                .enumerate()
                .map(|(i, n)| format!("{n}: __b{i}"))
                .collect();
            format!(
                "{path} {{ {} }} => {{\nlet mut __c = ::serde::Serializer::serialize_struct_variant(\
                 __serializer, \"{vname}\", {})?;\n{}\n}}\n",
                binds.join(", "),
                names.len(),
                write_entries(names, |i, _| format!("__b{i}"))
            )
        }
    }
}

// ---------------------------------------------------------- deserialize --
//
// Generated deserializers pull: they read the head of the value, then
// drain an object key by key (or an array element by element), reading
// each field straight into its own type. Unknown keys are skipped, a
// missing field reads as `null`, and a repeated key keeps its last value.

/// `match` on the value pulled from `__deserializer`: `pattern` (a
/// `Next` variant) runs `body`; any other shape is an error naming
/// `expected`.
fn pull_match(pattern: &str, body: &str, expected: &str) -> String {
    format!(
        "match ::serde::Deserializer::pull(__deserializer)? {{\n\
         ::serde::de::Next::{pattern} => {{\n{body}\n}}\n\
         __other => ::core::result::Result::Err(__other.unexpected(\"{expected}\")),\n}}"
    )
}

/// Body draining the object `__map` into `path { names }`.
fn named_fields_body(path: &str, names: &[String]) -> String {
    let mut decls = String::new();
    let mut arms = String::new();
    let mut inits = String::new();
    for (i, n) in names.iter().enumerate() {
        decls.push_str(&format!("let mut __f{i} = ::core::option::Option::None;\n"));
        arms.push_str(&format!(
            "\"{}\" => __f{i} = ::core::option::Option::Some(\
             ::serde::de::MapAccess::next_value(&mut __map)?),\n",
            key(n)
        ));
        inits.push_str(&format!(
            "{n}: match __f{i} {{\n\
             ::core::option::Option::Some(__v) => __v,\n\
             ::core::option::Option::None => ::serde::__private::missing_field::<_, __D::Error>()?,\n}},\n"
        ));
    }
    format!(
        "{decls}while let ::core::option::Option::Some(__key) = \
         ::serde::de::MapAccess::next_key(&mut __map)? {{\n\
         match &*__key {{\n{arms}\
         _ => {{ ::serde::de::MapAccess::next_value::<::serde::de::IgnoredAny>(&mut __map)?; }}\n}}\n}}\n\
         ::core::result::Result::Ok({path} {{\n{inits}}})"
    )
}

/// Body reading `n` elements of the array `__seq` into `path(..)`:
/// missing elements read as `null`, extra ones are skipped.
fn tuple_fields_body(path: &str, n: usize) -> String {
    let mut lets = String::new();
    for i in 0..n {
        lets.push_str(&format!(
            "let __f{i} = match ::serde::de::SeqAccess::next_element(&mut __seq)? {{\n\
             ::core::option::Option::Some(__v) => __v,\n\
             ::core::option::Option::None => ::serde::__private::missing_field::<_, __D::Error>()?,\n}};\n"
        ));
    }
    let args: Vec<String> = (0..n).map(|i| format!("__f{i}")).collect();
    format!(
        "{lets}while ::serde::de::SeqAccess::next_element::<::serde::de::IgnoredAny>(&mut __seq)?\
         .is_some() {{}}\n::core::result::Result::Ok({path}({}))",
        args.join(", ")
    )
}

const IGNORE_VALUE: &str =
    "<::serde::de::IgnoredAny as ::serde::Deserialize>::deserialize(__deserializer)?;";

fn gen_deserialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => (name, deserialize_struct_body(name, fields)),
        Item::Enum { name, variants } => (name, deserialize_enum_body(name, variants)),
    };
    format!(
        "impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
         fn deserialize<__D: ::serde::Deserializer<'de>>(__deserializer: __D) \
         -> ::core::result::Result<Self, __D::Error> {{\n{body}\n}}\n}}"
    )
}

fn deserialize_struct_body(name: &str, fields: &Fields) -> String {
    match fields {
        Fields::Unit => format!("{IGNORE_VALUE}\n::core::result::Result::Ok({name})"),
        Fields::Named(names) => pull_match(
            "Map(mut __map)",
            &named_fields_body(name, names),
            &format!("object for struct {name}"),
        ),
        Fields::Tuple(1) => format!(
            "::core::result::Result::Ok({name}(::serde::Deserialize::deserialize(__deserializer)?))"
        ),
        Fields::Tuple(n) => pull_match(
            "Seq(mut __seq)",
            &tuple_fields_body(name, *n),
            &format!("array for struct {name}"),
        ),
    }
}

/// An enum reads `"Unit"` directly; for `{"Variant": payload}` it reads
/// the key, then the payload through the `__Variant` seed, which knows
/// the payload's shape from the key.
fn deserialize_enum_body(name: &str, variants: &[Variant]) -> String {
    let mut unit_arms = String::new();
    let mut payload_arms = String::new();
    for v in variants {
        let vname = &v.name;
        let path = format!("{name}::{vname}");
        let arm = match &v.fields {
            Fields::Unit => {
                unit_arms.push_str(&format!(
                    "\"{vname}\" => ::core::result::Result::Ok({path}),\n"
                ));
                // Tolerate the {"Variant": null} spelling, too.
                format!("{{ {IGNORE_VALUE} ::core::result::Result::Ok({path}) }}")
            }
            Fields::Tuple(1) => format!(
                "::core::result::Result::Ok({path}(::serde::Deserialize::deserialize(__deserializer)?))"
            ),
            Fields::Tuple(n) => pull_match(
                "Seq(mut __seq)",
                &tuple_fields_body(&path, *n),
                &format!("array payload for {path}"),
            ),
            Fields::Named(names) => pull_match(
                "Map(mut __map)",
                &named_fields_body(&path, names),
                &format!("object payload for {path}"),
            ),
        };
        payload_arms.push_str(&format!("\"{vname}\" => {arm},\n"));
    }
    let unknown = format!(
        "__other => ::core::result::Result::Err(<__D::Error as ::serde::de::Error>::custom(\
         ::std::format!(\"unknown {name} variant {{__other:?}}\"))),\n"
    );
    let custom = |msg: String| {
        format!(
            "::core::result::Result::Err(<__D::Error as ::serde::de::Error>::custom(\"{msg}\"))"
        )
    };
    format!(
        "struct __Variant<'__k>(&'__k str);\n\
         impl<'de> ::serde::de::DeserializeSeed<'de> for __Variant<'_> {{\n\
         type Value = {name};\n\
         fn deserialize<__D: ::serde::Deserializer<'de>>(self, __deserializer: __D) \
         -> ::core::result::Result<{name}, __D::Error> {{\n\
         match self.0 {{\n{payload_arms}{unknown}}}\n}}\n}}\n\
         match ::serde::Deserializer::pull(__deserializer)? {{\n\
         ::serde::de::Next::Str(__s) => match &*__s {{\n{unit_arms}{unknown}}},\n\
         ::serde::de::Next::Map(mut __map) => {{\n\
         let __key = match ::serde::de::MapAccess::next_key(&mut __map)? {{\n\
         ::core::option::Option::Some(__key) => __key,\n\
         ::core::option::Option::None => return {},\n}};\n\
         let __value = ::serde::de::MapAccess::next_value_seed(&mut __map, __Variant(&__key))?;\n\
         match ::serde::de::MapAccess::next_key(&mut __map)? {{\n\
         ::core::option::Option::None => ::core::result::Result::Ok(__value),\n\
         ::core::option::Option::Some(_) => {},\n}}\n}}\n\
         __other => ::core::result::Result::Err(__other.unexpected(\"string or object for enum {name}\")),\n}}",
        custom(format!("empty object for enum {name}")),
        custom(format!("expected a single-key object for enum {name}")),
    )
}

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde shim derive generated invalid Serialize impl")
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde shim derive generated invalid Deserialize impl")
}
