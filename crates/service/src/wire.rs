//! The declarative codec every wire message and store record goes
//! through.
//!
//! A type crosses the wire through [`Wire`]: `put` appends its compact
//! JSON encoding to a `String` (numbers and strings through
//! [`crate::json`]'s writers, so the bytes are exactly what
//! [`crate::json::Json::encode`] would produce), and `get` reads it
//! back out of a parsed [`Json`] document, failing with a
//! [`ErrorKind::BadRequest`](crate::proto::ErrorKind::BadRequest)
//! that names the offending field. Leaf types implement [`Wire`] by
//! hand, once. Every structured type is one [`table!`] that lists its
//! fields in wire order, each as `field: rule "wire_name"`, so the
//! encoder and decoder are generated from the same line:
//!
//! | rule | encode | absent | present but malformed |
//! |---|---|---|---|
//! | *(none)* | always | error | error |
//! | `default` | always | `Default::default()` | error |
//! | `omit` | skipped when `None` / `false` (its default) | `Default::default()` | error |
//! | `lenient` | skipped when `None` | `None` | `None` (store damage degrades, never fails) |
//! | `flatten` | the field's own fields, inline | — | — |
//! | `skip` | never | `Default::default()` | — |
//!
//! A required field may also name a wrapper codec (`"name" as W`, with
//! `W` a one-field tuple struct implementing [`Wire`]) when its Rust
//! type's usual encoding is not the one on the wire.

use crate::json::{write_num, write_str, Json};
use crate::proto::{bad, ErrorBody};
use std::sync::Arc;

/// A value with one JSON encoding.
pub(crate) trait Wire {
    /// Append the value's compact JSON encoding to `out`.
    fn put(&self, out: &mut String);

    /// Read the value back from a parsed document.
    fn get(v: &Json) -> Result<Self, ErrorBody>
    where
        Self: Sized;
}

/// A type encoded as the fields of a JSON object: the body a
/// [`table!`] generates, which a `flatten` field writes inline into its
/// enclosing object.
pub(crate) trait Fields {
    /// Write this value's fields into an open object.
    fn put_fields(&self, o: &mut Obj<'_>);

    /// Read this value's fields out of an object.
    fn get_fields(v: &Json) -> Result<Self, ErrorBody>
    where
        Self: Sized;
}

/// The wire name of an enum variant: its string value in a
/// `table!(str …)`, its tag value in a `table!(enum …)`.
pub(crate) trait Named {
    /// The variant's wire name.
    fn name(&self) -> &'static str;
}

/// Encode one value to a fresh string.
pub(crate) fn encode<T: Wire + ?Sized>(v: &T) -> String {
    let mut out = String::with_capacity(128);
    v.put(&mut out);
    out
}

/// A JSON object being written: `{`, comma-separated fields, `}`.
pub(crate) struct Obj<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> Obj<'a> {
    /// Open an object on `out`.
    pub(crate) fn open(out: &'a mut String) -> Obj<'a> {
        out.push('{');
        Obj { out, empty: true }
    }

    /// Write one `"name":value` field. Names are table literals —
    /// plain identifiers that never need escaping.
    pub(crate) fn field<T: Wire + ?Sized>(&mut self, name: &str, v: &T) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.out.push('"');
        self.out.push_str(name);
        self.out.push_str("\":");
        v.put(self.out);
    }

    /// Close the object.
    pub(crate) fn close(self) {
        self.out.push('}');
    }
}

/// Prefix a decode error with where it was found.
fn under(at: impl std::fmt::Display, mut e: ErrorBody) -> ErrorBody {
    e.message = format!("{at}: {}", e.message);
    e
}

/// Decode a required field.
pub(crate) fn required<T: Wire>(v: &Json, name: &str) -> Result<T, ErrorBody> {
    let x = v
        .get(name)
        .ok_or_else(|| bad(format!("missing \"{name}\"")))?;
    T::get(x).map_err(|e| under(format_args!("\"{name}\""), e))
}

/// Decode a field that defaults when absent (the `default` and `omit`
/// rules).
pub(crate) fn default<T: Wire + Default>(v: &Json, name: &str) -> Result<T, ErrorBody> {
    match v.get(name) {
        None => Ok(T::default()),
        Some(x) => T::get(x).map_err(|e| under(format_args!("\"{name}\""), e)),
    }
}

/// Read an enum's tag field.
pub(crate) fn tag<'v>(v: &'v Json, name: &str) -> Result<&'v str, ErrorBody> {
    v.get(name)
        .and_then(Json::as_str)
        .ok_or_else(|| bad(format!("missing string \"{name}\"")))
}

/// The error for a tag value no variant carries.
pub(crate) fn unknown(name: &str, value: &str) -> ErrorBody {
    bad(format!("unknown \"{name}\" {value:?}"))
}

pub(crate) use self::default as omit;

/// Decode a field that defaults when absent *or* damaged (never fails).
pub(crate) fn lenient<T: Wire + Default>(v: &Json, name: &str) -> Result<T, ErrorBody> {
    Ok(v.get(name).and_then(|x| T::get(x).ok()).unwrap_or_default())
}

/// One table field, in either direction: `put` writes it into the
/// object `o`, `get` reads it from the document `v` (see the module
/// docs for the rules).
macro_rules! field {
    (put $o:ident, $v:expr, $(default)? $name:literal) => {
        $o.field($name, $v)
    };
    (put $o:ident, $v:expr, omit $name:literal) => {
        if *$v != Default::default() {
            $o.field($name, $v)
        }
    };
    (put $o:ident, $v:expr, lenient $name:literal) => {
        if let Some(x) = $v {
            $o.field($name, x)
        }
    };
    (put $o:ident, $v:expr, flatten) => {
        $crate::wire::Fields::put_fields($v, $o)
    };
    (put $o:ident, $v:expr, skip) => {
        let _ = $v;
    };
    (put $o:ident, $v:expr, $name:literal as $w:ident) => {
        $o.field($name, &$w(*$v))
    };
    (get $v:ident, $name:literal) => {
        $crate::wire::required($v, $name)?
    };
    (get $v:ident, $rule:ident $name:literal) => {
        $crate::wire::$rule($v, $name)?
    };
    (get $v:ident, flatten) => {
        $crate::wire::Fields::get_fields($v)?
    };
    (get $v:ident, skip) => {
        Default::default()
    };
    (get $v:ident, $name:literal as $w:ident) => {
        $crate::wire::required::<$w>($v, $name)?.0
    };
}
pub(crate) use field;

/// Declare a type's wire form as a field table (see the module docs).
///
/// * `struct T { field: rule "name", … }` — a JSON object.
/// * `tuple (A, B) { 0: rule "name", … }` — a tuple as a JSON object.
/// * `enum T, "tag" { Variant = "value" { field: rule "name", … }, … }`
///   — an object whose `tag` field picks the variant, the variant's
///   fields inline after it.
/// * `str T { Variant = "value", … }` — a fieldless enum as a string.
macro_rules! table {
    (struct $T:ty {
        $($f:tt : $($rule:ident)? $($name:literal)? $(as $w:ident)?),* $(,)?
    }) => {
        impl $crate::wire::Fields for $T {
            fn put_fields(&self, o: &mut $crate::wire::Obj<'_>) {
                $($crate::wire::field!(put o, &self.$f, $($rule)? $($name)? $(as $w)?);)*
            }

            fn get_fields(
                v: &$crate::json::Json,
            ) -> Result<Self, $crate::proto::ErrorBody> {
                Ok(Self {
                    $($f: $crate::wire::field!(get v, $($rule)? $($name)? $(as $w)?),)*
                })
            }
        }
        $crate::wire::table!(@object $T);
    };
    (tuple $T:ty {
        $($f:tt : $($rule:ident)? $($name:literal)?),* $(,)?
    }) => {
        impl $crate::wire::Fields for $T {
            fn put_fields(&self, o: &mut $crate::wire::Obj<'_>) {
                $($crate::wire::field!(put o, &self.$f, $($rule)? $($name)?);)*
            }

            fn get_fields(
                v: &$crate::json::Json,
            ) -> Result<Self, $crate::proto::ErrorBody> {
                Ok(($($crate::wire::field!(get v, $($rule)? $($name)?),)*))
            }
        }
        $crate::wire::table!(@object $T);
    };
    (enum $T:ty, $tag:literal {
        $($V:ident = $value:literal {
            $($f:ident : $($rule:ident)? $($name:literal)?),* $(,)?
        }),* $(,)?
    }) => {
        impl $crate::wire::Named for $T {
            fn name(&self) -> &'static str {
                match self {
                    $(Self::$V { .. } => $value,)*
                }
            }
        }

        impl $crate::wire::Fields for $T {
            fn put_fields(&self, o: &mut $crate::wire::Obj<'_>) {
                o.field($tag, $crate::wire::Named::name(self));
                match self {
                    $(Self::$V { $($f),* } => {
                        $($crate::wire::field!(put o, $f, $($rule)? $($name)?);)*
                    })*
                }
            }

            fn get_fields(
                v: &$crate::json::Json,
            ) -> Result<Self, $crate::proto::ErrorBody> {
                Ok(match $crate::wire::tag(v, $tag)? {
                    $($value => Self::$V {
                        $($f: $crate::wire::field!(get v, $($rule)? $($name)?),)*
                    },)*
                    other => return Err($crate::wire::unknown($tag, other)),
                })
            }
        }
        $crate::wire::table!(@object $T);
    };
    (str $T:ty { $($V:ident = $value:literal),* $(,)? }) => {
        impl $crate::wire::Named for $T {
            fn name(&self) -> &'static str {
                match self {
                    $(Self::$V => $value,)*
                }
            }
        }

        impl $crate::wire::Wire for $T {
            fn put(&self, out: &mut String) {
                $crate::wire::Wire::put($crate::wire::Named::name(self), out)
            }

            fn get(v: &$crate::json::Json) -> Result<Self, $crate::proto::ErrorBody> {
                match v.as_str() {
                    $(Some($value) => Ok(Self::$V),)*
                    _ => Err($crate::proto::bad(concat!("expected one of" $(, " \"", $value, "\"")*))),
                }
            }
        }
    };
    (@object $T:ty) => {
        impl $crate::wire::Wire for $T {
            fn put(&self, out: &mut String) {
                let mut o = $crate::wire::Obj::open(out);
                $crate::wire::Fields::put_fields(self, &mut o);
                o.close();
            }

            fn get(v: &$crate::json::Json) -> Result<Self, $crate::proto::ErrorBody> {
                if !matches!(v, $crate::json::Json::Obj(_)) {
                    return Err($crate::proto::bad("expected an object"));
                }
                $crate::wire::Fields::get_fields(v)
            }
        }
    };
}
pub(crate) use table;

// ---------------------------------------------------------------
// Leaf codecs
// ---------------------------------------------------------------

/// Finite numbers only: JSON cannot represent NaN or ∞, and every
/// result the engine packages is checked finite before it gets here.
impl Wire for f64 {
    fn put(&self, out: &mut String) {
        assert!(self.is_finite(), "JSON cannot represent {self}");
        write_num(*self, out);
    }

    fn get(v: &Json) -> Result<f64, ErrorBody> {
        v.as_f64().ok_or_else(|| bad("expected a number"))
    }
}

impl Wire for u64 {
    fn put(&self, out: &mut String) {
        write_num(*self as f64, out);
    }

    fn get(v: &Json) -> Result<u64, ErrorBody> {
        v.as_u64()
            .ok_or_else(|| bad("expected a non-negative integer"))
    }
}

impl Wire for usize {
    fn put(&self, out: &mut String) {
        (*self as u64).put(out);
    }

    fn get(v: &Json) -> Result<usize, ErrorBody> {
        u64::get(v).map(|n| n as usize)
    }
}

impl Wire for bool {
    fn put(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn get(v: &Json) -> Result<bool, ErrorBody> {
        v.as_bool().ok_or_else(|| bad("expected true or false"))
    }
}

impl Wire for str {
    fn put(&self, out: &mut String) {
        write_str(self, out);
    }
}

impl Wire for String {
    fn put(&self, out: &mut String) {
        write_str(self, out);
    }

    fn get(v: &Json) -> Result<String, ErrorBody> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| bad("expected a string"))
    }
}

/// Content keys: 128 bits exceed JSON's interoperable integer range,
/// so they travel as fixed-width hex strings
/// ([`crate::proto::key_to_hex`]).
impl Wire for u128 {
    fn put(&self, out: &mut String) {
        write_str(&crate::proto::key_to_hex(*self), out);
    }

    fn get(v: &Json) -> Result<u128, ErrorBody> {
        v.as_str()
            .and_then(crate::proto::key_from_hex)
            .ok_or_else(|| bad("expected a hex content key"))
    }
}

impl<T: Wire> Wire for [T] {
    fn put(&self, out: &mut String) {
        out.push('[');
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            x.put(out);
        }
        out.push(']');
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut String) {
        self.as_slice().put(out);
    }

    fn get(v: &Json) -> Result<Vec<T>, ErrorBody> {
        v.as_arr()
            .ok_or_else(|| bad("expected an array"))?
            .iter()
            .enumerate()
            .map(|(i, x)| T::get(x).map_err(|e| under(format_args!("[{i}]"), e)))
            .collect()
    }
}

/// Present means `Some`: tables leave `None` off the wire (`omit`,
/// `lenient`), so `null` is never written and never accepted.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut String) {
        match self {
            Some(x) => x.put(out),
            None => out.push_str("null"),
        }
    }

    fn get(v: &Json) -> Result<Option<T>, ErrorBody> {
        T::get(v).map(Some)
    }
}

impl<T: Wire> Wire for Arc<T> {
    fn put(&self, out: &mut String) {
        (**self).put(out);
    }

    fn get(v: &Json) -> Result<Arc<T>, ErrorBody> {
        T::get(v).map(Arc::new)
    }
}

/// An optional group of flattened fields is present when all of them
/// decode: absent or damaged, it is `None`.
impl<T: Fields> Fields for Option<T> {
    fn put_fields(&self, o: &mut Obj<'_>) {
        if let Some(x) = self {
            x.put_fields(o);
        }
    }

    fn get_fields(v: &Json) -> Result<Option<T>, ErrorBody> {
        Ok(T::get_fields(v).ok())
    }
}

impl<T: Fields> Fields for Arc<T> {
    fn put_fields(&self, o: &mut Obj<'_>) {
        (**self).put_fields(o);
    }

    fn get_fields(v: &Json) -> Result<Arc<T>, ErrorBody> {
        T::get_fields(v).map(Arc::new)
    }
}

/// A `[u, v]` pair of task ids (an edge).
impl Wire for (usize, usize) {
    fn put(&self, out: &mut String) {
        [self.0, self.1].put(out);
    }

    fn get(v: &Json) -> Result<(usize, usize), ErrorBody> {
        match v.as_arr() {
            Some([u, w]) => Ok((usize::get(u)?, usize::get(w)?)),
            _ => Err(bad("expected a [u, v] pair of task ids")),
        }
    }
}
