//! A tiny JSON value model and serialiser.
//!
//! Only what the workspace's result documents need — writing, not
//! parsing. Strings are escaped per RFC 8259; non-finite
//! floats serialise as `null` (JSON has no NaN/Infinity).
//!
//! # Example
//!
//! ```
//! use dcg_testkit::json::Json;
//!
//! let doc = Json::obj([
//!     ("name", Json::str("gzip")),
//!     ("median_ns", Json::u64(1234)),
//!     ("samples", Json::arr(vec![Json::u64(1), Json::u64(2)])),
//! ]);
//! assert_eq!(
//!     doc.to_string(),
//!     r#"{"name":"gzip","median_ns":1234,"samples":[1,2]}"#
//! );
//! ```

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (kept exact; not routed through `f64`).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (`null` when non-finite).
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// String value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Unsigned integer value.
    #[must_use]
    pub fn u64(v: u64) -> Json {
        Json::U64(v)
    }

    /// Float value.
    #[must_use]
    pub fn f64(v: f64) -> Json {
        Json::F64(v)
    }

    /// Array value.
    #[must_use]
    pub fn arr(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }

    /// Object value from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

fn escape_into(out: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    out.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => write!(out, "{c}")?,
        }
    }
    out.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(v) => write!(f, "{v}"),
            Json::I64(v) => write!(f, "{v}"),
            Json::F64(v) if v.is_finite() => write!(f, "{v}"),
            Json::F64(_) => f.write_str("null"),
            Json::Str(s) => escape_into(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape_into(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_is_clean() {
        let j = Json::str("a\"b\\c\nd\u{1}");
        assert_eq!(j.to_string(), r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn numbers_roundtrip_exactly() {
        assert_eq!(Json::u64(u64::MAX).to_string(), u64::MAX.to_string());
        assert_eq!(Json::I64(-42).to_string(), "-42");
        assert_eq!(Json::f64(0.25).to_string(), "0.25");
        assert_eq!(Json::f64(f64::NAN).to_string(), "null");
    }

    #[test]
    fn nested_structure_serialises() {
        let j = Json::obj([
            ("a", Json::arr(vec![Json::Null, Json::Bool(true)])),
            ("b", Json::obj([("c", Json::u64(1))])),
        ]);
        assert_eq!(j.to_string(), r#"{"a":[null,true],"b":{"c":1}}"#);
    }
}
