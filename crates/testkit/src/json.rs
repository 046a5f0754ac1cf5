//! A tiny JSON value model and a streaming writer.
//!
//! Only what the workspace's result documents need — writing, not
//! parsing. Large documents write straight through [`JsonWriter`];
//! small ones build a [`Json`] tree, whose `Display` is the same
//! writer. Strings are escaped per RFC 8259; non-finite
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

use std::fmt::{self, Write as _};

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

/// A streaming JSON writer: each call writes its token to the output,
/// with the separating commas placed as it goes.
///
/// Tokens are staged in a small buffer that goes to the output whenever
/// it fills and whenever a top-level value is complete, so the output
/// sees a few large writes and holds the whole value once the call that
/// wrote it returns.
///
/// [`Json`]'s `Display` is this writer over a value tree, so a document
/// written through the writer directly (no tree) has the same escaping
/// and the same number format byte for byte.
///
/// ```
/// use dcg_testkit::json::JsonWriter;
///
/// let mut out = String::new();
/// let mut w = JsonWriter::new(&mut out);
/// w.obj(|w| {
///     w.key("name")?.str("gzip")?;
///     w.key("samples")?.arr(|w| (1..=2).try_for_each(|v| w.u64(v)))
/// })
/// .unwrap();
/// assert_eq!(out, r#"{"name":"gzip","samples":[1,2]}"#);
/// ```
#[derive(Debug)]
pub struct JsonWriter<W> {
    out: Staged<W>,
    /// Objects and arrays open around the next token.
    depth: u32,
    /// A value was just completed at the current nesting level, so the
    /// next key or value is preceded by a comma.
    comma: bool,
}

/// Bytes staged before they go to the output.
const STAGE_BYTES: usize = 4096;

/// An output behind a staging buffer.
#[derive(Debug)]
struct Staged<W> {
    out: W,
    stage: String,
}

impl<W: fmt::Write> Staged<W> {
    fn flush(&mut self) -> fmt::Result {
        self.out.write_str(&self.stage)?;
        self.stage.clear();
        Ok(())
    }
}

impl<W: fmt::Write> fmt::Write for Staged<W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if self.stage.len() + s.len() > STAGE_BYTES {
            self.flush()?;
        }
        self.stage.push_str(s);
        Ok(())
    }
}

impl<W: fmt::Write> JsonWriter<W> {
    /// A writer appending to `out`.
    pub fn new(out: W) -> JsonWriter<W> {
        JsonWriter {
            out: Staged {
                out,
                stage: String::with_capacity(STAGE_BYTES),
            },
            depth: 0,
            comma: false,
        }
    }

    /// Start a key or value: a comma if one completed before it.
    fn sep(&mut self) -> fmt::Result {
        if self.comma {
            self.out.write_str(",")?;
        }
        self.comma = true;
        Ok(())
    }

    /// A value is complete: at the top level, it goes to the output.
    fn end(&mut self) -> fmt::Result {
        if self.depth == 0 {
            self.out.flush()?;
        }
        Ok(())
    }

    /// A scalar value that `write` writes.
    fn scalar(&mut self, write: impl FnOnce(&mut Staged<W>) -> fmt::Result) -> fmt::Result {
        self.sep()?;
        write(&mut self.out)?;
        self.end()
    }

    /// An object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> Result<&mut Self, fmt::Error> {
        self.sep()?;
        escape_into(&mut self.out, key)?;
        self.out.write_str(":")?;
        self.comma = false;
        Ok(self)
    }

    /// `null`.
    pub fn null(&mut self) -> fmt::Result {
        self.scalar(|out| out.write_str("null"))
    }

    /// `true` or `false`.
    pub fn bool(&mut self, v: bool) -> fmt::Result {
        self.scalar(|out| write!(out, "{v}"))
    }

    /// An unsigned integer.
    pub fn u64(&mut self, v: u64) -> fmt::Result {
        self.scalar(|out| write!(out, "{v}"))
    }

    /// A signed integer.
    pub fn i64(&mut self, v: i64) -> fmt::Result {
        self.scalar(|out| write!(out, "{v}"))
    }

    /// A float as `f64`'s `Display` writes it; `null` when non-finite.
    pub fn f64(&mut self, v: f64) -> fmt::Result {
        if v.is_finite() {
            self.scalar(|out| write!(out, "{v}"))
        } else {
            self.null()
        }
    }

    /// A string, escaped per RFC 8259.
    pub fn str(&mut self, s: &str) -> fmt::Result {
        self.scalar(|out| escape_into(out, s))
    }

    /// An object whose keys and values `body` writes.
    pub fn obj(&mut self, body: impl FnOnce(&mut Self) -> fmt::Result) -> fmt::Result {
        self.nested("{", "}", body)
    }

    /// An array whose items `body` writes.
    pub fn arr(&mut self, body: impl FnOnce(&mut Self) -> fmt::Result) -> fmt::Result {
        self.nested("[", "]", body)
    }

    fn nested(
        &mut self,
        open: &str,
        close: &str,
        body: impl FnOnce(&mut Self) -> fmt::Result,
    ) -> fmt::Result {
        self.sep()?;
        self.out.write_str(open)?;
        self.comma = false;
        self.depth += 1;
        let body = body(self);
        self.depth -= 1;
        body?;
        self.comma = true;
        self.out.write_str(close)?;
        self.end()
    }

    /// A whole value tree.
    pub fn json(&mut self, v: &Json) -> fmt::Result {
        match v {
            Json::Null => self.null(),
            Json::Bool(b) => self.bool(*b),
            Json::U64(n) => self.u64(*n),
            Json::I64(n) => self.i64(*n),
            Json::F64(x) => self.f64(*x),
            Json::Str(s) => self.str(s),
            Json::Arr(items) => self.arr(|w| items.iter().try_for_each(|item| w.json(item))),
            Json::Obj(pairs) => self.obj(|w| pairs.iter().try_for_each(|(k, v)| w.key(k)?.json(v))),
        }
    }
}

/// Write `s` as a quoted JSON string. Runs of characters that need no
/// escape go out in one `write_str`; every escaped character is ASCII, so
/// the runs end on character boundaries.
fn escape_into(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_str("\"")?;
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        if escaped.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_str(escaped)?;
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        JsonWriter::new(f).json(self)
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
        assert_eq!(Json::u64(0).to_string(), "0");
        assert_eq!(Json::I64(i64::MIN).to_string(), i64::MIN.to_string());
        assert_eq!(Json::I64(-42).to_string(), "-42");
        assert_eq!(Json::f64(0.25).to_string(), "0.25");
        assert_eq!(Json::f64(f64::NAN).to_string(), "null");
    }

    /// The escaper as it was written before runs: one character at a
    /// time.
    fn escape_by_char(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn run_escaper_matches_the_per_char_reference() {
        const SPECIAL: [char; 12] = [
            '"',
            '\\',
            '\n',
            '\r',
            '\t',
            '\u{0}',
            '\u{1f}',
            '\u{7f}',
            'a',
            '\u{e9}',
            '\u{20ac}',
            '\u{1f600}',
        ];
        crate::prop::check(
            "json_escape_runs",
            crate::prop::vec(crate::prop::tuple((0u32..3, 0u32..0x11_0000)), 0..48usize),
            |picks| {
                let s: String = picks
                    .iter()
                    .map(|&(kind, v)| match kind {
                        0 => SPECIAL[v as usize % SPECIAL.len()],
                        // ASCII, control characters included.
                        1 => char::from(v as u8 & 0x7f),
                        _ => char::from_u32(v).unwrap_or('\u{fffd}'),
                    })
                    .collect();
                let mut out = String::new();
                escape_into(&mut out, &s).unwrap();
                assert_eq!(out, escape_by_char(&s));
                assert_eq!(Json::str(s.clone()).to_string(), out);
            },
        );
    }

    #[test]
    fn writer_separates_nested_values() {
        let mut out = String::new();
        let mut w = JsonWriter::new(&mut out);
        w.arr(|w| {
            w.obj(|_| Ok(()))?;
            w.arr(|w| w.i64(-3))?;
            w.obj(|w| {
                w.key("k")?.null()?;
                w.key("b")?.bool(false)
            })?;
            w.f64(f64::INFINITY)
        })
        .unwrap();
        assert_eq!(out, r#"[{},[-3],{"k":null,"b":false},null]"#);
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
