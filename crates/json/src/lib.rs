//! A small JSON document layer: a [`Value`], one pretty writer and one
//! bounded reader, with the [`ToJson`] / [`FromJson`] conversions every
//! document of the workspace implements by hand next to its type.
//!
//! The documents are the filter-network description (`h4d graph`), the run
//! report (`--report`), a dataset's `dataset.json` and per-node
//! `index.json`, a study's `study.json` and the result store's run
//! manifest. Their layout is the conventional one: fields
//! in declaration order, two-space indentation, `"key": value`, unit enum
//! variants as their name.
//!
//! * Numbers keep their literal text, so every `u64` and every finite `f64`
//!   bit pattern round-trips. An `f64` is written in its shortest
//!   round-trip form (`{:?}`); a non-finite one is written as `null`, which
//!   the typed `f64` reader rejects.
//! * The reader never panics on any input. It returns an [`Error`] naming
//!   the byte offset, and rejects nesting deeper than [`MAX_DEPTH`],
//!   duplicate object keys, bytes after the document, invalid UTF-8 and
//!   lone surrogate escapes.
//! * Typed readers ignore unknown object keys.
//!
//! ```
//! use json::{FromJson, ToJson, Value};
//!
//! struct Point {
//!     x: u64,
//!     label: String,
//! }
//!
//! impl ToJson for Point {
//!     fn to_json(&self) -> Value {
//!         Value::object([("x", self.x.to_json()), ("label", self.label.to_json())])
//!     }
//! }
//!
//! impl FromJson for Point {
//!     fn from_json(v: &Value) -> Result<Self, json::Error> {
//!         let o = v.as_object()?;
//!         Ok(Self { x: o.field("x")?, label: o.field("label")? })
//!     }
//! }
//!
//! let text = json::to_string(&Point { x: u64::MAX, label: "a\"b".into() });
//! assert_eq!(text, "{\n  \"x\": 18446744073709551615,\n  \"label\": \"a\\\"b\"\n}");
//! let back: Point = json::from_str(&text).unwrap();
//! assert_eq!((back.x, back.label.as_str()), (u64::MAX, "a\"b"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::io;

/// Deepest array/object nesting the reader accepts.
pub const MAX_DEPTH: usize = 128;

/// A JSON value. Objects keep their fields in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its literal text.
    Number(Number),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object: `(key, value)` fields in document order, keys unique.
    Object(Vec<(String, Value)>),
}

/// The literal text of a JSON number; always valid JSON number syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Number(String);

impl Number {
    /// The literal text, e.g. `"18446744073709551615"` or `"0.1"`.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// Why a document could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The text is not JSON, or nests deeper than [`MAX_DEPTH`].
    Syntax {
        /// Byte offset of the offending input.
        offset: usize,
        /// What was wrong there.
        reason: &'static str,
    },
    /// The text is JSON, but not the document the typed reader expects.
    Shape(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Syntax { offset, reason } => write!(f, "{reason} at byte {offset}"),
            Error::Shape(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for Error {}

impl From<Error> for io::Error {
    fn from(e: Error) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

impl Value {
    /// An object with `fields` in the given order.
    pub fn object<'k>(fields: impl IntoIterator<Item = (&'k str, Value)>) -> Value {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The fields of an object, for a typed reader.
    ///
    /// # Errors
    /// [`Error::Shape`] if the value is not an object.
    pub fn as_object(&self) -> Result<Object<'_>, Error> {
        match self {
            Value::Object(fields) => Ok(Object(fields)),
            other => Err(expected("an object", other)),
        }
    }

    /// The elements of an array.
    ///
    /// # Errors
    /// [`Error::Shape`] if the value is not an array.
    pub fn as_array(&self) -> Result<&[Value], Error> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(expected("an array", other)),
        }
    }

    /// The contents of a string.
    ///
    /// # Errors
    /// [`Error::Shape`] if the value is not a string.
    pub fn as_str(&self) -> Result<&str, Error> {
        match self {
            Value::String(s) => Ok(s),
            other => Err(expected("a string", other)),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Number(_) => "a number",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }
}

fn expected(what: &str, got: &Value) -> Error {
    Error::Shape(format!("expected {what}, found {}", got.kind()))
}

/// The fields of an object, read by name.
#[derive(Debug, Clone, Copy)]
pub struct Object<'a>(&'a [(String, Value)]);

impl Object<'_> {
    fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Reads the required field `key`.
    ///
    /// # Errors
    /// [`Error::Shape`] if it is missing or does not convert; the message
    /// names the field.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T, Error> {
        match self.get(key) {
            Some(v) => T::from_json(v).map_err(|e| in_field(key, e)),
            None => Err(Error::Shape(format!("missing field `{key}`"))),
        }
    }

    /// Reads field `key`, or `T::default()` when it is missing.
    ///
    /// # Errors
    /// [`Error::Shape`] if it is present and does not convert.
    pub fn field_or_default<T: FromJson + Default>(&self, key: &str) -> Result<T, Error> {
        match self.get(key) {
            Some(v) => T::from_json(v).map_err(|e| in_field(key, e)),
            None => Ok(T::default()),
        }
    }
}

fn in_field(key: &str, e: Error) -> Error {
    Error::Shape(format!("field `{key}`: {e}"))
}

/// Reads a unit enum variant written as its name: the one of `variants`
/// whose [`ToJson`] form is `v`.
///
/// # Errors
/// [`Error::Shape`] naming the unknown variant and the expected ones.
pub fn variant<T: ToJson + Copy>(v: &Value, variants: &[T]) -> Result<T, Error> {
    let name = v.as_str()?;
    match variants.iter().find(|t| t.to_json() == *v) {
        Some(&t) => Ok(t),
        None => {
            let names: Vec<String> = variants.iter().map(|t| to_string(t)).collect();
            Err(Error::Shape(format!(
                "unknown variant `{name}`, expected one of {}",
                names.join(", ")
            )))
        }
    }
}

/// Converts a value into its JSON form.
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Value;
}

/// Reads a value back from its JSON form.
pub trait FromJson: Sized {
    /// Converts `v`, ignoring unknown object keys.
    ///
    /// # Errors
    /// [`Error::Shape`] if `v` is not the expected shape.
    fn from_json(v: &Value) -> Result<Self, Error>;
}

/// Writes `value` as a pretty-printed document (no trailing newline).
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_value(&value.to_json(), 0, &mut out);
    out
}

/// Parses `text` into a [`Value`].
///
/// # Errors
/// [`Error::Syntax`] with the byte offset of the first problem.
pub fn parse(text: &[u8]) -> Result<Value, Error> {
    let mut r = Reader { s: text, i: 0 };
    let v = r.value(0)?;
    r.skip_ws();
    if r.i != text.len() {
        return Err(r.err("trailing bytes after the document"));
    }
    Ok(v)
}

/// Parses `text` and converts it to `T`.
///
/// # Errors
/// [`Error::Syntax`] or [`Error::Shape`].
pub fn from_slice<T: FromJson>(text: &[u8]) -> Result<T, Error> {
    T::from_json(&parse(text)?)
}

/// Parses `text` and converts it to `T`.
///
/// # Errors
/// [`Error::Syntax`] or [`Error::Shape`].
pub fn from_str<T: FromJson>(text: &str) -> Result<T, Error> {
    from_slice(text.as_bytes())
}

// ------------------------------------------------------------------ writer

fn write_value(v: &Value, indent: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => out.push_str(&n.0),
        Value::String(s) => write_string(s, out),
        Value::Array(items) => write_seq(('[', ']'), items, indent, out, |v, out| {
            write_value(v, indent + 2, out)
        }),
        Value::Object(fields) => write_seq(('{', '}'), fields, indent, out, |(k, v), out| {
            write_string(k, out);
            out.push_str(": ");
            write_value(v, indent + 2, out);
        }),
    }
}

fn write_seq<T>(
    (open, close): (char, char),
    items: &[T],
    indent: usize,
    out: &mut String,
    mut item: impl FnMut(&T, &mut String),
) {
    out.push(open);
    for (i, x) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.extend(std::iter::repeat_n(' ', indent + 2));
        item(x, out);
    }
    if !items.is_empty() {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', indent));
    }
    out.push(close);
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ------------------------------------------------------------------ reader

struct Reader<'a> {
    s: &'a [u8],
    i: usize,
}

impl Reader<'_> {
    fn err(&self, reason: &'static str) -> Error {
        Error::Syntax {
            offset: self.i,
            reason,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.i += 1;
        }
    }

    /// Consumes `b` after optional whitespace.
    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        let hit = self.peek() == Some(b);
        self.i += usize::from(hit);
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(self.err("nesting limit exceeded")),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => {
                for (word, v) in [
                    (&b"null"[..], Value::Null),
                    (b"true", Value::Bool(true)),
                    (b"false", Value::Bool(false)),
                ] {
                    if self.s[self.i..].starts_with(word) {
                        self.i += word.len();
                        return Ok(v);
                    }
                }
                Err(self.err("expected a value"))
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, Error> {
        self.i += 1;
        let mut items = Vec::new();
        if self.eat(b']') {
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth)?);
            if self.eat(b']') {
                return Ok(Value::Array(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `]`"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, Error> {
        self.i += 1;
        let mut fields: Vec<(String, Value)> = Vec::new();
        let mut keys = std::collections::HashSet::new();
        if self.eat(b'}') {
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let at = self.i;
            let key = self.string()?;
            if !keys.insert(key.clone()) {
                self.i = at;
                return Err(self.err("duplicate key"));
            }
            if !self.eat(b':') {
                return Err(self.err("expected `:`"));
            }
            fields.push((key, self.value(depth)?));
            if self.eat(b'}') {
                return Ok(Value::Object(fields));
            }
            if !self.eat(b',') {
                return Err(self.err("expected `,` or `}`"));
            }
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.i;
        while let Some(b'0'..=b'9') = self.peek() {
            self.i += 1;
        }
        self.i - start
    }

    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.i;
        self.i += usize::from(self.peek() == Some(b'-'));
        let int_at = self.i;
        match self.digits() {
            0 => return Err(self.err("invalid number")),
            n if n > 1 && self.s[int_at] == b'0' => {
                self.i = int_at;
                return Err(self.err("leading zero in number"));
            }
            _ => {}
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            if self.digits() == 0 {
                return Err(self.err("invalid number"));
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.i += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.i += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("invalid number"));
            }
        }
        // The grammar above admits only ASCII.
        let text = String::from_utf8_lossy(&self.s[start..self.i]).into_owned();
        Ok(Value::Number(Number(text)))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut n = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => b - b'0',
                Some(b @ b'a'..=b'f') => b - b'a' + 10,
                Some(b @ b'A'..=b'F') => b - b'A' + 10,
                _ => return Err(self.err("invalid \\u escape")),
            };
            n = n * 16 + u32::from(d);
            self.i += 1;
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, Error> {
        self.i += 1;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote, backslash
            // or control byte in one UTF-8 check.
            let run = self.s[self.i..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.s.len() - self.i);
            match std::str::from_utf8(&self.s[self.i..self.i + run]) {
                Ok(s) => out.push_str(s),
                Err(e) => {
                    self.i += e.valid_up_to();
                    return Err(self.err("invalid UTF-8 in string"));
                }
            }
            self.i += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let c = self.escape()?;
                    out.push(c);
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// The character of the escape after a backslash.
    fn escape(&mut self) -> Result<char, Error> {
        let simple = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let at = self.i - 1;
                self.i += 1;
                let mut code = self.hex4()?;
                if (0xd800..0xdc00).contains(&code) && self.s[self.i..].starts_with(b"\\u") {
                    self.i += 2;
                    let lo = self.hex4()?;
                    if (0xdc00..0xe000).contains(&lo) {
                        code = 0x10000 + ((code - 0xd800) << 10) + (lo - 0xdc00);
                    }
                }
                // Only an unpaired surrogate is not a `char`.
                let lone = Error::Syntax {
                    offset: at,
                    reason: "lone surrogate",
                };
                return char::from_u32(code).ok_or(lone);
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.i += 1;
        Ok(simple)
    }
}

// ------------------------------------------------------------- conversions

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(expected("a boolean", other)),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, Error> {
        v.as_str().map(str::to_string)
    }
}

mod sealed {
    /// The integer types documents use.
    pub trait Integer: std::fmt::Display + std::str::FromStr {}

    impl Integer for u16 {}
    impl Integer for u32 {}
    impl Integer for u64 {}
    impl Integer for usize {}
}

/// Integers are written in decimal.
impl<T: sealed::Integer> ToJson for T {
    fn to_json(&self) -> Value {
        Value::Number(Number(self.to_string()))
    }
}

/// Integers are read back only from an integer literal that fits the type.
impl<T: sealed::Integer> FromJson for T {
    fn from_json(v: &Value) -> Result<Self, Error> {
        let what = std::any::type_name::<T>();
        match v {
            Value::Number(n) => {
                n.0.parse()
                    .map_err(|_| Error::Shape(format!("{} is not a {what}", n.0)))
            }
            other => Err(expected(what, other)),
        }
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        if self.is_finite() {
            Value::Number(Number(format!("{self:?}")))
        } else {
            Value::Null
        }
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Number(n) => match n.0.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(x),
                _ => Err(Error::Shape(format!("{} is out of range for f64", n.0))),
            },
            other => Err(expected("a finite f64", other)),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(T::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        self.as_slice().to_json()
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        v.as_array()?
            .iter()
            .enumerate()
            .map(|(i, x)| T::from_json(x).map_err(|e| Error::Shape(format!("[{i}]: {e}"))))
            .collect()
    }
}

impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Value) -> Result<Self, Error> {
        Vec::<T>::from_json(v)?.try_into().map_err(|items: Vec<T>| {
            Error::Shape(format!("expected {N} elements, found {}", items.len()))
        })
    }
}

/// `None` is written as `null`; `null` reads back as `None`.
impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_json)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syntax_reason(text: &str) -> &'static str {
        match parse(text.as_bytes()) {
            Err(Error::Syntax { reason, .. }) => reason,
            other => panic!("{text:?} parsed as {other:?}"),
        }
    }

    #[test]
    fn layout_matches_the_conventional_pretty_form() {
        let v = Value::object([
            ("a", 1u64.to_json()),
            ("b", vec![1u64, 2].to_json()),
            ("c", Value::object([])),
            ("d", Vec::<u64>::new().to_json()),
        ]);
        assert_eq!(
            to_string(&v),
            "{\n  \"a\": 1,\n  \"b\": [\n    1,\n    2\n  ],\n  \"c\": {},\n  \"d\": []\n}"
        );
    }

    #[test]
    fn numbers_keep_their_bits() {
        for x in [0.1, 5e-324, -0.0, 1e300, 1.0, f64::MAX, f64::MIN_POSITIVE] {
            let back: f64 = from_str(&to_string(&x)).unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x:?}");
        }
        let back: u64 = from_str(&to_string(&u64::MAX)).unwrap();
        assert_eq!(back, u64::MAX);
        assert_eq!(to_string(&f64::NAN), "null");
        assert!(from_str::<f64>("null").is_err());
        assert!(from_str::<f64>("1e400").is_err());
        assert!(from_str::<u64>("18446744073709551616").is_err());
        assert!(from_str::<u64>("1.0").is_err());
        assert!(from_str::<u32>("-1").is_err());
    }

    #[test]
    fn strings_round_trip_escapes_and_non_bmp() {
        let s = "q\"b\\s/\u{0}\u{1f}\n\t\u{7f}é😀";
        assert_eq!(from_str::<String>(&to_string(s)).unwrap(), s);
        assert_eq!(from_str::<String>(r#""😀é\/""#).unwrap(), "😀é/");
    }

    #[test]
    fn malformed_text_is_a_syntax_error() {
        for (text, reason) in [
            ("01", "leading zero in number"),
            ("1.", "invalid number"),
            ("[1,]", "expected a value"),
            ("{\"a\":1,\"a\":2}", "duplicate key"),
            ("1 2", "trailing bytes after the document"),
            (r#""\ud800""#, "lone surrogate"),
            (r#""\udc00\ud800""#, "lone surrogate"),
            (r#""\ud800A""#, "lone surrogate"),
            ("\"a\u{1}\"", "control character in string"),
            ("\"abc", "unterminated string"),
            ("", "unexpected end of input"),
            ("nul", "expected a value"),
        ] {
            assert_eq!(syntax_reason(text), reason, "{text:?}");
        }
        assert_eq!(
            parse(b"[\"\xff\"]"),
            Err(Error::Syntax {
                offset: 2,
                reason: "invalid UTF-8 in string"
            })
        );
    }

    #[test]
    fn unknown_variant_is_named() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        struct Unit(&'static str);
        impl ToJson for Unit {
            fn to_json(&self) -> Value {
                self.0.to_json()
            }
        }
        let all = [Unit("A"), Unit("B")];
        assert_eq!(variant(&"B".to_json(), &all), Ok(Unit("B")));
        let e = variant(&"Bcast".to_json(), &all).unwrap_err();
        assert_eq!(
            e.to_string(),
            "unknown variant `Bcast`, expected one of \"A\", \"B\""
        );
    }
}
