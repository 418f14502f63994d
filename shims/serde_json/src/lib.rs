//! In-tree shim of `serde_json` for a fully offline build environment.
//!
//! Provides the exact surface this workspace uses: `to_string`,
//! `to_string_pretty`, `from_str`, `to_value`/`from_value`, and an `Error`
//! type — all over the serde shim's tree data model. The emitted JSON is
//! deterministic (map insertion order preserved; `HashMap`s are sorted by
//! the serde shim before they reach the writer).

#![forbid(unsafe_code)]

use std::fmt;

pub use serde::Value;

/// Error raised by JSON parsing or by value conversion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    fn new(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Error {
        Error(e.0)
    }
}

/// Lowers any serializable value into the tree data model.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Reconstructs a deserializable type from a tree value.
pub fn from_value<T: serde::Deserialize>(value: &Value) -> Result<T, Error> {
    T::from_value(value).map_err(Error::from)
}

/// Serializes `value` as compact JSON.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serializes `value` as human-readable, two-space-indented JSON.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Parses a JSON document into a deserializable type.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value_str(text)?;
    T::from_value(&value).map_err(Error::from)
}

/// Parses a JSON document into the tree data model.
pub fn parse_value_str(text: &str) -> Result<Value, Error> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {pos}")));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Float(f) => write_float(out, *f),
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => {
            write_composite(out, indent, depth, items.len(), '[', ']', |out, i, d| {
                write_value(out, &items[i], indent, d);
            })
        }
        Value::Map(entries) => {
            write_composite(out, indent, depth, entries.len(), '{', '}', |out, i, d| {
                write_string(out, &entries[i].0);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, &entries[i].1, indent, d);
            })
        }
    }
}

fn write_composite(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    len: usize,
    open: char,
    close: char,
    mut write_item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * (depth + 1)));
        }
        write_item(out, i, depth + 1);
    }
    if let Some(step) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', step * depth));
    }
    out.push(close);
}

fn write_float(out: &mut String, f: f64) {
    if !f.is_finite() {
        // JSON has no NaN/Infinity; serde_json writes null for them too.
        out.push_str("null");
        return;
    }
    let s = format!("{f}");
    out.push_str(&s);
    // Keep floats recognizable as floats so round-trips stay typed.
    if !s.contains('.') && !s.contains('e') && !s.contains('E') {
        out.push_str(".0");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser — recursive descent over bytes
// ---------------------------------------------------------------------------

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, Error> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(Error::new("unexpected end of input")),
        Some(b'n') => parse_literal(b, pos, "null", Value::Null),
        Some(b't') => parse_literal(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Value::Str),
        Some(b'[') => parse_array(b, pos),
        Some(b'{') => parse_object(b, pos),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(Error::new(format!(
            "unexpected character `{}` at byte {}",
            *c as char, *pos
        ))),
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, Error> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(Error::new(format!(
            "invalid literal at byte {pos}",
            pos = *pos
        )))
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, Error> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Seq(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Seq(items));
            }
            _ => return Err(Error::new(format!("expected `,` or `]` at byte {}", *pos))),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, Error> {
    *pos += 1; // '{'
    let mut entries = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Map(entries));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(Error::new(format!("expected object key at byte {}", *pos)));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(Error::new(format!("expected `:` at byte {}", *pos)));
        }
        *pos += 1;
        let value = parse_value(b, pos)?;
        entries.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Map(entries));
            }
            _ => return Err(Error::new(format!("expected `,` or `}}` at byte {}", *pos))),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, Error> {
    *pos += 1; // opening quote
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash in one slice, so
        // decoding stays linear in the string's length. Both bytes are
        // ASCII, so the run of UTF-8 input ends on a char boundary.
        let run = *pos;
        while *pos < b.len() && b[*pos] != b'"' && b[*pos] != b'\\' {
            *pos += 1;
        }
        if *pos > run {
            out.push_str(
                std::str::from_utf8(&b[run..*pos])
                    .map_err(|_| Error::new("invalid utf-8 in string"))?,
            );
        }
        match b.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0C}'),
                    Some(b'u') => {
                        let hi = parse_hex4(b, *pos + 1)?;
                        *pos += 4;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: expect \uXXXX low surrogate.
                            if b.get(*pos + 1) == Some(&b'\\') && b.get(*pos + 2) == Some(&b'u') {
                                let lo = parse_hex4(b, *pos + 3)?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error::new("unpaired surrogate escape"));
                                }
                                *pos += 6;
                                0x10000 + (((hi - 0xD800) as u32) << 10) + (lo - 0xDC00) as u32
                            } else {
                                return Err(Error::new("unpaired surrogate escape"));
                            }
                        } else {
                            hi as u32
                        };
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| Error::new("invalid unicode escape"))?,
                        );
                    }
                    _ => return Err(Error::new("invalid escape sequence")),
                }
                *pos += 1;
            }
            // The run stopped at the end of the input.
            _ => return Err(Error::new("unterminated string")),
        }
    }
}

fn parse_hex4(b: &[u8], pos: usize) -> Result<u16, Error> {
    if pos + 4 > b.len() {
        return Err(Error::new("truncated \\u escape"));
    }
    let s = std::str::from_utf8(&b[pos..pos + 4]).map_err(|_| Error::new("bad \\u escape"))?;
    u16::from_str_radix(s, 16).map_err(|_| Error::new("bad \\u escape"))
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && (b[*pos].is_ascii_digit()) {
        *pos += 1;
    }
    let mut is_float = false;
    if b.get(*pos) == Some(&b'.') {
        is_float = true;
        *pos += 1;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
    }
    if matches!(b.get(*pos), Some(b'e') | Some(b'E')) {
        is_float = true;
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+') | Some(b'-')) {
            *pos += 1;
        }
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii number slice");
    if !is_float {
        if let Ok(n) = text.parse::<i64>() {
            return Ok(Value::Int(n));
        }
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::UInt(n));
        }
    }
    text.parse::<f64>()
        .map(Value::Float)
        .map_err(|_| Error::new(format!("invalid number `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_nested() {
        let v = Value::Map(vec![
            (
                "a".into(),
                Value::Seq(vec![Value::Int(1), Value::Float(2.5)]),
            ),
            ("b".into(), Value::Str("x\"y\n".into())),
            ("c".into(), Value::Null),
            ("d".into(), Value::Bool(true)),
            ("e".into(), Value::UInt(u64::MAX)),
        ]);
        let compact = to_string(&v).unwrap();
        let parsed = parse_value_str(&compact).unwrap();
        assert_eq!(parsed, v);
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(parse_value_str(&pretty).unwrap(), v);
    }

    #[test]
    fn floats_stay_floats() {
        let s = to_string(&3.0f64).unwrap();
        assert_eq!(s, "3.0");
        let back: f64 = from_str(&s).unwrap();
        assert_eq!(back, 3.0);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_value_str("1 2").is_err());
        assert!(parse_value_str("{\"a\":}").is_err());
    }

    #[test]
    fn rejects_broken_strings() {
        for bad in [
            "\"open",
            "\"tail\\",
            "\"bad \\q\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
        ] {
            assert!(parse_value_str(bad).is_err(), "{bad}");
        }
        assert_eq!(
            parse_value_str("\"\\ud83d\\ude00 \\u00e9\"").unwrap(),
            Value::Str("\u{1F600} \u{e9}".into())
        );
    }

    /// Decoding is linear in the string's length: a 256 KiB string of
    /// multi-byte characters, quotes and backslashes round-trips well
    /// inside a second (a decoder that re-validates the rest of the input
    /// per character takes tens of seconds here).
    #[test]
    fn long_strings_decode_in_linear_time() {
        let unit = "héllo \"wörld\" \\ 日本 \u{1F600}\n";
        let text: String = unit.repeat(256 * 1024 / unit.len() + 1);
        assert!(text.len() >= 256 * 1024);
        let json = to_string(&text).unwrap();
        let started = std::time::Instant::now();
        let back: String = from_str(&json).unwrap();
        let took = started.elapsed();
        assert_eq!(back, text);
        assert!(took.as_secs_f64() < 1.0, "decoding took {took:?}");
    }

    /// Characters the round-trip property draws from: every escape the
    /// writer emits, control characters, and one- to four-byte UTF-8.
    const ALPHABET: &str =
        "aZ0 \"\\/\n\r\t\u{08}\u{0C}\u{00}\u{1F}\u{7F}éß€日\u{FFFD}\u{1F600}\u{10FFFF}";

    proptest::proptest! {
        #[test]
        fn strings_round_trip(
            picks in proptest::prop::collection::vec(0usize..ALPHABET.chars().count(), 0..64),
            key_picks in proptest::prop::collection::vec(0usize..ALPHABET.chars().count(), 0..8),
        ) {
            let alphabet: Vec<char> = ALPHABET.chars().collect();
            let s: String = picks.iter().map(|&i| alphabet[i]).collect();
            let key: String = key_picks.iter().map(|&i| alphabet[i]).collect();
            let v = Value::Map(vec![(key, Value::Seq(vec![Value::Str(s.clone())]))]);
            proptest::prop_assert_eq!(&parse_value_str(&to_string(&v).unwrap()).unwrap(), &v);
            proptest::prop_assert_eq!(&parse_value_str(&to_string_pretty(&v).unwrap()).unwrap(), &v);
            let back: String = from_str(&to_string(&s).unwrap()).unwrap();
            proptest::prop_assert_eq!(back, s);
        }
    }
}
