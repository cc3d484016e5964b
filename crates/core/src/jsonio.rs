//! A minimal, dependency-free JSON reader for campaign persistence, and
//! the string escaping every campaign and corpus writer shares.
//!
//! The workspace builds fully offline (no `serde`), so the subset of JSON
//! that the campaign writers emit
//! ([`CampaignMatrix::to_json`](crate::campaign::CampaignMatrix::to_json),
//! [`CampaignPart::to_checkpoint_json`](crate::campaign::CampaignPart::to_checkpoint_json)) —
//! objects, arrays, strings, unsigned integers, booleans, `null` — is
//! parsed by hand here. This is a *reader for our own writers*: signed
//! numbers, floats and surrogate-pair escapes are rejected rather than
//! supported.
//!
//! Robustness guarantees, because matrix and checkpoint files cross
//! process and machine boundaries and may arrive truncated or
//! hand-edited:
//!
//! * every malformed input returns a typed [`JsonError`] carrying the byte
//!   offset of the problem — parsing never panics;
//! * input that simply *ends early* — the signature of a checkpoint or
//!   part file a killed worker left half-written — is distinguished from
//!   malformed bytes by [`JsonErrorKind::Truncated`]
//!   ([`JsonError::is_truncated`]), so resume logic can safely redo a
//!   partially written range without masking real corruption;
//! * nesting depth is capped at [`MAX_DEPTH`], so a pathological
//!   `[[[[…` document errors out instead of overflowing the stack;
//! * numbers that do not fit `u64` are an error, not a wrap-around.
//!
//! An object keeps its members in document order, duplicates included,
//! and [`Json::get`] answers with the *last* member of a key, so a
//! repeated key reads as its final value.
//!
//! ```
//! use specgraph::jsonio::{parse, Json};
//!
//! let doc = parse(r#"{"version": 3, "cells": [1, 2], "ok": true}"#)?;
//! assert_eq!(doc.get("version").and_then(Json::as_u64), Some(3));
//! assert_eq!(doc.get("cells").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
//! assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
//!
//! // Truncated or malformed input is a typed error, never a panic:
//! let err = parse(r#"{"version": 3, "cells": [1,"#).unwrap_err();
//! assert!(err.to_string().contains("byte"));
//! # Ok::<(), specgraph::jsonio::JsonError>(())
//! ```

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// Maximum nesting depth [`parse`] accepts before reporting an error.
///
/// The campaign writers emit at most three levels; the cap only exists so
/// adversarial input cannot overflow the parser's recursion.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value (the subset the campaign writers emit).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the only number form the writers emit).
    Num(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: its members in document order, a repeated key kept as
    /// often as it appears. [`Json::get`] reads the last one, so equality
    /// of two objects depends on member order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value at `key`, if `self` is an object that has one; the last
    /// one, if the key repeats.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string content, if `self` is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if `self` is a number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value, if `self` is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if `self` is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// What class of problem a [`JsonError`] reports.
///
/// The distinction matters operationally: a checkpoint or part file that a
/// killed worker left half-written parses to [`Truncated`](Self::Truncated)
/// — the document was well-formed up to the point where the input simply
/// stopped — and resume logic can safely re-run that range, while
/// [`Syntax`](Self::Syntax) means the bytes themselves are wrong (corrupt
/// or hand-edited) and should be surfaced, not silently redone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum JsonErrorKind {
    /// The input contains bytes that can never start/continue valid JSON.
    Syntax,
    /// The input ended while a value, string, container, or literal was
    /// still open — the signature of a partially written file.
    Truncated,
}

/// A JSON syntax error: what went wrong, the byte offset where, and
/// whether the input was malformed or merely cut short
/// ([`JsonErrorKind`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    offset: usize,
    message: String,
    kind: JsonErrorKind,
}

impl JsonError {
    fn new(offset: usize, message: impl Into<String>) -> Self {
        JsonError {
            offset,
            message: message.into(),
            kind: JsonErrorKind::Syntax,
        }
    }

    fn truncated(offset: usize, message: impl Into<String>) -> Self {
        JsonError {
            offset,
            message: message.into(),
            kind: JsonErrorKind::Truncated,
        }
    }

    /// Byte offset into the input where the problem was detected.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Human-readable description of the problem.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Whether the input was malformed or merely ended early.
    #[must_use]
    pub fn kind(&self) -> JsonErrorKind {
        self.kind
    }

    /// `true` when the input ended mid-document (a partially written
    /// file), as opposed to containing malformed bytes.
    #[must_use]
    pub fn is_truncated(&self) -> bool {
        self.kind == JsonErrorKind::Truncated
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            JsonErrorKind::Syntax => write!(f, "{} at byte {}", self.message, self.offset),
            JsonErrorKind::Truncated => {
                write!(
                    f,
                    "truncated input at byte {}: {}",
                    self.offset, self.message
                )
            }
        }
    }
}

impl Error for JsonError {}

/// Parses one JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// A [`JsonError`] (with byte offset) on any syntax problem, unsupported
/// construct (floats, signed numbers, surrogate escapes), number overflow,
/// or nesting deeper than [`MAX_DEPTH`]. Never panics.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonError::new(pos, "trailing data"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), JsonError> {
    match b.get(*pos) {
        Some(&c) if c == ch => {
            *pos += 1;
            Ok(())
        }
        Some(_) => Err(JsonError::new(
            *pos,
            format!("expected '{}'", char::from(ch)),
        )),
        None => Err(JsonError::truncated(
            *pos,
            format!("expected '{}'", char::from(ch)),
        )),
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    if depth > MAX_DEPTH {
        return Err(JsonError::new(
            *pos,
            format!("nesting deeper than {MAX_DEPTH} levels"),
        ));
    }
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err(JsonError::truncated(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(b, pos, depth),
        Some(b'[') => parse_array(b, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b'0'..=b'9') => parse_number(b, pos),
        Some(b't') => parse_literal(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(b, pos, "null", Json::Null),
        Some(&c) => Err(JsonError::new(
            *pos,
            format!("unexpected '{}'", char::from(c)),
        )),
    }
}

fn parse_literal(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    let rest = &b[*pos..];
    if rest.starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else if lit.as_bytes().starts_with(rest) {
        // A proper prefix of the literal, cut off by end of input.
        Err(JsonError::truncated(*pos, "bad literal"))
    } else {
        Err(JsonError::new(*pos, "bad literal"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    while *pos < b.len() && b[*pos].is_ascii_digit() {
        *pos += 1;
    }
    if matches!(b.get(*pos), Some(b'.' | b'e' | b'E' | b'-' | b'+')) {
        return Err(JsonError::new(
            start,
            "only unsigned integers are supported",
        ));
    }
    std::str::from_utf8(&b[start..*pos])
        .map_err(|e| JsonError::new(start, e.to_string()))?
        .parse::<u64>()
        .map(Json::Num)
        .map_err(|e| JsonError::new(start, format!("bad number: {e}")))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(b, pos, b'"')?;
    let mut out = Vec::new();
    loop {
        match b.get(*pos) {
            None => return Err(JsonError::truncated(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|e| JsonError::new(*pos, e.to_string()));
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = *b
                    .get(*pos)
                    .ok_or_else(|| JsonError::truncated(*pos, "unterminated escape"))?;
                *pos += 1;
                match esc {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'b' => out.push(0x08),
                    b'f' => out.push(0x0C),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| JsonError::truncated(*pos, "truncated \\u escape"))?;
                        *pos += 4;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex)
                                .map_err(|e| JsonError::new(*pos, e.to_string()))?,
                            16,
                        )
                        .map_err(|e| JsonError::new(*pos, e.to_string()))?;
                        let ch = char::from_u32(code).ok_or_else(|| {
                            JsonError::new(*pos, "surrogate \\u escapes not supported")
                        })?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                    }
                    other => {
                        return Err(JsonError::new(
                            *pos,
                            format!("bad escape '\\{}'", char::from(other)),
                        ));
                    }
                }
            }
            Some(&c) => {
                out.push(c);
                *pos += 1;
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth + 1)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            Some(_) => return Err(JsonError::new(*pos, "expected ',' or ']'")),
            None => return Err(JsonError::truncated(*pos, "expected ',' or ']'")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    expect(b, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos, depth + 1)?;
        members.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            Some(_) => return Err(JsonError::new(*pos, "expected ',' or '}'")),
            None => return Err(JsonError::truncated(*pos, "expected ',' or '}'")),
        }
    }
}

/// `s` as a JSON string literal, quoted and escaped.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_str(&mut out, s);
    out
}

/// Appends `s` to `out` as a JSON string literal, quoted and escaped.
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// Appends `s` to `out` escaped for the inside of a JSON string literal:
/// runs that need no escape are copied whole.
pub(crate) fn push_escaped(out: &mut String, s: &str) {
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        out.push_str(&s[clean..i]);
        match escape {
            Some(escape) => out.push_str(escape),
            None => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
}

/// Appends `items` to `out` as comma-separated [`json_str`] literals.
pub(crate) fn push_json_list<'a>(out: &mut String, items: impl Iterator<Item = &'a str>) {
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_json_str(out, item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_str_escapes_what_the_reader_unescapes() {
        // A quote in a config name must not break the document.
        let escaped = json_str("a\"b\\c\n");
        assert_eq!(escaped, "\"a\\\"b\\\\c\\n\"");
        assert_eq!(parse(&escaped).unwrap().as_str(), Some("a\"b\\c\n"));
    }

    #[test]
    fn the_escaper_escapes_exactly_the_control_characters_quote_and_backslash() {
        let reference = |s: &str| -> String {
            let mut out = String::from('"');
            for ch in s.chars() {
                match ch {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    ch if (ch as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", ch as u32)),
                    ch => out.push(ch),
                }
            }
            out.push('"');
            out
        };
        let every_ascii: String = (0..0x80u8).map(char::from).collect();
        for s in [
            every_ascii.as_str(),
            "",
            "plain",
            "é\u{1}ü\"",
            "\\\n\u{1f}日本",
        ] {
            let escaped = json_str(s);
            assert_eq!(escaped, reference(s), "{s:?}");
            assert_eq!(parse(&escaped).unwrap().as_str(), Some(s), "{s:?}");
        }
    }

    #[test]
    fn parses_the_writer_subset() {
        let doc = r#"{"a": [1, 2, 3], "s": "x\"y\\z\n", "t": true, "n": null, "o": {"k": 7}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap(),
            &[Json::Num(1), Json::Num(2), Json::Num(3)]
        );
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\"y\\z\n"));
        assert_eq!(v.get("t").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("n").unwrap(), &Json::Null);
        assert_eq!(v.get("o").unwrap().get("k").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn a_repeated_key_reads_as_its_last_value() {
        let v = parse(r#"{"a": 1, "b": 3, "a": 2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("b").and_then(Json::as_u64), Some(3));
        assert_eq!(
            parse(r#"{"a": 1, "a": 2}"#).unwrap().get("a"),
            Some(&Json::Num(2))
        );
    }

    #[test]
    fn get_finds_a_member_wherever_it_sits() {
        let v = parse(r#"{"z": 0, "m": {"k": 1}, "a": [true]}"#).unwrap();
        let Json::Obj(members) = &v else {
            panic!("an object parses to Obj");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "m", "a"], "members stay in document order");
        assert_eq!(v.get("z").and_then(Json::as_u64), Some(0));
        assert_eq!(v.get("m").and_then(|m| m.get("k")), Some(&Json::Num(1)));
        assert_eq!(
            v.get("a").and_then(Json::as_arr),
            Some(&[Json::Bool(true)][..])
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(1).get("z"), None);
    }

    #[test]
    fn empty_containers_and_unicode_escapes() {
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Obj(Vec::new()));
        assert_eq!(parse(r#""\u0007""#).unwrap(), Json::Str("\u{7}".to_owned()));
        assert_eq!(parse("  42  ").unwrap(), Json::Num(42));
    }

    #[test]
    fn rejects_what_the_writer_never_emits() {
        assert!(parse("-1").is_err());
        assert!(parse("1.5").is_err());
        assert!(parse("1e3").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\"}").is_err());
        assert!(parse("[1] tail").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse(r#""\q""#).is_err());
        assert!(parse(r#""\ud800""#).is_err());
    }

    #[test]
    fn errors_carry_byte_offsets() {
        let err = parse("[1, x]").unwrap_err();
        assert_eq!(err.offset(), 4);
        assert!(err.message().contains("unexpected 'x'"));
        assert_eq!(err.to_string(), "unexpected 'x' at byte 4");
    }

    #[test]
    fn truncated_documents_are_errors_not_panics() {
        for doc in [
            "",
            "{",
            "[",
            "[1",
            "[1,",
            "{\"a\"",
            "{\"a\":",
            "{\"a\": 1",
            "\"abc",
            "\"abc\\",
            "\"abc\\u00",
            "tru",
        ] {
            let err = parse(doc).unwrap_err();
            assert!(
                err.is_truncated(),
                "truncated {doc:?} must report Truncated, got {err}"
            );
            assert_eq!(err.kind(), JsonErrorKind::Truncated);
            assert!(err.offset() <= doc.len());
            assert!(err.to_string().starts_with("truncated input at byte"));
        }
    }

    #[test]
    fn every_prefix_of_a_document_reports_truncated() {
        // The resume path's contract: however far into a document the
        // write got before the worker died, the reader answers Truncated
        // (never Syntax, never success — except prefixes that happen to
        // close the top-level object, which only full length does).
        let doc = r#"{"version": 5, "cells": [{"a": "x,\"yA"}, null, true], "n": 12}"#;
        for cut in 0..doc.len() {
            let err = parse(&doc[..cut]).unwrap_err();
            assert!(
                err.is_truncated(),
                "prefix of {cut} bytes gave {err} (kind {:?})",
                err.kind()
            );
        }
        assert!(parse(doc).is_ok());
    }

    #[test]
    fn malformed_bytes_are_syntax_not_truncated() {
        for doc in ["[1, x]", "{\"a\"}", "[1,]", "1.5", "-1", r#""\q""#, "nope"] {
            let err = parse(doc).unwrap_err();
            assert_eq!(err.kind(), JsonErrorKind::Syntax, "{doc:?} gave {err}");
            assert!(!err.is_truncated());
        }
    }

    #[test]
    fn number_overflow_is_an_error() {
        // u64::MAX is 18446744073709551615; one more digit must not wrap.
        assert_eq!(parse("18446744073709551615").unwrap(), Json::Num(u64::MAX));
        assert!(parse("184467440737095516150").is_err());
    }

    #[test]
    fn nesting_depth_is_capped() {
        let deep_ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&deep_ok).is_ok());
        let too_deep = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let err = parse(&too_deep).unwrap_err();
        assert!(err.message().contains("nesting"));
        // A pathological unclosed prefix must also error, not overflow.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"k\":".repeat(100_000)).is_err());
    }
}
