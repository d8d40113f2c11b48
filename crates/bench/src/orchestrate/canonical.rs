//! Canonical JSON: the byte-stable serialization every orchestration
//! artifact uses.
//!
//! The experiment service's whole determinism contract rests on one
//! property: *identical data serializes to identical bytes*.  This module
//! provides the value type and the two halves of the contract:
//!
//! * [`CanonicalJson`] — a JSON value whose objects are kept sorted by key
//!   ([`std::collections::BTreeMap`]), so serialization order can never
//!   depend on insertion order.
//! * [`CanonicalJson::serialize`] — sorted keys, no whitespace, integers
//!   rendered as integers, and floats rendered with Rust's shortest
//!   round-trip [`std::fmt::Display`] formatting, which is deterministic
//!   across platforms and re-parses to the identical bit pattern.
//! * [`CanonicalJson::parse`] — a small recursive-descent parser accepting
//!   standard JSON nested at most [`MAX_NESTING`] deep; for any value `v`,
//!   `parse(serialize(v)) == v` and `serialize(parse(serialize(v))) ==
//!   serialize(v)` (pinned by unit tests and a property test).
//!
//! Content addressing uses [`content_hash`]: FNV-1a over the canonical
//! bytes, finalized through a SplitMix64 round for avalanche, rendered as
//! 16 lowercase hex digits.  Job hashes, plan hashes, and artifact hashes
//! are all this one function over different canonical payloads.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use backscatter_prng::{Rng64, SplitMix64};

/// The deepest array/object nesting [`CanonicalJson::parse`] accepts.  The
/// parser recurses once per level, so without a bound a hostile input of
/// nested brackets would overflow the stack and abort the process; every
/// artifact this crate writes nests a handful of levels deep.
pub const MAX_NESTING: usize = 128;

/// A JSON value with canonical (sorted-key, byte-stable) serialization.
#[derive(Debug, Clone, PartialEq)]
pub enum CanonicalJson {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer — serialized without a decimal point.
    Int(i64),
    /// A finite float — serialized with shortest round-trip formatting.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<CanonicalJson>),
    /// An object; the map keeps keys sorted, which *is* the canonical order.
    Object(BTreeMap<String, CanonicalJson>),
}

impl CanonicalJson {
    /// Builds a string value.
    #[must_use]
    pub fn str(s: &str) -> Self {
        CanonicalJson::Str(s.to_string())
    }

    /// Builds an object from `(key, value)` pairs (keys deduplicate by
    /// last-wins, as in JSON).
    #[must_use]
    pub fn object(pairs: Vec<(&str, CanonicalJson)>) -> Self {
        CanonicalJson::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key of an object value.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&CanonicalJson> {
        match self {
            CanonicalJson::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, when this value is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            CanonicalJson::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, when this value is an integer.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            CanonicalJson::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The array payload, when this value is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[CanonicalJson]> {
        match self {
            CanonicalJson::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to canonical bytes: sorted object keys, no whitespace,
    /// shortest round-trip number formatting.
    ///
    /// # Panics
    ///
    /// Panics on non-finite floats — NaN and infinities have no JSON
    /// representation, and an artifact that silently rendered them as
    /// `null` would break the round-trip contract.
    #[must_use]
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            CanonicalJson::Null => out.push_str("null"),
            CanonicalJson::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            CanonicalJson::Int(i) => {
                let _ = write!(out, "{i}");
            }
            CanonicalJson::Float(f) => {
                assert!(f.is_finite(), "non-finite float in canonical JSON");
                // Rust's Display for f64 is the shortest decimal string that
                // round-trips, and never uses exponent notation — stable
                // bytes, stable re-parse.  A `.0` suffix keeps whole floats
                // distinguishable from integers on the wire (`2.0` re-parses
                // as a float, `2` as an integer).
                let rendered = format!("{f}");
                out.push_str(&rendered);
                if !rendered.contains('.') {
                    out.push_str(".0");
                }
            }
            CanonicalJson::Str(s) => write_json_string(s, out),
            CanonicalJson::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            CanonicalJson::Object(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses standard JSON text into a canonical value.
    ///
    /// Numbers with a `.`, `e`, or `E` parse as [`CanonicalJson::Float`];
    /// bare integers that fit `i64` parse as [`CanonicalJson::Int`].
    /// Duplicate object keys resolve last-wins.  Input nested deeper than
    /// [`MAX_NESTING`] is an error, not a stack overflow.
    pub fn parse(text: &str) -> Result<Self, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected `{}` at offset {pos}",
            char::from(b),
            pos = *pos
        ))
    }
}

/// Parses one value whose enclosing arrays/objects are `depth` levels deep.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<CanonicalJson, String> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth >= MAX_NESTING {
        return Err(format!(
            "nesting deeper than {MAX_NESTING} at offset {pos}",
            pos = *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_literal(bytes, pos, "null", CanonicalJson::Null),
        Some(b't') => parse_literal(bytes, pos, "true", CanonicalJson::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", CanonicalJson::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(CanonicalJson::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(CanonicalJson::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(CanonicalJson::Array(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(CanonicalJson::Object(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(CanonicalJson::Object(map));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: CanonicalJson,
) -> Result<CanonicalJson, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at offset {pos}", pos = *pos))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Surrogate pairs are not needed for the harness's
                        // ASCII-dominated artifacts; reject them loudly.
                        let c = char::from_u32(code).ok_or("surrogate in \\u escape")?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash in one step.
                // Both are ASCII, so the run ends on a char boundary of the
                // `&str` input, and each byte is validated once.
                let end = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |run| *pos + run);
                out.push_str(std::str::from_utf8(&bytes[*pos..end]).map_err(|e| e.to_string())?);
                *pos = end;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<CanonicalJson, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if text.is_empty() {
        return Err(format!("expected a value at offset {start}"));
    }
    let is_float = text.contains(['.', 'e', 'E']);
    if !is_float {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(CanonicalJson::Int(i));
        }
    }
    text.parse::<f64>()
        .map(CanonicalJson::Float)
        .map_err(|_| format!("invalid number `{text}`"))
}

/// FNV-1a (64-bit) over a byte string.
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01B3);
    }
    hash
}

/// The content hash of a canonical byte string: FNV-1a finalized through one
/// SplitMix64 round (avalanche over FNV's weak low bits), as 16 hex digits.
#[must_use]
pub fn content_hash(bytes: &[u8]) -> String {
    let mut finalizer = SplitMix64::new(fnv1a_64(bytes));
    format!("{:016x}", finalizer.next_u64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_serialize_with_sorted_keys() {
        let v = CanonicalJson::object(vec![
            ("zeta", CanonicalJson::Int(1)),
            ("alpha", CanonicalJson::Int(2)),
            ("mid", CanonicalJson::Int(3)),
        ]);
        assert_eq!(v.serialize(), r#"{"alpha":2,"mid":3,"zeta":1}"#);
    }

    #[test]
    fn floats_keep_their_variant_and_integers_theirs() {
        assert_eq!(CanonicalJson::Float(2.0).serialize(), "2.0");
        assert_eq!(CanonicalJson::Float(0.1).serialize(), "0.1");
        assert_eq!(CanonicalJson::Int(2).serialize(), "2");
        assert_eq!(
            CanonicalJson::parse("2.0").unwrap(),
            CanonicalJson::Float(2.0)
        );
        assert_eq!(CanonicalJson::parse("2").unwrap(), CanonicalJson::Int(2));
    }

    #[test]
    fn parse_serialize_roundtrips_canonical_bytes() {
        let cases = [
            r#"{"a":[1,2.5,"x"],"b":{"c":null,"d":false},"e":"q\"uote"}"#,
            "[]",
            "{}",
            r#"["\n\t\\",-7,0.001]"#,
            "-0.0",
        ];
        for case in cases {
            let parsed = CanonicalJson::parse(case).unwrap();
            assert_eq!(parsed.serialize(), case, "case `{case}`");
        }
    }

    #[test]
    fn noncanonical_input_normalizes_then_fixes() {
        // Whitespace and key order normalize away; a second round trip is a
        // fixed point.
        let messy = "{ \"b\" : 1 ,\n \"a\" : [ true , 2e1 ] }";
        let canonical = CanonicalJson::parse(messy).unwrap().serialize();
        assert_eq!(canonical, r#"{"a":[true,20.0],"b":1}"#);
        assert_eq!(
            CanonicalJson::parse(&canonical).unwrap().serialize(),
            canonical
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "{", "[1,]", "tru", "\"unterminated", "{\"a\" 1}", "1 2"] {
            assert!(CanonicalJson::parse(bad).is_err(), "`{bad}` parsed");
        }
    }

    #[test]
    fn parse_bounds_nesting_depth() {
        let hostile = "[".repeat(100_000);
        assert!(CanonicalJson::parse(&hostile).is_err());
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(CanonicalJson::parse(&nested(MAX_NESTING)).is_ok());
        assert!(CanonicalJson::parse(&nested(MAX_NESTING + 1)).is_err());
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_NESTING + 1),
            "}".repeat(MAX_NESTING + 1)
        );
        assert!(CanonicalJson::parse(&objects).is_err());
    }

    #[test]
    fn parse_is_linear_in_string_length() {
        // A 4 MiB string value, multi-byte scalars and escapes included: a
        // parser that re-validated the remaining input per character would
        // take minutes here.
        let value = "aé€😀\\\"".repeat(1 << 19);
        let text = CanonicalJson::Str(value.clone()).serialize();
        assert!(text.len() > 4 << 20);
        let started = std::time::Instant::now();
        let parsed = CanonicalJson::parse(&text).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(parsed, CanonicalJson::Str(value));
        assert!(elapsed.as_secs_f64() < 10.0, "parse took {elapsed:?}");
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // Canonical FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn content_hash_is_stable_and_16_hex() {
        let h = content_hash(b"job spec");
        assert_eq!(h.len(), 16);
        assert!(h.bytes().all(|b| b.is_ascii_hexdigit()));
        assert_eq!(h, content_hash(b"job spec"));
        assert_ne!(h, content_hash(b"job spec!"));
    }
}
