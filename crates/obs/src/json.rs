//! The workspace's one JSON codec: a small value type, a strict parser,
//! and a writer whose output round-trips **bit-exactly** through the
//! parser. It carries the serve protocol bodies (re-exported as
//! `pi_serve::json`), and the trace journal ([`crate::journal`]) writes
//! its strings and checks its lines with it.
//!
//! The bodies and records are ordinary JSON objects, but two properties
//! matter more than generality:
//!
//! 1. **Bit-exact numbers.** A batched yield response must carry the same
//!    `f64` the estimator produced, down to the last bit, so the
//!    determinism tests can compare a served answer against the in-process
//!    CLI answer. Floats are written with Rust's shortest round-trip
//!    formatting (guaranteed to re-parse to the same bits) and integers —
//!    including full-range `u64` seeds, which would lose precision as
//!    `f64` — are kept in a separate [`Json::Int`] variant.
//! 2. **Zero dependencies.** Everything here is std-only, matching the
//!    workspace's hermetic-build rule.
//!
//! The parser accepts the full JSON value grammar (objects, arrays,
//! strings with escapes, numbers, booleans, null) and rejects trailing
//! garbage; it is deliberately strict — no comments, no trailing commas,
//! no NaN/Infinity tokens (the workspace never produces them).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number token with no fraction or exponent that fits `i128`.
    /// Writing an `Int` emits the plain decimal digits, so `u64` values
    /// (seeds, eval counts) round-trip exactly.
    Int(i128),
    /// Any other number. Written with Rust's shortest-round-trip `f64`
    /// formatting; non-finite values are not representable and panic at
    /// write time (the API layer never produces them).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is preserved as written for readability;
    /// lookup is by linear scan (objects here have < 16 keys).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member of an object by key, if this is an object containing it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value as `f64` (accepts both number variants). An integer
    /// token re-parses to the identical `f64` bits because the writer only
    /// emits [`Json::Int`] for values that survive the `i128 → f64`
    /// rounding unchanged — everything else is written through the
    /// shortest-round-trip float path.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer value as `u64`, if in range.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            Json::Num(f) if f.fract() == 0.0 && *f >= 0.0 && *f < 2f64.powi(53) => Some(*f as u64),
            _ => None,
        }
    }

    /// Integer value as `usize`, if in range.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// String value.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Wraps an `f64`, choosing the integer variant when the value is an
    /// integer that round-trips through `i128` unchanged (so the common
    /// whole-number cases read naturally), and the float variant
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value — the API layer never produces one,
    /// and JSON cannot represent it.
    #[must_use]
    pub fn from_f64(v: f64) -> Json {
        assert!(v.is_finite(), "JSON cannot carry non-finite number {v}");
        if v.fract() == 0.0 && v.abs() < 1e15 {
            let i = v as i128;
            if i as f64 == v {
                return Json::Int(i);
            }
        }
        Json::Num(v)
    }

    /// Serializes to compact JSON text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(f) => {
                assert!(f.is_finite(), "JSON cannot carry non-finite number {f}");
                // Shortest round-trip decimal; force a float-looking token
                // so the value re-parses through the same f64 path.
                let s = format!("{f}");
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` to `out` as a JSON string literal, quotes included,
/// escaping `"`, `\` and the control characters (`\n`, `\r`, `\t`, the
/// rest as `\u00XX`).
pub fn write_string(out: &mut String, s: &str) {
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

/// Builds an object from `(key, value)` pairs (the API layer's one-liner).
#[must_use]
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a message naming the first offending byte offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte `{}` at {}", *c as char, *pos)),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let token = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number token");
    if token.is_empty() || token == "-" {
        return Err(format!("bad number at byte {start}"));
    }
    if !is_float {
        if let Ok(i) = token.parse::<i128>() {
            return Ok(Json::Int(i));
        }
    }
    let f: f64 = token
        .parse()
        .map_err(|e| format!("bad number `{token}` at byte {start}: {e}"))?;
    if !f.is_finite() {
        return Err(format!("non-finite number `{token}` at byte {start}"));
    }
    Ok(Json::Num(f))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
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
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let cp =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        // Surrogates are rejected rather than paired; the
                        // workspace never emits astral-plane escapes.
                        let c = char::from_u32(cp).ok_or("\\u escape is not a scalar value")?;
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => {
                return Err(format!("raw control byte 0x{c:02x} in string"));
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so boundaries
                // are valid by construction).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut members: Vec<(String, Json)> = Vec::new();
    let mut seen: BTreeMap<String, ()> = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_string(bytes, pos)?;
        if seen.insert(key.clone(), ()).is_some() {
            return Err(format!("duplicate object key `{key}`"));
        }
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: uniformly spread 64-bit test inputs from a seed.
    fn splitmix(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn parses_nested_values() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\ny"},"d":true,"e":null}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Int(1), Json::Num(2.5), Json::Num(-300.0)])
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e").unwrap(), &Json::Null);
    }

    #[test]
    fn rejects_malformed_text() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":1}x",
            "\"unterminated",
            "{\"a\":1,\"a\":2}",
            "01e",
            "nul",
            "-",
            "{\"s\":\"\\u12\"}",
            "Infinity",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        let mut next = splitmix(7);
        for _ in 0..2000 {
            // Random finite f64s across the full exponent range.
            let bits = next();
            let v = f64::from_bits(bits);
            if !v.is_finite() {
                continue;
            }
            let text = Json::Num(v).render();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{text}");
        }
    }

    #[test]
    fn integers_round_trip_full_u64_range() {
        let mut next = splitmix(8);
        for _ in 0..2000 {
            let v = next();
            let text = Json::Int(i128::from(v)).render();
            let back = parse(&text).unwrap().as_u64().unwrap();
            assert_eq!(back, v);
        }
        // Above the f64-exact range, the integer path is what saves us.
        let big = u64::MAX - 1;
        let back = parse(&Json::Int(i128::from(big)).render())
            .unwrap()
            .as_u64()
            .unwrap();
        assert_eq!(back, big);
    }

    #[test]
    fn from_f64_prefers_readable_integers() {
        assert_eq!(Json::from_f64(8.0), Json::Int(8));
        assert_eq!(Json::from_f64(2.5), Json::Num(2.5));
        assert_eq!(Json::from_f64(-0.0), Json::Int(0));
        // Huge integral floats stay on the float path (exactness first).
        assert!(matches!(Json::from_f64(1e300), Json::Num(_)));
    }

    #[test]
    fn whole_floats_render_as_float_tokens() {
        assert_eq!(Json::Num(1.0).render(), "1.0");
        assert_eq!(
            parse("1.0").unwrap().as_f64().unwrap().to_bits(),
            1.0f64.to_bits()
        );
    }
}
