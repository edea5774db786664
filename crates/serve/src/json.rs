//! Minimal JSON for the wire protocol.
//!
//! The workspace builds fully offline (no serde), and the protocol only
//! needs *flat* request objects — string / number / boolean / null
//! values, no nesting — so a purpose-built parser is all there is.
//! Responses are emitted by hand (the server may write arrays; it never
//! has to parse them).

use std::collections::HashMap;

/// A scalar JSON value of a flat request object.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A string (escapes decoded).
    Str(String),
    /// Any JSON number.
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl JsonValue {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }
}

/// Parses one flat JSON object (`{"key": value, ...}`) into a map.
///
/// # Errors
///
/// Returns a human-readable description for malformed input or nested
/// objects/arrays (the protocol never sends them).
///
/// # Example
///
/// ```
/// use matex_serve::JsonValue;
///
/// let req = matex_serve::parse_flat_json(
///     r#"{"cmd": "submit", "t_stop": 1e-9, "fast": true}"#,
/// ).unwrap();
/// assert_eq!(req["cmd"], JsonValue::Str("submit".into()));
/// assert_eq!(req["t_stop"], JsonValue::Num(1e-9));
/// ```
pub fn parse_flat_json(text: &str) -> Result<HashMap<String, JsonValue>, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut out = HashMap::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.parse_string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.parse_value()?;
            out.insert(key, value);
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(out)
}

/// Escapes a string for inclusion in emitted JSON (quotes not added).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected {:?}, got {other:?}", want as char)),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_lit("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_lit("null", JsonValue::Null),
            Some(b'{') | Some(b'[') => {
                Err("nested objects/arrays are not part of the protocol".into())
            }
            Some(_) => self.parse_number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("malformed literal (expected {lit})"))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number {text:?}"))
    }

    /// Reads the 4 hex digits of a `\u` escape (after the `u`).
    fn parse_hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let hex =
            std::str::from_utf8(&self.bytes[self.pos..self.pos + 4]).map_err(|e| e.to_string())?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos += 4;
        Ok(code)
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let code = self.parse_hex4()?;
                        let ch = if (0xD800..0xDC00).contains(&code) {
                            // High surrogate: standard JSON encoders emit
                            // non-BMP characters as a \uHHHH\uLLLL pair.
                            if self.next() != Some(b'\\') || self.next() != Some(b'u') {
                                return Err("high surrogate not followed by \\u escape".into());
                            }
                            let low = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err("invalid low surrogate in \\u pair".into());
                            }
                            let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(combined)
                                .ok_or_else(|| "invalid surrogate pair".to_string())?
                        } else {
                            char::from_u32(code)
                                .ok_or_else(|| "lone surrogate in \\u escape".to_string())?
                        };
                        out.push(ch);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Re-decode the UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    if start + len > self.bytes.len() {
                        return Err("truncated UTF-8 sequence".into());
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|e| e.to_string())?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_objects() {
        let m = parse_flat_json(r#"{"a": "x", "b": -1.5e3, "c": true, "d": null}"#).unwrap();
        assert_eq!(m["a"], JsonValue::Str("x".into()));
        assert_eq!(m["b"], JsonValue::Num(-1500.0));
        assert_eq!(m["c"], JsonValue::Bool(true));
        assert_eq!(m["d"], JsonValue::Null);
        assert!(parse_flat_json("{}").unwrap().is_empty());
    }

    #[test]
    fn escapes_roundtrip() {
        let original = "line1\nline2\t\"quoted\" \\slash ünïcödé";
        let wire = format!("{{\"s\": \"{}\"}}", escape(original));
        let m = parse_flat_json(&wire).unwrap();
        assert_eq!(m["s"], JsonValue::Str(original.into()));
    }

    #[test]
    fn rejects_malformed_and_nested() {
        assert!(parse_flat_json("").is_err());
        assert!(parse_flat_json("{").is_err());
        assert!(parse_flat_json(r#"{"a": }"#).is_err());
        assert!(parse_flat_json(r#"{"a": {"b": 1}}"#).is_err());
        assert!(parse_flat_json(r#"{"a": [1]}"#).is_err());
        assert!(parse_flat_json(r#"{"a": 1} extra"#).is_err());
        assert!(parse_flat_json(r#"{"a": truthy}"#).is_err());
    }

    #[test]
    fn every_truncation_and_utf8_bit_flip_of_a_request_parses_or_errors() {
        use crate::loadgen::{LoadJob, HELLO};
        use crate::Priority;
        let netlist = LoadJob::netlist("i1 0 a PULSE(0 1m 0.1n 50p 200p 50p)\nr1 a 0 1k\n.end")
            .scaled(1.25)
            .cap_scaled(1, 2.0)
            .priority(Priority::High)
            .deadline_ms(40.0);
        let lines = [
            HELLO.to_string(),
            LoadJob::pdn(6, 6, 8, 3, 1).submit_line(),
            netlist.submit_line(),
            "{\"cmd\": \"stream\", \"job\": 12}".to_string(),
        ];
        for line in &lines {
            // The pristine lines parse; what follows must never panic.
            parse_flat_json(line).unwrap();
            let bytes = line.as_bytes();
            for cut in 0..bytes.len() {
                if let Ok(text) = std::str::from_utf8(&bytes[..cut]) {
                    let _ = parse_flat_json(text);
                }
            }
            for pos in 0..bytes.len() {
                for bit in 0..8 {
                    let mut bad = bytes.to_vec();
                    bad[pos] ^= 1 << bit;
                    if let Ok(text) = std::str::from_utf8(&bad) {
                        let _ = parse_flat_json(text);
                    }
                }
            }
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        // Raw UTF-8 passthrough and \uXXXX escapes both decode.
        let m = parse_flat_json("{\"s\": \"Aé\", \"t\": \"A\\u00e9\"}").unwrap();
        assert_eq!(m["s"], JsonValue::Str("Aé".into()));
        assert_eq!(m["t"], JsonValue::Str("Aé".into()));
        // Non-BMP characters arrive as surrogate pairs from standard
        // encoders and must decode to the real character.
        let m = parse_flat_json("{\"e\": \"\\ud83d\\ude00\"}").unwrap();
        assert_eq!(m["e"], JsonValue::Str("😀".into()));
        // Lone or malformed surrogates are errors, not silent U+FFFD.
        assert!(parse_flat_json("{\"e\": \"\\ud83d\"}").is_err());
        assert!(parse_flat_json("{\"e\": \"\\ud83dx\"}").is_err());
        assert!(parse_flat_json("{\"e\": \"\\ud83d\\u0041\"}").is_err());
        assert!(parse_flat_json("{\"e\": \"\\udc00\"}").is_err());
    }
}
