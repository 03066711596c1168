//! A minimal hand-rolled JSON value and writer.
//!
//! The harness binaries record machine-readable snapshots under
//! `results/`. Per the hermetic-build policy (lint rule R1) the
//! workspace carries no serde, so this module provides the small
//! subset actually needed: build a [`JsonValue`] tree and pretty-print
//! it. Object keys keep insertion order, so output is byte-for-byte
//! deterministic (lint rule R2).

use std::fmt::Write as _;

/// A JSON document fragment.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, printed without a decimal point.
    Int(i64),
    /// An unsigned integer (degrees, counts — the common case here).
    UInt(u64),
    /// A float, printed with Rust's shortest round-trip formatting.
    /// Non-finite values print as `null` (JSON has no NaN/Inf).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Build an object from `(key, value)` pairs, keeping order.
    pub fn obj<'a, I>(pairs: I) -> JsonValue
    where
        I: IntoIterator<Item = (&'a str, JsonValue)>,
    {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Build an array from anything convertible to [`JsonValue`].
    pub fn array<T: Into<JsonValue>, I: IntoIterator<Item = T>>(items: I) -> JsonValue {
        JsonValue::Array(items.into_iter().map(Into::into).collect())
    }

    /// Pretty-print with two-space indentation and a trailing newline,
    /// matching what `serde_json::to_string_pretty` produced for the
    /// existing files under `results/`.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_indented(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_indented(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => {
                out.push_str(if *b { "true" } else { "false" });
            }
            JsonValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            JsonValue::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            JsonValue::Float(f) => write_f64(out, *f),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write_indented(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            JsonValue::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_indented(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_f64(out: &mut String, f: f64) {
    if !f.is_finite() {
        out.push_str("null");
    } else if f == f.trunc() && f.abs() < 1e15 {
        // Keep a decimal point so the value round-trips as a float.
        let _ = write!(out, "{f:.1}");
    } else {
        let _ = write!(out, "{f}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::Int(v)
    }
}

impl From<i32> for JsonValue {
    fn from(v: i32) -> Self {
        JsonValue::Int(v.into())
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::UInt(v)
    }
}

impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::UInt(v.into())
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::UInt(v as u64)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Float(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> Self {
        JsonValue::array(v)
    }
}

impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(v: Option<T>) -> Self {
        match v {
            Some(inner) => inner.into(),
            None => JsonValue::Null,
        }
    }
}

impl From<(u64, f64)> for JsonValue {
    fn from((d, v): (u64, f64)) -> Self {
        JsonValue::Array(vec![d.into(), v.into()])
    }
}

impl From<(u64, f64, f64)> for JsonValue {
    fn from((d, v, s): (u64, f64, f64)) -> Self {
        JsonValue::Array(vec![d.into(), v.into(), s.into()])
    }
}

impl From<&[f64]> for JsonValue {
    fn from(v: &[f64]) -> Self {
        JsonValue::array(v.iter().copied())
    }
}

impl From<&[u64]> for JsonValue {
    fn from(v: &[u64]) -> Self {
        JsonValue::array(v.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(JsonValue::Null.pretty(), "null\n");
        assert_eq!(JsonValue::from(true).pretty(), "true\n");
        assert_eq!(JsonValue::from(42u64).pretty(), "42\n");
        assert_eq!(JsonValue::from(-7i64).pretty(), "-7\n");
        assert_eq!(JsonValue::from(0.5).pretty(), "0.5\n");
        assert_eq!(JsonValue::from("hi").pretty(), "\"hi\"\n");
    }

    #[test]
    fn whole_floats_keep_a_decimal_point() {
        assert_eq!(JsonValue::from(2.0).pretty(), "2.0\n");
        assert_eq!(JsonValue::from(-3.0).pretty(), "-3.0\n");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(JsonValue::from(f64::NAN).pretty(), "null\n");
        assert_eq!(JsonValue::from(f64::INFINITY).pretty(), "null\n");
    }

    /// The committed `results/` snapshots depend on this exact format:
    /// plain decimal however small (never an exponent), a decimal point
    /// on integral values below 10^15 and none from there up, `null`
    /// for non-finite values.
    #[test]
    fn number_format_is_pinned() {
        for (x, s) in [
            (9.972931183915058e-6, "0.000009972931183915058"),
            (-2.5e-3, "-0.0025"),
            (0.5, "0.5"),
            (123456789.0, "123456789.0"),
            (-0.0, "-0.0"),
            (999999999999999.0, "999999999999999.0"),
            (1e15, "1000000000000000"),
            (1.5e17, "150000000000000000"),
            (f64::NAN, "null"),
            (f64::INFINITY, "null"),
            (f64::NEG_INFINITY, "null"),
        ] {
            assert_eq!(JsonValue::from(x).pretty(), format!("{s}\n"), "{x:e}");
        }
    }

    #[test]
    fn floats_round_trip() {
        for &x in &[0.1, 1e-300, 123456.789, 2.2250738585072014e-308] {
            let s = JsonValue::from(x).pretty();
            let back: f64 = s.trim().parse().expect("parses");
            assert_eq!(back, x, "{s}");
        }
    }

    #[test]
    fn strings_escape_control_and_quotes() {
        let v = JsonValue::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(v.pretty(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"\n");
    }

    #[test]
    fn arrays_and_objects_nest_with_indentation() {
        let v = JsonValue::obj([
            ("name", "demo".into()),
            ("xs", JsonValue::array([1u64, 2, 3])),
            ("nested", JsonValue::obj([("p", 0.25.into())])),
            ("empty_arr", JsonValue::Array(vec![])),
            ("empty_obj", JsonValue::Object(vec![])),
        ]);
        let expected = "{\n  \"name\": \"demo\",\n  \"xs\": [\n    1,\n    2,\n    3\n  ],\n  \"nested\": {\n    \"p\": 0.25\n  },\n  \"empty_arr\": [],\n  \"empty_obj\": {}\n}\n";
        assert_eq!(v.pretty(), expected);
    }

    #[test]
    fn object_key_order_is_insertion_order() {
        let v = JsonValue::obj([("z", 1u64.into()), ("a", 2u64.into())]);
        let s = v.pretty();
        assert!(s.find("\"z\"").expect("z") < s.find("\"a\"").expect("a"));
    }

    #[test]
    fn option_and_slice_conversions() {
        let some: JsonValue = Some(3u64).into();
        assert_eq!(some, JsonValue::UInt(3));
        let none: JsonValue = Option::<u64>::None.into();
        assert_eq!(none, JsonValue::Null);
        let xs: JsonValue = [0.5f64, 1.5][..].into();
        assert_eq!(xs, JsonValue::Array(vec![0.5.into(), 1.5.into()]));
    }
}
