//! Parse-back of the telemetry JSONL stream.
//!
//! The sink side ([`crate::sink`]) writes one JSON object per line; this
//! module is its inverse: a small recursive-descent JSON parser (still
//! zero-dependency) plus a typed decoder that turns each line back into a
//! [`TelemetryEvent`]. The offline trace analyzer (`nessa-trace`) builds
//! entirely on this API; ad-hoc field lookups use
//! [`JsonValue::parse`] + [`JsonValue::get`], so escaped quotes and
//! nested objects are handled correctly.

use crate::metrics::HistogramSummary;
use crate::span::{AttrValue, SpanRecord};
use crate::DeviceEvent;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, preserving field order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<JsonValue, ParseError> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Field lookup on an object (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value's fields, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The value's elements, if it is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A JSON syntax or schema error, with the byte offset where it occurred.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.text[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: char) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{c}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        match self.peek() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => Ok(JsonValue::Str(self.string()?)),
            Some('t') => self.literal("true", JsonValue::Bool(true)),
            Some('f') => self.literal("false", JsonValue::Bool(false)),
            Some('n') => self.literal("null", JsonValue::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, ParseError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<JsonValue, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some('-' | '+' | '.' | 'e' | 'E' | '0'..='9')) {
            self.bump();
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| ParseError {
                offset: start,
                message: format!("invalid number '{}'", &self.text[start..self.pos]),
            })
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let hex = self
                            .text
                            .get(self.pos..self.pos + 4)
                            .ok_or_else(|| self.err("truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| self.err("invalid \\u escape"))?;
                        self.pos += 4;
                        // Surrogate pairs are not emitted by our encoder;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(c) => out.push(c),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, ParseError> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.bump();
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some(']') => return Ok(JsonValue::Arr(items)),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, ParseError> {
        self.expect('{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.bump();
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some('}') => return Ok(JsonValue::Obj(fields)),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// One decoded line of a telemetry JSONL stream.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// A completed host span.
    Span(SpanRecord),
    /// A bridged device-trace event (simulated clock).
    Device(DeviceEvent),
    /// A counter value at flush time.
    Counter {
        /// Metric name.
        name: String,
        /// Counter value.
        value: u64,
    },
    /// A gauge value at flush time.
    Gauge {
        /// Metric name.
        name: String,
        /// Gauge value.
        value: f64,
    },
    /// A histogram summary at flush time.
    Histogram {
        /// Metric name.
        name: String,
        /// Count/sum/min/max and quantile estimates.
        summary: HistogramSummary,
    },
    /// A line of a type this decoder does not know (e.g. the `epoch` /
    /// `run` lines of `RunReport::to_jsonl`); carried through verbatim so
    /// mixed artifacts stay loadable.
    Other(JsonValue),
}

fn num_attr(v: f64) -> AttrValue {
    if v.fract() == 0.0 && (0.0..=u64::MAX as f64).contains(&v) {
        AttrValue::U64(v as u64)
    } else if v.fract() == 0.0 && v >= i64::MIN as f64 && v < 0.0 {
        AttrValue::I64(v as i64)
    } else {
        AttrValue::F64(v)
    }
}

fn field_f64(obj: &JsonValue, key: &str, line_err: &str) -> Result<f64, ParseError> {
    obj.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| ParseError {
            offset: 0,
            message: format!("{line_err}: missing numeric field '{key}'"),
        })
}

fn field_str(obj: &JsonValue, key: &str, line_err: &str) -> Result<String, ParseError> {
    obj.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| ParseError {
            offset: 0,
            message: format!("{line_err}: missing string field '{key}'"),
        })
}

/// Decodes one JSONL line into a [`TelemetryEvent`].
///
/// Unknown `type` values decode to [`TelemetryEvent::Other`]; lines that
/// are not JSON objects (or have no `type` field) are errors.
pub fn parse_line(line: &str) -> Result<TelemetryEvent, ParseError> {
    let value = JsonValue::parse(line.trim())?;
    let ty = field_str(&value, "type", "event line")?;
    match ty.as_str() {
        "span" => {
            let parent = field_f64(&value, "parent", "span line")? as u64;
            let mut attrs = Vec::new();
            if let Some(fields) = value.get("attrs").and_then(JsonValue::as_obj) {
                for (k, v) in fields {
                    let attr = match v {
                        JsonValue::Num(n) => num_attr(*n),
                        JsonValue::Str(s) => AttrValue::Str(s.clone()),
                        // Non-finite floats encode as null (see
                        // `json::number`); surface them as NaN.
                        JsonValue::Null => AttrValue::F64(f64::NAN),
                        other => AttrValue::Str(format!("{other:?}")),
                    };
                    attrs.push((k.clone(), attr));
                }
            }
            Ok(TelemetryEvent::Span(SpanRecord {
                id: field_f64(&value, "id", "span line")? as u64,
                parent: (parent != 0).then_some(parent),
                name: field_str(&value, "name", "span line")?,
                attrs,
                // `start_s` is absent in pre-trace-analyzer artifacts;
                // treat those spans as starting at the stream origin.
                start_secs: value
                    .get("start_s")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0),
                wall_secs: field_f64(&value, "wall_s", "span line")?,
                sim_secs: field_f64(&value, "sim_s", "span line")?,
            }))
        }
        "device" => Ok(TelemetryEvent::Device(DeviceEvent {
            phase: field_str(&value, "phase", "device line")?,
            start_s: field_f64(&value, "start_s", "device line")?,
            duration_s: field_f64(&value, "duration_s", "device line")?,
            bytes: field_f64(&value, "bytes", "device line")? as u64,
        })),
        "counter" => Ok(TelemetryEvent::Counter {
            name: field_str(&value, "name", "counter line")?,
            value: field_f64(&value, "value", "counter line")? as u64,
        }),
        "gauge" => Ok(TelemetryEvent::Gauge {
            name: field_str(&value, "name", "gauge line")?,
            value: field_f64(&value, "value", "gauge line")?,
        }),
        "histogram" => Ok(TelemetryEvent::Histogram {
            name: field_str(&value, "name", "histogram line")?,
            summary: HistogramSummary {
                count: field_f64(&value, "count", "histogram line")? as u64,
                sum: field_f64(&value, "sum", "histogram line")?,
                min: field_f64(&value, "min", "histogram line")?,
                max: field_f64(&value, "max", "histogram line")?,
                p50: field_f64(&value, "p50", "histogram line")?,
                p95: field_f64(&value, "p95", "histogram line")?,
                p99: field_f64(&value, "p99", "histogram line")?,
            },
        }),
        _ => Ok(TelemetryEvent::Other(value)),
    }
}

/// Decodes a whole JSONL stream, skipping blank lines. The error carries
/// the 1-based line number of the first offending line.
pub fn parse_stream(text: &str) -> Result<Vec<TelemetryEvent>, StreamError> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse_line(l).map_err(|error| StreamError { line: i + 1, error }))
        .collect()
}

/// A [`ParseError`] tagged with the line it occurred on.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamError {
    /// 1-based line number.
    pub line: usize,
    /// The underlying parse error.
    pub error: ParseError,
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.error)
    }
}

impl std::error::Error for StreamError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{device_event_line, span_line};

    #[test]
    fn parses_scalars_and_structure() {
        let v = JsonValue::parse(r#"{"a":1.5,"b":[true,null,"x"],"c":{"d":-2e3}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_f64(), Some(1.5));
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0], JsonValue::Bool(true));
        assert_eq!(arr[1], JsonValue::Null);
        assert_eq!(arr[2].as_str(), Some("x"));
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_f64(), Some(-2e3));
    }

    #[test]
    fn decodes_escapes() {
        let v = JsonValue::parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "{\"a\":}", "[1,]", "tru", "\"unterminated", "{}x"] {
            assert!(JsonValue::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn span_line_round_trips() {
        let rec = SpanRecord {
            id: 7,
            parent: Some(3),
            name: "select".into(),
            attrs: vec![
                ("epoch".into(), 2usize.into()),
                ("note".into(), "a\"b".into()),
                ("gain".into(), 0.75f64.into()),
            ],
            start_secs: 1.25,
            wall_secs: 0.5,
            sim_secs: 0.1 + 0.2,
        };
        match parse_line(&span_line(&rec)).unwrap() {
            TelemetryEvent::Span(back) => assert_eq!(back, rec),
            other => panic!("expected span, got {other:?}"),
        }
    }

    #[test]
    fn device_line_round_trips() {
        let ev = DeviceEvent {
            phase: "scan".into(),
            start_s: 0.5,
            duration_s: 0.25,
            bytes: 4096,
        };
        match parse_line(&device_event_line(&ev)).unwrap() {
            TelemetryEvent::Device(back) => assert_eq!(back, ev),
            other => panic!("expected device, got {other:?}"),
        }
    }

    #[test]
    fn span_without_start_s_defaults_to_origin() {
        let legacy = r#"{"type":"span","id":1,"parent":0,"name":"epoch","wall_s":0.5,"sim_s":1.0,"attrs":{}}"#;
        match parse_line(legacy).unwrap() {
            TelemetryEvent::Span(rec) => {
                assert_eq!(rec.start_secs, 0.0);
                assert_eq!(rec.parent, None);
            }
            other => panic!("expected span, got {other:?}"),
        }
    }

    #[test]
    fn unknown_type_is_carried_through() {
        let line = r#"{"type":"epoch","epoch":3,"test_acc":0.9}"#;
        match parse_line(line).unwrap() {
            TelemetryEvent::Other(v) => {
                assert_eq!(v.get("type").unwrap().as_str(), Some("epoch"));
            }
            other => panic!("expected other, got {other:?}"),
        }
    }

    #[test]
    fn stream_reports_offending_line() {
        let text = "{\"type\":\"counter\",\"name\":\"c\",\"value\":1}\n\nnot json\n";
        let err = parse_stream(text).unwrap_err();
        assert_eq!(err.line, 3);
    }
}
