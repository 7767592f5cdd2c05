//! JSON emission and decoding for [`Report`] and the data plane.
//!
//! The build is fully self-contained (no `serde` offline), so this
//! module hand-writes the JSON and ships the one parser the workspace
//! reads JSON with: a pull [`Reader`] (begin/next over objects and
//! arrays, number-or-null read or stepped over, string, a
//! [`Reader::value`] subtree, [`Reader::finish`]). [`parse`] is the
//! reader's `value()` plus `finish()` — the tree the tests, the
//! `jsoncheck` smoke binary and the service's request and control
//! frames use — while the data plane's point records (journal resume,
//! cache spill reload, streamed `point` frames) are decoded field by
//! field straight from the text, without building a tree
//! (`experiments::runner::PointSummary::from_record`), or read into
//! their scalars alone, their stacks stepped over number by number
//! ([`Reader::skip_number_or_null`]). Nesting is bounded by [`MAX_DEPTH`]: a document nested deeper is a
//! typed [`JsonError`], so hostile input cannot overflow the stack of
//! the thread parsing it.
//!
//! The reader walks the byte slice once: a number token is bounded and
//! held to the strict grammar in the same pass and then converted once, by
//! `f64`'s correctly rounded parse (the workspace's one text-to-number
//! conversion); a string or key is borrowed from the input unless it
//! holds escapes; [`Reader::skip`] passes over a value without building
//! it; error messages are formatted only on the way out of a malformed
//! document. The reader's per-token methods are `#[inline(always)]`:
//! every weaker set measured — none, plain `#[inline]`, only the public
//! entry points, only the byte helpers — decoded fig4's point records
//! 2–25 % slower in interleaved runs on a 2-CPU x86-64 host.
//! `experiments/tests/json_fuzz.rs` holds all of it to the
//! tree-walking oracle, and its number-token family pins every
//! `f64` bit pattern's round trip and the accept/reject set and error
//! offsets of the byte-by-byte grammar this walk replaced. Counts are
//! read back only as integers in `[0, 2^53]` ([`exact_u64`]).
//!
//! Non-finite numbers (`NaN`, `±inf`) have no JSON representation and
//! are emitted as `null`; [`Value::Missing`]
//! cells likewise become `null`.
//!
//! # Examples
//!
//! ```
//! use speedup_stacks::report::{json, Report};
//!
//! let report = Report::new("demo", "A demo");
//! let doc = json::parse(&report.to_json()).unwrap();
//! assert_eq!(doc.get("title").unwrap().as_str(), Some("A demo"));
//! assert!(doc.get("blocks").unwrap().as_array().unwrap().is_empty());
//! ```

use std::borrow::Cow;
use std::fmt::Write as _;

use super::{Block, Report, Scalar, Table, Value};
use crate::components::Component;
use crate::stack::SpeedupStack;

/// Escapes a string for inclusion in a JSON string literal.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number token (`null` when non-finite).
#[must_use]
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The largest count a JSON number is read back as: 2^53, up to which
/// every integer is an `f64` exactly. Every count the encoders write
/// stays far below it.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// A number read back as a count: an integer in `[0, 2^53]`, else `None`
/// — never the saturated `as` cast of a magnitude no encoder wrote.
#[must_use]
pub fn exact_u64(x: f64) -> Option<u64> {
    ((0.0..=MAX_EXACT_INT).contains(&x) && x.fract() == 0.0).then_some(x as u64)
}

fn value_token(v: &Value) -> String {
    match v {
        Value::F64(x) => number(*x),
        Value::U64(x) => format!("{x}"),
        Value::Str(s) => format!("\"{}\"", escape(s)),
        Value::Missing => "null".to_string(),
    }
}

fn stack_object(label: &str, stack: &SpeedupStack, out: &mut String, indent: &str) {
    let _ = write!(out, "{{\"label\": \"{}\", ", escape(label));
    let _ = write!(
        out,
        "\"n\": {}, \"tp_cycles\": {}, \"base_speedup\": {}, \"positive_interference\": {}, ",
        stack.num_threads(),
        stack.tp_cycles(),
        number(stack.base_speedup()),
        number(stack.positive_interference()),
    );
    let _ = write!(
        out,
        "\"estimated_speedup\": {}, \"actual_speedup\": {},\n{indent}  \"overheads\": {{",
        number(stack.estimated_speedup()),
        stack.actual_speedup().map_or("null".to_string(), number),
    );
    for (i, c) in Component::ALL.iter().enumerate() {
        let comma = if i + 1 < Component::ALL.len() {
            ", "
        } else {
            ""
        };
        let _ = write!(
            out,
            "\"{}\": {}{comma}",
            c.label(),
            number(stack.component(*c))
        );
    }
    out.push_str("}}");
}

fn table_object(t: &Table, out: &mut String, indent: &str) {
    let _ = write!(
        out,
        "{{\"kind\": \"table\", \"name\": \"{}\",",
        escape(&t.name)
    );
    out.push('\n');
    let _ = write!(out, "{indent}  \"columns\": [");
    for (i, c) in t.columns.iter().enumerate() {
        let comma = if i + 1 < t.columns.len() { ", " } else { "" };
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"unit\": \"{}\"}}{comma}",
            escape(&c.name),
            c.unit.label()
        );
    }
    let _ = write!(out, "],\n{indent}  \"rows\": [");
    for (ri, row) in t.rows.iter().enumerate() {
        let comma = if ri + 1 < t.rows.len() { "," } else { "" };
        let _ = write!(out, "\n{indent}    [");
        for (ci, v) in row.iter().enumerate() {
            let vcomma = if ci + 1 < row.len() { ", " } else { "" };
            let _ = write!(out, "{}{vcomma}", value_token(v));
        }
        let _ = write!(out, "]{comma}");
    }
    if t.rows.is_empty() {
        out.push(']');
    } else {
        let _ = write!(out, "\n{indent}  ]");
    }
    out.push('}');
}

fn scalar_object(s: &Scalar, out: &mut String) {
    let _ = write!(
        out,
        "{{\"kind\": \"scalar\", \"name\": \"{}\", \"value\": {}, \"unit\": \"{}\"}}",
        escape(&s.name),
        value_token(&s.value),
        s.unit.label()
    );
}

fn stack_list(stacks: &[(String, SpeedupStack)], out: &mut String, indent: &str) {
    for (i, (label, stack)) in stacks.iter().enumerate() {
        let comma = if i + 1 < stacks.len() { "," } else { "" };
        let _ = write!(out, "\n{indent}    ");
        stack_object(label, stack, out, &format!("{indent}    "));
        out.push_str(comma);
    }
    if stacks.is_empty() {
        out.push(']');
    } else {
        let _ = write!(out, "\n{indent}  ]");
    }
}

fn block_object(b: &Block, out: &mut String, indent: &str) -> bool {
    match b {
        Block::Blank => return false,
        Block::Text(s) => {
            let _ = write!(out, "{{\"kind\": \"text\", \"text\": \"{}\"}}", escape(s));
        }
        Block::Table(t) => table_object(t, out, indent),
        Block::Scalar(s) => scalar_object(s, out),
        Block::Stack { label, stack } => {
            out.push_str("{\"kind\": \"stack\", \"stack\": ");
            stack_object(label, stack, out, indent);
            out.push('}');
        }
        Block::StackTable { name, stacks } => {
            let _ = write!(
                out,
                "{{\"kind\": \"stack_table\", \"name\": \"{}\", \"stacks\": [",
                escape(name)
            );
            stack_list(stacks, out, indent);
            out.push('}');
        }
        Block::Sweep { title, series } => {
            let _ = write!(
                out,
                "{{\"kind\": \"sweep\", \"title\": \"{}\", \"stacks\": [",
                escape(title)
            );
            stack_list(series, out, indent);
            out.push('}');
        }
        Block::Hidden(inner) => return block_object(inner, out, indent),
        Block::Degraded(d) => {
            let _ = write!(
                out,
                "{{\"kind\": \"degraded\", \"total_points\": {}, \"completed\": {}, \
                 \"retried\": {}, \"quarantined\": {},\n{indent}  \"failed\": [",
                d.total_points, d.completed, d.retried, d.quarantined
            );
            for (i, p) in d.failed.iter().enumerate() {
                let comma = if i + 1 < d.failed.len() { "," } else { "" };
                let _ = write!(
                    out,
                    "\n{indent}    {{\"label\": \"{}\", \"reason\": \"{}\", \"attempts\": {}}}{comma}",
                    escape(&p.label),
                    escape(&p.reason),
                    p.attempts
                );
            }
            if d.failed.is_empty() {
                out.push_str("]}");
            } else {
                let _ = write!(out, "\n{indent}  ]}}");
            }
        }
        Block::Provenance(p) => {
            let _ = write!(
                out,
                "{{\"kind\": \"provenance\", \"source\": \"trace-capture\", \
                 \"path\": \"{}\", \"runs\": {}, \"bytes\": {}}}",
                escape(&p.path),
                p.runs,
                p.bytes
            );
        }
    }
    true
}

/// Serializes a report as a pretty-printed JSON object.
#[must_use]
pub fn to_json(r: &Report) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"study\": \"{}\",", escape(&r.study));
    let _ = writeln!(out, "  \"title\": \"{}\",", escape(&r.title));
    out.push_str("  \"params\": {");
    for (i, (k, v)) in r.params.iter().enumerate() {
        let comma = if i + 1 < r.params.len() { ", " } else { "" };
        let _ = write!(out, "\"{}\": {}{comma}", escape(k), value_token(v));
    }
    out.push_str("},\n  \"blocks\": [");
    let mut first = true;
    for b in &r.blocks {
        let mut chunk = String::new();
        if block_object(b, &mut chunk, "    ") {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    ");
            out.push_str(&chunk);
        }
    }
    if first {
        out.push_str("]\n}\n");
    } else {
        out.push_str("\n  ]\n}\n");
    }
    out
}

/// A parsed JSON value (the in-repo validator's document model).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// True if the value is `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }
}

/// A parse failure, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// The deepest nesting of objects and arrays a document may have. Far
/// above any report's (≤ 5 levels), and low enough that a hostile line
/// of `[` gets a typed [`JsonError`] instead of overflowing the stack of
/// the thread parsing it.
pub const MAX_DEPTH: usize = 128;

/// A pull parser over one JSON document: the one grammar and scanner
/// behind [`parse`] and every decoder that reads its fields straight
/// from the text.
///
/// Containers are walked with [`Reader::begin_object`] /
/// [`Reader::next_key`] and [`Reader::begin_array`] /
/// [`Reader::next_item`]; values are read with
/// [`Reader::number_or_null`], [`Reader::string`], or [`Reader::value`]
/// for a whole subtree (how a decoder skips what it does not know);
/// [`Reader::finish`] rejects trailing characters. Every method fails
/// with a typed [`JsonError`] on malformed input, never a panic, and
/// nesting past [`MAX_DEPTH`] is an error.
///
/// # Examples
///
/// ```
/// use speedup_stacks::report::json::Reader;
///
/// let mut r = Reader::new("{\"xs\": [1, null], \"skip\": {\"a\": true}}");
/// let mut xs = Vec::new();
/// r.begin_object().unwrap();
/// while let Some(key) = r.next_key().unwrap() {
///     if key == "xs" {
///         r.begin_array().unwrap();
///         while r.next_item().unwrap() {
///             xs.push(r.number_or_null().unwrap());
///         }
///     } else {
///         r.value().unwrap();
///     }
/// }
/// r.finish().unwrap();
/// assert_eq!(xs, [Some(1.0), None]);
/// ```
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    input: &'a str,
    pos: usize,
    depth: usize,
    /// The container just opened has not yielded a member yet.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `input`.
    #[must_use]
    pub fn new(input: &'a str) -> Self {
        Reader {
            input,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    /// Steps over whitespace and returns the byte after it, if any.
    #[inline(always)]
    fn peek_ws(&mut self) -> Option<u8> {
        let bytes = self.input.as_bytes();
        let mut i = self.pos;
        while let Some(&b) = bytes.get(i) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos = i;
                return Some(b);
            }
            i += 1;
        }
        self.pos = i;
        None
    }

    /// Consumes `b` after any whitespace.
    #[inline(always)]
    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek_ws() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            fail(self.pos, format_args!("expected '{}'", b as char))
        }
    }

    #[inline(always)]
    fn open(&mut self, bracket: u8) -> Result<(), JsonError> {
        self.peek_ws();
        if self.depth == MAX_DEPTH {
            return fail(
                self.pos,
                format_args!("nesting deeper than {MAX_DEPTH} levels"),
            );
        }
        self.expect(bracket)?;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// Steps past the separator before the open container's next member:
    /// `true` when one follows, `false` once the closing bracket is
    /// consumed.
    #[inline(always)]
    fn step(&mut self, close: u8) -> Result<bool, JsonError> {
        let fresh = std::mem::replace(&mut self.fresh, false);
        match self.peek_ws() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                Ok(false)
            }
            Some(b',') if !fresh => {
                self.pos += 1;
                Ok(true)
            }
            _ if fresh => Ok(true),
            _ => fail(
                self.pos,
                format_args!("expected ',' or '{}'", close as char),
            ),
        }
    }

    /// Enters an object.
    ///
    /// # Errors
    ///
    /// The next value is not an object, or it nests past [`MAX_DEPTH`].
    #[inline(always)]
    pub fn begin_object(&mut self) -> Result<(), JsonError> {
        self.open(b'{')
    }

    /// The open object's next key (its value is read next), or `None`
    /// once the object has ended. The key is borrowed from the input
    /// unless it holds escapes.
    ///
    /// # Errors
    ///
    /// A missing separator, key or colon.
    #[inline(always)]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if !self.step(b'}')? {
            return Ok(None);
        }
        let key = self.string()?;
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Enters an array.
    ///
    /// # Errors
    ///
    /// The next value is not an array, or it nests past [`MAX_DEPTH`].
    #[inline(always)]
    pub fn begin_array(&mut self) -> Result<(), JsonError> {
        self.open(b'[')
    }

    /// `true` when the open array has another item (read it next),
    /// `false` once the array has ended.
    ///
    /// # Errors
    ///
    /// A missing separator.
    #[inline(always)]
    pub fn next_item(&mut self) -> Result<bool, JsonError> {
        self.step(b']')
    }

    /// Reads a number, or `null` as `None`.
    ///
    /// # Errors
    ///
    /// The next value is neither.
    #[inline(always)]
    pub fn number_or_null(&mut self) -> Result<Option<f64>, JsonError> {
        if self.peek_ws() == Some(b'n') {
            self.literal("null")?;
            return Ok(None);
        }
        self.number().map(Some)
    }

    /// Steps over a number, held to the grammar [`Reader::number_or_null`]
    /// reads but not converted, or `null`: `true` for a number, `false`
    /// for `null`. Accepts and rejects exactly what
    /// [`Reader::number_or_null`] does, with the same errors.
    ///
    /// # Errors
    ///
    /// The next value is neither.
    #[inline(always)]
    pub fn skip_number_or_null(&mut self) -> Result<bool, JsonError> {
        if self.peek_ws() == Some(b'n') {
            self.literal("null")?;
            return Ok(false);
        }
        self.number_token().map(|_| true)
    }

    /// Reads a string, borrowed from the input unless it holds escapes.
    ///
    /// # Errors
    ///
    /// The next value is not a well-formed string.
    #[inline(always)]
    pub fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let input = self.input;
        let bytes = input.as_bytes();
        let start = self.pos;
        let mut i = start;
        // A multi-byte UTF-8 sequence holds no quote, backslash or
        // control byte, so the run up to one of those is taken whole.
        while let Some(&b) = bytes.get(i) {
            if b == b'"' {
                self.pos = i + 1;
                return Ok(Cow::Borrowed(&input[start..i]));
            }
            if b == b'\\' || b < 0x20 {
                break;
            }
            i += 1;
        }
        self.escaped_string(start, i)
    }

    /// The rest of a string from byte `i`, where the run that began at
    /// `run` met an escape, a control character or the end of input.
    #[cold]
    #[inline(never)]
    fn escaped_string(&mut self, mut run: usize, mut i: usize) -> Result<Cow<'a, str>, JsonError> {
        let input = self.input;
        let bytes = input.as_bytes();
        let mut decoded = String::new();
        loop {
            match bytes.get(i) {
                Some(b'"') => {
                    decoded.push_str(&input[run..i]);
                    self.pos = i + 1;
                    return Ok(Cow::Owned(decoded));
                }
                Some(b'\\') => {
                    decoded.push_str(&input[run..i]);
                    self.pos = i + 1;
                    self.escape(&mut decoded)?;
                    run = self.pos;
                    i = run;
                }
                Some(&b) if b < 0x20 => return fail(i, "control character in string"),
                Some(_) => i += 1,
                None => return fail(i, "unterminated string"),
            }
        }
    }

    /// Reads one whole value — a subtree — into a [`JsonValue`].
    ///
    /// # Errors
    ///
    /// The value is malformed or nests past [`MAX_DEPTH`].
    pub fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek_ws() {
            Some(b'{') => {
                self.begin_object()?;
                let mut fields = Vec::new();
                while let Some(key) = self.next_key()? {
                    fields.push((key.into_owned(), self.value()?));
                }
                Ok(JsonValue::Object(fields))
            }
            Some(b'[') => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.value()?);
                }
                Ok(JsonValue::Array(items))
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?.into_owned())),
            Some(b'-' | b'0'..=b'9') => self.number().map(JsonValue::Number),
            _ => self.literal_value(),
        }
    }

    /// Steps over one whole value without building it — how a decoder
    /// passes over what it does not read. Accepts and rejects exactly
    /// what [`Reader::value`] does, with the same errors.
    ///
    /// # Errors
    ///
    /// The value is malformed or nests past [`MAX_DEPTH`].
    pub fn skip(&mut self) -> Result<(), JsonError> {
        match self.peek_ws() {
            Some(b'{') => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
            Some(b'[') => {
                self.begin_array()?;
                while self.next_item()? {
                    self.skip()?;
                }
                Ok(())
            }
            Some(b'"') => self.string().map(drop),
            Some(b'-' | b'0'..=b'9') => self.number_token().map(drop),
            _ => self.literal_value().map(drop),
        }
    }

    /// `true`, `false` or `null` where a value starts; the error any other
    /// byte there gets.
    fn literal_value(&mut self) -> Result<JsonValue, JsonError> {
        match self.input.as_bytes().get(self.pos) {
            Some(b't') => self.literal("true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| JsonValue::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| JsonValue::Null),
            Some(&c) => fail(
                self.pos,
                format_args!("unexpected character '{}'", c as char),
            ),
            None => fail(self.pos, "unexpected end of input"),
        }
    }

    /// Ends the document: only whitespace may follow.
    ///
    /// # Errors
    ///
    /// Trailing characters after the document.
    pub fn finish(mut self) -> Result<(), JsonError> {
        match self.peek_ws() {
            Some(_) => fail(self.pos, "trailing characters after document"),
            None => Ok(()),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.input.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            fail(self.pos, format_args!("expected '{lit}'"))
        }
    }

    /// A number, converted once: [`Reader::number_token`] has already
    /// held the text to JSON's grammar, all of which `f64`'s correctly
    /// rounded parse accepts (a magnitude past `f64::MAX` reads as ±inf).
    #[inline(always)]
    fn number(&mut self) -> Result<f64, JsonError> {
        let text = self.number_token()?;
        match text.parse::<f64>() {
            Ok(v) => Ok(v),
            Err(_) => fail(self.pos, format_args!("invalid number '{text}'")),
        }
    }

    /// Bounds the number token at the reader's position and checks it
    /// against the strict grammar in the same walk: `-`? then `0` or a
    /// non-zero digit and more digits (no leading zeros), then an
    /// optional `.` and digits, then an optional exponent.
    #[inline(always)]
    fn number_token(&mut self) -> Result<&'a str, JsonError> {
        let input = self.input;
        let bytes = input.as_bytes();
        let start = self.pos;
        let mut i = start + usize::from(bytes.get(start) == Some(&b'-'));
        match bytes.get(i) {
            Some(b'0') => {
                i += 1;
                if let Some(b'0'..=b'9') = bytes.get(i) {
                    return fail(i, "leading zero");
                }
            }
            Some(b'1'..=b'9') => i = digits_end(bytes, i + 1),
            _ => return fail(i, "expected digit"),
        }
        if bytes.get(i) == Some(&b'.') {
            let end = digits_end(bytes, i + 1);
            if end == i + 1 {
                return fail(end, "expected digit after '.'");
            }
            i = end;
        }
        if let Some(b'e' | b'E') = bytes.get(i) {
            let exp = i + 1 + usize::from(matches!(bytes.get(i + 1), Some(b'+' | b'-')));
            i = digits_end(bytes, exp);
            if i == exp {
                return fail(i, "expected exponent digit");
            }
        }
        self.pos = i;
        Ok(&input[start..i])
    }

    /// Decodes one escape (the backslash already consumed) onto `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let Some(&esc) = self.input.as_bytes().get(self.pos) else {
            return fail(self.pos, "unterminated escape");
        };
        self.pos += 1;
        let c = match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let cp = self.hex4()?;
                // Surrogate pairs: JSON encodes astral chars as
                // \uD8xx\uDCxx.
                let c = if (0xD800..0xDC00).contains(&cp) {
                    if self.input.as_bytes()[self.pos..].starts_with(b"\\u") {
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return fail(self.pos, "high surrogate not followed by low surrogate");
                        }
                        char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00))
                    } else {
                        None
                    }
                } else {
                    // Lone (low) surrogates are rejected by
                    // char::from_u32.
                    char::from_u32(cp)
                };
                match c {
                    Some(c) => c,
                    None => return fail(self.pos, "invalid \\u escape"),
                }
            }
            other => {
                return fail(
                    self.pos,
                    format_args!("invalid escape '\\{}'", other as char),
                )
            }
        };
        out.push(c);
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(&b) = self.input.as_bytes().get(self.pos) else {
                return fail(self.pos, "truncated \\u escape");
            };
            let d = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a' + 10),
                b'A'..=b'F' => u32::from(b - b'A' + 10),
                _ => return fail(self.pos, "invalid hex digit"),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }
}

/// The typed error at byte `at`. Out of line and cold, so the message is
/// formatted only on the way out of a malformed document.
#[cold]
#[inline(never)]
fn fail<T>(at: usize, message: impl std::fmt::Display) -> Result<T, JsonError> {
    Err(JsonError {
        offset: at,
        message: message.to_string(),
    })
}

/// The index just past the run of ASCII digits starting at `i`.
#[inline(always)]
fn digits_end(bytes: &[u8], mut i: usize) -> usize {
    while let Some(b'0'..=b'9') = bytes.get(i) {
        i += 1;
    }
    i
}

/// Parses a JSON document into a [`JsonValue`] tree: [`Reader::value`]
/// then [`Reader::finish`].
///
/// # Errors
///
/// Returns a [`JsonError`] with the byte offset of the first syntax
/// error, including trailing garbage after the document and nesting
/// past [`MAX_DEPTH`].
///
/// # Examples
///
/// ```
/// use speedup_stacks::report::json::parse;
/// let v = parse("{\"a\": [1, 2.5, null]}").unwrap();
/// assert_eq!(v.get("a").unwrap().as_array().unwrap()[1].as_f64(), Some(2.5));
/// assert!(parse("{\"a\": NaN}").is_err());
/// ```
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut r = Reader::new(input);
    let v = r.value()?;
    r.finish()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse("{\"a\": {\"b\": [1, -2.5e3, \"x\", true, null]}}").unwrap();
        let arr = v.get("a").unwrap().get("b").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-2500.0));
        assert_eq!(arr[2].as_str(), Some("x"));
        assert_eq!(arr[3], JsonValue::Bool(true));
        assert!(arr[4].is_null());
    }

    #[test]
    fn escape_round_trips() {
        let original = "a \"quoted\"\\ line\nwith\ttabs and unicode: Ŝ → 3.87";
        let json = format!("\"{}\"", escape(original));
        let parsed = parse(&json).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse("\"\\u0041\"").unwrap().as_str(), Some("A"));
        // Surrogate pair for U+1F600.
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn mismatched_surrogates_rejected() {
        // High surrogate followed by a non-surrogate escape.
        assert!(parse("\"\\ud83d\\u0041\"").is_err());
        // High surrogate followed by another high surrogate.
        assert!(parse("\"\\ud83d\\ud83d\"").is_err());
        // Lone surrogates, high and low.
        assert!(parse("\"\\ud83d\"").is_err());
        assert!(parse("\"\\ude00\"").is_err());
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1} garbage",
            "\"unterminated",
            "NaN",
            "Infinity",
            "01",
            "1.",
            "--1",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_by_a_typed_error() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        assert_eq!(err.offset, MAX_DEPTH);
        // Far deeper than any thread stack could recurse: still typed.
        assert!(parse(&"[".repeat(1_000_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn reader_walks_what_parse_builds() {
        let doc = "{\"n\": -0.5, \"s\": \"a\\u00e9b\", \"xs\": [null, 2, {}], \"t\": true}";
        let mut r = Reader::new(doc);
        r.begin_object().unwrap();
        assert_eq!(r.next_key().unwrap().as_deref(), Some("n"));
        assert_eq!(r.number_or_null().unwrap(), Some(-0.5));
        assert_eq!(r.next_key().unwrap().as_deref(), Some("s"));
        assert_eq!(r.string().unwrap(), "aéb");
        assert_eq!(r.next_key().unwrap().as_deref(), Some("xs"));
        r.begin_array().unwrap();
        assert!(r.next_item().unwrap());
        assert_eq!(r.number_or_null().unwrap(), None);
        assert!(r.next_item().unwrap());
        assert_eq!(r.number_or_null().unwrap(), Some(2.0));
        assert!(r.next_item().unwrap());
        assert_eq!(r.value().unwrap(), JsonValue::Object(Vec::new()));
        assert!(!r.next_item().unwrap());
        assert_eq!(r.next_key().unwrap().as_deref(), Some("t"));
        assert!(r.number_or_null().is_err(), "a bool is not a number");
        let mut r = Reader::new("[1] x");
        r.value().unwrap();
        assert!(r.finish().is_err());
        for bad in ["[,1]", "[1,]", "{,}", "{\"a\": 1,}", "[1 2]"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(f64::NEG_INFINITY), "null");
        assert_eq!(number(1.5), "1.5");
    }

    #[test]
    fn report_with_non_finite_cells_still_emits_valid_json() {
        use crate::report::Column;
        let mut r = Report::new("nan", "non-finite handling");
        let mut t = Table::new("t", vec![Column::new("v"), Column::new("w")]);
        t.row(vec![Value::F64(f64::NAN), Value::F64(f64::INFINITY)]);
        t.row(vec![Value::F64(f64::NEG_INFINITY), Value::Missing]);
        r.push(Block::Table(t));
        r.push(Block::Scalar(Scalar::new(
            "bad",
            f64::NAN,
            crate::report::Unit::Speedup,
            String::new(),
        )));
        let doc = parse(&r.to_json()).expect("NaN/inf must not break the document");
        let blocks = doc.get("blocks").unwrap().as_array().unwrap();
        let rows = blocks[0].get("rows").unwrap().as_array().unwrap();
        for row in rows {
            for cell in row.as_array().unwrap() {
                assert!(cell.is_null());
            }
        }
        assert!(blocks[1].get("value").unwrap().is_null());
    }

    #[test]
    fn float_values_round_trip_exactly() {
        // The emitter uses shortest round-trip formatting, so a parse
        // recovers bit-identical values.
        for v in [0.1, 1.0 / 3.0, 5.618_213_4e-17, 1e300, -2.5] {
            let parsed = parse(&number(v)).unwrap();
            assert_eq!(parsed.as_f64(), Some(v));
        }
    }
}
