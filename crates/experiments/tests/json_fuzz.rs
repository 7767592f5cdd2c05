//! A seeded fuzz loop for the JSON reader and the point-record decoder
//! built on it (in-repo deterministic-RNG style, like
//! `workloads/tests/trace_fuzz.rs`).
//!
//! Five families of cases, round-robin by seed:
//!
//! - **valid documents**: random trees (escapes, surrogate pairs,
//!   number edges, whitespace, nesting up to and one past
//!   [`json::MAX_DEPTH`]) emitted through `json::escape`/`json::number`
//!   — `parse` reads back exactly the tree that was emitted, and one
//!   level too deep is a typed error;
//! - **raw damage** to a document or a point record (bit flips, byte
//!   overwrites, insertions, deletions, cuts, runs of `[`): a typed
//!   error or a success, never a panic;
//! - **reshaped records** — every point record of fig1/4/5/6 at scale
//!   0.01, with NaN fields (emitted as `null`), keys reordered, unknown
//!   and repeated keys spliced in, and an `o` one overhead short or long;
//! - **truncated records**;
//! - **number tokens**: random `f64` bit patterns (subnormals, ±0,
//!   extremes, 17-digit shortest forms) through `json::number`, read
//!   back bit-exact by `Reader::number_or_null`; random and mutated
//!   tokens over `0-9 . e E + -` as `[<token>]`, accepted with the value
//!   or rejected at the offset the byte-by-byte grammar below gives (the
//!   scanner the one-pass reader replaced), and stepped over by
//!   `Reader::skip_number_or_null` exactly as they are read; and records
//!   whose count fields carry magnitudes no encoder writes.
//!
//! In every case, whatever the text, the reader-based
//! [`PointSummary::from_record`] must agree bit for bit with the
//! tree-walking decoder it replaced (kept below as the oracle) applied
//! to [`json::parse`]'s tree; the stack-free walk,
//! [`PointScalars::read_record`], must accept exactly the texts the full
//! decode accepts, with the same scalars bit for bit; and
//! [`Reader::skip`] must accept and reject exactly what `parse` does,
//! with the same error.
//!
//! A failing case prints its seed; replay it with `run_case(seed)`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use experiments::decompose::decompose;
use experiments::graph::Unit;
use experiments::runner::{PointScalars, PointSummary};
use experiments::study::StudyParams;
use speedup_stacks::report::json::{self, JsonValue, Reader};
use speedup_stacks::{Breakdown, Component, SpeedupStack, ThreadBreakdown};
use workloads::rng::SmallRng;

/// Cases per run of the loop, split evenly over the five families.
const CASES: u64 = 3_000;

// --- the oracle -----------------------------------------------------------

fn num_field(v: &JsonValue, k: &str) -> Option<f64> {
    match v.get(k)? {
        JsonValue::Number(x) => Some(*x),
        JsonValue::Null => Some(f64::NAN),
        _ => None,
    }
}

/// A count: an integer in `[0, 2^53]`, where every integer is an `f64`
/// exactly (a larger magnitude is no count an encoder wrote).
fn u64_field(v: &JsonValue, k: &str) -> Option<u64> {
    let x = v.get(k)?.as_f64()?;
    ((0.0..=9_007_199_254_740_992.0).contains(&x) && x.fract() == 0.0).then_some(x as u64)
}

/// The tree-walking `PointSummary::from_record(&JsonValue)` the reader
/// decoder replaced, with counts bounded as above.
fn oracle(v: &JsonValue) -> Option<PointSummary> {
    let stack_v = v.get("stack")?;
    let tp = u64_field(stack_v, "tp_cycles")?;
    let mut per_thread = Vec::new();
    for t in stack_v.get("per_thread")?.as_array()? {
        let o = t.get("o")?.as_array()?;
        if o.len() != Component::ALL.len() {
            return None;
        }
        let mut overheads = Breakdown::zero();
        for (c, val) in Component::ALL.iter().zip(o) {
            overheads.set(*c, val.as_f64()?);
        }
        per_thread.push(ThreadBreakdown {
            overheads,
            positive_cycles: num_field(t, "p")?,
            estimated_single_thread_cycles: num_field(t, "e")?,
        });
    }
    if per_thread.is_empty() {
        return None;
    }
    let actual = num_field(v, "actual")?;
    Some(PointSummary {
        name: v.get("name")?.as_str()?.to_string(),
        suite: v.get("suite")?.as_str()?.to_string(),
        threads: u64_field(v, "threads")? as usize,
        actual,
        estimated: num_field(v, "estimated")?,
        st_cycles: u64_field(v, "st_cycles")?,
        mt_cycles: u64_field(v, "mt_cycles")?,
        instruction_overhead: num_field(v, "instruction_overhead")?,
        stack: SpeedupStack::from_breakdowns(per_thread, tp).with_actual_speedup(actual),
    })
}

/// Everything a summary holds, floats by bit pattern (derived stack
/// values included), so "equal" means bit for bit.
type Bits = (String, String, usize, u64, u64, Vec<u64>);

fn bits(p: &PointSummary) -> Bits {
    let s = &p.stack;
    let mut f = vec![
        p.actual.to_bits(),
        p.estimated.to_bits(),
        p.instruction_overhead.to_bits(),
        s.tp_cycles(),
        s.num_threads() as u64,
        s.actual_speedup().map_or(0, f64::to_bits),
        s.positive_interference().to_bits(),
    ];
    for t in s.per_thread() {
        f.extend(Component::ALL.iter().map(|&c| t.overheads.get(c).to_bits()));
        f.push(t.positive_cycles.to_bits());
        f.push(t.estimated_single_thread_cycles.to_bits());
    }
    f.extend(Component::ALL.iter().map(|&c| s.component(c).to_bits()));
    (
        p.name.clone(),
        p.suite.clone(),
        p.threads,
        p.st_cycles,
        p.mt_cycles,
        f,
    )
}

/// A point's scalars, floats by bit pattern.
type ScalarBits = (String, String, usize, u64, u64, [u64; 3]);

fn scalar_bits(p: &PointScalars) -> ScalarBits {
    (
        p.name.clone(),
        p.suite.clone(),
        p.threads,
        p.st_cycles,
        p.mt_cycles,
        [p.actual, p.estimated, p.instruction_overhead].map(f64::to_bits),
    )
}

/// The property every case ends in: the reader decoder ≡ the oracle on
/// `parse`'s tree, the stack-free walk ≡ the reader decoder's scalars,
/// and `skip` ≡ `parse` on acceptance and on the error, for any text.
/// Returns the decoded bits.
fn decoders_agree(text: &str) -> Option<Bits> {
    let full = PointSummary::from_record(text);
    let decoded = full.as_ref().map(bits);
    let tree = json::parse(text);
    let expected = tree.as_ref().ok().and_then(oracle).as_ref().map(bits);
    assert_eq!(decoded, expected, "reader decoder vs oracle on {text:?}");
    let mut r = Reader::new(text);
    let scalars = PointScalars::read_record(&mut r).filter(|_| r.finish().is_ok());
    assert_eq!(
        scalars.as_ref().map(scalar_bits),
        full.map(PointScalars::from).as_ref().map(scalar_bits),
        "stack-free walk vs full decode on {text:?}"
    );
    let mut r = Reader::new(text);
    let skipped = r.skip().and_then(|()| r.finish());
    assert_eq!(skipped.err(), tree.err(), "skip vs parse on {text:?}");
    decoded
}

// --- documents ------------------------------------------------------------

fn canonical(v: &JsonValue, out: &mut String) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        JsonValue::Number(x) => out.push_str(&json::number(*x)),
        JsonValue::String(s) => {
            let _ = write!(out, "\"{}\"", json::escape(s));
        }
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                canonical(item, out);
            }
            out.push(']');
        }
        JsonValue::Object(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":", json::escape(k));
                canonical(item, out);
            }
            out.push('}');
        }
    }
}

fn emit(v: &JsonValue) -> String {
    let mut out = String::new();
    canonical(v, &mut out);
    out
}

/// The same document as [`canonical`] with random whitespace and strings
/// spelled with `\u` escapes (astral chars as surrogate pairs) and `\/`.
fn noisy(v: &JsonValue, rng: &mut SmallRng, out: &mut String) {
    let ws = |rng: &mut SmallRng, out: &mut String| {
        for _ in 0..rng.gen_range(0..3u32) {
            out.push([' ', '\n', '\t', '\r'][rng.gen_range(0..4usize)]);
        }
    };
    let string = |s: &str, rng: &mut SmallRng, out: &mut String| {
        out.push('"');
        for c in s.chars() {
            match rng.gen_range(0..4u32) {
                0 => {
                    let mut units = [0u16; 2];
                    for u in c.encode_utf16(&mut units) {
                        let _ = write!(out, "\\u{u:04X}");
                    }
                }
                1 if c == '/' => out.push_str("\\/"),
                _ => out.push_str(&json::escape(c.encode_utf8(&mut [0; 4]))),
            }
        }
        out.push('"');
    };
    ws(rng, out);
    match v {
        JsonValue::String(s) => string(s, rng, out),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                noisy(item, rng, out);
            }
            ws(rng, out);
            out.push(']');
        }
        JsonValue::Object(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                string(k, rng, out);
                ws(rng, out);
                out.push(':');
                noisy(item, rng, out);
            }
            ws(rng, out);
            out.push('}');
        }
        scalar => canonical(scalar, out),
    }
    ws(rng, out);
}

const CHARS: [char; 16] = [
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '→',
    '\u{ffff}', '😀',
];

fn random_string(rng: &mut SmallRng) -> String {
    (0..rng.gen_range(0..8usize))
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
        .collect()
}

fn random_number(rng: &mut SmallRng) -> f64 {
    const EDGES: [f64; 14] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        1.0 / 3.0,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        5e-324,
        9_007_199_254_740_992.0,
        9_007_199_254_740_993.0,
        1e308,
        -2.5e-17,
    ];
    match rng.gen_range(0..3u32) {
        0 => EDGES[rng.gen_range(0..EDGES.len())],
        1 => rng.gen_range(0..1_000_000u64) as f64,
        _ => loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                break x;
            }
        },
    }
}

fn random_value(rng: &mut SmallRng, depth: usize) -> JsonValue {
    let leaf = depth == 0 || rng.gen_bool(0.4);
    match rng.gen_range(0..if leaf { 4u32 } else { 6 }) {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(rng.gen_bool(0.5)),
        2 => JsonValue::Number(random_number(rng)),
        3 => JsonValue::String(random_string(rng)),
        4 => JsonValue::Array(
            (0..rng.gen_range(0..4usize))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => JsonValue::Object(
            (0..rng.gen_range(0..4usize))
                .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// `levels` nested containers around a scalar.
fn chain(rng: &mut SmallRng, levels: usize) -> JsonValue {
    (0..levels).fold(JsonValue::Number(1.0), |inner, _| {
        if rng.gen_bool(0.5) {
            JsonValue::Array(vec![inner])
        } else {
            JsonValue::Object(vec![("k".to_string(), inner)])
        }
    })
}

fn valid_document(rng: &mut SmallRng) {
    let deep = rng.gen_range(0..8u32) == 0;
    let doc = if deep {
        let levels = json::MAX_DEPTH - rng.gen_range(0..3usize);
        chain(rng, levels)
    } else {
        random_value(rng, 5)
    };
    let text = emit(&doc);
    let mut spelled = String::new();
    noisy(&doc, rng, &mut spelled);
    for t in [&text, &spelled] {
        let back = json::parse(t).unwrap_or_else(|e| panic!("{e} in {t:?}"));
        // Re-emitted canonically: strings, structure and every number's
        // bit pattern (shortest round-trip formatting) survive.
        assert_eq!(emit(&back), text);
        decoders_agree(t);
    }
    if deep {
        let too_deep = emit(&JsonValue::Array(vec![chain(rng, json::MAX_DEPTH)]));
        let err = json::parse(&too_deep).expect_err("nesting past the limit");
        assert!(err.message.contains("nesting"), "{err}");
        decoders_agree(&too_deep);
    }
}

// --- damage ---------------------------------------------------------------

fn damage(rng: &mut SmallRng, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..4u32) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.gen_range(0..bytes.len());
        match rng.gen_range(0..7u32) {
            0 => bytes[at] ^= 1 << rng.gen_range(0..8u32),
            1 => bytes[at] = b"{}[],:\"\\-.0e nultr"[rng.gen_range(0..18usize)],
            2 => bytes.insert(at, rng.next_u64() as u8),
            3 => {
                let end = (at + rng.gen_range(1..16usize)).min(bytes.len());
                bytes.drain(at..end);
            }
            4 => bytes.truncate(at),
            5 => {
                let end = (at + rng.gen_range(1..64usize)).min(bytes.len());
                let span = bytes[at..end].to_vec();
                bytes.splice(at..at, span);
            }
            _ => {
                let run = vec![b'['; rng.gen_range(1..400usize)];
                bytes.splice(at..at, run);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

// --- records --------------------------------------------------------------

/// Every distinct point record of fig4, fig6, fig5 and fig1 at scale
/// 0.01 (the four grids share their units, so each is computed once).
fn point_records() -> Vec<(PointSummary, String)> {
    let params = StudyParams::with_scale(0.01);
    let mut by_key: BTreeMap<String, PointSummary> = BTreeMap::new();
    for study in ["fig4", "fig6", "fig5", "fig1"] {
        let grid = decompose(study, &params).expect("grid study");
        let keys = grid.unit_keys(&params);
        let mut refs = BTreeMap::new();
        for index in 0..grid.n_points() {
            let key = keys.get(Unit::Point(index));
            if by_key.contains_key(key) {
                continue;
            }
            let (pi, _) = grid.point(index);
            let st = *refs
                .entry(pi)
                .or_insert_with(|| grid.compute_reference(&params, pi).expect("reference"));
            let point = grid.compute_point(&params, index, st).expect("point");
            by_key.insert(key.to_string(), point);
        }
    }
    by_key
        .into_values()
        .map(|p| {
            let record = p.to_record();
            (p, record)
        })
        .collect()
}

/// A random subset of the record's floats set to NaN (emitted `null`):
/// the oracle reads `null` back as NaN everywhere but in `o`, where it
/// rejects the record — and so must the decoder.
fn with_nans(rng: &mut SmallRng, p: &PointSummary) -> PointSummary {
    let mut p = p.clone();
    let nan = |rng: &mut SmallRng, x: &mut f64| {
        if rng.gen_range(0..4u32) == 0 {
            *x = f64::NAN;
        }
    };
    nan(rng, &mut p.actual);
    nan(rng, &mut p.estimated);
    nan(rng, &mut p.instruction_overhead);
    let mut per_thread = p.stack.per_thread().to_vec();
    for t in &mut per_thread {
        nan(rng, &mut t.positive_cycles);
        nan(rng, &mut t.estimated_single_thread_cycles);
        if rng.gen_range(0..20u32) == 0 {
            let c = Component::ALL[rng.gen_range(0..Component::ALL.len())];
            t.overheads.set(c, f64::NAN);
        }
    }
    p.stack = SpeedupStack::from_breakdowns(per_thread, p.stack.tp_cycles())
        .with_actual_speedup(p.actual);
    p
}

const KEYS: [&str; 8] = [
    "x",
    "",
    "kind",
    "zz",
    "name",
    "tp_cycles",
    "o",
    "per_thread",
];

/// Recursively reorders object fields and splices in extra keys (some
/// of them known names, which then repeat). Returns whether any
/// spliced key was a name the decoder reads.
fn reshape(rng: &mut SmallRng, v: &mut JsonValue, extra: bool) -> bool {
    let mut repeated = false;
    match v {
        JsonValue::Object(fields) => {
            for (_, item) in fields.iter_mut() {
                repeated |= reshape(rng, item, extra);
            }
            if extra && rng.gen_bool(0.3) {
                let key = KEYS[rng.gen_range(0..KEYS.len())];
                repeated |= fields.iter().any(|(k, _)| k == key);
                let at = rng.gen_range(0..fields.len() + 1);
                fields.insert(at, (key.to_string(), random_value(rng, 2)));
            }
            for i in (1..fields.len()).rev() {
                fields.swap(i, rng.gen_range(0..i + 1));
            }
        }
        JsonValue::Array(items) => {
            for item in items {
                repeated |= reshape(rng, item, extra);
            }
        }
        _ => {}
    }
    repeated
}

fn reshaped_record(rng: &mut SmallRng, p: &PointSummary) {
    let p = with_nans(rng, p);
    let record = p.to_record();
    let decoded = decoders_agree(&record);
    let nan_overhead = p
        .stack
        .per_thread()
        .iter()
        .any(|t| Component::ALL.iter().any(|&c| t.overheads.get(c).is_nan()));
    assert_eq!(decoded.is_none(), nan_overhead, "{record}");

    let mut tree = json::parse(&record).expect("records are JSON");
    let extra = rng.gen_bool(0.5);
    let repeated = reshape(rng, &mut tree, extra);
    let reshaped = emit(&tree);
    let again = decoders_agree(&reshaped);
    if !repeated {
        // Order and unknown keys change nothing.
        assert_eq!(again, decoded, "{reshaped}");
    }
    misshapen_overheads(rng, &record);
}

/// The record with one `o` one overhead short or one long: no decoder
/// may take it.
fn misshapen_overheads(rng: &mut SmallRng, record: &str) {
    let starts: Vec<usize> = record
        .match_indices("\"o\": [")
        .map(|(i, _)| i + 6)
        .collect();
    let at = starts[rng.gen_range(0..starts.len())];
    let text = if rng.gen_bool(0.5) {
        let end = at + record[at..].find(", ").expect("seven overheads") + 2;
        format!("{}{}", &record[..at], &record[end..])
    } else {
        format!("{}0, {}", &record[..at], &record[at..])
    };
    assert!(decoders_agree(&text).is_none(), "{text}");
}

fn truncated_record(rng: &mut SmallRng, record: &str) {
    let mut cut = rng.gen_range(0..record.len());
    while !record.is_char_boundary(cut) {
        cut -= 1;
    }
    assert!(decoders_agree(&record[..cut]).is_none());
}

// --- number tokens --------------------------------------------------------

/// What the reader must make of `[<token>]` (then trailing whitespace)
/// for a token over `0-9 . e E + -`: `Ok(None)` for the empty array, the
/// number's bits, or the typed error's offset and message. The grammar is
/// walked a byte at a time, as the scanner before the one-pass reader
/// did: `-`? then `0` or a non-zero digit and more, then `.` and at
/// least one digit, then `e`/`E`, a sign and at least one digit.
fn token_oracle(doc: &str) -> Result<Option<u64>, (usize, String)> {
    let b = doc.as_bytes();
    let at = |i: usize| b.get(i).copied().unwrap_or(b' ');
    let digits = |mut i: usize| {
        while at(i).is_ascii_digit() {
            i += 1;
        }
        i
    };
    let err = |at: usize, message: &str| Err((at, message.to_string()));
    let start = 1;
    match at(start) {
        b']' => return Ok(None),
        b'-' | b'0'..=b'9' => {}
        c => return err(start, &format!("unexpected character '{}'", char::from(c))),
    }
    let mut i = start + usize::from(at(start) == b'-');
    match at(i) {
        b'0' if at(i + 1).is_ascii_digit() => return err(i + 1, "leading zero"),
        b'0' => i += 1,
        b'1'..=b'9' => i = digits(i),
        _ => return err(i, "expected digit"),
    }
    if at(i) == b'.' {
        let end = digits(i + 1);
        if end == i + 1 {
            return err(end, "expected digit after '.'");
        }
        i = end;
    }
    if matches!(at(i), b'e' | b'E') {
        let exp = i + 1 + usize::from(matches!(at(i + 1), b'+' | b'-'));
        let end = digits(exp);
        if end == exp {
            return err(end, "expected exponent digit");
        }
        i = end;
    }
    if at(i) != b']' {
        return err(i, "expected ',' or ']'");
    }
    let value: f64 = doc[start..i].parse().expect("a grammar-checked token");
    Ok(Some(value.to_bits()))
}

/// Grammar-edge tokens: those the reader takes (with std's correctly
/// rounded value: `1e400` is +inf) and those it rejects, at the offset
/// of the `[<token>]` document it has always named.
const EDGE_TOKENS: [(&str, Option<usize>); 20] = [
    ("-0", None),
    ("0", None),
    ("1E+2", None),
    ("1e-0", None),
    ("5e-324", None),
    ("2.4703282292062328e-324", None),
    ("1e400", None),
    ("-1e400", None),
    ("1234567890123456789012345", None),
    ("0.1234567890123456789012345", None),
    ("01", Some(2)),
    ("-01", Some(3)),
    ("1.", Some(3)),
    (".5", Some(1)),
    ("+1", Some(1)),
    ("-", Some(2)),
    ("1e", Some(3)),
    ("1e+", Some(4)),
    ("1.e5", Some(3)),
    ("0x1", Some(2)),
];

/// What `json::parse` makes of `doc`, in the oracle's terms.
fn parsed_token(doc: &str) -> Result<Option<u64>, (usize, String)> {
    match json::parse(doc) {
        Ok(JsonValue::Array(items)) => match items.as_slice() {
            [] => Ok(None),
            [JsonValue::Number(x)] => Ok(Some(x.to_bits())),
            other => panic!("{doc:?} parsed to {other:?}"),
        },
        Ok(other) => panic!("{doc:?} parsed to {other:?}"),
        Err(e) => Err((e.offset, e.message)),
    }
}

/// One of three token shapes: a shortest-form number with up to two
/// edits, a random string over the number alphabet, or an edge token.
fn random_token(rng: &mut SmallRng) -> String {
    const ALPHABET: &[u8] = b"0123456789000111.eE+-";
    let random_byte = |rng: &mut SmallRng| char::from(ALPHABET[rng.gen_range(0..ALPHABET.len())]);
    match rng.gen_range(0..3u32) {
        0 => {
            let mut token: Vec<char> = json::number(random_number(rng)).chars().collect();
            for _ in 0..rng.gen_range(0..3u32) {
                let at = rng.gen_range(0..token.len() + 1);
                match rng.gen_range(0..3u32) {
                    0 if at < token.len() => {
                        token.remove(at);
                    }
                    1 if at < token.len() => token[at] = random_byte(rng),
                    _ => token.insert(at, random_byte(rng)),
                }
            }
            token.into_iter().collect()
        }
        1 => (0..rng.gen_range(0..30usize))
            .map(|_| random_byte(rng))
            .collect(),
        _ => EDGE_TOKENS[rng.gen_range(0..EDGE_TOKENS.len())]
            .0
            .to_string(),
    }
}

/// A record whose count field reads as a magnitude no encoder writes (or
/// as one at the edge of the exact range).
fn out_of_range_count(rng: &mut SmallRng, record: &str) {
    const FIELDS: [&str; 4] = ["threads", "st_cycles", "mt_cycles", "tp_cycles"];
    const MAGNITUDES: [&str; 8] = [
        "1e300",
        "18446744073709551616",
        "9007199254740994",
        "9007199254740992",
        "-0",
        "-1",
        "2.5",
        "1E3",
    ];
    let field = FIELDS[rng.gen_range(0..FIELDS.len())];
    let magnitude = MAGNITUDES[rng.gen_range(0..MAGNITUDES.len())];
    let key = format!("\"{field}\": ");
    let at = record.find(&key).expect("every record has its counts") + key.len();
    let end = at + record[at..].find([',', '}']).expect("a field ends");
    let text = format!("{}{magnitude}{}", &record[..at], &record[end..]);
    let decoded = decoders_agree(&text);
    let exact = matches!(magnitude, "9007199254740992" | "-0" | "1E3");
    assert_eq!(decoded.is_some(), exact, "{text}");
}

fn number_tokens(rng: &mut SmallRng, record: &str) {
    let x = match rng.gen_range(0..3u32) {
        // Subnormals, ±0 among them.
        0 => f64::from_bits(rng.next_u64() & !(0x7FF << 52)),
        _ => random_number(rng),
    };
    let text = json::number(x);
    let mut r = Reader::new(&text);
    let back = r
        .number_or_null()
        .unwrap_or_else(|e| panic!("{e} in {text:?}"));
    assert_eq!(back.map(f64::to_bits), Some(x.to_bits()), "{text}");
    r.finish().expect("one token");

    for _ in 0..8 {
        let doc = format!(
            "[{}]{}",
            random_token(rng),
            " ".repeat(rng.gen_range(0..12usize))
        );
        assert_eq!(parsed_token(&doc), token_oracle(&doc), "{doc:?}");
        decoders_agree(&doc);
        // Stepped over, the token is taken or refused as it is read, and
        // the walk stops where the read does.
        let token = match rng.gen_range(0..8u32) {
            0 => ["null", "nul", "nulls", " null"][rng.gen_range(0..4usize)],
            _ => &doc[1..],
        };
        let ends = |step: bool| {
            let mut r = Reader::new(token);
            let read = if step {
                r.skip_number_or_null()
            } else {
                r.number_or_null().map(|x| x.is_some())
            };
            (read, r.finish())
        };
        assert_eq!(ends(true), ends(false), "{token:?}");
    }
    out_of_range_count(rng, record);
}

#[test]
fn grammar_edge_tokens_read_as_they_always_have() {
    for (token, rejected_at) in EDGE_TOKENS {
        let doc = format!("[{token}]");
        let expected = match rejected_at {
            Some(offset) => Err(offset),
            None => Ok(Some(token.parse::<f64>().expect("std reads it").to_bits())),
        };
        let offset = |read: Result<Option<u64>, (usize, String)>| read.map_err(|(at, _)| at);
        assert_eq!(offset(parsed_token(&doc)), expected, "{token}");
        assert_eq!(offset(token_oracle(&doc)), expected, "{token}");
    }
    assert_eq!(parsed_token("[1e400]"), Ok(Some(f64::INFINITY.to_bits())));
}

// --- the loop -------------------------------------------------------------

/// Prints the case on the way out of a panic (an assertion here, or a
/// panic inside the reader — the thing the loop exists to catch).
struct CaseOnPanic(u64);

impl Drop for CaseOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("json fuzz: failing case: run_case({})", self.0);
        }
    }
}

fn run_case(seed: u64, records: &[(PointSummary, String)]) {
    let _guard = CaseOnPanic(seed);
    let mut rng = SmallRng::seed_from_u64(seed);
    let (summary, record) = &records[rng.gen_range(0..records.len())];
    match seed % 5 {
        0 => valid_document(&mut rng),
        1 => {
            let source = if rng.gen_bool(0.5) {
                record.clone()
            } else {
                emit(&random_value(&mut rng, 4))
            };
            decoders_agree(&damage(&mut rng, &source));
        }
        2 => reshaped_record(&mut rng, summary),
        3 => truncated_record(&mut rng, record),
        _ => number_tokens(&mut rng, record),
    }
}

#[test]
fn reader_and_record_decoder_hold_under_fuzzing() {
    let records = point_records();
    assert_eq!(records.len(), 28 * 4, "fig4's grid holds every record");
    for (summary, record) in &records {
        let decoded = decoders_agree(record).expect("pristine records decode");
        assert_eq!(decoded, bits(summary), "the round trip is exact");
    }
    for seed in 0..CASES {
        run_case(seed, &records);
    }
}
