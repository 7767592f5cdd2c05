//! A seeded fuzz loop for the bounded line reader every request and
//! reply line passes through — `proto::read_line_bounded` (owned) and
//! `proto::read_line_with` (borrowed, the client's result-stream path)
//! — in-repo deterministic-RNG style, like
//! `experiments/tests/json_fuzz.rs`.
//!
//! Each case is a random byte stream — lines at, around and far past
//! the cap, empty lines, multi-byte characters, invalid UTF-8, an
//! unterminated tail, or runs of lines that put the newline at every
//! offset of an 8-byte word among bytes that trip a zero-byte test —
//! read through a `BufReader` of random small capacity, so lines and
//! characters straddle every chunk boundary, or of a capacity that
//! holds the whole stream, so every line is read where it lies. Reads
//! of the underlying stream fail with `Interrupted` at random. Every
//! call, through either reader, must match a naive oracle that splits
//! the whole input on `\n`: the same line, or the same typed error
//! (`Oversized` past the cap, `Malformed` for a line that is not
//! UTF-8), and the same number of bytes consumed — an oversized line is
//! discarded through its newline if that lies within two caps of the
//! line start, else for exactly two caps. Never a panic.
//!
//! A failing case prints its seed; replay it with `run_case(seed)`.

use std::io::{BufReader, Cursor, ErrorKind, Read};

use service::proto::{read_line_bounded, read_line_with};
use speedup_stacks::error::ProtocolError;
use workloads::rng::SmallRng;

/// Cases per run of the loop.
const CASES: u64 = 10_000;

/// One call's result and the bytes it consumed, read off the whole
/// remaining input.
fn oracle(input: &[u8], cap: usize) -> (Result<Option<String>, ProtocolError>, usize) {
    if input.is_empty() {
        return (Ok(None), 0);
    }
    let newline = input.iter().position(|&b| b == b'\n');
    let line = &input[..newline.unwrap_or(input.len())];
    if line.len() > cap {
        let budget = 2 * cap;
        let consumed = match newline {
            Some(p) if p < budget => p + 1,
            _ => line.len().min(budget),
        };
        return (Err(ProtocolError::Oversized { limit: cap }), consumed);
    }
    let consumed = newline.map_or(line.len(), |p| p + 1);
    let outcome = match String::from_utf8(line.to_vec()) {
        Ok(s) => Ok(Some(s)),
        Err(_) => Err(ProtocolError::Malformed {
            why: "frame is not UTF-8".to_string(),
        }),
    };
    (outcome, consumed)
}

/// Byte pieces lines are built from: ASCII, multi-byte characters (so
/// a chunk edge can split one), bytes that are never UTF-8, a lone
/// lead byte, and a carriage return.
const PIECES: [&[u8]; 8] = [
    b"a",
    b"{\"op\": 1}",
    "é".as_bytes(),
    "→".as_bytes(),
    "😀".as_bytes(),
    b"\xff",
    b"\xc3",
    b"\r",
];

fn line_of(rng: &mut SmallRng, len: usize) -> Vec<u8> {
    let mut line = Vec::with_capacity(len + 4);
    let clean = rng.gen_bool(0.7);
    while line.len() < len {
        let piece = if clean {
            PIECES[rng.gen_range(0..5usize)]
        } else {
            PIECES[rng.gen_range(0..PIECES.len())]
        };
        line.extend_from_slice(piece);
    }
    line
}

/// Bytes around a newline that a word-at-a-time search can mistake for
/// one: 0x00, 0x7F and 0xFF (borrows into and out of a byte), `\t` and
/// 0x0B (`\n` ± 1), 0x8A (`\n` with the high bit set). The last two
/// are never UTF-8 alone, so a line holding one reads as `Malformed`.
const NEIGHBOURS: [u8; 7] = [b'a', 0x00, b'\t', 0x0B, 0x7F, 0x8A, 0xFF];

/// Eight lines whose newlines fall at each offset of an 8-byte word
/// (lengths `8k + r`, `r` in `0..8`), so a line read from the start of
/// the reader's buffer ends once in every byte lane.
fn word_offset_stream(rng: &mut SmallRng) -> Vec<u8> {
    let mut input = Vec::new();
    for r in 0..8 {
        let len = 8 * rng.gen_range(0..4usize) + r;
        let kinds = if rng.gen_bool(0.7) {
            5
        } else {
            NEIGHBOURS.len()
        };
        input.extend((0..len).map(|_| NEIGHBOURS[rng.gen_range(0..kinds)]));
        input.push(b'\n');
    }
    input
}

fn random_stream(rng: &mut SmallRng, cap: usize) -> Vec<u8> {
    if rng.gen_bool(0.25) {
        return word_offset_stream(rng);
    }
    let mut input = Vec::new();
    for _ in 0..rng.gen_range(0..7u32) {
        let around = [
            0,
            1,
            cap - 1,
            cap,
            cap + 1,
            2 * cap - 1,
            2 * cap,
            2 * cap + 1,
        ];
        let len = if rng.gen_bool(0.6) {
            around[rng.gen_range(0..around.len())]
        } else {
            rng.gen_range(0..3 * cap + 2)
        };
        input.extend(line_of(rng, len));
        input.push(b'\n');
    }
    if rng.gen_bool(0.3) {
        let len = rng.gen_range(1..3 * cap + 2);
        input.extend(line_of(rng, len));
    }
    input
}

/// Prints the case on the way out of a panic (an assertion here, or a
/// panic inside the reader — the thing the loop exists to catch).
struct CaseOnPanic(u64);

impl Drop for CaseOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("line fuzz: failing case: run_case({})", self.0);
        }
    }
}

/// A stream whose reads fail with `Interrupted` with probability
/// `odds`, as a socket read under a timeout does when its process is
/// stopped and continued.
struct Interrupting<'a> {
    inner: Cursor<&'a [u8]>,
    rng: SmallRng,
    odds: f64,
}

impl Read for Interrupting<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.rng.gen_bool(self.odds) {
            return Err(ErrorKind::Interrupted.into());
        }
        self.inner.read(buf)
    }
}

fn run_case(seed: u64) {
    let _guard = CaseOnPanic(seed);
    let mut rng = SmallRng::seed_from_u64(seed);
    let cap = rng.gen_range(1..48usize);
    let input = random_stream(&mut rng, cap);
    let capacity = if rng.gen_bool(0.3) {
        input.len() + rng.gen_range(1..16usize)
    } else {
        rng.gen_range(1..2 * cap + 4)
    };
    let odds = if rng.gen_bool(0.5) { 0.0 } else { 0.3 };
    for borrowed in [false, true] {
        let stream = Interrupting {
            inner: Cursor::new(&input[..]),
            rng: SmallRng::seed_from_u64(seed ^ u64::from(borrowed)),
            odds,
        };
        let mut reader = BufReader::with_capacity(capacity, stream);
        let mut at = 0;
        loop {
            let (expected, consumed) = oracle(&input[at..], cap);
            let got = if borrowed {
                read_line_with(&mut reader, cap, |line| {
                    assert!(line.len() <= cap, "a line past the cap reached the caller");
                    line.to_string()
                })
            } else {
                read_line_bounded(&mut reader, cap)
            };
            let case = format!("cap {cap}, capacity {capacity}, borrowed {borrowed}");
            assert_eq!(got, expected, "{case}, at byte {at}");
            at += consumed;
            let position = reader.get_ref().inner.position() as usize - reader.buffer().len();
            assert_eq!(position, at, "bytes consumed, {case}");
            if expected == Ok(None) {
                break;
            }
        }
    }
}

#[test]
fn bounded_line_reader_matches_a_naive_split_under_fuzzing() {
    for seed in 0..CASES {
        run_case(seed);
    }
}
