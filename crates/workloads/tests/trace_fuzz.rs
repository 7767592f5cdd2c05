//! A seeded fuzz loop for the `.sstrace` reader over the two committed
//! golden fixtures (in-repo deterministic-RNG style, like
//! `trace_roundtrip.rs`).
//!
//! Every case damages a fixture, then opens it and drains every stream
//! of every run. The outcome must be one of two things: a typed
//! [`TraceError`] (from `open` or the run's fault slot), or a clean
//! replay that delivers *exactly* the op counts the damaged file's own
//! run-info frames declare — never a panic, never a silently short
//! stream. Two damage families:
//!
//! - **raw**: a bit flip, a byte overwrite or a truncation aimed at each
//!   region of the file (magic, version, header frame, run-info, chunk
//!   head, chunk body). Every byte of a trace is covered by a check, so a
//!   raw case that changed the file must fail (the one exception is a
//!   truncation that lands exactly on a run boundary, which is a valid
//!   shorter trace);
//! - **re-stamped**: a chunk payload or a run-info field is mutated and
//!   the frame's checksum recomputed — what only a hostile writer
//!   produces — so the op decoder and the declared-count checks behind
//!   the CRC are reached.
//!
//! A failing case prints its seed; replay it with `run_case(seed)`.

use std::ops::Range;
use std::path::{Path, PathBuf};

use speedup_stacks::crc::crc32;
use speedup_stacks::error::TraceError;
use workloads::rng::SmallRng;
use workloads::trace::{decode_uvarint, encode_uvarint, TraceReader};

const FIXTURES: [&str; 2] = ["blackscholes_small.sstrace", "cholesky.sstrace"];

/// Cases per run of the loop, split evenly over fixtures and families.
const CASES: u64 = 2_400;

fn fixture(i: usize) -> Vec<u8> {
    let path = format!(
        "{}/tests/goldens/{}",
        env!("CARGO_MANIFEST_DIR"),
        FIXTURES[i]
    );
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing golden {path}: {e}"))
}

// --- an independent walk of the documented layout -----------------------

/// One `len:u32 crc:u32 payload[len]` frame, by position.
#[derive(Debug, Clone)]
struct Frame {
    /// Offset of the length field (the checksum follows at `+4`).
    at: usize,
    payload: Range<usize>,
}

#[derive(Debug)]
struct Run {
    /// Offset of the `'R'` tag; also where the previous run ended.
    at: usize,
    info: Frame,
    name: String,
    /// Per-thread section byte range and declared op count.
    sections: Vec<(Range<usize>, u64)>,
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn frame_at(bytes: &[u8], at: usize) -> Frame {
    let len = u32_at(bytes, at) as usize;
    Frame {
        at,
        payload: at + 8..at + 8 + len,
    }
}

/// Walks header and run-info frames of a file `TraceReader::open`
/// accepts (so the unwraps hold), skipping over the sections.
fn walk(bytes: &[u8]) -> (Frame, Vec<Run>) {
    let header = frame_at(bytes, 12);
    let mut runs = Vec::new();
    let mut pos = header.payload.end;
    while pos < bytes.len() {
        assert_eq!(bytes[pos], b'R');
        let info = frame_at(bytes, pos + 1);
        let (name, _, fields) = run_info(&bytes[info.payload.clone()]);
        let name = String::from_utf8(name.to_vec()).unwrap();
        let n = fields[0] as usize;
        let mut at = info.payload.end;
        let sections = (0..n)
            .map(|t| {
                let start = at;
                at += fields[1 + t] as usize;
                (start..at, fields[1 + n + t])
            })
            .collect();
        runs.push(Run {
            at: pos,
            info,
            name,
            sections,
        });
        pos = at;
    }
    (header, runs)
}

/// Splits a run-info payload into the run's name, the offset its numeric
/// tail starts at, and that tail: `n_threads`, then the section byte
/// lengths, then the op counts.
fn run_info(payload: &[u8]) -> (&[u8], usize, Vec<u64>) {
    let mut pos = 0;
    let name_len = decode_uvarint(payload, &mut pos).unwrap() as usize;
    let name = &payload[pos..pos + name_len];
    pos += name_len;
    let tail = pos;
    let mut fields = Vec::new();
    while pos < payload.len() {
        fields.push(decode_uvarint(payload, &mut pos).unwrap());
    }
    (name, tail, fields)
}

/// The `('C' tag offset, frame)` of every chunk of a pristine section.
fn chunks(bytes: &[u8], section: &Range<usize>) -> Vec<(usize, Frame)> {
    let mut out = Vec::new();
    let mut pos = section.start;
    while pos < section.end {
        assert_eq!(bytes[pos], b'C');
        let frame = frame_at(bytes, pos + 1);
        let end = frame.payload.end;
        out.push((pos, frame));
        pos = end;
    }
    out
}

fn restamp(bytes: &mut [u8], frame: &Frame) {
    let crc = crc32(&bytes[frame.payload.clone()]);
    bytes[frame.at + 4..frame.at + 8].copy_from_slice(&crc.to_le_bytes());
}

// --- damage ---------------------------------------------------------------

fn pick<'a, T>(rng: &mut SmallRng, items: &'a [T]) -> &'a T {
    &items[rng.gen_range(0..items.len())]
}

fn random_chunk(rng: &mut SmallRng, bytes: &[u8], runs: &[Run]) -> (usize, Frame) {
    let run = pick(rng, runs);
    let (section, _) = pick(rng, &run.sections);
    pick(rng, &chunks(bytes, section)).clone()
}

/// Flips one bit or overwrites one byte somewhere in `region`; whether
/// that changed the byte (an overwrite can land on the same value).
fn scribble(rng: &mut SmallRng, bytes: &mut [u8], region: Range<usize>) -> bool {
    let at = rng.gen_range(region);
    let before = bytes[at];
    if rng.gen_bool(0.5) {
        bytes[at] ^= 1 << rng.gen_range(0u32..8);
    } else {
        bytes[at] = rng.next_u64() as u8;
    }
    bytes[at] != before
}

/// Raw damage aimed at one region. Returns whether the damaged file may
/// still be a valid trace.
fn raw_damage(rng: &mut SmallRng, bytes: &mut Vec<u8>, header: &Frame, runs: &[Run]) -> bool {
    let region = match rng.gen_range(0u32..6) {
        0 => 0..8,                   // magic
        1 => 8..12,                  // version
        2 => 12..header.payload.end, // header frame
        3 => {
            let run = pick(rng, runs);
            run.at..run.info.payload.end // 'R' + run-info frame
        }
        4 => {
            let (tag_at, frame) = random_chunk(rng, bytes, runs);
            tag_at..frame.payload.start // 'C' + len + crc
        }
        _ => random_chunk(rng, bytes, runs).1.payload,
    };
    if rng.gen_range(0u32..3) == 0 {
        let cut = rng.gen_range(region);
        bytes.truncate(cut);
        runs.iter().any(|r| r.at == cut)
    } else {
        !scribble(rng, bytes, region)
    }
}

/// Damage behind a recomputed checksum.
fn restamped_damage(rng: &mut SmallRng, bytes: &mut Vec<u8>, runs: &[Run]) {
    if rng.gen_bool(0.6) {
        let (_, frame) = random_chunk(rng, bytes, runs);
        for _ in 0..rng.gen_range(1u32..4) {
            scribble(rng, bytes, frame.payload.clone());
        }
        restamp(bytes, &frame);
    } else {
        // Rewrite one numeric run-info field (thread count, a section
        // length or an op count) and splice the re-framed payload in.
        let run = pick(rng, runs);
        let payload = &bytes[run.info.payload.clone()];
        let (_, tail, mut fields) = run_info(payload);
        let field = rng.gen_range(0..fields.len());
        fields[field] = match rng.gen_range(0u32..5) {
            0 => fields[field].wrapping_add(1),
            1 => fields[field].wrapping_sub(1),
            2 => 0,
            3 => fields[field].wrapping_add(rng.gen_range(2u64..5_000)),
            _ => rng.next_u64(),
        };
        let mut info = payload[..tail].to_vec();
        for f in fields {
            encode_uvarint(f, &mut info);
        }
        let mut framed = (info.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&crc32(&info).to_le_bytes());
        framed.extend_from_slice(&info);
        bytes.splice(run.info.at..run.info.payload.end, framed);
    }
}

// --- the oracle -----------------------------------------------------------

/// Opens `path` and drains every stream of every run: the per-run
/// delivered op counts, or the first typed error.
fn replay(path: &Path) -> Result<Vec<(String, Vec<u64>)>, TraceError> {
    let reader = TraceReader::open(path, None)?;
    let mut delivered = Vec::new();
    let mut first_fault = None;
    for (name, n) in reader.run_keys() {
        let mut run = reader.run_streams(&name, n)?;
        let counts = run
            .streams
            .iter_mut()
            .map(|s| {
                let mut ops = 0u64;
                while s.next_op().is_some() {
                    ops += 1;
                }
                assert!(s.next_op().is_none(), "an ended stream stays ended");
                ops
            })
            .collect();
        if let Some(e) = run.fault.take() {
            first_fault.get_or_insert(e);
        }
        delivered.push((name, counts));
    }
    first_fault.map_or(Ok(delivered), Err)
}

/// Prints the case on the way out of a panic (an assertion here, or a
/// panic inside the reader — the thing the loop exists to catch).
struct CaseOnPanic(u64);

impl Drop for CaseOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("trace fuzz: failing case: run_case({})", self.0);
        }
    }
}

fn run_case(seed: u64, pristine: &[Vec<u8>; 2], scratch: &PathBuf) {
    let _guard = CaseOnPanic(seed);
    let mut rng = SmallRng::seed_from_u64(seed);
    let source = &pristine[(seed % 2) as usize];
    let (header, runs) = walk(source);
    let mut bytes = source.clone();
    let may_succeed = if seed % 4 < 2 {
        raw_damage(&mut rng, &mut bytes, &header, &runs)
    } else {
        restamped_damage(&mut rng, &mut bytes, &runs);
        true
    };
    std::fs::write(scratch, &bytes).expect("write damaged fixture");
    match replay(scratch) {
        Err(e) => assert!(!e.to_string().is_empty()),
        Ok(delivered) => {
            assert!(may_succeed, "damage went unnoticed");
            let declared: Vec<(String, Vec<u64>)> = walk(&bytes)
                .1
                .into_iter()
                .map(|r| (r.name, r.sections.into_iter().map(|(_, ops)| ops).collect()))
                .collect();
            assert_eq!(
                delivered, declared,
                "a clean replay delivers what is declared"
            );
        }
    }
}

#[test]
fn damaged_traces_fail_typed_or_replay_exactly_what_they_declare() {
    let pristine = [fixture(0), fixture(1)];
    let scratch = std::env::temp_dir().join(format!("trace-fuzz-{}.sstrace", std::process::id()));
    // The undamaged fixtures pass the oracle (and have chunks to aim at).
    for source in &pristine {
        std::fs::write(&scratch, source).unwrap();
        let clean = replay(&scratch).expect("pristine fixture replays");
        assert!(clean.iter().flat_map(|(_, c)| c).all(|&ops| ops > 0));
    }
    for seed in 0..CASES {
        run_case(seed, &pristine, &scratch);
    }
    let _ = std::fs::remove_file(&scratch);
}
