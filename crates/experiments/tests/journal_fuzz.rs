//! A seeded fuzz loop for `journal::open_append`, the record-log reader
//! under both the sweep journal (`repro --resume`) and the `studyd`
//! cache spill (in-repo deterministic-RNG style, like
//! `experiments/tests/json_fuzz.rs`).
//!
//! Each case writes a random log — a header and entries whose keys and
//! values carry quotes, backslashes, newlines and multi-byte characters
//! — then damages it: bit flips, byte overwrites (newlines included), a
//! truncation anywhere, a torn tail. Opening it must match a naive
//! oracle that splits the damaged bytes on `\n`, calls `unwrap_line` on
//! every complete line and reads the entry out of a parsed JSON tree:
//!
//! - a typed error exactly when the header line is incomplete
//!   (`MissingHeader`) or corrupt (`BadHeader`);
//! - otherwise exactly the intact entries, in order, and a quarantine
//!   count equal to the number of complete lines that fail;
//! - the file cut back to its last `\n`;
//! - one entry appended after the open reads back on the next open,
//!   after the same entries and quarantine count.
//!
//! A failing case prints its seed; replay it with `run_case(seed)`.

use std::path::{Path, PathBuf};

use experiments::journal::{open_append, unwrap_line, wrap_line, JournalWriter};
use speedup_stacks::error::JournalError;
use speedup_stacks::report::json;
use workloads::rng::SmallRng;

/// Cases per run of the loop.
const CASES: u64 = 2_000;

type Entry = (String, String);

/// What a correct open of `bytes` yields: the intact entries and the
/// quarantine count, or the header's typed error.
fn oracle(bytes: &[u8]) -> Result<(Vec<Entry>, usize), JournalError> {
    let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    lines.pop(); // the bytes after the last newline: a torn tail, or nothing
    let Some((header, records)) = lines.split_first() else {
        return Err(JournalError::MissingHeader);
    };
    let text = |line: &[u8]| String::from_utf8(line.to_vec()).ok();
    let intact = |line: &[u8]| text(line).and_then(|l| unwrap_line(&l).ok().map(str::to_string));
    let header_ok = intact(header).is_some_and(|h| json::parse(&h).is_ok());
    if !header_ok {
        return Err(JournalError::BadHeader { why: String::new() });
    }
    let entry = |record: String| {
        let tree = json::parse(&record).ok()?;
        let field = |k: &str| Some(tree.get(k)?.as_str()?.to_string());
        Some((field("key")?, field("value")?))
    };
    let mut out = Vec::new();
    let mut quarantined = 0;
    for line in records {
        match intact(line).and_then(entry) {
            Some(e) => out.push(e),
            None => quarantined += 1,
        }
    }
    Ok((out, quarantined))
}

/// String pieces keys and values are built from: plain text, characters
/// the entry codec escapes, and multi-byte characters (so a cut or a
/// flip can land inside one).
const PIECES: [&str; 10] = ["a", "x1", "\"", "\\", "\n", "\t", "{\"", "é", "→", "😀"];

fn random_text(rng: &mut SmallRng) -> String {
    let mut s = String::new();
    for _ in 0..rng.gen_range(0..12u32) {
        s.push_str(PIECES[rng.gen_range(0..PIECES.len())]);
    }
    s
}

fn random_entry(rng: &mut SmallRng) -> Entry {
    (random_text(rng), random_text(rng))
}

/// Damages the log in place: a few flips and overwrites anywhere, then
/// perhaps a cut and perhaps a torn tail.
fn damage(rng: &mut SmallRng, bytes: &mut Vec<u8>) {
    for _ in 0..rng.gen_range(0..3u32) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.gen_range(0..bytes.len());
        if rng.gen_bool(0.5) {
            bytes[at] ^= 1 << rng.gen_range(0..8u32);
        } else {
            let alphabet = b"\n{}\":,0a\\\xc3\xff";
            for b in bytes.iter_mut().skip(at).take(rng.gen_range(1..6usize)) {
                *b = alphabet[rng.gen_range(0..alphabet.len())];
            }
        }
    }
    if rng.gen_bool(0.3) {
        let cut = rng.gen_range(0..bytes.len() + 1);
        bytes.truncate(cut);
    }
    if rng.gen_bool(0.3) {
        let (key, value) = random_entry(rng);
        let line = wrap_line(&format!(
            "{{\"key\": \"{}\", \"value\": \"{}\"}}",
            json::escape(&key),
            json::escape(&value)
        ));
        let torn = rng.gen_range(0..line.len() - 1);
        bytes.extend_from_slice(&line.as_bytes()[..torn]);
    }
}

fn open(path: &Path) -> Result<(Vec<Entry>, usize, JournalWriter), JournalError> {
    let scan = open_append(path, |_| Ok(()))?;
    Ok((scan.entries, scan.quarantined, scan.writer))
}

/// Prints the case on the way out of a panic (an assertion here, or a
/// panic inside the reader — the thing the loop exists to catch).
struct CaseOnPanic(u64);

impl Drop for CaseOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("journal fuzz: failing case: run_case({})", self.0);
        }
    }
}

/// Runs one case; returns which way the open went, so the loop can
/// check that every way is exercised.
fn run_case(seed: u64, path: &Path) -> &'static str {
    let _guard = CaseOnPanic(seed);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut writer =
        JournalWriter::create(path, "{\"log\": \"fuzz\", \"version\": 1}").expect("create log");
    for _ in 0..rng.gen_range(0..10u32) {
        let (key, value) = random_entry(&mut rng);
        writer.append(&key, &value).expect("append");
    }
    drop(writer);
    let mut bytes = std::fs::read(path).expect("read log");
    damage(&mut rng, &mut bytes);
    std::fs::write(path, &bytes).expect("write damaged log");

    let expected = oracle(&bytes);
    let (records, quarantined, mut writer) = match (open(path), expected) {
        (Err(got), Err(want)) => {
            let same = std::mem::discriminant(&got) == std::mem::discriminant(&want);
            assert!(same, "got {got:?}, want {want:?}");
            return match got {
                JournalError::MissingHeader => "missing header",
                _ => "bad header",
            };
        }
        (Ok((records, quarantined, writer)), Ok(want)) => {
            assert_eq!((&records, quarantined), (&want.0, want.1), "the scan");
            (records, quarantined, writer)
        }
        (got, want) => panic!("got {:?}, want {want:?}", got.map(|(r, q, _)| (r, q))),
    };
    let kept = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
    let on_disk = std::fs::read(path).expect("read opened log");
    assert_eq!(on_disk, &bytes[..kept], "cut back to the last newline");

    let appended = random_entry(&mut rng);
    writer
        .append(&appended.0, &appended.1)
        .expect("append after open");
    drop(writer);
    let (again, requarantined, _) = open(path).expect("reopen");
    assert_eq!(requarantined, quarantined, "the append adds no damage");
    assert_eq!(again[..records.len()], records[..], "the old records");
    assert_eq!(again[records.len()..], [appended], "the append reads back");
    if quarantined > 0 {
        "quarantined"
    } else if kept < bytes.len() {
        "torn tail"
    } else {
        "intact"
    }
}

fn temp_path() -> PathBuf {
    std::env::temp_dir().join(format!("journal-fuzz-{}.ndjson", std::process::id()))
}

#[test]
fn damaged_logs_open_like_a_naive_split() {
    let path = temp_path();
    let mut seen = std::collections::BTreeMap::new();
    for seed in 0..CASES {
        *seen.entry(run_case(seed, &path)).or_insert(0u64) += 1;
    }
    std::fs::remove_file(&path).ok();
    for way in [
        "missing header",
        "bad header",
        "quarantined",
        "torn tail",
        "intact",
    ] {
        let n = seen.get(way).copied().unwrap_or(0);
        assert!(n >= CASES / 50, "only {n} cases end {way}: {seen:?}");
    }
}
