//! Versioned binary workload traces: capture any synthetic run's op
//! streams to a compact file and replay them bit-identically.
//!
//! # Format (version 1)
//!
//! All multi-byte integers are little-endian; varints are LEB128
//! ([`encode_uvarint`]) with zigzag for signed deltas
//! ([`encode_svarint`]). Every variable-length structure is framed with
//! its byte length and CRC-32 ([`speedup_stacks::crc::crc32`] — the same
//! checksum the sweep journal uses), so corruption is detected before a
//! single damaged op reaches the engine:
//!
//! ```text
//! frame(payload) := len:u32  crc:u32  payload[len]
//!
//! file   := magic "SSTRACE\0"  version:u32  frame(header)  run*
//! header := str(study) str(fingerprint)          str(s) := uvarint(len) bytes
//! run    := 'R' frame(run-info)  section[n_threads]
//! run-info := str(name) uvarint(n_threads)
//!             uvarint(section_bytes)[n_threads] uvarint(op_count)[n_threads]
//! section  := chunk*                 (exactly section_bytes[t] bytes)
//! chunk    := 'C' frame(ops)
//! ```
//!
//! The `version` field sits *outside* the framed header so a build that
//! cannot parse a future header still reports a clean
//! [`TraceError::VersionMismatch`]. Per-thread `section_bytes` lets the
//! reader index a whole trace by seeking over sections without decoding
//! them, and lets each replayed thread stream from its own file cursor.
//! Replay memory is one encoded chunk payload (≤ ~32 KiB, allocated once
//! and reused) per thread: a chunk is read, checksummed whole, and its
//! ops are then decoded one at a time as the engine asks for them —
//! decoded ops are never buffered.
//!
//! ## Op encoding
//!
//! One tag byte per op. Load/store addresses are delta-encoded against
//! the thread's previous accessed line (`wrapping_sub`, so the full
//! `u64` line space round-trips); the delta state persists across chunk
//! boundaries within a thread's section.
//!
//! | tag | op | operand |
//! |-----|----|---------|
//! | `0x00` | `Compute` | uvarint cycles |
//! | `0x01` | `Load` | svarint line delta |
//! | `0x02` | `Store` | svarint line delta |
//! | `0x03` | `LockAcquire` | uvarint lock id |
//! | `0x04` | `LockRelease` | uvarint lock id |
//! | `0x05` | `Barrier` | uvarint barrier id |
//!
//! # Replay guarantees and corruption semantics
//!
//! A replayed run feeds the engine the exact op sequence the capture
//! drained, so simulation results — and the reports built from them —
//! are bit-identical to the generated original. *Any* damage is fatal
//! ([`TraceError`]): unlike journal records, which are quarantined and
//! recomputed, a damaged trace has no safe recomputation (silently
//! replaying a different stream would fabricate results). The
//! [`OpStream`] interface has no error channel, so a [`TraceStream`]
//! that hits damage mid-replay parks the typed error in the run's
//! shared [`TraceFault`] slot and ends the stream; drivers check the
//! slot after the run and fail loudly. Damage a checksum catches ends the
//! stream before any op of the damaged chunk is delivered. A chunk whose
//! checksum holds but whose bytes do not decode, or decode to more ops
//! than its run-info declares — only a crafted file can — ends the stream
//! at the offending op: the ops before it have already reached the
//! engine, which is harmless because a parked fault discards the run.
//!
//! # Examples
//!
//! Capture two tiny hand-built streams and replay them:
//!
//! ```
//! use cmpsim::{Op, OpStream, VecStream};
//! use workloads::trace::{TraceReader, TraceWriter};
//!
//! let path = std::env::temp_dir().join(format!("doc-{}.sstrace", std::process::id()));
//! let mut w = TraceWriter::create(&path, "demo", "cafebabe").unwrap();
//! let ops = vec![Op::Compute(10), Op::Load(99), Op::Barrier(0)];
//! w.add_run("toy", vec![Box::new(VecStream::new(ops.clone()))]).unwrap();
//! let stats = w.finish().unwrap();
//! assert_eq!(stats.runs, 1);
//!
//! let reader = TraceReader::open(&path, Some(("demo", "cafebabe"))).unwrap();
//! let mut run = reader.run_streams("toy", 1).unwrap();
//! let mut replayed = Vec::new();
//! while let Some(op) = run.streams[0].next_op() {
//!     replayed.push(op);
//! }
//! assert_eq!(replayed, ops);
//! assert!(run.fault.take().is_none());
//! std::fs::remove_file(&path).ok();
//! ```

use std::fs::File;
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use cmpsim::{Op, OpStream};
use speedup_stacks::crc::crc32;
use speedup_stacks::error::TraceError;

/// The trace format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;
/// The 8-byte file magic.
pub const MAGIC: &[u8; 8] = b"SSTRACE\0";

/// Target encoded size of one chunk frame's payload.
const CHUNK_BYTES: usize = 32 * 1024;

/// Frame tag of a run-info frame.
const TAG_RUN: u8 = b'R';
/// Frame tag of an op chunk.
const TAG_CHUNK: u8 = b'C';

// --- varint codec -------------------------------------------------------

/// Appends `v` as a LEB128 unsigned varint (1–10 bytes).
///
/// ```
/// let mut buf = Vec::new();
/// workloads::trace::encode_uvarint(300, &mut buf);
/// assert_eq!(buf, [0xac, 0x02]);
/// ```
pub fn encode_uvarint(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes a LEB128 unsigned varint at `*pos`, advancing it.
///
/// # Errors
///
/// [`TraceError::Corrupt`] when the buffer ends mid-varint or the varint
/// overflows 64 bits.
pub fn decode_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let Some(&byte) = buf.get(*pos) else {
            return Err(TraceError::Corrupt {
                what: "varint runs past its buffer".to_string(),
            });
        };
        *pos += 1;
        let low = u64::from(byte & 0x7f);
        // The 10th byte may only contribute the single remaining bit.
        if shift == 63 && low > 1 {
            break;
        }
        v |= low << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(TraceError::Corrupt {
        what: "varint overflows 64 bits".to_string(),
    })
}

/// Appends `v` as a zigzag-mapped signed varint.
///
/// ```
/// let mut buf = Vec::new();
/// workloads::trace::encode_svarint(-1, &mut buf);
/// assert_eq!(buf, [0x01]);
/// ```
pub fn encode_svarint(v: i64, out: &mut Vec<u8>) {
    encode_uvarint(((v << 1) ^ (v >> 63)) as u64, out);
}

/// Decodes a zigzag-mapped signed varint at `*pos`, advancing it.
///
/// # Errors
///
/// See [`decode_uvarint`].
pub fn decode_svarint(buf: &[u8], pos: &mut usize) -> Result<i64, TraceError> {
    let z = decode_uvarint(buf, pos)?;
    #[allow(clippy::cast_possible_wrap)]
    Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
}

fn encode_str(s: &str, out: &mut Vec<u8>) {
    encode_uvarint(s.len() as u64, out);
    out.extend_from_slice(s.as_bytes());
}

fn decode_str(buf: &[u8], pos: &mut usize) -> Result<String, TraceError> {
    let len = usize::try_from(decode_uvarint(buf, pos)?).map_err(|_| TraceError::Corrupt {
        what: "string length overflows".to_string(),
    })?;
    let end = pos.checked_add(len).filter(|&e| e <= buf.len());
    let Some(end) = end else {
        return Err(TraceError::Corrupt {
            what: "string runs past its frame".to_string(),
        });
    };
    let s = std::str::from_utf8(&buf[*pos..end]).map_err(|_| TraceError::Corrupt {
        what: "string is not UTF-8".to_string(),
    })?;
    *pos = end;
    Ok(s.to_string())
}

// --- op codec -----------------------------------------------------------

/// Per-thread delta state of the op codec (persists across chunks).
#[derive(Debug, Default, Clone, Copy)]
struct LineState {
    last: u64,
}

fn encode_op(op: Op, state: &mut LineState, out: &mut Vec<u8>) {
    match op {
        Op::Compute(c) => {
            out.push(0x00);
            encode_uvarint(u64::from(c), out);
        }
        Op::Load(line) | Op::Store(line) => {
            out.push(if matches!(op, Op::Load(_)) {
                0x01
            } else {
                0x02
            });
            #[allow(clippy::cast_possible_wrap)]
            encode_svarint(line.wrapping_sub(state.last) as i64, out);
            state.last = line;
        }
        Op::LockAcquire(id) => {
            out.push(0x03);
            encode_uvarint(u64::from(id), out);
        }
        Op::LockRelease(id) => {
            out.push(0x04);
            encode_uvarint(u64::from(id), out);
        }
        Op::Barrier(id) => {
            out.push(0x05);
            encode_uvarint(u64::from(id), out);
        }
    }
}

fn corrupt(what: impl Into<String>) -> TraceError {
    TraceError::Corrupt { what: what.into() }
}

fn decode_u32_operand(buf: &[u8], pos: &mut usize, what: &str) -> Result<u32, TraceError> {
    let v = decode_uvarint(buf, pos)?;
    u32::try_from(v).map_err(|_| corrupt(format!("{what} operand {v} overflows u32")))
}

fn decode_op(buf: &[u8], pos: &mut usize, state: &mut LineState) -> Result<Op, TraceError> {
    let Some(&tag) = buf.get(*pos) else {
        return Err(corrupt("op tag past chunk end"));
    };
    *pos += 1;
    Ok(match tag {
        0x00 => Op::Compute(decode_u32_operand(buf, pos, "compute")?),
        0x01 | 0x02 => {
            #[allow(clippy::cast_sign_loss)]
            let delta = decode_svarint(buf, pos)? as u64;
            state.last = state.last.wrapping_add(delta);
            if tag == 0x01 {
                Op::Load(state.last)
            } else {
                Op::Store(state.last)
            }
        }
        0x03 => Op::LockAcquire(decode_u32_operand(buf, pos, "lock")?),
        0x04 => Op::LockRelease(decode_u32_operand(buf, pos, "lock")?),
        0x05 => Op::Barrier(decode_u32_operand(buf, pos, "barrier")?),
        other => return Err(corrupt(format!("unknown op tag 0x{other:02x}"))),
    })
}

// --- framing ------------------------------------------------------------

fn io_err(op: &'static str, e: &std::io::Error) -> TraceError {
    TraceError::Io {
        op,
        message: e.to_string(),
    }
}

fn frame(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Reads one `len`+`crc`+payload frame from `file`, already positioned at
/// the frame's length field, into `payload` (replacing its contents, so a
/// caller reading many frames reuses one allocation), and returns the
/// frame's size on disk. `limit` bounds the payload (end of section or of
/// file); `what` names the frame for error messages. On `Ok` the payload
/// has passed its checksum; on `Err` its contents are unspecified.
fn read_frame(
    file: &mut File,
    limit: u64,
    what: &str,
    payload: &mut Vec<u8>,
) -> Result<u64, TraceError> {
    if limit < 8 {
        return Err(TraceError::Truncated {
            what: format!("{what} frame header"),
        });
    }
    let mut head = [0u8; 8];
    file.read_exact(&mut head).map_err(|e| io_err("read", &e))?;
    let len = u64::from(u32::from_le_bytes(head[0..4].try_into().expect("4 bytes")));
    let crc = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
    if len > limit - 8 {
        return Err(TraceError::Truncated {
            what: format!("{what} payload ({len} bytes declared)"),
        });
    }
    #[allow(clippy::cast_possible_truncation)]
    payload.resize(len as usize, 0);
    file.read_exact(payload).map_err(|e| io_err("read", &e))?;
    if crc32(payload) != crc {
        return Err(corrupt(format!("{what} checksum mismatch")));
    }
    Ok(len + 8)
}

// --- writer -------------------------------------------------------------

/// Statistics of a finished capture or a verified trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStats {
    /// Format version of the file.
    pub version: u32,
    /// Study recorded in the header.
    pub study: String,
    /// Parameter fingerprint recorded in the header.
    pub fingerprint: String,
    /// Number of captured runs.
    pub runs: usize,
    /// Total ops across all runs and threads.
    pub ops: u64,
    /// File size in bytes.
    pub bytes: u64,
}

/// Captures op streams into a trace file.
#[derive(Debug)]
pub struct TraceWriter {
    file: File,
    study: String,
    fingerprint: String,
    bytes: u64,
    runs: usize,
    ops: u64,
}

impl TraceWriter {
    /// Creates (truncating) a trace file and writes its header.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on create/write failure.
    pub fn create(
        path: impl AsRef<Path>,
        study: &str,
        fingerprint: &str,
    ) -> Result<Self, TraceError> {
        let file = File::create(path).map_err(|e| io_err("create", &e))?;
        let mut w = TraceWriter {
            file,
            study: study.to_string(),
            fingerprint: fingerprint.to_string(),
            bytes: 0,
            runs: 0,
            ops: 0,
        };
        let mut header = Vec::new();
        encode_str(study, &mut header);
        encode_str(fingerprint, &mut header);
        let mut buf = Vec::with_capacity(header.len() + 20);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        frame(&header, &mut buf);
        w.write(&buf)?;
        Ok(w)
    }

    fn write(&mut self, bytes: &[u8]) -> Result<(), TraceError> {
        self.file
            .write_all(bytes)
            .map_err(|e| io_err("write", &e))?;
        self.bytes += bytes.len() as u64;
        Ok(())
    }

    /// Drains `streams` and appends them as one captured run named
    /// `name` at `streams.len()` threads.
    ///
    /// The whole run is encoded in memory first (its per-thread section
    /// sizes go into the run-info frame), then written and flushed.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on write failure.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty.
    pub fn add_run(
        &mut self,
        name: &str,
        streams: Vec<Box<dyn OpStream>>,
    ) -> Result<(), TraceError> {
        assert!(!streams.is_empty(), "a run needs at least one stream");
        let n_threads = streams.len();
        let mut sections: Vec<Vec<u8>> = Vec::with_capacity(n_threads);
        let mut op_counts: Vec<u64> = Vec::with_capacity(n_threads);
        for mut stream in streams {
            let mut section = Vec::new();
            let mut chunk = Vec::with_capacity(CHUNK_BYTES + 16);
            let mut state = LineState::default();
            let mut count = 0u64;
            while let Some(op) = stream.next_op() {
                encode_op(op, &mut state, &mut chunk);
                count += 1;
                if chunk.len() >= CHUNK_BYTES {
                    section.push(TAG_CHUNK);
                    frame(&chunk, &mut section);
                    chunk.clear();
                }
            }
            if !chunk.is_empty() {
                section.push(TAG_CHUNK);
                frame(&chunk, &mut section);
            }
            sections.push(section);
            op_counts.push(count);
        }
        let mut info = Vec::new();
        encode_str(name, &mut info);
        encode_uvarint(n_threads as u64, &mut info);
        for s in &sections {
            encode_uvarint(s.len() as u64, &mut info);
        }
        for &c in &op_counts {
            encode_uvarint(c, &mut info);
        }
        let mut buf = Vec::with_capacity(info.len() + 9);
        buf.push(TAG_RUN);
        frame(&info, &mut buf);
        self.write(&buf)?;
        for s in &sections {
            self.write(s)?;
        }
        self.file.flush().map_err(|e| io_err("flush", &e))?;
        self.runs += 1;
        self.ops += op_counts.iter().sum::<u64>();
        Ok(())
    }

    /// Flushes and closes the capture, returning its statistics.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on flush failure.
    pub fn finish(mut self) -> Result<TraceStats, TraceError> {
        self.file.flush().map_err(|e| io_err("flush", &e))?;
        Ok(TraceStats {
            version: FORMAT_VERSION,
            study: self.study,
            fingerprint: self.fingerprint,
            runs: self.runs,
            ops: self.ops,
            bytes: self.bytes,
        })
    }
}

// --- reader -------------------------------------------------------------

/// Index entry for one captured run: where its sections live.
#[derive(Debug, Clone)]
struct RunIndex {
    name: String,
    n_threads: usize,
    /// Per-thread `(file offset, section byte length, declared op count)`.
    sections: Vec<(u64, u64, u64)>,
}

/// The shared fault slot of one replayed run.
///
/// [`OpStream`] has no error channel, so a [`TraceStream`] that hits
/// damage parks the first typed error here and ends its stream; the
/// driver checks the slot after the run (a non-empty slot means the run's
/// results must be discarded — the replay was incomplete).
#[derive(Debug, Clone, Default)]
pub struct TraceFault(Arc<Mutex<Option<TraceError>>>);

impl TraceFault {
    fn set(&self, e: TraceError) {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_or_insert(e);
    }

    /// Takes the parked error, if any stream of the run hit damage.
    #[must_use]
    pub fn take(&self) -> Option<TraceError> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).take()
    }
}

/// One replayed run: per-thread op streams plus the shared fault slot.
pub struct TraceRun {
    /// The per-thread streams, in thread order — feed them to the engine
    /// exactly like [`crate::streams_for`] output.
    pub streams: Vec<Box<dyn OpStream>>,
    /// The shared fault slot; check after the run.
    pub fault: TraceFault,
}

impl std::fmt::Debug for TraceRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRun")
            .field("streams", &self.streams.len())
            .field("fault", &self.fault)
            .finish()
    }
}

/// An indexed, identity-checked trace file ready to replay runs.
#[derive(Debug)]
pub struct TraceReader {
    path: PathBuf,
    stats_version: u32,
    study: String,
    fingerprint: String,
    runs: Vec<RunIndex>,
    bytes: u64,
}

impl TraceReader {
    /// Opens a trace: validates magic, version and header checksum,
    /// optionally checks the `(study, fingerprint)` identity, then
    /// indexes every run by seeking over its sections (no op decoding).
    ///
    /// # Errors
    ///
    /// - [`TraceError::Io`] when the file is unreadable,
    /// - [`TraceError::BadHeader`] on a bad magic or damaged header,
    /// - [`TraceError::VersionMismatch`] for other format versions,
    /// - [`TraceError::StudyMismatch`] / [`TraceError::ParamsMismatch`]
    ///   when `expected` identity does not match the header,
    /// - [`TraceError::Truncated`] when a frame or section is declared
    ///   past the end of the file,
    /// - [`TraceError::Corrupt`] when a run-info frame fails its
    ///   checksum.
    pub fn open(
        path: impl AsRef<Path>,
        expected: Option<(&str, &str)>,
    ) -> Result<Self, TraceError> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path).map_err(|e| io_err("open", &e))?;
        let bytes = file.metadata().map_err(|e| io_err("open", &e))?.len();
        if bytes < 12 {
            return Err(TraceError::BadHeader {
                why: format!("file is {bytes} bytes, smaller than any header"),
            });
        }
        let mut fixed = [0u8; 12];
        file.read_exact(&mut fixed)
            .map_err(|e| io_err("read", &e))?;
        if &fixed[0..8] != MAGIC {
            return Err(TraceError::BadHeader {
                why: "bad magic (not an SSTRACE file)".to_string(),
            });
        }
        let version = u32::from_le_bytes(fixed[8..12].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(TraceError::VersionMismatch {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let mut pos = 12u64;
        let mut header = Vec::new();
        pos += read_frame(&mut file, bytes - pos, "header", &mut header).map_err(|e| match e {
            // A header that fails its checksum is an identity
            // failure, aligned with the journal's BadHeader.
            TraceError::Corrupt { what } => TraceError::BadHeader { why: what },
            other => other,
        })?;
        let mut hp = 0usize;
        let study = decode_str(&header, &mut hp).map_err(|_| TraceError::BadHeader {
            why: "undecodable study name".to_string(),
        })?;
        let fingerprint = decode_str(&header, &mut hp).map_err(|_| TraceError::BadHeader {
            why: "undecodable fingerprint".to_string(),
        })?;
        if hp != header.len() {
            return Err(TraceError::BadHeader {
                why: "trailing bytes after header fields".to_string(),
            });
        }
        if let Some((want_study, want_fp)) = expected {
            if study != want_study {
                return Err(TraceError::StudyMismatch {
                    trace: study,
                    requested: want_study.to_string(),
                });
            }
            if fingerprint != want_fp {
                return Err(TraceError::ParamsMismatch {
                    trace: fingerprint,
                    requested: want_fp.to_string(),
                });
            }
        }

        let mut runs = Vec::new();
        let mut info = Vec::new();
        while pos < bytes {
            let mut tag = [0u8; 1];
            file.read_exact(&mut tag).map_err(|e| io_err("read", &e))?;
            pos += 1;
            if tag[0] != TAG_RUN {
                return Err(corrupt(format!(
                    "expected run tag at byte {}, found 0x{:02x}",
                    pos - 1,
                    tag[0]
                )));
            }
            pos += read_frame(&mut file, bytes - pos, "run-info", &mut info)?;
            let mut ip = 0usize;
            let name = decode_str(&info, &mut ip)?;
            let n_threads = usize::try_from(decode_uvarint(&info, &mut ip)?)
                .map_err(|_| corrupt("thread count overflows"))?;
            if n_threads == 0 {
                return Err(corrupt(format!("run '{name}' declares zero threads")));
            }
            // `n_threads` is still untrusted here: grow these as the
            // frame actually yields fields rather than reserving for a
            // count a crafted frame can put anywhere below 2^64.
            let mut lens = Vec::new();
            for _ in 0..n_threads {
                lens.push(decode_uvarint(&info, &mut ip)?);
            }
            let mut counts = Vec::new();
            for _ in 0..n_threads {
                counts.push(decode_uvarint(&info, &mut ip)?);
            }
            if ip != info.len() {
                return Err(corrupt(format!(
                    "trailing bytes after run-info of '{name}'"
                )));
            }
            let mut sections = Vec::with_capacity(n_threads);
            for (t, (&len, &count)) in lens.iter().zip(&counts).enumerate() {
                if len > bytes - pos {
                    return Err(TraceError::Truncated {
                        what: format!("run '{name}' thread {t} section"),
                    });
                }
                sections.push((pos, len, count));
                pos += len;
            }
            file.seek(SeekFrom::Start(pos))
                .map_err(|e| io_err("read", &e))?;
            runs.push(RunIndex {
                name,
                n_threads,
                sections,
            });
        }
        Ok(TraceReader {
            path,
            stats_version: version,
            study,
            fingerprint,
            runs,
            bytes,
        })
    }

    /// The study recorded in the header.
    #[must_use]
    pub fn study(&self) -> &str {
        &self.study
    }

    /// The parameter fingerprint recorded in the header.
    #[must_use]
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The captured `(name, n_threads)` run keys, in file order.
    #[must_use]
    pub fn run_keys(&self) -> Vec<(String, usize)> {
        self.runs
            .iter()
            .map(|r| (r.name.clone(), r.n_threads))
            .collect()
    }

    /// Builds the replay streams for the run captured as (`name`,
    /// `n_threads`). Each stream opens its own file handle, so several
    /// runs (or the same run twice) can replay concurrently.
    ///
    /// # Errors
    ///
    /// - [`TraceError::MissingRun`] when the trace has no such run,
    /// - [`TraceError::Io`] when the file cannot be re-opened.
    pub fn run_streams(&self, name: &str, n_threads: usize) -> Result<TraceRun, TraceError> {
        let Some(run) = self
            .runs
            .iter()
            .find(|r| r.name == name && r.n_threads == n_threads)
        else {
            return Err(TraceError::MissingRun {
                name: name.to_string(),
                threads: n_threads,
            });
        };
        let fault = TraceFault::default();
        let mut streams: Vec<Box<dyn OpStream>> = Vec::with_capacity(run.n_threads);
        for (t, &(offset, len, count)) in run.sections.iter().enumerate() {
            let mut file = File::open(&self.path).map_err(|e| io_err("open", &e))?;
            file.seek(SeekFrom::Start(offset))
                .map_err(|e| io_err("open", &e))?;
            streams.push(Box::new(TraceStream {
                file,
                remaining: len,
                declared_ops: count,
                decoded_ops: 0,
                label: format!("run '{}' thread {t}", run.name),
                payload: Vec::new(),
                pos: 0,
                state: LineState::default(),
                fault: fault.clone(),
                dead: false,
            }));
        }
        Ok(TraceRun { streams, fault })
    }
}

/// One thread's streaming decoder: reads CRC-framed chunks from its own
/// file cursor into one reusable payload buffer (≤ ~32 KiB) and decodes
/// each op from it on demand — no decoded ops are ever buffered.
///
/// A chunk is checksummed whole before its first op is handed out. A
/// chunk that passes its checksum and still holds an undecodable op (only
/// a crafted file can) ends the stream *at that op*: the ops before it
/// were already delivered, the typed error is parked in the fault slot,
/// and the driver discards the run.
#[derive(Debug)]
pub struct TraceStream {
    file: File,
    /// Section bytes not yet read from the file.
    remaining: u64,
    declared_ops: u64,
    decoded_ops: u64,
    label: String,
    /// The current chunk's payload, checksum already verified.
    payload: Vec<u8>,
    /// Decode cursor into `payload`.
    pos: usize,
    state: LineState,
    fault: TraceFault,
    dead: bool,
}

impl TraceStream {
    /// Reads the next chunk into `payload` and verifies its checksum.
    /// Returns `false` at the end of the section (parking a fault when
    /// the section ended short of its declared op count) and on damage
    /// (fault parked).
    fn refill(&mut self) -> bool {
        if self.remaining == 0 {
            if self.decoded_ops != self.declared_ops {
                self.fault.set(corrupt(format!(
                    "{} decoded {} ops, {} declared",
                    self.label, self.decoded_ops, self.declared_ops
                )));
            }
            return false;
        }
        let mut tag = [0u8; 1];
        if let Err(e) = self.file.read_exact(&mut tag) {
            self.fault.set(io_err("read", &e));
            return false;
        }
        if tag[0] != TAG_CHUNK {
            self.fault.set(corrupt(format!(
                "{}: expected chunk tag, found 0x{:02x}",
                self.label, tag[0]
            )));
            return false;
        }
        match read_frame(
            &mut self.file,
            self.remaining - 1,
            &self.label,
            &mut self.payload,
        ) {
            Ok(consumed) => {
                self.remaining -= consumed + 1;
                self.pos = 0;
                true
            }
            Err(e) => {
                // A chunk declared past its section is section-level
                // damage, not file truncation.
                self.fault.set(match e {
                    TraceError::Truncated { what } => {
                        corrupt(format!("chunk overruns its section ({what})"))
                    }
                    other => other,
                });
                false
            }
        }
    }

    /// Ends the stream for good: whatever is left in the buffer (the rest
    /// of a damaged chunk, a frame that failed its checksum) is dropped,
    /// so nothing more is ever decoded from it.
    #[cold]
    fn end(&mut self) -> Option<Op> {
        self.dead = true;
        self.payload.clear();
        None
    }
}

impl OpStream for TraceStream {
    fn next_op(&mut self) -> Option<Op> {
        while self.pos >= self.payload.len() {
            if self.dead || !self.refill() {
                return self.end();
            }
        }
        let damage = match decode_op(&self.payload, &mut self.pos, &mut self.state) {
            Ok(op) if self.decoded_ops < self.declared_ops => {
                self.decoded_ops += 1;
                return Some(op);
            }
            Ok(_) => corrupt(format!(
                "{} decoded more ops than the {} declared",
                self.label, self.declared_ops
            )),
            Err(e) => e,
        };
        self.fault.set(damage);
        self.end()
    }
}

// --- verification -------------------------------------------------------

/// Fully verifies a trace: header identity, every frame checksum and
/// every op decode of every run (what the `tracecheck` binary runs).
///
/// # Errors
///
/// Any [`TraceError`] the file's damage maps to; see
/// [`TraceReader::open`].
pub fn verify(path: impl AsRef<Path>) -> Result<TraceStats, TraceError> {
    let reader = TraceReader::open(&path, None)?;
    let mut ops = 0u64;
    for (name, n) in reader.run_keys() {
        let run = reader.run_streams(&name, n)?;
        for mut stream in run.streams {
            while stream.next_op().is_some() {
                ops += 1;
            }
        }
        if let Some(e) = run.fault.take() {
            return Err(e);
        }
    }
    Ok(TraceStats {
        version: reader.stats_version,
        study: reader.study.clone(),
        fingerprint: reader.fingerprint.clone(),
        runs: reader.runs.len(),
        ops,
        bytes: reader.bytes,
    })
}

/// Where a sweep traces to or replays from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpec {
    /// Trace file path.
    pub path: String,
    /// Replay the sweep's runs from the file (`repro --trace-in`);
    /// `false` captures the generated streams to it (`repro
    /// --trace-out`).
    pub replay: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim::VecStream;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "sstrace-unit-{}-{}-{tag}.sstrace",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// A one-run ("toy"), one-thread, one-chunk trace file around
    /// `payload` declaring `declared` ops, every frame correctly
    /// checksummed.
    fn crafted(payload: &[u8], declared: u64) -> Vec<u8> {
        let mut header = Vec::new();
        encode_str("demo", &mut header);
        encode_str("x", &mut header);
        let mut info = Vec::new();
        encode_str("toy", &mut info);
        encode_uvarint(1, &mut info);
        encode_uvarint(payload.len() as u64 + 9, &mut info);
        encode_uvarint(declared, &mut info);
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        frame(&header, &mut out);
        out.push(TAG_RUN);
        frame(&info, &mut out);
        out.push(TAG_CHUNK);
        frame(payload, &mut out);
        out
    }

    fn drain(stream: &mut dyn OpStream) -> Vec<Op> {
        let mut out = Vec::new();
        while let Some(op) = stream.next_op() {
            out.push(op);
        }
        out
    }

    #[test]
    fn uvarint_boundary_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            encode_uvarint(v, &mut buf);
            let mut pos = 0;
            assert_eq!(decode_uvarint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len(), "no trailing bytes for {v}");
        }
    }

    #[test]
    fn svarint_boundary_values() {
        for v in [0i64, 1, -1, 63, 64, -64, -65, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            encode_svarint(v, &mut buf);
            let mut pos = 0;
            assert_eq!(decode_svarint(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        // Truncated: continuation bit set, buffer ends.
        let mut pos = 0;
        assert!(matches!(
            decode_uvarint(&[0x80], &mut pos),
            Err(TraceError::Corrupt { .. })
        ));
        // Overflow: 11 continuation bytes.
        let mut pos = 0;
        assert!(matches!(
            decode_uvarint(&[0xff; 11], &mut pos),
            Err(TraceError::Corrupt { .. })
        ));
    }

    #[test]
    fn delta_codec_covers_full_address_space() {
        // 0, 1, max address and backwards jumps all round-trip through
        // the wrapping delta.
        let ops = vec![
            Op::Load(0),
            Op::Load(1),
            Op::Load(u64::MAX),
            Op::Load(0),
            Op::Store(1 << 30),
            Op::Load(5),
            Op::Store(u64::MAX - 1),
        ];
        let mut enc = LineState::default();
        let mut buf = Vec::new();
        for &op in &ops {
            encode_op(op, &mut enc, &mut buf);
        }
        let mut dec = LineState::default();
        let mut pos = 0;
        let mut back = Vec::new();
        while pos < buf.len() {
            back.push(decode_op(&buf, &mut pos, &mut dec).unwrap());
        }
        assert_eq!(back, ops);
    }

    #[test]
    fn write_read_round_trip_multi_thread() {
        let path = temp_path("roundtrip");
        let t0 = vec![Op::Compute(10), Op::Load(42), Op::Barrier(0)];
        let t1 = vec![
            Op::LockAcquire(3),
            Op::Store(7),
            Op::LockRelease(3),
            Op::Compute(5),
            Op::Load(9),
            Op::Barrier(0),
        ];
        let mut w = TraceWriter::create(&path, "demo", "cafebabe").unwrap();
        w.add_run(
            "toy",
            vec![
                Box::new(VecStream::new(t0.clone())),
                Box::new(VecStream::new(t1.clone())),
            ],
        )
        .unwrap();
        let stats = w.finish().unwrap();
        assert_eq!(stats.runs, 1);
        assert_eq!(stats.ops, 9);

        let r = TraceReader::open(&path, Some(("demo", "cafebabe"))).unwrap();
        let mut run = r.run_streams("toy", 2).unwrap();
        assert_eq!(drain(run.streams[0].as_mut()), t0);
        assert_eq!(drain(run.streams[1].as_mut()), t1);
        assert!(run.fault.take().is_none());
        // Replaying the same run twice works (fresh cursors).
        let mut again = r.run_streams("toy", 2).unwrap();
        assert_eq!(drain(again.streams[0].as_mut()), t0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_run_is_typed() {
        let path = temp_path("missing");
        let mut w = TraceWriter::create(&path, "demo", "x").unwrap();
        w.add_run("toy", vec![Box::new(VecStream::new(vec![Op::Compute(1)]))])
            .unwrap();
        w.finish().unwrap();
        let r = TraceReader::open(&path, None).unwrap();
        assert!(matches!(
            r.run_streams("toy", 2),
            Err(TraceError::MissingRun { threads: 2, .. })
        ));
        assert!(matches!(
            r.run_streams("other", 1),
            Err(TraceError::MissingRun { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn identity_mismatches_are_typed() {
        let path = temp_path("identity");
        let w = TraceWriter::create(&path, "fig6", "deadbeef").unwrap();
        w.finish().unwrap();
        assert!(matches!(
            TraceReader::open(&path, Some(("fig1", "deadbeef"))),
            Err(TraceError::StudyMismatch { .. })
        ));
        assert!(matches!(
            TraceReader::open(&path, Some(("fig6", "00000000"))),
            Err(TraceError::ParamsMismatch { .. })
        ));
        assert!(TraceReader::open(&path, Some(("fig6", "deadbeef"))).is_ok());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let path = temp_path("magic");
        std::fs::write(&path, b"NOTATRACEFILE....").unwrap();
        assert!(matches!(
            TraceReader::open(&path, None),
            Err(TraceError::BadHeader { .. })
        ));
        // Valid file with the version field patched to 99.
        let w = TraceWriter::create(&path, "demo", "x").unwrap();
        w.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            TraceReader::open(&path, None),
            Err(TraceError::VersionMismatch {
                found: 99,
                supported: FORMAT_VERSION
            })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_section_detected_at_open() {
        let path = temp_path("trunc");
        let mut w = TraceWriter::create(&path, "demo", "x").unwrap();
        w.add_run(
            "toy",
            vec![Box::new(VecStream::new(vec![Op::Compute(5); 100]))],
        )
        .unwrap();
        w.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        assert!(matches!(
            TraceReader::open(&path, None),
            Err(TraceError::Truncated { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_in_chunk_parks_fault_not_panic() {
        let path = temp_path("flip");
        let mut w = TraceWriter::create(&path, "demo", "x").unwrap();
        w.add_run(
            "toy",
            vec![Box::new(VecStream::new(vec![Op::Load(123); 50]))],
        )
        .unwrap();
        w.finish().unwrap();
        let written = std::fs::read(&path).unwrap();
        let mut bytes = written.clone();
        let last = bytes.len() - 1; // inside the final chunk payload
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        // The index scan does not decode chunks, so open succeeds …
        let r = TraceReader::open(&path, None).unwrap();
        let mut run = r.run_streams("toy", 1).unwrap();
        let _ = drain(run.streams[0].as_mut());
        // … but the replay parks the typed corruption.
        let e = run.fault.take().expect("fault parked");
        assert!(matches!(e, TraceError::Corrupt { .. }), "{e:?}");
        // verify() surfaces it as an error.
        assert!(matches!(verify(&path), Err(TraceError::Corrupt { .. })));

        // Damage *behind* valid checksums — only a crafted file gets
        // here — reaches the op decoder and the declared-count checks.
        // `crafted` is format-accurate: it reproduces the writer's bytes.
        let ops = vec![Op::Load(123); 50];
        let encode = |ops: &[Op]| {
            let mut state = LineState::default();
            let mut out = Vec::new();
            for &op in ops {
                encode_op(op, &mut state, &mut out);
            }
            out
        };
        assert_eq!(crafted(&encode(&ops), 50), written);
        let replay = |payload: &[u8], declared: u64| {
            std::fs::write(&path, crafted(payload, declared)).unwrap();
            let r = TraceReader::open(&path, None).unwrap();
            let mut run = r.run_streams("toy", 1).unwrap();
            let delivered = drain(run.streams[0].as_mut());
            for _ in 0..3 {
                assert_eq!(run.streams[0].next_op(), None, "a dead stream stays dead");
            }
            let e = run.fault.take().expect("fault parked");
            assert!(run.fault.take().is_none(), "exactly one error is parked");
            let TraceError::Corrupt { what } = e else {
                panic!("expected Corrupt, got {e:?}");
            };
            (delivered, what)
        };
        // A bad tag mid-chunk: the ops before it are delivered, then the
        // stream ends at the damage. `0x06`/`0x07` were never written by
        // any generator and are not op tags.
        for tag in [0x06u8, 0x07, 0x7f] {
            let mut bad_tag = encode(&ops[..20]);
            bad_tag.push(tag);
            bad_tag.extend(encode(&ops[20..]));
            let (delivered, what) = replay(&bad_tag, 50);
            assert_eq!(delivered, &ops[..20]);
            assert_eq!(what, format!("unknown op tag 0x{tag:02x}"));
        }
        // Run-info declaring one op fewer than encoded: raised at the
        // first op past the declared count …
        let (delivered, what) = replay(&encode(&ops), 49);
        assert_eq!(delivered, &ops[..49]);
        assert_eq!(
            what,
            "run 'toy' thread 0 decoded more ops than the 49 declared"
        );
        // … and one more: raised at the end of the section.
        let (delivered, what) = replay(&encode(&ops), 51);
        assert_eq!(delivered, ops);
        assert_eq!(what, "run 'toy' thread 0 decoded 50 ops, 51 declared");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn verify_reports_stats() {
        let path = temp_path("verify");
        let mut w = TraceWriter::create(&path, "demo", "feedc0de").unwrap();
        w.add_run(
            "a",
            vec![Box::new(VecStream::new(vec![
                Op::Compute(1),
                Op::Barrier(0),
            ]))],
        )
        .unwrap();
        w.add_run("b", vec![Box::new(VecStream::new(vec![Op::Store(9)]))])
            .unwrap();
        let written = w.finish().unwrap();
        let checked = verify(&path).unwrap();
        assert_eq!(checked, written);
        assert_eq!(checked.runs, 2);
        assert_eq!(checked.ops, 3);
        assert_eq!(
            checked.bytes,
            std::fs::metadata(&path).unwrap().len(),
            "stats bytes match the file"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunking_splits_large_streams() {
        // Enough ops to cross several chunk boundaries; delta state must
        // survive them.
        let ops: Vec<Op> = (0..40_000u64)
            .map(|i| {
                if i % 3 == 0 {
                    Op::Load(i * 17 % 1_000)
                } else {
                    Op::Store(u64::MAX - i)
                }
            })
            .collect();
        let path = temp_path("chunks");
        let mut w = TraceWriter::create(&path, "demo", "x").unwrap();
        w.add_run("big", vec![Box::new(VecStream::new(ops.clone()))])
            .unwrap();
        w.finish().unwrap();
        let r = TraceReader::open(&path, None).unwrap();
        let mut run = r.run_streams("big", 1).unwrap();
        assert_eq!(drain(run.streams[0].as_mut()), ops);
        assert!(run.fault.take().is_none());
        std::fs::remove_file(&path).ok();
    }
}
