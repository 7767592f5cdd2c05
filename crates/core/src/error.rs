//! The crate-spanning error taxonomy.
//!
//! Every failure mode of the reproduction pipeline is classified into one
//! of the [`SimError`] variants, each with a distinct process exit code
//! (used by the `repro` CLI):
//!
//! | variant                  | meaning                                   | exit code |
//! |--------------------------|-------------------------------------------|-----------|
//! | [`SimError::Config`]     | invalid machine/workload configuration    | 3         |
//! | [`SimError::Stack`]      | counters cannot form a speedup stack      | 4         |
//! | [`SimError::Journal`]    | sweep journal unreadable or inconsistent  | 5         |
//! | [`SimError::Engine`]     | the simulation engine aborted a run       | 7         |
//! | [`SimError::Interrupted`]| sweep checkpointed before completion      | 8         |
//! | [`SimError::Trace`]      | workload trace unreadable or inconsistent | 9         |
//! | [`SimError::Protocol`]   | study-service wire protocol / socket I/O  | 10        |
//!
//! Exit code 6 is retired (it belonged to a per-point error no sweep
//! ever returned: a failed grid point degrades its report — a
//! `DegradedPoint` with label, reason and attempts — and the run exits
//! 0). Exit code 11 is retired too (a fleet with no backends, now a
//! [`ConfigError`]). The leaf types ([`ConfigError`], [`StackError`],
//! [`JournalError`], [`TraceError`], [`ProtocolError`]) are owned by
//! the layers that raise them and convert into [`SimError`] via `From`,
//! so callers can `?` across layers.

use core::fmt;
use std::borrow::Cow;

/// Error returned when a speedup stack cannot be built from the provided
/// counters.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StackError {
    /// No per-thread counters were provided.
    NoThreads,
    /// The parallel-section duration `Tp` was zero.
    ZeroDuration,
    /// A thread reported a cycle quantity that is negative or not finite,
    /// or an `active_end_cycle` beyond `Tp`.
    InvalidCounters {
        /// Index of the offending thread.
        thread: usize,
    },
}

impl fmt::Display for StackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StackError::NoThreads => f.write_str("no per-thread counters provided"),
            StackError::ZeroDuration => f.write_str("parallel-section duration Tp is zero"),
            StackError::InvalidCounters { thread } => {
                write!(f, "thread {thread} reported invalid counters")
            }
        }
    }
}

impl std::error::Error for StackError {}

/// An invalid machine or workload configuration value, caught by
/// `validate()` before a simulation starts (replacing scattered
/// `assert!`s on the hot paths).
///
/// # Examples
///
/// ```
/// use speedup_stacks::error::ConfigError;
/// let e = ConfigError::zero("n_cores");
/// assert_eq!(e.to_string(), "invalid configuration: n_cores must be at least 1");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A count that must be at least one was zero.
    ZeroCount {
        /// Name of the offending parameter.
        what: &'static str,
    },
    /// A parameter was non-finite, out of range or not applicable.
    OutOfRange {
        /// Name of the offending parameter.
        what: &'static str,
        /// The violated constraint, worded to follow the parameter's name.
        why: Cow<'static, str>,
    },
}

impl ConfigError {
    /// Shorthand for [`ConfigError::ZeroCount`].
    #[must_use]
    pub const fn zero(what: &'static str) -> Self {
        ConfigError::ZeroCount { what }
    }

    /// Shorthand for [`ConfigError::OutOfRange`].
    #[must_use]
    pub fn range(what: &'static str, why: impl Into<Cow<'static, str>>) -> Self {
        let why = why.into();
        ConfigError::OutOfRange { what, why }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroCount { what } => {
                write!(f, "invalid configuration: {what} must be at least 1")
            }
            ConfigError::OutOfRange { what, why } => {
                write!(f, "invalid configuration: {what} {why}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A sweep journal that cannot be used: unreadable, missing or corrupt
/// header, wrong format version, or recorded under different study
/// parameters.
///
/// Corrupt *records* are not a [`JournalError`]: they are quarantined and
/// their points recomputed (see `experiments::journal`). Only a journal
/// whose identity cannot be established is fatal.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum JournalError {
    /// An I/O operation on the journal file failed.
    Io {
        /// The operation that failed (`open`, `read`, `append` …).
        op: &'static str,
        /// The underlying error message.
        message: String,
    },
    /// The journal has no complete header line: the file is empty, or
    /// its writer died inside the header write.
    MissingHeader,
    /// The header line is present but malformed or fails its checksum.
    BadHeader {
        /// What was wrong with it.
        why: String,
    },
    /// The journal was written by an unsupported format version.
    VersionMismatch {
        /// Version found in the header.
        found: u64,
        /// Version this build supports.
        supported: u64,
    },
    /// The journal belongs to a different study.
    StudyMismatch {
        /// Study recorded in the journal header.
        journal: String,
        /// Study requested on the command line.
        requested: String,
    },
    /// The journal was recorded under different study parameters.
    ParamsMismatch {
        /// Parameter fingerprint recorded in the journal header.
        journal: String,
        /// Fingerprint of the requested parameters.
        requested: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { op, message } => write!(f, "journal {op} failed: {message}"),
            JournalError::MissingHeader => f.write_str("journal has no header line"),
            JournalError::BadHeader { why } => write!(f, "journal header invalid: {why}"),
            JournalError::VersionMismatch { found, supported } => write!(
                f,
                "journal format version {found} unsupported (this build reads version {supported})"
            ),
            JournalError::StudyMismatch { journal, requested } => write!(
                f,
                "journal records study '{journal}' but '{requested}' was requested"
            ),
            JournalError::ParamsMismatch { journal, requested } => write!(
                f,
                "journal was recorded with different parameters \
                 (fingerprint {journal}, requested {requested})"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// A binary workload trace that cannot be used: unreadable, malformed or
/// truncated framing, a corrupt record, an unsupported format version,
/// or a capture from a different study/parameterization.
///
/// Unlike journal records (which are quarantined and recomputed), *any*
/// trace damage is fatal: a replay must be bit-identical to its captured
/// original, so there is nothing safe to recompute from a damaged trace.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// An I/O operation on the trace file failed.
    Io {
        /// The operation that failed (`create`, `open`, `read`, `write` …).
        op: &'static str,
        /// The underlying error message.
        message: String,
    },
    /// The trace header is missing, malformed or fails its checksum.
    BadHeader {
        /// What was wrong with it.
        why: String,
    },
    /// The trace was captured by an unsupported format version.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this build reads.
        supported: u32,
    },
    /// The file ends before a declared frame or section does (the
    /// artifact of a kill or a partial copy).
    Truncated {
        /// Which structure the file ends inside of.
        what: String,
    },
    /// A framed record fails its checksum or decodes to garbage.
    Corrupt {
        /// Which record, and how it is damaged.
        what: String,
    },
    /// The trace was captured for a different study.
    StudyMismatch {
        /// Study recorded in the trace header.
        trace: String,
        /// Study requested for the replay.
        requested: String,
    },
    /// The trace was captured under different study parameters.
    ParamsMismatch {
        /// Parameter fingerprint recorded in the trace header.
        trace: String,
        /// Fingerprint of the requested parameters.
        requested: String,
    },
    /// The trace has no captured run for the requested benchmark and
    /// thread count.
    MissingRun {
        /// Display name of the requested benchmark.
        name: String,
        /// Requested thread count.
        threads: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io { op, message } => write!(f, "trace {op} failed: {message}"),
            TraceError::BadHeader { why } => write!(f, "trace header invalid: {why}"),
            TraceError::VersionMismatch { found, supported } => write!(
                f,
                "trace format version {found} unsupported (this build reads version {supported})"
            ),
            TraceError::Truncated { what } => write!(f, "trace truncated inside {what}"),
            TraceError::Corrupt { what } => write!(f, "trace corrupt: {what}"),
            TraceError::StudyMismatch { trace, requested } => write!(
                f,
                "trace records study '{trace}' but '{requested}' was requested"
            ),
            TraceError::ParamsMismatch { trace, requested } => write!(
                f,
                "trace was captured with different parameters \
                 (fingerprint {trace}, requested {requested})"
            ),
            TraceError::MissingRun { name, threads } => {
                write!(f, "trace has no run for '{name}' at {threads} thread(s)")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// A failure of the `studyd` wire protocol (line-delimited JSON over
/// TCP): socket I/O, malformed or oversized frames, a handshake version
/// mismatch, a typed rejection from the peer, or a connection that
/// closed mid-stream.
///
/// Raised by both sides: the server replies with a typed error frame
/// (and keeps or closes the connection depending on severity), the
/// client surfaces whatever stopped a submission from completing. There
/// is no `unwrap` on socket I/O anywhere in the service layer — every
/// failure funnels into this type.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// A socket operation failed.
    Io {
        /// The operation that failed (`connect`, `read`, `write` …).
        op: &'static str,
        /// The underlying error message.
        message: String,
    },
    /// A frame was not a well-formed single-line JSON object of the
    /// expected shape.
    Malformed {
        /// What was wrong with it.
        why: String,
    },
    /// A frame exceeded the line-length cap (a defense against
    /// accidental binary input and memory exhaustion).
    Oversized {
        /// The cap in bytes.
        limit: usize,
    },
    /// The peer speaks a different protocol version (`hello` handshake).
    VersionMismatch {
        /// Version the peer announced.
        found: u64,
        /// Version this build speaks.
        supported: u64,
    },
    /// The peer rejected the request with a typed error frame.
    Rejected {
        /// The machine-readable error code from the frame.
        code: String,
        /// The human-readable message from the frame.
        message: String,
    },
    /// The connection closed before the exchange completed.
    Closed {
        /// What was still outstanding (e.g. `"hello reply"`,
        /// `"job 3 stream"`).
        during: String,
    },
    /// The server's admission control refused the submission: its work
    /// queue is full. Carries the server's backoff hint so a resilient
    /// client can retry without guessing.
    Busy {
        /// How long the server suggests waiting before retrying, in
        /// milliseconds (derived deterministically from queue depth).
        retry_after_ms: u64,
    },
    /// A socket read or write hit its configured timeout — on the
    /// server, the idle-connection reaper closing a session that sat
    /// silent past `--idle-timeout-ms`.
    Timeout,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io { op, message } => write!(f, "socket {op} failed: {message}"),
            ProtocolError::Malformed { why } => write!(f, "malformed protocol frame: {why}"),
            ProtocolError::Oversized { limit } => {
                write!(f, "protocol frame exceeds the {limit}-byte line cap")
            }
            ProtocolError::VersionMismatch { found, supported } => write!(
                f,
                "protocol version {found} unsupported (this build speaks version {supported})"
            ),
            ProtocolError::Rejected { code, message } => {
                write!(f, "request rejected ({code}): {message}")
            }
            ProtocolError::Closed { during } => {
                write!(f, "connection closed during {during}")
            }
            ProtocolError::Busy { retry_after_ms } => write!(
                f,
                "server busy: work queue full (retry after {retry_after_ms} ms)"
            ),
            ProtocolError::Timeout => f.write_str("socket timed out waiting for the peer"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// The unified error type of the reproduction pipeline.
///
/// # Examples
///
/// ```
/// use speedup_stacks::error::{ConfigError, SimError};
/// let e = SimError::from(ConfigError::zero("n_cores"));
/// assert_eq!(e.exit_code(), 3);
/// assert!(e.to_string().contains("n_cores"));
/// ```
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// Invalid machine or workload configuration.
    Config(ConfigError),
    /// Counters cannot form a speedup stack.
    Stack(StackError),
    /// The sweep journal is unusable.
    Journal(JournalError),
    /// The simulation engine aborted a run (cycle limit, deadlock,
    /// protocol violation — carried as its rendered description so the
    /// engine crate, which sits below this one, needs no type here).
    Engine {
        /// The engine error's description.
        what: String,
    },
    /// A journaled sweep stopped at a checkpoint before completing (point
    /// budget exhausted); resume with the journal to finish.
    Interrupted {
        /// Points recorded in the journal so far.
        completed: usize,
    },
    /// The workload trace is unusable (capture failed, or a replay source
    /// is damaged or from a different study/parameterization).
    Trace(TraceError),
    /// The study-service wire protocol failed (socket I/O, malformed or
    /// oversized frame, handshake mismatch, typed peer rejection, or a
    /// mid-stream disconnect).
    Protocol(ProtocolError),
}

impl SimError {
    /// The distinct process exit code for this variant (the `repro` CLI
    /// maps usage errors to 1 and success to 0; these start at 3).
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        match self {
            SimError::Config(_) => 3,
            SimError::Stack(_) => 4,
            SimError::Journal(_) => 5,
            SimError::Engine { .. } => 7,
            SimError::Interrupted { .. } => 8,
            SimError::Trace(_) => 9,
            SimError::Protocol(_) => 10,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => e.fmt(f),
            SimError::Stack(e) => e.fmt(f),
            SimError::Journal(e) => e.fmt(f),
            SimError::Engine { what } => write!(f, "engine error: {what}"),
            SimError::Interrupted { completed } => write!(
                f,
                "sweep interrupted at checkpoint ({completed} points journaled); \
                 rerun with --resume to finish"
            ),
            SimError::Trace(e) => e.fmt(f),
            SimError::Protocol(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<StackError> for SimError {
    fn from(e: StackError) -> Self {
        SimError::Stack(e)
    }
}

impl From<JournalError> for SimError {
    fn from(e: JournalError) -> Self {
        SimError::Journal(e)
    }
}

impl From<TraceError> for SimError {
    fn from(e: TraceError) -> Self {
        SimError::Trace(e)
    }
}

impl From<ProtocolError> for SimError {
    fn from(e: ProtocolError) -> Self {
        SimError::Protocol(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            StackError::NoThreads.to_string(),
            "no per-thread counters provided"
        );
        assert_eq!(
            StackError::InvalidCounters { thread: 3 }.to_string(),
            "thread 3 reported invalid counters"
        );
        assert_eq!(
            ConfigError::range("scale", "must be positive and finite").to_string(),
            "invalid configuration: scale must be positive and finite"
        );
        assert!(JournalError::VersionMismatch {
            found: 9,
            supported: 1
        }
        .to_string()
        .contains("version 9"));
    }

    #[test]
    fn exit_codes_distinct() {
        let errors: Vec<SimError> = vec![
            ConfigError::zero("x").into(),
            StackError::NoThreads.into(),
            JournalError::MissingHeader.into(),
            SimError::Engine {
                what: "deadlock".to_string(),
            },
            SimError::Interrupted { completed: 7 },
            TraceError::BadHeader {
                why: "bad magic".to_string(),
            }
            .into(),
            ProtocolError::Closed {
                during: "submit".to_string(),
            }
            .into(),
        ];
        let mut codes: Vec<u8> = errors.iter().map(SimError::exit_code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errors.len(), "exit codes must be distinct");
        assert!(codes.iter().all(|&c| c >= 3), "0-2 reserved for ok/usage");
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StackError>();
        assert_send_sync::<ConfigError>();
        assert_send_sync::<JournalError>();
        assert_send_sync::<TraceError>();
        assert_send_sync::<SimError>();
    }

    #[test]
    fn trace_error_messages_distinct_per_corruption_class() {
        // The adversarial corruption suite relies on each rejection class
        // carrying its own message: a truncation must never read like a
        // bit-flip or a parameter mismatch.
        let messages = [
            TraceError::Truncated {
                what: "run 'x' section 0".to_string(),
            }
            .to_string(),
            TraceError::Corrupt {
                what: "chunk checksum mismatch".to_string(),
            }
            .to_string(),
            TraceError::VersionMismatch {
                found: 99,
                supported: 1,
            }
            .to_string(),
            TraceError::ParamsMismatch {
                trace: "deadbeef".to_string(),
                requested: "cafebabe".to_string(),
            }
            .to_string(),
            TraceError::StudyMismatch {
                trace: "fig6".to_string(),
                requested: "fig1".to_string(),
            }
            .to_string(),
            TraceError::MissingRun {
                name: "cholesky".to_string(),
                threads: 4,
            }
            .to_string(),
        ];
        let mut dedup = messages.to_vec();
        dedup.sort();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            messages.len(),
            "messages collide: {messages:?}"
        );
        assert!(messages[0].contains("truncated"));
        assert!(messages[1].contains("corrupt"));
        assert!(messages[2].contains("version 99"));
        assert!(messages[3].contains("different parameters"));
    }
}
