//! `repro` — regenerate every figure and table of the speedup-stacks
//! paper through the study registry, locally or via a `studyd` server.
//!
//! Usage:
//!
//! ```text
//! repro <study|all> [--scale F] [--format text|json|csv]
//!       [--threads N[,N...]] [--parallelism auto|serial|N] [--llc-mib N]
//!       [--retries N] [--deadline-cycles N] [--max-points N]
//!       [--journal PATH | --resume PATH]
//!       [--trace-out PATH | --trace-in PATH]
//! repro --list
//! repro submit <study> [--addr HOST:PORT] [--scale F] [--threads N[,N...]]
//!       [--llc-mib N] [--format text|json|csv] [--no-retry]
//! repro shutdown [--addr HOST:PORT] [--drain]
//! ```
//!
//! `--list` enumerates every registered study with its description.
//! Every study renders from the same structured `Report` value in all
//! three formats; `--format text` is bit-identical to the historical
//! figure output (pinned by the golden tests).
//!
//! `scaling` is the many-core study beyond the paper: speedup stacks
//! across a 1→128-core sweep of weak-scaling workloads and a
//! multi-program rate mix (`experiments::scaling`).
//!
//! `--scale` scales the workload sizes (default 1.0; use e.g. 0.25 for a
//! quick pass).
//!
//! Fault tolerance: every simulating study honors `--retries`, which
//! re-attempts a failed unit (bounded, backoff-free; default 0), and
//! `--deadline-cycles`, a cooperative per-unit deadline in simulated
//! cycles; failed points degrade the report instead of aborting the
//! sweep (`regions`, one run, exits 7 instead). `--journal PATH` appends
//! each completed point to a crash-safe checkpoint file; after a crash
//! or an exhausted `--max-points` budget (exit code 8), `--resume PATH`
//! skips the journaled points, quarantines corrupt records, and
//! finishes the grid — the resumed report is bit-identical to an
//! uninterrupted run. Journaling and budgets are supported by the grid
//! studies (`fig1`–`fig6`, `fig8`).
//!
//! Tracing: `--trace-out PATH` captures every run's op streams into a
//! compact versioned binary trace (the report gains a provenance block
//! naming the file); `--trace-in PATH` replays a captured trace instead
//! of generating streams, reproducing the captured report byte for byte
//! (validate a file with the `tracecheck` binary). Tracing is supported
//! by the same grid studies as journaling.
//!
//! The service: `repro submit` sends a grid study to a running `studyd`
//! (a backend, or a `studyd --backend …` fleet coordinator), streams
//! the per-point results back, and reassembles them into output
//! **byte-identical** to the local run — repeated submissions are
//! served from the server's result cache without recomputation. A
//! `busy` server (admission bound full) is retried with capped
//! exponential backoff honoring its `retry-after-ms` hint;
//! `--no-retry` fails fast instead. `repro shutdown --drain` stops
//! admission, lets in-flight jobs finish, flushes the spill, and exits 0.
//!
//! Flags are parsed for their syntax only. The study gate
//! (`Study::check`) judges the values before anything is simulated or
//! sent, and a value it refuses is a usage error naming its flag.
//!
//! Exit codes: 0 success, 1 usage error, then one per
//! [`SimError`] variant — 3 config, 4 stack, 5 journal, 7 engine,
//! 8 interrupted-at-checkpoint, 9 trace, 10 protocol/service (6 is
//! retired: a failed point degrades the report, exit 0; 11 is retired:
//! it belonged to a fleet with no backends, now a config error) — and
//! 141 when stdout cannot take the report (a closed pipe, as in
//! `repro all | head`, ends quietly). A closed stderr loses the
//! diagnostics and changes no exit code.

use std::io::{self, Write};
use std::process::ExitCode;
use std::slice::Iter;
use std::str::FromStr;

use experiments::study::{find_study, registry, Study, StudyParams};
use experiments::JournalSpec;
use experiments::Parallelism;
use experiments::TraceSpec;
use service::client::{Client, SUBMIT_ATTEMPTS};
use service::{stderr_line, ShutdownMode};
use speedup_stacks::error::ConfigError;
use speedup_stacks::report::Report;
use speedup_stacks::SimError;

const USAGE: &str = "usage: repro <fig1..fig9|hwcost|regions|scaling|all> [--scale F] \
[--format text|json|csv] [--threads N[,N...]] [--parallelism auto|serial|N] [--llc-mib N]\n   \
        [--retries N] [--deadline-cycles N] [--max-points N] [--journal PATH | --resume PATH]\n   \
        [--trace-out PATH | --trace-in PATH]\n   \
or: repro --list\n   \
or: repro submit <study> [--addr HOST:PORT] [--scale F] [--threads N[,N...]] [--llc-mib N]\n   \
        [--format text|json|csv] [--no-retry]\n   \
or: repro shutdown [--addr HOST:PORT] [--drain]";

/// The exit status when stdout cannot take the report: 128 + SIGPIPE,
/// what a shell reports for a writer a closed pipe killed.
const OUTPUT_FAILED: u8 = 141;

/// The conventional loopback port the `studyd` daemon binds.
const DEFAULT_ADDR: &str = "127.0.0.1:7821";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Csv,
}

#[derive(Debug)]
enum Command {
    List,
    /// A study name (or `all`), its output format and its parameters.
    Run(String, Format, StudyParams),
}

/// The gate's refusal in the CLI's spelling: led by the flag that set
/// the refused field (the field's name with dashes).
fn flag_error(e: ConfigError) -> String {
    let ConfigError::OutOfRange { what, why } = &e else {
        return e.to_string();
    };
    let flag = match *what {
        "journal" => "--journal/--resume".to_string(),
        "trace" => "--trace-out/--trace-in".to_string(),
        field => format!("--{}", field.replace('_', "-")),
    };
    format!("{flag} {why}")
}

/// Runs the gate once the flags parsed, for the `studies` the name
/// `which` resolved to (`None`: no such study). The study-independent
/// rules come first, so a bad value is named whatever the study.
fn gate(params: &StudyParams, which: &str, studies: Option<&[Study]>) -> Result<(), String> {
    params.validate().map_err(flag_error)?;
    let studies = studies.ok_or_else(|| format!("unknown experiment: {which}"))?;
    studies
        .iter()
        .try_for_each(|s| s.check(params))
        .map_err(flag_error)
}

/// The value after `flag`, parsed; `wants` says what it must be.
fn value_arg<T: FromStr>(it: &mut Iter<'_, String>, flag: &str, wants: &str) -> Result<T, String> {
    it.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} requires {wants}"))
}

/// The file path after `flag`.
fn path_arg(it: &mut Iter<'_, String>, flag: &str) -> Result<String, String> {
    match it.next() {
        Some(path) if !path.starts_with("--") => Ok(path.clone()),
        _ => Err(format!("{flag} requires a file path")),
    }
}

/// Parses one of the flags a local run and `repro submit` share
/// (`--scale`, `--threads`, `--llc-mib`, `--format`), taking its value
/// from `it`. `Ok(false)` when `flag` is none of them. Flags are read
/// for their syntax only; [`gate`] decides which values can run.
fn shared_flag(
    flag: &str,
    it: &mut Iter<'_, String>,
    params: &mut StudyParams,
    format: &mut Format,
) -> Result<bool, String> {
    match flag {
        "--scale" => params.scale = value_arg(it, flag, "a positive finite number")?,
        "--threads" => {
            let spec = it.next().map_or("", String::as_str);
            let counts = spec.split(',').map(str::parse).collect::<Result<_, _>>();
            params.threads = Some(counts.map_err(|_| {
                format!("--threads requires a comma-separated list of counts, got '{spec}'")
            })?);
        }
        "--llc-mib" => params.llc_mib = Some(value_arg(it, flag, "a capacity in MiB")?),
        "--format" => {
            *format = match it.next().map(String::as_str) {
                Some("text") => Format::Text,
                Some("json") => Format::Json,
                Some("csv") => Format::Csv,
                _ => return Err("--format requires one of: text, json, csv".to_string()),
            }
        }
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut which: Option<String> = None;
    let mut list = false;
    let mut format = Format::Text;
    let mut params = StudyParams::default();
    let mut journal_flags = 0usize;
    let mut trace_flags = 0usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if shared_flag(a, &mut it, &mut params, &mut format)? {
            continue;
        }
        match a.as_str() {
            "--list" => list = true,
            "--parallelism" => {
                params.parallelism = match it.next().map(String::as_str) {
                    Some("auto") => Parallelism::Auto,
                    Some("serial") => Parallelism::Serial,
                    n => Parallelism::Workers(
                        n.and_then(|n| n.parse().ok())
                            .ok_or("--parallelism requires auto, serial or a worker count >= 1")?,
                    ),
                }
            }
            "--retries" => params.faults.retries = value_arg(&mut it, a, "a non-negative count")?,
            "--deadline-cycles" => {
                params.faults.deadline_cycles = Some(value_arg(&mut it, a, "a cycle count >= 1")?);
            }
            "--max-points" => {
                params.max_points = Some(value_arg(&mut it, a, "a point budget >= 1")?)
            }
            "--journal" | "--resume" => {
                journal_flags += 1;
                let resume = a == "--resume";
                let path = path_arg(&mut it, a)?;
                params.journal = Some(JournalSpec { path, resume });
            }
            "--trace-out" | "--trace-in" => {
                trace_flags += 1;
                let replay = a == "--trace-in";
                let path = path_arg(&mut it, a)?;
                params.trace = Some(TraceSpec { path, replay });
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown option: {other}"));
            }
            other if which.is_none() => which = Some(other.to_string()),
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    if list {
        return Ok(Command::List);
    }
    let Some(which) = which else {
        return Err("missing experiment name".to_string());
    };
    if journal_flags > 1 {
        return Err("--journal and --resume are mutually exclusive (one journal per run)".into());
    }
    if trace_flags > 1 {
        return Err("--trace-out and --trace-in are mutually exclusive (one trace per run)".into());
    }
    let studies = match find_study(&which) {
        Some(study) => Some(std::slice::from_ref(study)),
        None => (which == "all").then(registry),
    };
    gate(&params, &which, studies)?;
    Ok(Command::Run(which, format, params))
}

/// A usage error: the message, then the usage text, and exit 1.
fn usage(message: &str) -> ExitCode {
    stderr_line(format_args!("repro: {message}"));
    stderr_line(USAGE);
    ExitCode::FAILURE
}

/// Why a run ended without its whole output: the study failed, or
/// stdout could not take the report.
enum Failure {
    Sim(SimError),
    Output(io::Error),
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        Failure::Output(e)
    }
}

/// The exit status for a failure: the [`SimError`] variant's code, or
/// [`OUTPUT_FAILED`]. A reader that went away (`repro … | head`) ends
/// the run quietly; any other write error is reported.
fn exit_with(failure: Failure) -> ExitCode {
    match failure {
        Failure::Sim(e) => {
            stderr_line(format_args!("repro: {e}"));
            ExitCode::from(e.exit_code())
        }
        Failure::Output(e) => {
            if e.kind() != io::ErrorKind::BrokenPipe {
                stderr_line(format_args!("repro: writing the report: {e}"));
            }
            ExitCode::from(OUTPUT_FAILED)
        }
    }
}

fn print_report(out: &mut impl Write, report: &Report, format: Format) -> io::Result<()> {
    match format {
        Format::Text => writeln!(out, "{}", report.to_text()),
        Format::Json => out.write_all(report.to_json().as_bytes()),
        Format::Csv => out.write_all(report.to_csv().as_bytes()),
    }
}

fn emit(
    out: &mut impl Write,
    study: &Study,
    params: &StudyParams,
    format: Format,
) -> Result<(), Failure> {
    let report = study.run(params).map_err(Failure::Sim)?;
    print_report(out, &report, format)?;
    Ok(())
}

/// Every study in registry order: text reports under a rule line each,
/// JSON ones as one array, CSV ones a blank line apart.
fn run_all(out: &mut impl Write, params: &StudyParams, format: Format) -> Result<(), Failure> {
    const RULE: &str = "================================================================\n";
    let (open, between, close) = match format {
        Format::Text => (RULE, &format!("\n{RULE}")[..], "\n"),
        Format::Json => ("[", ",", "]\n"),
        Format::Csv => ("", "\n", ""),
    };
    write!(out, "{open}")?;
    for (i, study) in registry().iter().enumerate() {
        if i > 0 {
            write!(out, "{between}")?;
        }
        emit(out, study, params, format)?;
    }
    write!(out, "{close}")?;
    Ok(())
}

/// `repro submit`: send one grid study to a server, reassemble the
/// streamed points, and print output byte-identical to a local run.
fn submit_main(args: &[String]) -> ExitCode {
    let mut study: Option<String> = None;
    let mut addr = DEFAULT_ADDR.to_string();
    let mut format = Format::Text;
    let mut retry = true;
    let mut params = StudyParams::default();
    let mut it = args.iter();
    let usage_err = |message: String| usage(&format!("submit: {message}"));
    while let Some(a) = it.next() {
        match shared_flag(a, &mut it, &mut params, &mut format) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => return usage_err(e),
        }
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) if !v.starts_with("--") => addr = v.clone(),
                _ => return usage_err("--addr requires HOST:PORT".to_string()),
            },
            "--no-retry" => retry = false,
            other if other.starts_with("--") => {
                return usage_err(format!("unknown option: {other}"));
            }
            other if study.is_none() => study = Some(other.to_string()),
            other => return usage_err(format!("unexpected argument: {other}")),
        }
    }
    let Some(study) = study else {
        return usage_err("missing study name".to_string());
    };
    let studies = find_study(&study).map(std::slice::from_ref);
    if let Err(e) = gate(&params, &study, studies) {
        return usage_err(e);
    }
    let attempts = if retry { SUBMIT_ATTEMPTS } else { 1 };
    let outcome =
        Client::connect(&addr).and_then(|mut c| c.submit_with_retry(&study, &params, attempts));
    let printed = outcome.map_err(Failure::Sim).and_then(|outcome| {
        stderr_line(format_args!(
            "repro: job {}: {} computed, {} cached, {} coalesced, {} failed",
            outcome.job, outcome.computed, outcome.cached, outcome.coalesced, outcome.failed
        ));
        let mut out = io::stdout().lock();
        Ok(print_report(&mut out, &outcome.report, format)?)
    });
    printed.map_or_else(exit_with, |()| ExitCode::SUCCESS)
}

/// `repro shutdown`: ask a running server to exit through the protocol
/// — immediately, or with `--drain` after finishing in-flight work.
fn shutdown_main(args: &[String]) -> ExitCode {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut mode = ShutdownMode::Immediate;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) if !v.starts_with("--") => addr = v.clone(),
                _ => return usage("shutdown: --addr requires HOST:PORT"),
            },
            "--drain" => mode = ShutdownMode::Drain,
            other => return usage(&format!("shutdown: unexpected argument: {other}")),
        }
    }
    if let Err(e) = Client::connect(&addr).and_then(|mut c| c.shutdown(mode)) {
        return exit_with(Failure::Sim(e));
    }
    let how = match mode {
        ShutdownMode::Immediate => "shutting down",
        ShutdownMode::Drain => "draining",
    };
    stderr_line(format_args!("repro: server at {addr} {how}"));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("submit") => return submit_main(&args[1..]),
        Some("shutdown") => return shutdown_main(&args[1..]),
        _ => {}
    }
    let command = match parse_args(&args) {
        Ok(command) => command,
        Err(message) => return usage(&message),
    };
    let mut out = io::stdout().lock();
    let run = match command {
        Command::List => registry().iter().try_for_each(|study| {
            writeln!(out, "{:<8} {}", study.name(), study.description()).map_err(Failure::from)
        }),
        Command::Run(which, format, params) => match find_study(&which) {
            Some(study) => emit(&mut out, study, &params, format),
            None => run_all(&mut out, &params, format),
        },
    };
    // Each SimError variant exits with its own code (3..=10) so scripts
    // — and the CI resume smoke test, which expects 8 for
    // interrupted-at-checkpoint — can branch on the failure class.
    run.and_then(|()| Ok(out.flush()?))
        .map_or_else(exit_with, |()| ExitCode::SUCCESS)
}
