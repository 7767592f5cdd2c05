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
//! Fault tolerance: `--retries` re-attempts a failed grid point (bounded,
//! backoff-free; default 0), `--deadline-cycles` arms a cooperative
//! per-point deadline in simulated cycles, and failed points degrade the
//! report instead of aborting the sweep. `--journal PATH` appends each
//! completed point to a crash-safe checkpoint file; after a crash or an
//! exhausted `--max-points` budget (exit code 8), `--resume PATH` skips
//! the journaled points, quarantines corrupt records, and finishes the
//! grid — the resumed report is bit-identical to an uninterrupted run.
//! Journaling is supported by the grid studies (`fig1`, `fig4`, `fig5`,
//! `fig6`).
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
//! deterministic-jitter backoff honoring its `retry-after-ms` hint;
//! `--no-retry` fails fast instead. `repro shutdown --drain` stops
//! admission, lets in-flight jobs finish, flushes the spill, and exits 0.
//!
//! Exit codes: 0 success, 1 usage error, then one per
//! [`SimError`] variant — 3 config, 4 stack, 5 journal, 7 engine,
//! 8 interrupted-at-checkpoint, 9 trace, 10 protocol/service (6 is
//! retired: a failed point degrades the report, exit 0).

use std::process::ExitCode;

use experiments::decompose::decompose;
use experiments::study::{find_study, registry, Study, StudyParams};
use experiments::JournalSpec;
use experiments::MemConfig;
use experiments::Parallelism;
use experiments::TraceSpec;
use service::client::{Client, RetryPolicy};
use speedup_stacks::SimError;

const USAGE: &str = "usage: repro <fig1..fig9|hwcost|regions|scaling|all> [--scale F] \
[--format text|json|csv] [--threads N[,N...]] [--parallelism auto|serial|N] [--llc-mib N]\n   \
        [--retries N] [--deadline-cycles N] [--max-points N] [--journal PATH | --resume PATH]\n   \
        [--trace-out PATH | --trace-in PATH]\n   \
or: repro --list\n   \
or: repro submit <study> [--addr HOST:PORT] [--scale F] [--threads N[,N...]] [--llc-mib N]\n   \
        [--format text|json|csv] [--no-retry]\n   \
or: repro shutdown [--addr HOST:PORT] [--drain]";

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
    Run { which: String, format: Format },
}

struct Cli {
    command: Command,
    params: StudyParams,
}

fn parse_threads(spec: &str) -> Result<Vec<usize>, String> {
    let counts: Result<Vec<usize>, _> = spec.split(',').map(str::parse::<usize>).collect();
    match counts {
        Ok(c) if !c.is_empty() && c.iter().all(|&n| n >= 1) => Ok(c),
        _ => Err(format!(
            "--threads requires a comma-separated list of counts >= 1, got '{spec}'"
        )),
    }
}

/// Parses one of the flags a local run and `repro submit` share
/// (`--scale`, `--threads`, `--llc-mib`, `--format`), taking its value
/// from `it`. `Ok(false)` when `flag` is none of them.
fn shared_flag(
    flag: &str,
    it: &mut std::slice::Iter<'_, String>,
    params: &mut StudyParams,
    format: &mut Format,
) -> Result<bool, String> {
    match flag {
        "--scale" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
            Some(v) if v.is_finite() && v > 0.0 => params.scale = v,
            _ => return Err("--scale requires a positive finite number".to_string()),
        },
        "--threads" => match it.next() {
            Some(spec) => params.threads = Some(parse_threads(spec)?),
            None => return Err("--threads requires a comma-separated list".to_string()),
        },
        "--llc-mib" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
            Some(0) | None => return Err("--llc-mib requires a capacity in MiB >= 1".to_string()),
            Some(mib) if mib > MemConfig::MAX_LLC_MIB => {
                return Err(format!(
                    "--llc-mib {mib} is above the {} MiB limit",
                    MemConfig::MAX_LLC_MIB
                ))
            }
            Some(mib) => params.llc_mib = Some(mib),
        },
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

fn parse_args(args: &[String]) -> Result<Cli, String> {
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
            "--parallelism" => match it.next().map(String::as_str) {
                Some("auto") => params.parallelism = Parallelism::Auto,
                Some("serial") => params.parallelism = Parallelism::Serial,
                // Zero workers is rejected here, uniformly with every other
                // bad mode, rather than silently clamped to 1 deep in the
                // pool (see `Parallelism::workers`).
                Some(n) => match n.parse::<usize>() {
                    Ok(w) if w >= 1 => params.parallelism = Parallelism::Workers(w),
                    _ => {
                        return Err(format!(
                            "--parallelism requires auto, serial or a worker count >= 1, \
                             got '{n}'"
                        ))
                    }
                },
                None => return Err("--parallelism requires a mode".to_string()),
            },
            "--retries" => match it.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(n) => params.faults.retries = n,
                None => return Err("--retries requires a non-negative count".to_string()),
            },
            "--deadline-cycles" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n >= 1 => params.faults.deadline_cycles = Some(n),
                _ => return Err("--deadline-cycles requires a cycle count >= 1".to_string()),
            },
            "--max-points" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => params.max_points = Some(n),
                _ => return Err("--max-points requires a point budget >= 1".to_string()),
            },
            "--journal" => match it.next() {
                Some(path) if !path.starts_with("--") => {
                    journal_flags += 1;
                    params.journal = Some(JournalSpec {
                        path: path.clone(),
                        resume: false,
                    });
                }
                _ => return Err("--journal requires a file path".to_string()),
            },
            "--resume" => match it.next() {
                Some(path) if !path.starts_with("--") => {
                    journal_flags += 1;
                    params.journal = Some(JournalSpec {
                        path: path.clone(),
                        resume: true,
                    });
                }
                _ => return Err("--resume requires a journal file path".to_string()),
            },
            "--trace-out" => match it.next() {
                Some(path) if !path.starts_with("--") => {
                    trace_flags += 1;
                    params.trace = Some(TraceSpec {
                        path: path.clone(),
                        replay: false,
                    });
                }
                _ => return Err("--trace-out requires a file path".to_string()),
            },
            "--trace-in" => match it.next() {
                Some(path) if !path.starts_with("--") => {
                    trace_flags += 1;
                    params.trace = Some(TraceSpec {
                        path: path.clone(),
                        replay: true,
                    });
                }
                _ => return Err("--trace-in requires a trace file path".to_string()),
            },
            other if other.starts_with("--") => {
                return Err(format!("unknown option: {other}"));
            }
            other if which.is_none() => which = Some(other.to_string()),
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    if list {
        return Ok(Cli {
            command: Command::List,
            params,
        });
    }
    let Some(which) = which else {
        return Err("missing experiment name".to_string());
    };
    if which != "all" && find_study(&which).is_none() {
        return Err(format!("unknown experiment: {which}"));
    }
    // Journaling, budgets and traces belong to the grid sweep.
    let grid = decompose(&which, &params).is_some();
    if journal_flags > 1 {
        return Err("--journal and --resume are mutually exclusive (one journal per run)".into());
    }
    if params.journal.is_some() && !grid {
        return Err(format!(
            "--journal/--resume is not supported by '{which}' \
             (grid studies only: fig1, fig4, fig5, fig6)"
        ));
    }
    if trace_flags > 1 {
        return Err("--trace-out and --trace-in are mutually exclusive (one trace per run)".into());
    }
    if params.trace.is_some() && !grid {
        return Err(format!(
            "--trace-out/--trace-in is not supported by '{which}' \
             (trace-capable studies only: fig1, fig4, fig5, fig6)"
        ));
    }
    Ok(Cli {
        command: Command::Run { which, format },
        params,
    })
}

fn print_report(report: &speedup_stacks::report::Report, format: Format) {
    match format {
        Format::Text => println!("{}", report.to_text()),
        Format::Json => print!("{}", report.to_json()),
        Format::Csv => print!("{}", report.to_csv()),
    }
}

fn emit(study: &dyn Study, params: &StudyParams, format: Format) -> Result<(), SimError> {
    let report = study.run(params)?;
    print_report(&report, format);
    Ok(())
}

fn run_all(params: &StudyParams, format: Format) -> Result<(), SimError> {
    match format {
        Format::Text => {
            for study in registry() {
                println!("================================================================");
                emit(*study, params, format)?;
                println!();
            }
        }
        Format::Json => {
            print!("[");
            for (i, study) in registry().iter().enumerate() {
                if i > 0 {
                    print!(",");
                }
                emit(*study, params, format)?;
            }
            println!("]");
        }
        Format::Csv => {
            for (i, study) in registry().iter().enumerate() {
                if i > 0 {
                    println!();
                }
                emit(*study, params, format)?;
            }
        }
    }
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
    let usage_err = |message: String| {
        eprintln!("repro: submit: {message}");
        eprintln!("{USAGE}");
        ExitCode::FAILURE
    };
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
    if find_study(&study).is_none() {
        return usage_err(format!("unknown experiment: {study}"));
    }
    let policy = if retry {
        RetryPolicy::default()
    } else {
        RetryPolicy::none()
    };
    let outcome =
        Client::connect(&addr).and_then(|mut c| c.submit_with_retry(&study, &params, &policy));
    match outcome {
        Ok(outcome) => {
            eprintln!(
                "repro: job {}: {} computed, {} cached, {} coalesced, {} failed",
                outcome.job, outcome.computed, outcome.cached, outcome.coalesced, outcome.failed
            );
            print_report(&outcome.report, format);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("repro: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

/// `repro shutdown`: ask a running server to exit through the protocol
/// — immediately, or with `--drain` after finishing in-flight work.
fn shutdown_main(args: &[String]) -> ExitCode {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut drain = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) if !v.starts_with("--") => addr = v.clone(),
                _ => {
                    eprintln!("repro: shutdown: --addr requires HOST:PORT");
                    eprintln!("{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--drain" => drain = true,
            other => {
                eprintln!("repro: shutdown: unexpected argument: {other}");
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let outcome = Client::connect(&addr).and_then(|mut c| {
        if drain {
            c.shutdown_drain()
        } else {
            c.shutdown()
        }
    });
    match outcome {
        Ok(()) => {
            let how = if drain { "draining" } else { "shutting down" };
            eprintln!("repro: server at {addr} {how}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("repro: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("submit") => return submit_main(&args[1..]),
        Some("shutdown") => return shutdown_main(&args[1..]),
        _ => {}
    }
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("repro: {message}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let run = match cli.command {
        Command::List => {
            for study in registry() {
                println!("{:<8} {}", study.name(), study.description());
            }
            Ok(())
        }
        Command::Run { which, format } => {
            if which == "all" {
                run_all(&cli.params, format)
            } else {
                let study = find_study(&which).expect("validated in parse_args");
                emit(study, &cli.params, format)
            }
        }
    };
    match run {
        Ok(()) => ExitCode::SUCCESS,
        // Each SimError variant exits with its own code (3..=10) so
        // scripts — and the CI resume smoke test, which expects 8 for
        // interrupted-at-checkpoint — can branch on the failure class.
        Err(e) => {
            eprintln!("repro: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
