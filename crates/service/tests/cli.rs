//! End-to-end CLI tests for the `repro` binary (and `studyd`'s retired
//! flags): registry enumeration, uniform usage errors (no
//! `process::exit` bypassing `ExitCode`), and format emission from the
//! same report value.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf-8 stderr")
}

#[test]
fn list_enumerates_all_twelve_studies() {
    let out = repro(&["--list"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert_eq!(text.lines().count(), 12);
    for name in [
        "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "hwcost",
        "regions", "scaling",
    ] {
        assert!(
            text.lines().any(|l| l.starts_with(name)),
            "--list misses {name}:\n{text}"
        );
    }
}

#[test]
fn unknown_experiment_is_uniform_usage_error() {
    let out = repro(&["bogus"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("unknown experiment: bogus"), "{err}");
    assert!(err.contains("usage:"), "{err}");
    assert!(stdout(&out).is_empty());
}

#[test]
fn missing_experiment_is_usage_error() {
    let out = repro(&[]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn scale_rejects_non_finite_and_non_positive() {
    for bad in ["inf", "-inf", "NaN", "nan", "0", "-2", "abc"] {
        let out = repro(&["fig1", "--scale", bad]);
        assert_eq!(out.status.code(), Some(1), "--scale {bad} accepted");
        assert!(
            stderr(&out).contains("--scale requires a positive finite number"),
            "--scale {bad}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn bad_flags_are_usage_errors() {
    for args in [
        ["fig1", "--format", "yaml"].as_slice(),
        ["fig1", "--threads", "0"].as_slice(),
        ["fig1", "--threads", "2,x"].as_slice(),
        ["fig1", "--parallelism", "fast"].as_slice(),
        ["fig1", "--parallelism", "0"].as_slice(),
        ["fig1", "--llc-mib", "0"].as_slice(),
        ["fig1", "--retries", "x"].as_slice(),
        ["fig1", "--deadline-cycles", "0"].as_slice(),
        ["fig1", "--max-points", "0"].as_slice(),
        ["fig1", "--journal"].as_slice(),
        ["fig1", "--resume"].as_slice(),
        ["fig1", "--trace-out"].as_slice(),
        ["fig1", "--trace-in"].as_slice(),
        ["fig1", "--bogus-flag"].as_slice(),
        ["fig1", "fig2"].as_slice(),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(1), "{args:?} accepted");
        assert!(
            stderr(&out).contains("usage:"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn zero_workers_is_rejected_at_the_boundary_not_clamped() {
    // `Parallelism::workers` clamps 0 to 1 as a last resort, but the CLI
    // must reject it up front with the same uniform usage error as any
    // other bad mode.
    let out = repro(&["fig1", "--parallelism", "0"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(
        err.contains("--parallelism requires auto, serial or a worker count >= 1"),
        "{err}"
    );
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn journal_flags_are_validated_before_any_simulation() {
    // Journaling is only meaningful for the grid studies.
    for args in [
        ["hwcost", "--journal", "j.ndjson"].as_slice(),
        ["scaling", "--resume", "j.ndjson"].as_slice(),
        ["all", "--journal", "j.ndjson"].as_slice(),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(1), "{args:?} accepted");
        assert!(
            stderr(&out).contains("--journal/--resume is not supported"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
    // One journal per run: append-mode and resume-mode are exclusive.
    let out = repro(&["fig1", "--journal", "a.ndjson", "--resume", "b.ndjson"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("mutually exclusive"),
        "{}",
        stderr(&out)
    );
}

/// A journal in the name-keyed format of version 1 is refused with the
/// journal exit code, never resumed by silently recomputing it, and is
/// left as it was.
#[test]
fn resuming_a_version_1_journal_is_a_typed_journal_error() {
    use experiments::journal::{fingerprint, wrap_line};
    use experiments::study::StudyParams;
    let params = StudyParams {
        threads: Some(vec![2]),
        ..StudyParams::with_scale(0.02)
    };
    let header = format!(
        "{{\"journal\": \"repro-sweep\", \"version\": 1, \"study\": \"fig1\", \
         \"fingerprint\": \"{}\"}}",
        fingerprint("fig1", &params)
    );
    let record = "{\"kind\": \"ref\", \"profile\": \"cholesky\", \"st_cycles\": 1, \
                  \"st_instructions\": 1}";
    let bytes = wrap_line(&header) + &wrap_line(record);
    let path = std::env::temp_dir().join(format!("repro-cli-{}-v1.ndjson", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    let out = repro(&[
        "fig1",
        "--scale",
        "0.02",
        "--threads",
        "2",
        "--resume",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(5), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("journal format version 1 unsupported (this build reads version 2)"),
        "{}",
        stderr(&out)
    );
    assert!(stdout(&out).is_empty(), "a report was printed");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        bytes.as_bytes(),
        "journal touched"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn max_points_is_validated_before_any_simulation() {
    // A unit budget checkpoints the grid sweep; nothing else has one.
    for args in [
        ["hwcost", "--max-points", "3"].as_slice(),
        ["scaling", "--scale", "0.02", "--max-points", "3"].as_slice(),
        ["regions", "--max-points", "1"].as_slice(),
        ["all", "--max-points", "3"].as_slice(),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(1), "{args:?} accepted");
        let err = stderr(&out);
        assert!(
            err.contains("--max-points is not supported"),
            "{args:?}: {err}"
        );
        assert!(stdout(&out).is_empty(), "{args:?} ran");
    }
}

#[test]
fn grid_only_flags_name_the_grid_studies() {
    for flag in [
        ["--journal", "j.ndjson"],
        ["--max-points", "3"],
        ["--trace-out", "t.sstrace"],
    ] {
        let out = repro(&["fig7", flag[0], flag[1]]);
        assert_eq!(out.status.code(), Some(1), "fig7 {flag:?} accepted");
        let err = stderr(&out);
        assert!(
            err.contains("(grid studies only: fig1, fig2, fig3, fig4, fig5, fig6, fig8)"),
            "{flag:?}: {err}"
        );
    }
}

#[test]
fn trace_flags_are_validated_before_any_simulation() {
    // Tracing is only meaningful for the grid studies.
    for args in [
        ["hwcost", "--trace-out", "t.sstrace"].as_slice(),
        ["scaling", "--trace-in", "t.sstrace"].as_slice(),
        ["all", "--trace-out", "t.sstrace"].as_slice(),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(1), "{args:?} accepted");
        assert!(
            stderr(&out).contains("--trace-out/--trace-in is not supported"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
    // One trace per run: capture-mode and replay-mode are exclusive.
    let out = repro(&[
        "fig1",
        "--trace-out",
        "a.sstrace",
        "--trace-in",
        "b.sstrace",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("mutually exclusive"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn replaying_a_missing_trace_exits_with_the_trace_code() {
    let out = repro(&[
        "fig1",
        "--scale",
        "0.02",
        "--trace-in",
        "/nonexistent/never/fig1.sstrace",
    ]);
    assert_eq!(out.status.code(), Some(9), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("trace open failed"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn hwcost_text_json_and_csv_come_from_one_report() {
    let text = repro(&["hwcost"]);
    assert!(text.status.success());
    let json_out = repro(&["hwcost", "--format", "json"]);
    assert!(json_out.status.success());
    let doc = speedup_stacks::report::json::parse(&stdout(&json_out)).expect("valid JSON");
    assert_eq!(doc.get("study").unwrap().as_str(), Some("hwcost"));
    // The JSON scalar equals the number printed in the text form.
    let blocks = doc.get("blocks").unwrap().as_array().unwrap();
    let total = blocks
        .iter()
        .find(|b| b.get("name").and_then(|n| n.as_str()) == Some("total_bytes_per_core"))
        .and_then(|b| b.get("value"))
        .and_then(|v| v.as_f64())
        .expect("total_bytes_per_core scalar");
    assert!(
        stdout(&text).contains(&format!("{total:>6.0} B")),
        "text and JSON disagree on total_bytes_per_core"
    );

    let csv_out = repro(&["hwcost", "--format", "csv"]);
    assert!(csv_out.status.success());
    let csv = stdout(&csv_out);
    assert!(csv.starts_with("study,hwcost\n"), "{csv}");
    assert!(csv.contains(&format!("scalar,total_bytes_per_core,{total},bytes")));
}

#[test]
fn connection_refused_names_the_address_and_hints_studyd() {
    // Port 1 on loopback is never listening; both service subcommands
    // must turn the bare I/O error into a typed protocol failure (exit
    // 10) that names the address and points at `studyd --addr`.
    for sub in ["submit", "shutdown"] {
        let args: Vec<&str> = if sub == "submit" {
            vec!["submit", "fig1", "--addr", "127.0.0.1:1", "--no-retry"]
        } else {
            vec!["shutdown", "--addr", "127.0.0.1:1"]
        };
        let out = repro(&args);
        assert_eq!(out.status.code(), Some(10), "{sub}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(
            err.contains("127.0.0.1:1"),
            "{sub} must name the address: {err}"
        );
        assert!(
            err.contains("studyd --addr 127.0.0.1:1"),
            "{sub} must hint the fix: {err}"
        );
    }
}

#[test]
fn studyd_is_the_only_daemon_and_fleet_front_door() {
    // `repro serve` and `repro submit --fleet` are gone: `serve` is not
    // a study, and the fleet flags are unknown submit options.
    let out = repro(&["serve"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("unknown experiment: serve"));
    for flag in ["--fleet", "--no-hedge", "--no-local-fallback"] {
        let out = repro(&["submit", "fig6", flag, "127.0.0.1:1"]);
        assert_eq!(out.status.code(), Some(1), "{flag} accepted");
        let err = stderr(&out);
        assert!(err.contains(&format!("unknown option: {flag}")), "{err}");
    }
    // Nor does the coordinator refuse work when its fleet is dead: it
    // computes it itself.
    let out = Command::new(env!("CARGO_BIN_EXE_studyd"))
        .args(["--backend", "127.0.0.1:1", "--no-local-fallback"])
        .output()
        .expect("run studyd");
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("unknown option: --no-local-fallback"), "{err}");
}

#[test]
fn threads_override_reaches_the_study() {
    // hwcost sizes the CMP total by the last --threads entry.
    let out = repro(&["hwcost", "--threads", "8"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("total for 8-core CMP"));
    let json_out = repro(&["hwcost", "--threads", "8", "--format", "json"]);
    let doc = speedup_stacks::report::json::parse(&stdout(&json_out)).expect("valid JSON");
    assert_eq!(
        doc.get("params").unwrap().get("threads").unwrap().as_str(),
        Some("8")
    );
}

/// A reader that went away before the report was written (`repro … |
/// head`) ends the run quietly with 141, never a panic's 101.
#[test]
fn a_closed_stdout_ends_quietly() {
    for args in [&["hwcost"][..], &["--list"], &["fig2", "--scale", "0.01"]] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("run repro");
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(141), "{args:?}: {err}");
        assert!(err.is_empty(), "{args:?}: {err}");
    }
}

/// A stderr nobody reads loses the diagnostics and changes no exit
/// code: usage errors still exit 1, never 101 from a panicking print.
#[test]
fn a_closed_stderr_changes_no_exit_code() {
    let run = |bin: &str, args: &[&str]| {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        Command::new(bin)
            .args(args)
            .stdout(std::process::Stdio::null())
            .stderr(writer)
            .status()
            .expect("run")
            .code()
    };
    let repro = env!("CARGO_BIN_EXE_repro");
    for args in [&["fig7", "--llc-mib", "3"][..], &["nosuch"]] {
        assert_eq!(run(repro, args), Some(1), "repro {args:?}");
    }
    assert_eq!(run(env!("CARGO_BIN_EXE_studyd"), &["--bogus"]), Some(1));
}
