//! Adversarial corruption tests for the trace capture/replay path,
//! mirroring the journal fault-injection suite:
//!
//! - a captured study replays **bit-identical** in every emitter (the
//!   capture report carries a provenance block; the replayed report
//!   carries nothing extra and matches the generated run byte for byte);
//! - each corruption class — truncated tail, bit-flipped record, wrong
//!   format version, wrong parameter fingerprint — is rejected with its
//!   own typed [`speedup_stacks::error::TraceError`] reason (distinct
//!   messages, distinct diagnoses), never a panic and never a silently
//!   wrong replay;
//! - the committed golden traces replay through the sweep to the exact
//!   rows a generated run produces.

use std::path::PathBuf;

use experiments::study::{find_study, StudyParams};
use experiments::{
    run_grid_ft, scaled_profile, FaultPolicy, Parallelism, RunOptions, SweepOptions, TraceSpec,
};
use speedup_stacks::error::TraceError;
use speedup_stacks::SimError;
use workloads::{find, Suite};

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("repro-trace-{}-{tag}.sstrace", std::process::id()))
}

/// Small fig1 parameters shared by the trace tests (the same shape the
/// journal fault suite uses: 3 benchmarks × 2 counts).
fn small_fig1_params() -> StudyParams {
    StudyParams {
        threads: Some(vec![2, 4]),
        parallelism: Parallelism::Serial,
        ..StudyParams::with_scale(0.02)
    }
}

fn with_trace(base: &StudyParams, path: &str, replay: bool) -> StudyParams {
    StudyParams {
        trace: Some(TraceSpec {
            path: path.to_string(),
            replay,
        }),
        ..base.clone()
    }
}

/// Captures `small_fig1_params` to `path` and returns the capture
/// report's text (callers reuse the file for corruption).
fn capture_fig1(path: &str) -> String {
    let study = find_study("fig1").unwrap();
    let report = study
        .run(&with_trace(&small_fig1_params(), path, false))
        .expect("capture run");
    report.to_text()
}

/// Replays `path` and returns the typed trace error the study run must
/// fail with.
fn replay_error(path: &str) -> TraceError {
    replay_error_params(&small_fig1_params(), path)
}

fn replay_error_params(base: &StudyParams, path: &str) -> TraceError {
    let study = find_study("fig1").unwrap();
    match study.run(&with_trace(base, path, true)) {
        Err(SimError::Trace(e)) => e,
        Ok(_) => panic!("replay of a damaged trace succeeded"),
        Err(other) => panic!("expected SimError::Trace, got {other:?}"),
    }
}

#[test]
fn captured_study_replays_bit_identically_with_provenance_only_on_capture() {
    let study = find_study("fig1").unwrap();
    let base = small_fig1_params();
    let clean = study.run(&base).expect("generated run");

    let path = tmp("identity");
    let spath = path.to_string_lossy().to_string();
    let captured = study
        .run(&with_trace(&base, &spath, false))
        .expect("capture run");
    // The capture report names its trace file in a provenance block …
    let cap_text = captured.to_text();
    assert!(
        cap_text.contains(&format!("trace captured: {spath}")),
        "{cap_text}"
    );
    assert!(captured.to_json().contains("\"kind\": \"provenance\""));
    assert!(captured.to_csv().contains("provenance,trace-capture"));

    // … and the replay carries nothing extra: byte-identical to the
    // generated run in every emitter.
    let replayed = study
        .run(&with_trace(&base, &spath, true))
        .expect("replay run");
    assert_eq!(replayed.to_text(), clean.to_text());
    assert_eq!(replayed.to_json(), clean.to_json());
    assert_eq!(replayed.to_csv(), clean.to_csv());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn truncated_tail_is_rejected_as_truncated() {
    let path = tmp("truncate");
    let spath = path.to_string_lossy().to_string();
    capture_fig1(&spath);
    // Chop the artifact a mid-write kill leaves: the final section now
    // ends before its declared length.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
    let e = replay_error(&spath);
    assert!(matches!(e, TraceError::Truncated { .. }), "{e:?}");
    assert!(e.to_string().contains("truncated"), "{e}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bit_flipped_record_is_rejected_as_corrupt() {
    let path = tmp("bitflip");
    let spath = path.to_string_lossy().to_string();
    capture_fig1(&spath);
    // Flip one bit inside the final chunk's payload: the file still
    // indexes cleanly (lengths are intact) but the chunk CRC no longer
    // matches when the replay reaches it.
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    let e = replay_error(&spath);
    assert!(matches!(e, TraceError::Corrupt { .. }), "{e:?}");
    assert!(e.to_string().contains("corrupt"), "{e}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wrong_format_version_is_rejected_as_version_mismatch() {
    let path = tmp("version");
    let spath = path.to_string_lossy().to_string();
    capture_fig1(&spath);
    // Patch the version field (bytes 8..12, outside the header CRC on
    // purpose — an old build must diagnose a future version cleanly).
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let e = replay_error(&spath);
    assert!(
        matches!(e, TraceError::VersionMismatch { found: 99, .. }),
        "{e:?}"
    );
    assert!(e.to_string().contains("version 99"), "{e}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wrong_params_fingerprint_is_rejected_as_params_mismatch() {
    let path = tmp("params");
    let spath = path.to_string_lossy().to_string();
    capture_fig1(&spath);
    // Same study, different parameters: replaying this trace under a
    // different scale would silently fabricate results — the fingerprint
    // in the header must catch it at open.
    let other = StudyParams {
        scale: 0.03,
        ..small_fig1_params()
    };
    let e = replay_error_params(&other, &spath);
    assert!(matches!(e, TraceError::ParamsMismatch { .. }), "{e:?}");
    assert!(e.to_string().contains("different parameters"), "{e}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corruption_classes_have_distinct_messages() {
    // One trace, four damages — four *different* diagnoses. A shared
    // "trace bad" message would hide which recovery applies (re-capture
    // vs version upgrade vs fixing the parameters).
    let messages = [
        TraceError::Truncated {
            what: "run 'x' thread 0 section".into(),
        }
        .to_string(),
        TraceError::Corrupt {
            what: "run 'x' thread 0 checksum mismatch".into(),
        }
        .to_string(),
        TraceError::VersionMismatch {
            found: 99,
            supported: 1,
        }
        .to_string(),
        TraceError::ParamsMismatch {
            trace: "aaaaaaaa".into(),
            requested: "bbbbbbbb".into(),
        }
        .to_string(),
    ];
    for (i, a) in messages.iter().enumerate() {
        for b in &messages[i + 1..] {
            assert_ne!(a, b);
        }
    }
}

#[test]
fn missing_trace_file_is_a_typed_io_error_not_a_panic() {
    let e = replay_error("/nonexistent/never/fig1.sstrace");
    assert!(matches!(e, TraceError::Io { op: "open", .. }), "{e:?}");
}

#[test]
fn golden_traces_replay_to_the_generated_rows() {
    // The committed golden fixtures (see workloads/tests/goldens/) drive
    // the sweep itself: a replayed grid must produce exactly the rows a
    // generated grid produces.
    let goldens = [
        (
            "blackscholes",
            Suite::ParsecSmall,
            "blackscholes_small.sstrace",
        ),
        ("cholesky", Suite::Splash2, "cholesky.sstrace"),
    ];
    for (name, suite, file) in goldens {
        let profile = scaled_profile(&find(name, suite).unwrap(), 0.05);
        let profiles = vec![profile];
        let mk = |_: &workloads::WorkloadProfile, n: usize| RunOptions::symmetric(n);
        let path = format!(
            "{}/../workloads/tests/goldens/{file}",
            env!("CARGO_MANIFEST_DIR")
        );
        let spec = TraceSpec { path, replay: true };
        let replay_sweep = SweepOptions {
            trace: Some(&spec),
            fingerprint: "golden-v1",
            ..SweepOptions::plain(Parallelism::Serial, FaultPolicy::default(), "golden")
        };
        let replayed = run_grid_ft(&profiles, &[2], &mk, &replay_sweep)
            .unwrap_or_else(|e| panic!("{file}: golden replay failed: {e}"));
        let generated = run_grid_ft(
            &profiles,
            &[2],
            &mk,
            &SweepOptions::plain(Parallelism::Serial, FaultPolicy::default(), "golden"),
        )
        .unwrap();
        assert!(!replayed.degraded.is_degraded(), "{file}");
        assert!(
            replayed.provenance.is_none(),
            "replay attaches no provenance"
        );
        assert_eq!(replayed.points, generated.points, "{file}");
    }
}
