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
use speedup_stacks::crc::crc32;
use speedup_stacks::error::TraceError;
use speedup_stacks::SimError;
use workloads::trace::decode_uvarint;
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
    // Every replay stream owns its file handle and its chunk buffer, so
    // two workers replaying different runs of one trace at once change
    // nothing. JSON and CSV echo the parallelism parameter, so they are
    // compared with a generated run under the same one; text (no echo)
    // equals the serial run's outright.
    let two_workers = StudyParams {
        parallelism: Parallelism::Workers(2),
        ..base.clone()
    };
    let parallel = study
        .run(&with_trace(&two_workers, &spath, true))
        .expect("parallel replay run");
    assert_eq!(parallel.to_text(), clean.to_text());
    let generated = study.run(&two_workers).expect("parallel generated run");
    assert_eq!(parallel.to_json(), generated.to_json());
    assert_eq!(parallel.to_csv(), generated.to_csv());
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

/// Overwrites the middle of a chunk of the last captured run (fig1's
/// 4-thread point of its last benchmark) with bytes no op decodes from,
/// then recomputes the chunk's checksum: damage only a crafted file
/// carries, which gets past the CRC and stops the op decoder mid-chunk.
fn damage_mid_chunk_behind_valid_crc(bytes: &mut [u8]) {
    let frame_at = |bytes: &[u8], at: usize| {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        at + 8..at + 8 + len
    };
    // Walk the run-info frames to the last run's first section.
    let mut pos = frame_at(bytes, 12).end;
    let mut section = 0;
    while pos < bytes.len() {
        assert_eq!(bytes[pos], b'R');
        let info = frame_at(bytes, pos + 1);
        section = info.end;
        let info = &bytes[info];
        let mut ip = 0;
        ip += decode_uvarint(info, &mut ip).unwrap() as usize; // name
        let n_threads = decode_uvarint(info, &mut ip).unwrap();
        let section_bytes: u64 = (0..n_threads)
            .map(|_| decode_uvarint(info, &mut ip).unwrap())
            .sum();
        pos = section + section_bytes as usize;
    }
    assert_eq!(bytes[section], b'C');
    let payload = frame_at(bytes, section + 1);
    assert!(payload.len() > 64, "chunk too small to damage mid-way");
    // Twelve 0xff bytes are an unknown tag or an overlong varint,
    // whichever the decoder is expecting when it gets there.
    let mid = payload.start + payload.len() / 2;
    bytes[mid..mid + 12].fill(0xff);
    let crc = crc32(&bytes[payload]);
    bytes[section + 5..section + 9].copy_from_slice(&crc.to_le_bytes());
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

    // The same file, damaged mid-chunk behind a valid checksum instead:
    // thread 0 of a 4-thread run delivers the ops before the damage and
    // then ends, starving the barrier its siblings wait at. The study
    // must still fail with the trace diagnosis (`SimError::Trace`, exit
    // code 9) — the parked decode error, not the engine's deadlock.
    bytes[last] ^= 0x40; // undo the flip
    damage_mid_chunk_behind_valid_crc(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();
    let e = replay_error(&spath);
    let TraceError::Corrupt { what } = &e else {
        panic!("expected Corrupt, got {e:?}");
    };
    assert!(
        what.contains("unknown op tag") || what.contains("varint overflows"),
        "the op decoder, not the checksum, must have caught it: {what}"
    );
    assert_eq!(SimError::Trace(e).exit_code(), 9);
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
