//! Adversarial fault-injection tests for the fault-tolerant sweep path:
//!
//! - an injected per-point panic is confined to its grid point and the
//!   `Degraded` block reports *exactly* the injected fault in all three
//!   emitters (text, JSON, CSV);
//! - a cooperative deadline overrun degrades the study report instead of
//!   aborting it;
//! - a journaled sweep killed by an exhausted point budget (the CI
//!   kill-emulation) resumes to a report bit-identical to the
//!   uninterrupted run;
//! - a journal with a truncated final line (mid-write kill artifact)
//!   resumes silently and bit-identically;
//! - a bit-flipped journal record is quarantined (checksum mismatch),
//!   recomputed, and loudly reported — never silently trusted.

use std::path::PathBuf;

use experiments::decompose::GridFold;
use experiments::graph::UnitGraph;
use experiments::par::run_units;
use experiments::runner::point_label;
use experiments::study::{find_study, StudyParams};
use experiments::{
    run_profile, scaled_profile, single_thread_reference, FaultPolicy, JournalSpec, Parallelism,
    PointSummary, RunOptions,
};
use speedup_stacks::report::{json, Block, Report};
use speedup_stacks::SimError;
use workloads::{display_name, find, Suite};

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("repro-fault-{}-{tag}.ndjson", std::process::id()))
}

/// Small fig1 parameters shared by the journal tests: 3 benchmarks x 2
/// counts = 6 points + 3 references = 9 compute units.
fn small_fig1_params() -> StudyParams {
    StudyParams {
        threads: Some(vec![2, 4]),
        parallelism: Parallelism::Serial,
        ..StudyParams::with_scale(0.02)
    }
}

#[test]
fn injected_panic_degrades_only_its_point_and_every_emitter_reports_it() {
    let p = scaled_profile(&find("blackscholes", Suite::ParsecSmall).unwrap(), 0.05);
    let name = display_name(&p);
    let counts = [2, 4];
    for mode in [Parallelism::Serial, Parallelism::Workers(3)] {
        // Panic-on-index injection: the 4-thread point explodes inside
        // its unit body; the 2-thread point and the reference must
        // survive.
        let mut graph = UnitGraph::grid(1, counts.len());
        (0..counts.len()).for_each(|i| graph.add_point(i));
        let mut fold = GridFold::new(counts.len());
        run_units(
            &mut graph,
            mode,
            0,
            |_| single_thread_reference(&p, &RunOptions::symmetric(1)).map_err(|e| e.to_string()),
            |i, st| {
                if counts[i] == 4 {
                    panic!("injected fault in {name} at 4 threads");
                }
                run_profile(&p, &RunOptions::symmetric(counts[i]), Some(st[0]))
                    .map(PointSummary::from)
                    .map_err(|e| e.to_string())
            },
            |i, outcome, attempts| match outcome {
                Ok(summary) => fold.point(i, summary, attempts),
                Err(reason) => fold.failed(i, point_label(&name, counts[i]), reason, attempts),
            },
        );
        let (points, degraded) = fold.into_parts(0);
        assert!(points[0].is_some(), "healthy point lost");
        assert!(points[1].is_none(), "faulted point produced data");
        assert_eq!(degraded.completed, 1);
        assert_eq!(degraded.failed.len(), 1, "exactly the injected fault");
        let f = &degraded.failed[0];
        assert!(f.label.ends_with("x4"), "wrong label: {}", f.label);
        assert!(
            f.reason.contains("injected fault") && f.reason.contains("at 4 threads"),
            "reason lost the panic payload: {}",
            f.reason
        );
        assert_eq!(f.attempts, 1);

        // All three emitters must surface the degradation.
        let mut report = Report::new("test", "fault injection");
        report.push(Block::Degraded(degraded.clone()));
        let text = report.to_text();
        assert!(
            text.contains(
                "degraded run: 1/2 points completed (1 failed, 0 retried, 0 quarantined)"
            ),
            "{text}"
        );
        assert!(text.contains("injected fault"), "{text}");
        let json_text = report.to_json();
        let doc = json::parse(&json_text).expect("valid JSON with degraded block");
        let blocks = doc.get("blocks").unwrap().as_array().unwrap();
        let degraded = blocks
            .iter()
            .find(|b| b.get("kind").and_then(|k| k.as_str()) == Some("degraded"))
            .expect("degraded block in JSON");
        let failed = degraded.get("failed").unwrap().as_array().unwrap();
        assert_eq!(failed.len(), 1);
        assert!(failed[0]
            .get("reason")
            .and_then(|r| r.as_str())
            .is_some_and(|r| r.contains("injected fault")));
        let csv = report.to_csv();
        assert!(
            csv.contains("degraded,total_points,2,completed,1,retried,0,quarantined,0"),
            "{csv}"
        );
        assert!(csv.contains("injected fault"), "{csv}");
    }
}

#[test]
fn deadline_overrun_degrades_the_study_report_instead_of_aborting() {
    let study = find_study("fig1").unwrap();
    let params = StudyParams {
        faults: FaultPolicy {
            // Orders of magnitude below any real run: every point's
            // engine aborts at this simulated cycle, deterministically.
            deadline_cycles: Some(10),
            retries: 0,
        },
        ..small_fig1_params()
    };
    let report = study.run(&params).expect("degrades, does not error");
    let text = report.to_text();
    assert!(text.contains("degraded run:"), "{text}");
    assert!(text.contains("deadline"), "{text}");
}

#[test]
fn killed_then_resumed_journaled_sweep_is_bit_identical() {
    let study = find_study("fig1").unwrap();
    let base = small_fig1_params();
    let clean = study.run(&base).expect("uninterrupted run");

    let path = tmp("resume");
    let _ = std::fs::remove_file(&path);
    let spath = path.to_string_lossy().to_string();
    // Kill emulation: a 2-unit budget checkpoints and exits mid-grid.
    match study.run(&StudyParams {
        journal: Some(JournalSpec {
            path: spath.clone(),
            resume: false,
        }),
        max_points: Some(2),
        ..base.clone()
    }) {
        Err(SimError::Interrupted { completed }) => assert!(completed <= 2),
        other => panic!("expected Interrupted, got {other:?}"),
    }
    // Keep resuming under the same tiny budget until the grid completes.
    let mut resumed = None;
    for _ in 0..16 {
        match study.run(&StudyParams {
            journal: Some(JournalSpec {
                path: spath.clone(),
                resume: true,
            }),
            max_points: Some(2),
            ..base.clone()
        }) {
            Ok(r) => {
                resumed = Some(r);
                break;
            }
            Err(SimError::Interrupted { .. }) => {}
            Err(e) => panic!("resume failed: {e}"),
        }
    }
    let resumed = resumed.expect("grid completes within 16 budgeted resumes");
    // Bit-identical in every emitter: a clean resume leaves no trace.
    assert_eq!(resumed.to_text(), clean.to_text());
    assert_eq!(resumed.to_json(), clean.to_json());
    assert_eq!(resumed.to_csv(), clean.to_csv());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn truncated_journal_tail_resumes_bit_identically() {
    let study = find_study("fig1").unwrap();
    let base = small_fig1_params();
    let clean = study.run(&base).expect("uninterrupted run");
    let journaled = |path: &str, resume: bool, max_points: Option<usize>| {
        study.run(&StudyParams {
            journal: Some(JournalSpec {
                path: path.to_string(),
                resume,
            }),
            max_points,
            ..base.clone()
        })
    };
    // Chops the final record mid-line: the artifact a kill leaves when
    // it lands inside a write. The unterminated tail must be dropped
    // silently (it is expected, not corruption) and recomputed.
    let chop_tail = |path: &PathBuf| {
        let content = std::fs::read_to_string(path).unwrap();
        assert!(content.ends_with('\n'));
        std::fs::write(path, &content[..content.len() - 9]).unwrap();
    };

    // A complete journal, torn, resumed once.
    let path = tmp("truncate");
    let _ = std::fs::remove_file(&path);
    let spath = path.to_string_lossy().to_string();
    journaled(&spath, false, None).expect("journaled run");
    chop_tail(&path);
    let resumed = journaled(&spath, true, None).expect("resume over truncated tail");
    assert_eq!(resumed.to_text(), clean.to_text());
    assert_eq!(resumed.to_json(), clean.to_json());
    let _ = std::fs::remove_file(&path);

    // A journal killed mid-grid with a torn tail, resumed twice: the
    // first resume's appends must start a fresh line, not complete the
    // torn one into a corrupt record the second resume would quarantine.
    let path = tmp("truncate-twice");
    let _ = std::fs::remove_file(&path);
    let spath = path.to_string_lossy().to_string();
    assert!(matches!(
        journaled(&spath, false, Some(4)),
        Err(SimError::Interrupted { .. })
    ));
    chop_tail(&path);
    assert!(matches!(
        journaled(&spath, true, Some(2)),
        Err(SimError::Interrupted { .. })
    ));
    let resumed = journaled(&spath, true, None).expect("second resume completes");
    assert_eq!(resumed.to_text(), clean.to_text());
    assert_eq!(resumed.to_json(), clean.to_json());
    assert_eq!(resumed.to_csv(), clean.to_csv());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bit_flipped_journal_record_is_quarantined_and_recomputed() {
    let study = find_study("fig1").unwrap();
    let base = small_fig1_params();
    let clean = study.run(&base).expect("uninterrupted run");

    let path = tmp("bitflip");
    let _ = std::fs::remove_file(&path);
    let spath = path.to_string_lossy().to_string();
    study
        .run(&StudyParams {
            journal: Some(JournalSpec {
                path: spath.clone(),
                resume: false,
            }),
            ..base.clone()
        })
        .expect("journaled run");
    // Corrupt one digit inside the last (complete) record: the line still
    // parses as a journal frame but its CRC no longer matches.
    let mut bytes = std::fs::read(&path).unwrap();
    let n = bytes.len();
    let start = bytes[..n - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    let pos = (start..n)
        .rev()
        .find(|&i| bytes[i].is_ascii_digit())
        .expect("a digit in the record");
    bytes[pos] = if bytes[pos] == b'9' {
        b'0'
    } else {
        bytes[pos] + 1
    };
    std::fs::write(&path, &bytes).unwrap();

    let resumed = study
        .run(&StudyParams {
            journal: Some(JournalSpec {
                path: spath,
                resume: true,
            }),
            ..base
        })
        .expect("resume quarantines, does not fail");
    let text = resumed.to_text();
    // The figure data is fully recomputed — every clean line survives —
    // but the quarantine is reported, never silent.
    for line in clean.to_text().lines() {
        assert!(text.contains(line), "lost clean line {line:?}:\n{text}");
    }
    assert!(text.contains("1 quarantined"), "{text}");
    let _ = std::fs::remove_file(&path);
}
