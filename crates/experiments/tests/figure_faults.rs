//! The small figures under faults: fig2, fig3, fig7, fig8, fig9 and
//! `regions` honor the fault policy like every grid study. With a
//! deadline below every single-thread reference, each failed unit is a
//! typed outcome — a `Degraded` block naming exactly the failed points,
//! or, for `regions` (one run, no report without it), a
//! `SimError::Engine` — never a panic and never a clean report. The
//! retry budget shows in the attempts, and a degraded report is the same
//! serially and on three workers.

use experiments::study::{find_study, StudyParams};
use experiments::{FaultPolicy, Parallelism};
use speedup_stacks::report::{Block, Degraded};
use speedup_stacks::{Report, SimError};

fn params(retries: u32, parallelism: Parallelism) -> StudyParams {
    StudyParams {
        parallelism,
        faults: FaultPolicy {
            deadline_cycles: Some(10),
            retries,
        },
        ..StudyParams::with_scale(0.02)
    }
}

fn run(study: &str, params: &StudyParams) -> Result<Report, SimError> {
    find_study(study).expect("registered").run(params)
}

fn degraded(report: &Report) -> &Degraded {
    let blocks = report.blocks.iter().filter_map(|b| match b {
        Block::Degraded(d) => Some(d),
        _ => None,
    });
    let found: Vec<&Degraded> = blocks.collect();
    assert_eq!(found.len(), 1, "{}: one Degraded block", report.study);
    found[0]
}

/// Every point of each study, by its `Degraded` label.
fn expected_labels(study: &str) -> Vec<String> {
    match study {
        "fig2" => vec!["facesim_medium x16".into()],
        "fig3" => vec!["cholesky x4".into()],
        "fig7" => [
            (2, 2),
            (4, 4),
            (8, 8),
            (16, 16),
            (2, 16),
            (4, 16),
            (8, 16),
            (16, 16),
        ]
        .iter()
        .map(|(cores, threads)| format!("ferret_small x{threads} on {cores} cores"))
        .collect(),
        "fig8" => [
            "cholesky",
            "lu.cont",
            "canneal_small",
            "canneal_medium",
            "bfs",
            "lu.ncont",
            "needle",
        ]
        .iter()
        .map(|name| format!("{name} x16"))
        .collect(),
        "fig9" => [2, 4, 8, 16]
            .iter()
            .map(|mib| format!("cholesky x16 {mib}MB"))
            .collect(),
        other => unreachable!("{other}"),
    }
}

#[test]
fn a_deadline_below_every_reference_degrades_every_point() {
    for study in ["fig2", "fig3", "fig7", "fig8", "fig9"] {
        for retries in [0, 2] {
            let report = run(study, &params(retries, Parallelism::Serial))
                .unwrap_or_else(|e| panic!("{study}: point faults degrade the report: {e}"));
            let d = degraded(&report);
            let labels: Vec<&str> = d.failed.iter().map(|f| f.label.as_str()).collect();
            assert_eq!(labels, expected_labels(study), "{study}");
            assert_eq!(d.total_points, labels.len(), "{study}");
            assert_eq!((d.completed, d.retried), (0, 0), "{study}");
            for f in &d.failed {
                assert!(
                    f.reason.starts_with("single-thread reference failed: ")
                        && f.reason.contains("deadline exceeded"),
                    "{study}: {}",
                    f.reason
                );
                assert_eq!(f.attempts, retries + 1, "{study}: {}", f.label);
            }
            // Degradation is never silent in any format.
            assert!(report.to_text().contains(&d.failed[0].label), "{study}");
            assert!(report.to_json().contains("\"degraded\""), "{study}");
        }
    }
}

#[test]
fn a_failed_regions_run_is_a_typed_engine_error() {
    for retries in [0, 2] {
        match run("regions", &params(retries, Parallelism::Serial)) {
            Err(SimError::Engine { what }) => {
                assert!(what.contains("deadline exceeded"), "{what}");
            }
            other => panic!("regions under a 10-cycle deadline: {other:?}"),
        }
    }
}

#[test]
fn degraded_reports_are_the_same_serially_and_on_three_workers() {
    for study in ["fig7", "fig8", "fig9"] {
        let serial = run(study, &params(1, Parallelism::Serial)).expect("degrades");
        let three = run(study, &params(1, Parallelism::Workers(3))).expect("degrades");
        assert_eq!(serial.to_text(), three.to_text(), "{study}");
    }
}

#[test]
fn a_generous_deadline_changes_nothing() {
    for study in ["fig2", "fig3", "fig7", "fig8", "fig9", "regions"] {
        let mut generous = params(0, Parallelism::Serial);
        generous.faults.deadline_cycles = Some(u64::MAX / 2);
        let clean = StudyParams {
            parallelism: Parallelism::Serial,
            ..StudyParams::with_scale(0.02)
        };
        let a = run(study, &generous).expect("clean run");
        let b = run(study, &clean).expect("clean run");
        assert_eq!(a.to_json(), b.to_json(), "{study}");
    }
}
