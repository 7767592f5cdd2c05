//! The many-core study under faults: its `Degraded` accounting — failure
//! order, reasons, attempts, totals — is pinned against reports captured
//! from `repro scaling --scale 0.02 --threads 1,2,4 --parallelism serial
//! --deadline-cycles N` *before* the study moved onto the shared unit
//! graph, and the whole report is byte-identical between a serial run and
//! three workers, clean and degraded.
//!
//! Two deadlines: 10 cycles fails every single-thread reference (every
//! point cascades; the rate mix reports its *first* program's failure
//! whatever order its four references finish in), 400,000 cycles lets the
//! weak references through, fails two `lud_weak` points on their own and
//! fails one rate-mix reference, which fails that series.

use experiments::study::{find_study, StudyParams};
use experiments::{FaultPolicy, Parallelism};
use speedup_stacks::Report;

fn golden(name: &str) -> String {
    let path = format!("{}/tests/goldens/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn run(deadline_cycles: Option<u64>, parallelism: Parallelism) -> Report {
    let params = StudyParams {
        threads: Some(vec![1, 2, 4]),
        parallelism,
        faults: FaultPolicy {
            deadline_cycles,
            retries: 0,
        },
        ..StudyParams::with_scale(0.02)
    };
    find_study("scaling")
        .expect("registered")
        .run(&params)
        .expect("point faults degrade the report, never the run")
}

/// `repro` prints text with `println!`, JSON and CSV with `print!`.
fn emitted(report: &Report) -> [String; 3] {
    [
        format!("{}\n", report.to_text()),
        report.to_json(),
        report.to_csv(),
    ]
}

fn check_goldens(deadline_cycles: u64, stem: &str) {
    let got = emitted(&run(Some(deadline_cycles), Parallelism::Serial));
    for (text, ext) in got.iter().zip(["txt", "json", "csv"]) {
        assert_eq!(*text, golden(&format!("{stem}.{ext}")), "{stem}.{ext}");
    }
}

#[test]
fn deadline_of_10_cycles_cascades_every_series_like_the_parent() {
    check_goldens(10, "scaling_deadline10");
}

#[test]
fn failing_rate_mix_reference_fails_its_series_like_the_parent() {
    check_goldens(400_000, "scaling_mixref400k");
}

#[test]
fn serial_equals_three_workers_clean_and_degraded() {
    for deadline in [None, Some(10), Some(400_000)] {
        let serial = emitted(&run(deadline, Parallelism::Serial));
        let three = emitted(&run(deadline, Parallelism::Workers(3)));
        assert_eq!(serial[0], three[0], "text, deadline {deadline:?}");
        // JSON and CSV echo the parallelism parameter; nothing else may
        // differ.
        assert_eq!(
            serial[1],
            three[1].replace("\"parallelism\": \"3\"", "\"parallelism\": \"serial\""),
            "json, deadline {deadline:?}"
        );
        assert_eq!(
            serial[2],
            three[2].replace("param,parallelism,3", "param,parallelism,serial"),
            "csv, deadline {deadline:?}"
        );
    }
}
