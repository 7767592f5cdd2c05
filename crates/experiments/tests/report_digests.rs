//! Byte identity as a test: every registry study's text, JSON and CSV
//! emission, and the `--list` enumeration, pinned by length and CRC-32
//! (`speedup_stacks::crc::crc32`) against the checked-in table
//! `tests/goldens/digests.txt`.
//!
//! Each study row is the stdout of `repro <study> --scale 0.05 --format
//! <f>` (`clean`), of the same run with `--deadline-cycles 1000000`
//! (`deadline1m`, which degrades fig1, fig4–fig7 and the scaling study;
//! every fig7 point fails), or of `repro <study> --format <f>` at the
//! default parameters (`default`). The `--list` row is the stdout of
//! `repro --list`. The default rows take about 12 s of release work, so
//! their test is `#[ignore]`d and CI runs it in release:
//! `cargo test --release -p experiments --test report_digests -- --ignored`.
//! The text goldens stay the readable diff; this table covers the other
//! two formats, the degraded reports and the full-scale figures. On a
//! mismatch the test prints the actual rows it checked: an intended byte
//! change re-pins by copying them over their rows of the file.

use experiments::study::{registry, StudyParams};
use speedup_stacks::crc::crc32;

fn table_path() -> String {
    format!("{}/tests/goldens/digests.txt", env!("CARGO_MANIFEST_DIR"))
}

fn row(study: &str, set: &str, format: &str, bytes: &str) -> String {
    format!(
        "{study}\t{set}\t{format}\t{}\t{:08x}\n",
        bytes.len(),
        crc32(bytes.as_bytes())
    )
}

/// The current build's rows for the parameter sets `sets` (the `--list`
/// row is the set `-`), in the checked-in order.
fn actual_rows(sets: &[&str]) -> String {
    let clean = StudyParams::with_scale(0.05);
    let mut deadline = clean.clone();
    deadline.faults.deadline_cycles = Some(1_000_000);
    let default = StudyParams::default();
    let params = [
        ("clean", &clean),
        ("deadline1m", &deadline),
        ("default", &default),
    ];
    let mut rows = String::new();
    for study in registry() {
        for (set, params) in params.iter().filter(|(set, _)| sets.contains(set)) {
            let report = study
                .run(params)
                .unwrap_or_else(|e| panic!("{} {set}: {e}", study.name()));
            // `repro` appends a newline to the text form only.
            let text = format!("{}\n", report.to_text());
            for (format, bytes) in [
                ("text", text),
                ("json", report.to_json()),
                ("csv", report.to_csv()),
            ] {
                rows.push_str(&row(study.name(), set, format, &bytes));
            }
        }
    }
    if sets.contains(&"-") {
        let list: String = registry()
            .iter()
            .map(|s| format!("{:<8} {}\n", s.name(), s.description()))
            .collect();
        rows.push_str(&row("--list", "-", "text", &list));
    }
    rows
}

/// Checks the pinned rows of `sets`, in file order, against the current
/// build's.
fn check(sets: &[&str]) {
    let path = table_path();
    let table = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let pinned: String = table
        .lines()
        .skip(1)
        .filter(|line| sets.contains(&line.split('\t').nth(1).unwrap_or("")))
        .map(|line| format!("{line}\n"))
        .collect();
    let actual = actual_rows(sets);
    if actual != pinned {
        let moved: Vec<&str> = actual
            .lines()
            .filter(|row| !pinned.lines().any(|p| p == *row))
            .collect();
        panic!(
            "bytes moved in {} row(s):\n{}\n\nthe actual rows (copy them over \
             their rows of {path} to re-pin an intended change):\n{actual}",
            moved.len(),
            moved.join("\n")
        );
    }
}

#[test]
fn every_study_emits_its_pinned_bytes() {
    check(&["clean", "deadline1m", "-"]);
}

#[test]
#[ignore = "about 12 s of release work; CI runs it with --release -- --ignored"]
fn every_study_emits_its_pinned_bytes_at_the_default_parameters() {
    check(&["default"]);
}
