//! Byte identity as a test: every registry study's text, JSON and CSV
//! emission, pinned by length and CRC-32 (`speedup_stacks::crc::crc32`)
//! against the checked-in table `tests/goldens/digests.txt`.
//!
//! Each row is the stdout of `repro <study> --scale 0.05 --format <f>`
//! (`clean`) or of the same run with `--deadline-cycles 1000000`
//! (`deadline1m`, which degrades fig1, fig4–fig7 and the scaling study;
//! every fig7 point fails). The text goldens stay the readable diff;
//! this table covers the other two formats and the degraded reports. On
//! a mismatch the test prints the whole actual table: an intended byte
//! change re-pins by copying it over the file.

use experiments::study::{registry, StudyParams};
use speedup_stacks::crc::crc32;

fn table_path() -> String {
    format!("{}/tests/goldens/digests.txt", env!("CARGO_MANIFEST_DIR"))
}

/// The digest table of the current build, in the checked-in layout.
fn actual_table() -> String {
    let clean = StudyParams::with_scale(0.05);
    let mut deadline = clean.clone();
    deadline.faults.deadline_cycles = Some(1_000_000);
    let mut table = String::from("study\tparams\tformat\tbytes\tcrc32\n");
    for study in registry() {
        for (set, params) in [("clean", &clean), ("deadline1m", &deadline)] {
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
                table.push_str(&format!(
                    "{}\t{set}\t{format}\t{}\t{:08x}\n",
                    study.name(),
                    bytes.len(),
                    crc32(bytes.as_bytes())
                ));
            }
        }
    }
    table
}

#[test]
fn every_study_emits_its_pinned_bytes() {
    let path = table_path();
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let actual = actual_table();
    if actual != pinned {
        let moved: Vec<&str> = actual
            .lines()
            .filter(|row| !pinned.lines().any(|p| p == *row))
            .collect();
        panic!(
            "report bytes moved in {} row(s):\n{}\n\nthe whole actual table \
             (copy it over {path} to re-pin an intended change):\n{actual}",
            moved.len(),
            moved.join("\n")
        );
    }
}
