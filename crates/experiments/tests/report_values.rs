//! The JSON emitter must carry exactly the values the text emitter
//! prints: both render the same `Report`, so numbers parsed back out of
//! the JSON form must equal the in-memory report values bit-for-bit
//! (the emitter uses Rust's shortest round-trip float formatting).

use experiments::study::{find_study, registry, StudyParams};
use speedup_stacks::report::json::{self, JsonValue};
use speedup_stacks::report::{Block, Report, Table, Value};

/// Runs a registered study at scale 0.05, which must complete cleanly.
fn run_clean(study: &str) -> Report {
    let report = find_study(study)
        .expect("registered")
        .run(&StudyParams::with_scale(0.05))
        .unwrap_or_else(|e| panic!("{study}: {e}"));
    assert!(
        !report
            .blocks
            .iter()
            .any(|b| matches!(b, Block::Degraded(_))),
        "{study} degraded"
    );
    report
}

/// The report's first table.
fn first_table(report: &Report) -> &Table {
    report
        .blocks
        .iter()
        .find_map(|b| match b {
            Block::Table(t) => Some(t),
            _ => None,
        })
        .expect("table present")
}

/// A floating-point cell, exactly as the study computed it.
fn f64_of(v: &Value) -> f64 {
    match v {
        Value::F64(x) => *x,
        other => panic!("expected an F64 cell, got {other:?}"),
    }
}

/// The blocks of a parsed report.
fn json_blocks(doc: &JsonValue) -> &[JsonValue] {
    doc.get("blocks").unwrap().as_array().unwrap()
}

#[test]
fn fig9_json_numbers_equal_report_values() {
    let report = run_clean("fig9");
    let bars = first_table(&report);
    assert_eq!(bars.name, "interference_vs_llc");
    let doc = json::parse(&report.to_json()).expect("valid JSON");

    let table = json_blocks(&doc)
        .iter()
        .find(|b| b.get("kind").and_then(|k| k.as_str()) == Some("table"))
        .expect("interference table present");
    let rows = table.get("rows").unwrap().as_array().unwrap();
    assert_eq!(rows.len(), bars.rows.len());
    for (row, bar) in rows.iter().zip(&bars.rows) {
        let row = row.as_array().unwrap();
        assert_eq!(Value::str(row[0].as_str().unwrap()), bar[0]);
        assert_eq!(
            row[1].as_f64(),
            Some(f64_of(&bar[1])),
            "negative round-trip"
        );
        assert_eq!(
            row[2].as_f64(),
            Some(f64_of(&bar[2])),
            "positive round-trip"
        );
        assert_eq!(row[3].as_f64(), Some(f64_of(&bar[3])), "net round-trip");
    }

    // The text emitter prints those same values (at 3 decimals).
    let text = report.to_text();
    for bar in &bars.rows {
        assert!(
            text.contains(&format!("{:.3}", f64_of(&bar[1]))),
            "text misses negative of {:?}",
            bar[0]
        );
    }
}

#[test]
fn hwcost_json_scalars_equal_model_values() {
    let study = find_study("hwcost").expect("registered");
    let report = study.run(&StudyParams::default()).expect("clean run");
    let model = speedup_stacks::HardwareCostModel::paper_default();
    let doc = json::parse(&report.to_json()).expect("valid JSON");
    let blocks = json_blocks(&doc);
    let scalar = |name: &str| {
        blocks
            .iter()
            .find(|b| b.get("name").and_then(|n| n.as_str()) == Some(name))
            .and_then(|b| b.get("value"))
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("scalar {name} missing"))
    };
    assert_eq!(
        scalar("interference_bytes") as u64,
        model.interference_bytes()
    );
    assert_eq!(scalar("spin_table_bytes") as u64, model.spin_table_bytes());
    assert_eq!(
        scalar("total_bytes_per_core") as u64,
        model.total_bytes_per_core()
    );
    assert_eq!(scalar("total_bytes") as u64, model.total_bytes(16));
}

#[test]
fn stack_serialization_carries_all_components() {
    let report = run_clean("fig2");
    let expected = report
        .blocks
        .iter()
        .find_map(|b| match b {
            Block::Stack { stack, .. } => Some(stack),
            _ => None,
        })
        .expect("stack block present");
    let doc = json::parse(&report.to_json()).expect("valid JSON");
    let stack = json_blocks(&doc)
        .iter()
        .find(|b| b.get("kind").and_then(|k| k.as_str()) == Some("stack"))
        .and_then(|b| b.get("stack"))
        .expect("stack block present");
    assert_eq!(
        stack.get("n").unwrap().as_f64(),
        Some(expected.num_threads() as f64)
    );
    assert_eq!(
        stack.get("estimated_speedup").unwrap().as_f64(),
        Some(expected.estimated_speedup())
    );
    assert_eq!(
        stack.get("actual_speedup").unwrap().as_f64(),
        expected.actual_speedup()
    );
    let overheads = stack.get("overheads").expect("overheads object");
    for c in speedup_stacks::Component::ALL {
        assert_eq!(
            overheads.get(c.label()).unwrap().as_f64(),
            Some(expected.component(c)),
            "component {c} round-trip"
        );
    }
}

#[test]
fn csv_and_json_agree_on_table_values() {
    let report = run_clean("fig9");
    let csv = report.to_csv();
    // Every bar value appears in the CSV in shortest-float form (the
    // same tokens the JSON emitter writes).
    for bar in &first_table(&report).rows {
        assert!(csv.contains(&format!("{}", f64_of(&bar[1]))));
        assert!(csv.contains(&format!("{}", f64_of(&bar[2]))));
    }
}

/// Every table `F64` cell and every scalar of every registered study
/// reads back bit-equal from its JSON form. The JSON `blocks` array is
/// the report's blocks with blank lines dropped and hidden blocks
/// unwrapped, in order.
#[test]
fn every_study_round_trips_its_numbers_through_json() {
    assert_eq!(registry().len(), 12);
    let (mut cells, mut scalars) = (0, 0);
    for study in registry() {
        let name = study.name();
        let report = run_clean(name);
        let doc = json::parse(&report.to_json()).unwrap_or_else(|e| panic!("{name}: {e}"));
        let parsed = json_blocks(&doc);
        let blocks: Vec<&Block> = report
            .blocks
            .iter()
            .filter(|b| !matches!(b, Block::Blank))
            .map(|b| match b {
                Block::Hidden(inner) => &**inner,
                b => b,
            })
            .collect();
        assert_eq!(blocks.len(), parsed.len(), "{name}: block count");
        for (block, json) in blocks.iter().zip(parsed) {
            match block {
                Block::Table(t) => {
                    let rows = json.get("rows").unwrap().as_array().unwrap();
                    assert_eq!(rows.len(), t.rows.len(), "{name}/{}", t.name);
                    for (row, parsed_row) in t.rows.iter().zip(rows) {
                        let parsed_row = parsed_row.as_array().unwrap();
                        for (cell, token) in row.iter().zip(parsed_row) {
                            if let Value::F64(x) = cell {
                                let back = token.as_f64().expect("a number");
                                assert_eq!(back.to_bits(), x.to_bits(), "{name}/{}", t.name);
                                cells += 1;
                            }
                        }
                    }
                }
                Block::Scalar(s) => {
                    assert_eq!(json.get("name").unwrap().as_str(), Some(s.name.as_str()));
                    let value = s.value.as_f64().expect("numeric scalar");
                    let back = json.get("value").unwrap().as_f64().expect("a number");
                    assert_eq!(back.to_bits(), value.to_bits(), "{name}/{}", s.name);
                    scalars += 1;
                }
                _ => {}
            }
        }
    }
    // fig5 has neither (its numbers are stacks); the other eleven do.
    assert!(cells > 0 && scalars > 0, "{cells} cells, {scalars} scalars");
}
