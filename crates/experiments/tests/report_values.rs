//! The JSON emitter must carry exactly the values the text emitter
//! prints: both render the same `Report`, so numbers parsed back out of
//! the JSON form must equal the in-memory study data bit-for-bit
//! (the emitter uses Rust's shortest round-trip float formatting).

use experiments::study::{find_study, StudyParams};
use speedup_stacks::report::json;

#[test]
fn fig9_json_numbers_equal_report_values() {
    let fig = experiments::fig89::run_fig9(&StudyParams::with_scale(0.05));
    let report = fig.to_report();
    let doc = json::parse(&report.to_json()).expect("valid JSON");

    let blocks = doc.get("blocks").unwrap().as_array().unwrap();
    let table = blocks
        .iter()
        .find(|b| b.get("kind").and_then(|k| k.as_str()) == Some("table"))
        .expect("interference table present");
    let rows = table.get("rows").unwrap().as_array().unwrap();
    assert_eq!(rows.len(), fig.bars.len());
    for (row, bar) in rows.iter().zip(&fig.bars) {
        let row = row.as_array().unwrap();
        assert_eq!(row[0].as_str(), Some(bar.label.as_str()));
        assert_eq!(row[1].as_f64(), Some(bar.negative), "negative round-trip");
        assert_eq!(row[2].as_f64(), Some(bar.positive), "positive round-trip");
        assert_eq!(row[3].as_f64(), Some(bar.net()), "net round-trip");
    }

    // The text emitter prints those same values (at 3 decimals).
    let text = report.to_text();
    for bar in &fig.bars {
        assert!(
            text.contains(&format!("{:.3}", bar.negative)),
            "text misses negative of {}",
            bar.label
        );
    }
}

#[test]
fn hwcost_json_scalars_equal_model_values() {
    let study = find_study("hwcost").expect("registered");
    let report = study.run(&StudyParams::default()).expect("clean run");
    let model = speedup_stacks::HardwareCostModel::paper_default();
    let doc = json::parse(&report.to_json()).expect("valid JSON");
    let blocks = doc.get("blocks").unwrap().as_array().unwrap();
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
    let fig = experiments::fig23::run_fig2(&StudyParams::with_scale(0.05));
    let doc = json::parse(&fig.to_report().to_json()).expect("valid JSON");
    let blocks = doc.get("blocks").unwrap().as_array().unwrap();
    let stack = blocks
        .iter()
        .find(|b| b.get("kind").and_then(|k| k.as_str()) == Some("stack"))
        .and_then(|b| b.get("stack"))
        .expect("stack block present");
    assert_eq!(
        stack.get("n").unwrap().as_f64(),
        Some(fig.stack.num_threads() as f64)
    );
    assert_eq!(
        stack.get("estimated_speedup").unwrap().as_f64(),
        Some(fig.stack.estimated_speedup())
    );
    assert_eq!(
        stack.get("actual_speedup").unwrap().as_f64(),
        fig.stack.actual_speedup()
    );
    let overheads = stack.get("overheads").expect("overheads object");
    for c in speedup_stacks::Component::ALL {
        assert_eq!(
            overheads.get(c.label()).unwrap().as_f64(),
            Some(fig.stack.component(c)),
            "component {c} round-trip"
        );
    }
}

#[test]
fn csv_and_json_agree_on_table_values() {
    let fig = experiments::fig89::run_fig9(&StudyParams::with_scale(0.05));
    let report = fig.to_report();
    let csv = report.to_csv();
    // Every bar value appears in the CSV in shortest-float form (the
    // same tokens the JSON emitter writes).
    for bar in &fig.bars {
        assert!(csv.contains(&format!("{}", bar.negative)));
        assert!(csv.contains(&format!("{}", bar.positive)));
    }
}
