//! Machine-readable perf reports (`BENCH_PR*.json`) on the shared
//! report model.
//!
//! [`PerfReport`] collects measured sweep entries and converts them into
//! a [`speedup_stacks::report::Report`] — the same structured value
//! model the study registry produces — so the perf-trajectory JSON is
//! emitted by the shared `core` JSON emitter instead of private
//! plumbing (and can equally be rendered as text or CSV).

use speedup_stacks::report::{Block, Column, Report, Table, Unit, Value};

/// One measured entry of a perf report.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Entry name (e.g. `fig1_sweep`).
    pub name: String,
    /// Configuration label (e.g. `parallel`, `cold-submit`).
    pub config: String,
    /// Wall time in seconds.
    pub wall_s: f64,
    /// Engine events processed.
    pub events: u64,
    /// Simulation points in the sweep.
    pub points: u64,
}

impl Entry {
    /// Events per wall-clock second.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.events as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// A whole perf report: free-form metadata plus measured entries.
#[derive(Debug, Clone, Default)]
pub struct PerfReport {
    /// Free-form metadata (`key: value`), echoed as report parameters.
    pub meta: Vec<(String, String)>,
    /// The measured entries.
    pub entries: Vec<Entry>,
}

impl PerfReport {
    /// Adds a metadata pair.
    pub fn meta(&mut self, key: &str, value: impl ToString) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// Adds a measured entry.
    pub fn push(&mut self, entry: Entry) {
        self.entries.push(entry);
    }

    /// Converts the measurements into the shared structured
    /// [`Report`]: metadata as parameters, entries as one typed table.
    #[must_use]
    pub fn to_report(&self) -> Report {
        let mut report = Report::new("bench", "Simulator perf trajectory");
        for (k, v) in &self.meta {
            report.param(k.clone(), Value::str(v.clone()));
        }
        let mut table = Table::new(
            "entries",
            vec![
                Column::new("name"),
                Column::new("config"),
                Column::new("wall_s").unit(Unit::Seconds),
                Column::new("points").unit(Unit::Count),
                Column::new("events").unit(Unit::Count),
                Column::new("events_per_sec").unit(Unit::Count),
            ],
        );
        for e in &self.entries {
            table.row(vec![
                Value::str(&e.name),
                Value::str(&e.config),
                e.wall_s.into(),
                e.points.into(),
                e.events.into(),
                e.events_per_sec().round().into(),
            ]);
        }
        report.push(Block::Table(table));
        report
    }

    /// Serializes the report as JSON via the shared emitter.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_report().to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speedup_stacks::report::json;

    fn demo() -> PerfReport {
        let mut r = PerfReport::default();
        r.meta("note", "a \"quoted\"\nline");
        r.push(Entry {
            name: "sweep".into(),
            config: "baseline".into(),
            wall_s: 1.5,
            events: 3_000_000,
            points: 12,
        });
        r
    }

    #[test]
    fn json_parses_and_carries_the_entries() {
        let doc = json::parse(&demo().to_json()).expect("valid JSON");
        assert_eq!(doc.get("study").unwrap().as_str(), Some("bench"));
        assert_eq!(
            doc.get("params").unwrap().get("note").unwrap().as_str(),
            Some("a \"quoted\"\nline")
        );
        let blocks = doc.get("blocks").unwrap().as_array().unwrap();
        let rows = blocks[0].get("rows").unwrap().as_array().unwrap();
        let row = rows[0].as_array().unwrap();
        assert_eq!(row[0].as_str(), Some("sweep"));
        assert_eq!(row[2].as_f64(), Some(1.5));
        assert_eq!(row[5].as_f64(), Some(2_000_000.0));
    }

    #[test]
    fn shared_report_renders_all_formats() {
        let report = demo().to_report();
        assert!(report.to_csv().contains("table,entries"));
        assert!(report.to_text().contains("sweep"));
    }

    #[test]
    fn events_per_sec_zero_guard() {
        let e = Entry {
            name: "x".into(),
            config: "c".into(),
            wall_s: 0.0,
            events: 10,
            points: 1,
        };
        assert_eq!(e.events_per_sec(), 0.0);
    }
}
