//! Structured experiment reports: the shared value model every study
//! produces and every driver consumes.
//!
//! A [`Report`] is a sequence of typed [`Block`]s — tables with typed
//! cells ([`Table`]), scalar metrics with units ([`Scalar`]), speedup
//! stacks and stack sweeps — plus the study's name, title and the
//! parameters it ran with. The same value is rendered by three emitters:
//!
//! - [`Report::to_text`] — the exact figure text the paper-reproduction
//!   studies have always printed (the legacy `Display` impls are now
//!   implemented *on top of* this emitter, pinned bit-identical by the
//!   golden tests in `experiments`);
//! - [`Report::to_json`] — machine-readable JSON ([`json`]), with an
//!   in-repo parser for validation (no external dependencies);
//! - [`Report::to_csv`] — flat CSV sections ([`csv`]) for spreadsheet
//!   import.
//!
//! Presentation details (column widths, separators, pre-padded header
//! chunks) live in [`Column`] so the text emitter can reproduce each
//! figure's historical layout exactly, while the JSON and CSV emitters
//! see only the machine names and typed values.
//!
//! # Examples
//!
//! ```
//! use speedup_stacks::report::{Align, Block, Column, Report, Table, Unit, Value};
//!
//! let mut report = Report::new("demo", "A demo report");
//! report.param("scale", Value::F64(1.0));
//! report.push(Block::line("Demo: one table"));
//! let mut t = Table::new(
//!     "speedups",
//!     vec![
//!         Column::new("benchmark").text_header("{:<10}").left(10),
//!         Column::new("speedup").text_header(" {:>8}").prefix(" ").width(8).precision(2),
//!     ],
//! );
//! t.row(vec![Value::str("fft"), Value::F64(7.25)]);
//! report.push(Block::Table(t));
//!
//! let text = report.to_text();
//! assert!(text.contains("fft            7.25"));
//! let parsed = speedup_stacks::report::json::parse(&report.to_json()).unwrap();
//! assert_eq!(parsed.get("study").unwrap().as_str(), Some("demo"));
//! ```

pub mod csv;
pub mod json;

use crate::render;
use crate::stack::SpeedupStack;

/// The unit of a scalar metric or table column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Unit {
    /// Speedup units (fractions of the ideal speedup `N`).
    Speedup,
    /// Clock cycles.
    Cycles,
    /// A percentage (the value is already scaled to 0–100).
    Percent,
    /// Bytes of storage.
    Bytes,
    /// Wall-clock seconds (perf reports).
    Seconds,
    /// A plain count (threads, cores, events, regions …).
    Count,
    /// A dimensionless ratio or anything without a meaningful unit.
    #[default]
    Dimensionless,
}

impl Unit {
    /// Stable machine label used by the JSON and CSV emitters.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Unit::Speedup => "speedup",
            Unit::Cycles => "cycles",
            Unit::Percent => "percent",
            Unit::Bytes => "bytes",
            Unit::Seconds => "seconds",
            Unit::Count => "count",
            Unit::Dimensionless => "",
        }
    }
}

/// One typed cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A floating-point number.
    F64(f64),
    /// An unsigned integer (cycle counts, event counts, thread counts).
    U64(u64),
    /// A string (benchmark names, labels, classes).
    Str(String),
    /// A missing value (rendered `-` in text, `null` in JSON, empty in
    /// CSV).
    Missing,
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// The value as an `f64`, if numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            #[allow(clippy::cast_precision_loss)]
            Value::U64(v) => Some(*v as f64),
            _ => None,
        }
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Horizontal alignment of a text-rendered cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers) — the default.
    #[default]
    Right,
}

/// One table column: a machine name plus the text-layout metadata that
/// lets the text emitter reproduce the historical figure output exactly.
///
/// The text emitter renders each cell as `prefix` + the value padded to
/// `width` with `align` (floats formatted with `precision` decimals) +
/// `suffix`; the header line is the concatenation of the columns'
/// pre-padded `header` chunks. The JSON and CSV emitters use only
/// `name`, `unit` and the typed cell values.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Machine name (JSON object key / CSV header).
    pub name: String,
    /// Exact pre-padded header chunk for the text header line.
    pub header: String,
    /// Text printed before each cell (column separator).
    pub prefix: String,
    /// Cell padding width in characters (0 = no padding).
    pub width: usize,
    /// Cell alignment within `width`.
    pub align: Align,
    /// Decimal places for [`Value::F64`] cells (`None` = shortest form).
    pub precision: Option<usize>,
    /// Text printed after each cell.
    pub suffix: String,
    /// Unit of the column's values.
    pub unit: Unit,
}

impl Column {
    /// A right-aligned column with no padding and the header equal to
    /// `name`; refine with the builder methods.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        Column {
            header: name.clone(),
            name,
            prefix: String::new(),
            width: 0,
            align: Align::Right,
            precision: None,
            suffix: String::new(),
            unit: Unit::Dimensionless,
        }
    }

    /// Sets the exact header chunk.
    #[must_use]
    pub fn header(mut self, header: impl Into<String>) -> Self {
        self.header = header.into();
        self
    }

    /// Sets the header chunk to the column name formatted with a
    /// `format!`-like pad spec: `"{:<10}"`, `"{:>7}"`, or with literal
    /// decoration such as `" {:>3}t  "` (the `{…}` part is replaced by
    /// the padded name).
    ///
    /// # Panics
    ///
    /// Panics if `spec` contains no `{:<N}` / `{:>N}` placeholder.
    #[must_use]
    pub fn text_header(self, spec: &str) -> Self {
        let open = spec.find("{:").expect("pad placeholder");
        let close = spec[open..].find('}').expect("closing brace") + open;
        let pad = &spec[open + 2..close];
        let (left, w) = match pad.as_bytes().first() {
            Some(b'<') => (true, pad[1..].parse::<usize>().expect("width")),
            Some(b'>') => (false, pad[1..].parse::<usize>().expect("width")),
            _ => (false, pad.parse::<usize>().expect("width")),
        };
        let padded = if left {
            format!("{:<w$}", self.name, w = w)
        } else {
            format!("{:>w$}", self.name, w = w)
        };
        let header = format!("{}{}{}", &spec[..open], padded, &spec[close + 1..]);
        self.header(header)
    }

    /// Sets the cell prefix (separator before the cell).
    #[must_use]
    pub fn prefix(mut self, prefix: impl Into<String>) -> Self {
        self.prefix = prefix.into();
        self
    }

    /// Sets the cell suffix.
    #[must_use]
    pub fn suffix(mut self, suffix: impl Into<String>) -> Self {
        self.suffix = suffix.into();
        self
    }

    /// Sets the cell padding width.
    #[must_use]
    pub fn width(mut self, width: usize) -> Self {
        self.width = width;
        self
    }

    /// Left-aligns cells and sets the padding width.
    #[must_use]
    pub fn left(mut self, width: usize) -> Self {
        self.align = Align::Left;
        self.width = width;
        self
    }

    /// Sets the decimal places for float cells.
    #[must_use]
    pub fn precision(mut self, precision: usize) -> Self {
        self.precision = Some(precision);
        self
    }

    /// Sets the column unit.
    #[must_use]
    pub fn unit(mut self, unit: Unit) -> Self {
        self.unit = unit;
        self
    }

    /// Formats one cell (without prefix/suffix) per the column layout.
    #[must_use]
    pub fn format_cell(&self, value: &Value) -> String {
        let s = match value {
            Value::F64(v) => match self.precision {
                Some(p) => format!("{v:.p$}"),
                None => format!("{v}"),
            },
            Value::U64(v) => format!("{v}"),
            Value::Str(v) => v.clone(),
            Value::Missing => "-".to_string(),
        };
        match self.align {
            Align::Left => format!("{s:<w$}", w = self.width),
            Align::Right => format!("{s:>w$}", w = self.width),
        }
    }
}

/// A table of typed cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Machine name of the table.
    pub name: String,
    /// Whether the text emitter prints the header line.
    pub show_header: bool,
    /// Column specifications.
    pub columns: Vec<Column>,
    /// Rows; each row has exactly one [`Value`] per column.
    pub rows: Vec<Vec<Value>>,
}

impl Table {
    /// An empty table with the given columns.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Self {
        Table {
            name: name.into(),
            show_header: true,
            columns,
            rows: Vec::new(),
        }
    }

    /// Hides the header line in text output (JSON/CSV still carry the
    /// column names).
    #[must_use]
    pub fn headerless(mut self) -> Self {
        self.show_header = false;
        self
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the column count.
    pub fn row(&mut self, cells: Vec<Value>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width must match column count"
        );
        self.rows.push(cells);
    }

    fn render_text(&self, out: &mut String) {
        if self.show_header {
            for c in &self.columns {
                out.push_str(&c.header);
            }
            out.push('\n');
        }
        for row in &self.rows {
            for (c, v) in self.columns.iter().zip(row) {
                out.push_str(&c.prefix);
                out.push_str(&c.format_cell(v));
                out.push_str(&c.suffix);
            }
            out.push('\n');
        }
    }
}

/// A named scalar metric with a unit and its exact text rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct Scalar {
    /// Machine name.
    pub name: String,
    /// The typed value.
    pub value: Value,
    /// Unit of the value.
    pub unit: Unit,
    /// The exact text line (without trailing newline) the text emitter
    /// prints for this metric.
    pub text: String,
}

impl Scalar {
    /// Builds a scalar metric.
    pub fn new(
        name: impl Into<String>,
        value: impl Into<Value>,
        unit: Unit,
        text: impl Into<String>,
    ) -> Self {
        Scalar {
            name: name.into(),
            value: value.into(),
            unit,
            text: text.into(),
        }
    }
}

/// One point that ultimately failed in a degraded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedPoint {
    /// Human-readable point label (e.g. `"cholesky 16t"`).
    pub label: String,
    /// Why the point failed (panic payload, deadline overrun, engine
    /// error).
    pub reason: String,
    /// Attempts made before giving up (1 = no retry).
    pub attempts: u32,
}

/// Summary of a fault-tolerant sweep that did not complete cleanly:
/// counts of failed, retried and quarantined points plus the per-failure
/// reasons. Rendered by all three emitters so degradation is never
/// silent.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Degraded {
    /// Total points in the sweep grid.
    pub total_points: usize,
    /// Points that produced a result.
    pub completed: usize,
    /// Points that succeeded only after at least one retry.
    pub retried: usize,
    /// Journal records that failed their checksum or parse and were
    /// recomputed on resume.
    pub quarantined: usize,
    /// Points that failed every attempt (missing from the report body).
    pub failed: Vec<DegradedPoint>,
}

impl Degraded {
    /// Whether anything actually degraded: a clean run's summary is all
    /// zeros and is not worth a block (keeps resumed output bit-identical
    /// to uninterrupted runs).
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        !self.failed.is_empty() || self.retried > 0 || self.quarantined > 0
    }

    fn render_text(&self, out: &mut String) {
        out.push_str(&format!(
            "degraded run: {}/{} points completed ({} failed, {} retried, {} quarantined)\n",
            self.completed,
            self.total_points,
            self.failed.len(),
            self.retried,
            self.quarantined
        ));
        for p in &self.failed {
            out.push_str(&format!(
                "  FAILED {}: {} [{} attempt{}]\n",
                p.label,
                p.reason,
                p.attempts,
                if p.attempts == 1 { "" } else { "s" }
            ));
        }
    }
}

/// Where a report's workload streams were captured to: the provenance
/// record a trace-capturing run attaches to its report, naming the trace
/// artifact so downstream tooling can pair the report with its replayable
/// source.
///
/// Replayed runs deliberately attach **no** provenance block: a replay
/// must be byte-identical to the generated original in every emitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Path of the captured trace file.
    pub path: String,
    /// Number of captured runs (benchmark × thread-count stream sets).
    pub runs: usize,
    /// Size of the trace file in bytes.
    pub bytes: u64,
}

impl Provenance {
    fn render_text(&self, out: &mut String) {
        out.push_str(&format!(
            "trace captured: {} ({} runs, {} bytes)\n",
            self.path, self.runs, self.bytes
        ));
    }
}

/// One block of a report.
#[derive(Debug, Clone, PartialEq)]
pub enum Block {
    /// Free text, rendered verbatim by the text emitter (include your own
    /// trailing newline, or build with [`Block::line`]).
    Text(String),
    /// One empty line.
    Blank,
    /// A table of typed cells.
    Table(Table),
    /// A scalar metric.
    Scalar(Scalar),
    /// One speedup stack, text-rendered as a bar + legend
    /// ([`render::render_stack`]).
    Stack {
        /// Bar label.
        label: String,
        /// The stack.
        stack: SpeedupStack,
    },
    /// Several stacks as an aligned comparison table
    /// ([`render::render_table`]).
    StackTable {
        /// Machine name of the group.
        name: String,
        /// `(label, stack)` rows.
        stacks: Vec<(String, SpeedupStack)>,
    },
    /// A core-count sweep of stacks drawn as a growth chart
    /// ([`render::render_sweep`]).
    Sweep {
        /// Sweep title.
        title: String,
        /// `(label, stack)` series.
        series: Vec<(String, SpeedupStack)>,
    },
    /// A machine-only block: skipped by the text emitter, emitted by
    /// JSON/CSV. Used to attach structured data to studies whose text
    /// form is non-tabular (e.g. the Figure 6 classification tree).
    Hidden(Box<Block>),
    /// A degraded-run summary (failed/retried/quarantined points).
    /// Studies push it only when [`Degraded::is_degraded`] holds.
    Degraded(Degraded),
    /// The trace-capture provenance record (see [`Provenance`]). Pushed
    /// only by capture-mode runs, never by replays.
    Provenance(Provenance),
}

impl Block {
    /// A text block of one line (appends the newline).
    pub fn line(s: impl Into<String>) -> Self {
        let mut s = s.into();
        s.push('\n');
        Block::Text(s)
    }

    /// A verbatim text block (no newline appended).
    pub fn raw(s: impl Into<String>) -> Self {
        Block::Text(s.into())
    }

    /// Wraps a block as machine-only (invisible in text output).
    #[must_use]
    pub fn hidden(block: Block) -> Self {
        Block::Hidden(Box::new(block))
    }

    fn render_text(&self, out: &mut String) {
        match self {
            Block::Text(s) => out.push_str(s),
            Block::Blank => out.push('\n'),
            Block::Table(t) => t.render_text(out),
            Block::Scalar(s) => {
                out.push_str(&s.text);
                out.push('\n');
            }
            Block::Stack { label, stack } => out.push_str(&render::render_stack(label, stack)),
            Block::StackTable { stacks, .. } => out.push_str(&render::render_table(stacks)),
            Block::Sweep { title, series } => out.push_str(&render::render_sweep(title, series)),
            Block::Hidden(_) => {}
            Block::Degraded(d) => d.render_text(out),
            Block::Provenance(p) => p.render_text(out),
        }
    }
}

/// A structured experiment report: study identity, run parameters and a
/// sequence of typed blocks.
///
/// # Examples
///
/// ```
/// use speedup_stacks::report::{Block, Report, Scalar, Unit, Value};
///
/// let mut r = Report::new("hwcost", "Hardware cost (§4.7)");
/// r.push(Block::Scalar(Scalar::new(
///     "total_bytes", 1169u64, Unit::Bytes, "total per core 1169 B",
/// )));
/// assert_eq!(r.to_text(), "total per core 1169 B\n");
/// assert!(r.to_json().contains("\"total_bytes\""));
/// assert!(r.to_csv().starts_with("study,hwcost\n"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Machine name of the study (registry key, e.g. `fig4`).
    pub study: String,
    /// Human-readable title.
    pub title: String,
    /// Parameters the study ran with (echoed into JSON/CSV).
    pub params: Vec<(String, Value)>,
    /// The report body.
    pub blocks: Vec<Block>,
}

impl Report {
    /// An empty report.
    pub fn new(study: impl Into<String>, title: impl Into<String>) -> Self {
        Report {
            study: study.into(),
            title: title.into(),
            params: Vec::new(),
            blocks: Vec::new(),
        }
    }

    /// Records one run parameter.
    pub fn param(&mut self, name: impl Into<String>, value: impl Into<Value>) {
        self.params.push((name.into(), value.into()));
    }

    /// Appends one block.
    pub fn push(&mut self, block: Block) {
        self.blocks.push(block);
    }

    /// Renders the report as the historical figure text.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for b in &self.blocks {
            b.render_text(&mut out);
        }
        out
    }

    /// Renders the report as JSON (see [`json`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        json::to_json(self)
    }

    /// Renders the report as CSV sections (see [`csv`]).
    #[must_use]
    pub fn to_csv(&self) -> String {
        csv::to_csv(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::AccountingConfig;
    use crate::counters::ThreadCounters;

    fn demo_stack() -> SpeedupStack {
        let threads = vec![
            ThreadCounters {
                active_end_cycle: 1000,
                spin_cycles: 250.0,
                ..ThreadCounters::default()
            },
            ThreadCounters {
                active_end_cycle: 1000,
                ..ThreadCounters::default()
            },
        ];
        SpeedupStack::from_counters(&threads, 1000, &AccountingConfig::default()).unwrap()
    }

    #[test]
    fn table_text_matches_manual_format() {
        let mut t = Table::new(
            "demo",
            vec![
                Column::new("benchmark").text_header("{:<22}").left(22),
                Column::new("N").text_header(" {:>3}").prefix(" ").width(3),
                Column::new("actual")
                    .text_header("  {:>8}")
                    .prefix("  ")
                    .width(8)
                    .precision(2)
                    .unit(Unit::Speedup),
            ],
        );
        t.row(vec![Value::str("cholesky"), 16usize.into(), 5.618.into()]);
        let mut out = String::new();
        t.render_text(&mut out);
        let expect = format!(
            "{:<22} {:>3}  {:>8}\n{:<22} {:>3}  {:>8.2}\n",
            "benchmark", "N", "actual", "cholesky", 16, 5.618
        );
        assert_eq!(out, expect);
    }

    #[test]
    fn text_header_decorated() {
        let c = Column::new("16t").text_header(" {:>4}  ");
        assert_eq!(c.header, "  16t  ");
        let c = Column::new("x").text_header("{:<5}");
        assert_eq!(c.header, "x    ");
    }

    #[test]
    fn missing_renders_dash_aligned() {
        let c = Column::new("v").width(5);
        assert_eq!(c.format_cell(&Value::Missing), "    -");
    }

    #[test]
    fn hidden_blocks_invisible_in_text() {
        let mut r = Report::new("x", "x");
        r.push(Block::line("visible"));
        r.push(Block::hidden(Block::line("machine-only")));
        assert_eq!(r.to_text(), "visible\n");
        assert!(r.to_json().contains("machine-only"));
    }

    #[test]
    fn stack_blocks_delegate_to_render() {
        let stack = demo_stack();
        let mut r = Report::new("x", "x");
        r.push(Block::Stack {
            label: "demo".into(),
            stack: stack.clone(),
        });
        assert_eq!(r.to_text(), render::render_stack("demo", &stack));
    }

    #[test]
    fn provenance_block_renders_in_every_emitter() {
        let mut r = Report::new("x", "x");
        r.push(Block::Provenance(Provenance {
            path: "/tmp/fig6.sstrace".to_string(),
            runs: 56,
            bytes: 12345,
        }));
        assert_eq!(
            r.to_text(),
            "trace captured: /tmp/fig6.sstrace (56 runs, 12345 bytes)\n"
        );
        let doc = crate::report::json::parse(&r.to_json()).unwrap();
        let b = &doc.get("blocks").unwrap().as_array().unwrap()[0];
        assert_eq!(b.get("kind").unwrap().as_str(), Some("provenance"));
        assert_eq!(b.get("runs").unwrap().as_f64(), Some(56.0));
        assert!(r
            .to_csv()
            .contains("provenance,trace-capture,/tmp/fig6.sstrace,runs,56,bytes,12345"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("demo", vec![Column::new("a"), Column::new("b")]);
        t.row(vec![Value::Missing]);
    }
}
