//! CSV emission for [`Report`].
//!
//! A report becomes a sequence of CSV sections separated by blank
//! lines: a `study` header, one `param` line per run parameter, then one
//! section per data-bearing block (tables, scalars, stacks). Free-text
//! blocks are presentation-only and are skipped. Fields containing
//! commas, quotes or newlines are quoted per RFC 4180; non-finite
//! numbers and missing cells are emitted as empty fields.
//!
//! # Examples
//!
//! ```
//! use speedup_stacks::report::{Block, Report, Scalar, Unit};
//!
//! let mut r = Report::new("demo", "Demo");
//! r.push(Block::Scalar(Scalar::new("err", 3.5, Unit::Percent, "err 3.5%")));
//! let csv = r.to_csv();
//! assert!(csv.starts_with("study,demo\n"));
//! assert!(csv.contains("scalar,err,3.5,percent\n"));
//! ```

use std::fmt::Write as _;

use super::{Block, Report, Table, Value};
use crate::components::Component;
use crate::stack::SpeedupStack;

/// Escapes one CSV field (RFC 4180 quoting).
#[must_use]
pub fn escape(field: &str) -> String {
    if field.contains(['"', ',', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        String::new()
    }
}

fn field(v: &Value) -> String {
    match v {
        Value::F64(x) => num(*x),
        Value::U64(x) => format!("{x}"),
        Value::Str(s) => escape(s),
        Value::Missing => String::new(),
    }
}

fn table_section(t: &Table, out: &mut String) {
    let _ = writeln!(out, "table,{}", escape(&t.name));
    let names: Vec<String> = t.columns.iter().map(|c| escape(&c.name)).collect();
    let _ = writeln!(out, "{}", names.join(","));
    for row in &t.rows {
        let cells: Vec<String> = row.iter().map(field).collect();
        let _ = writeln!(out, "{}", cells.join(","));
    }
}

fn stack_header() -> String {
    let mut header = String::from("label,n,tp_cycles,base_speedup,positive_interference");
    for c in Component::ALL {
        header.push(',');
        header.push_str(c.label());
    }
    header.push_str(",estimated_speedup,actual_speedup");
    header
}

fn stack_row(label: &str, s: &SpeedupStack, out: &mut String) {
    let _ = write!(
        out,
        "{},{},{},{},{}",
        escape(label),
        s.num_threads(),
        s.tp_cycles(),
        num(s.base_speedup()),
        num(s.positive_interference())
    );
    for c in Component::ALL {
        let _ = write!(out, ",{}", num(s.component(c)));
    }
    let _ = writeln!(
        out,
        ",{},{}",
        num(s.estimated_speedup()),
        s.actual_speedup().map(num).unwrap_or_default()
    );
}

fn stacks_section(name: &str, stacks: &[(String, SpeedupStack)], out: &mut String) {
    let _ = writeln!(out, "stacks,{}", escape(name));
    let _ = writeln!(out, "{}", stack_header());
    for (label, s) in stacks {
        stack_row(label, s, out);
    }
}

fn block_section(b: &Block, out: &mut String) -> bool {
    match b {
        Block::Text(_) | Block::Blank => return false,
        Block::Table(t) => table_section(t, out),
        Block::Scalar(s) => {
            let _ = writeln!(
                out,
                "scalar,{},{},{}",
                escape(&s.name),
                field(&s.value),
                s.unit.label()
            );
        }
        Block::Stack { label, stack } => {
            stacks_section(
                label,
                std::slice::from_ref(&(label.clone(), stack.clone())),
                out,
            );
        }
        Block::StackTable { name, stacks } => stacks_section(name, stacks, out),
        Block::Sweep { title, series } => stacks_section(title, series, out),
        Block::Hidden(inner) => return block_section(inner, out),
        Block::Degraded(d) => {
            let _ = writeln!(
                out,
                "degraded,total_points,{},completed,{},retried,{},quarantined,{}",
                d.total_points, d.completed, d.retried, d.quarantined
            );
            for p in &d.failed {
                let _ = writeln!(
                    out,
                    "failed,{},{},{}",
                    escape(&p.label),
                    escape(&p.reason),
                    p.attempts
                );
            }
        }
        Block::Provenance(p) => {
            let _ = writeln!(
                out,
                "provenance,trace-capture,{},runs,{},bytes,{}",
                escape(&p.path),
                p.runs,
                p.bytes
            );
        }
    }
    true
}

/// Serializes a report as CSV sections.
#[must_use]
pub fn to_csv(r: &Report) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "study,{}", escape(&r.study));
    for (k, v) in &r.params {
        let _ = writeln!(out, "param,{},{}", escape(k), field(v));
    }
    for b in &r.blocks {
        let mut section = String::new();
        if block_section(b, &mut section) {
            out.push('\n');
            out.push_str(&section);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{Column, Scalar, Unit};

    #[test]
    fn escaping_quotes_commas_newlines() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a,b"), "\"a,b\"");
        assert_eq!(escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(escape("two\nlines"), "\"two\nlines\"");
    }

    #[test]
    fn report_sections() {
        let mut r = Report::new("demo", "Demo");
        r.param("scale", 0.5);
        let mut t = Table::new("points", vec![Column::new("name"), Column::new("v")]);
        t.row(vec![Value::str("a,b"), Value::F64(1.25)]);
        t.row(vec![Value::str("c"), Value::Missing]);
        r.push(Block::Table(t));
        r.push(Block::Scalar(Scalar::new("n", 4u64, Unit::Count, "n 4")));
        let csv = r.to_csv();
        assert_eq!(
            csv,
            "study,demo\nparam,scale,0.5\n\ntable,points\nname,v\n\"a,b\",1.25\nc,\n\n\
             scalar,n,4,count\n"
        );
    }

    #[test]
    fn non_finite_fields_empty() {
        assert_eq!(num(f64::NAN), "");
        assert_eq!(field(&Value::F64(f64::INFINITY)), "");
    }
}
