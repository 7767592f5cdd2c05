//! In-memory spans recorded by the traced child around each call into a
//! layer, written out once when the child ends.
//!
//! A span is `{name, start_ns, end_ns, parent}`; every span of one child
//! belongs to one workload, which is recorded once in the file header
//! rather than per span. Nothing here is compiled into the crates: the
//! spans sit in this harness, around public calls.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Static in a tracer; owned when read back from a trace file.
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos())
            .expect("a child runs for less than 584 years")
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// the tracer it is handed become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: Cow::Borrowed(name),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Runs `f` inside a leaf span and also returns its duration, for
    /// callers that need the sample itself (latency distributions).
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.spans.len();
        let out = self.span(name, |_| f());
        (out, self.spans[id].ns() as f64 / 1e9)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`, in start order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e9)
            .collect()
    }

    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    /// The trace file: one JSON object, spans in start order.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"unit\": \"ns\", \"spans\": ["
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"workload\": \"{workload}\"}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children are clipped to the parent
/// and overlapping children are not counted twice).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.ns() - covered
        })
        .collect()
}

/// Total and self seconds per span name, largest self time first — the
/// "where did the time go" table of a trace.
pub fn by_name(spans: &[Span]) -> Vec<(&str, usize, f64, f64)> {
    let selfs = self_ns(spans);
    let mut rows: Vec<(&str, usize, f64, f64)> = Vec::new();
    for (s, own) in spans.iter().zip(selfs) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.ns() as f64 / 1e9;
                r.3 += own as f64 / 1e9;
            }
            None => rows.push((&s.name, 1, s.ns() as f64 / 1e9, own as f64 / 1e9)),
        }
    }
    rows.sort_by(|a, b| b.3.total_cmp(&a.3));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: Cow::Borrowed(name),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("study", 0, 100, None),
            span("unit", 10, 40, Some(0)),
            span("unit", 50, 90, Some(0)),
            span("sim", 55, 85, Some(2)),
        ];
        assert_eq!(self_ns(&spans), vec![30, 30, 10, 30]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = [
            span("parent", 100, 200, None),
            span("a", 90, 150, Some(0)),  // starts before the parent
            span("b", 140, 180, Some(0)), // overlaps a
            span("c", 190, 250, Some(0)), // ends after the parent
        ];
        // Covered: [100,150) ∪ [140,180) ∪ [190,200) = 80 + 10.
        assert_eq!(self_ns(&spans)[0], 10);
    }

    #[test]
    fn tracer_nests_and_orders() {
        let mut t = Tracer::new();
        let v = t.span("outer", |t| t.span("inner", |_| 1) + t.span("inner", |_| 2));
        assert_eq!(v, 3);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((&*s[0].name, s[0].parent), ("outer", None));
        assert_eq!((&*s[1].name, s[1].parent), ("inner", Some(0)));
        assert_eq!((&*s[2].name, s[2].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(t.durations_s("inner").len(), 2);
        let (_, secs) = t.timed("leaf", || ());
        assert_eq!(t.spans()[3].ns() as f64 / 1e9, secs);
    }

    #[test]
    fn by_name_pools_and_ranks_by_self_time() {
        let spans = [
            span("study", 0, 100, None),
            span("unit", 10, 40, Some(0)),
            span("unit", 50, 95, Some(0)),
        ];
        let rows = by_name(&spans);
        assert_eq!(rows[0].0, "unit");
        assert_eq!(rows[0].1, 2);
        assert!((rows[0].3 - 75e-9).abs() < 1e-15);
        assert!((rows[1].3 - 25e-9).abs() < 1e-15);
    }

    #[test]
    fn trace_file_parses_with_the_repo_parser() {
        let mut t = Tracer::new();
        t.span("a", |t| t.span("b", |_| ()));
        let v = speedup_stacks::report::json::parse(&t.to_json("fig4_grid")).expect("valid JSON");
        let spans = v.get("spans").and_then(|s| s.as_array()).expect("spans");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert!(spans[0].get("parent").is_some_and(|p| p.is_null()));
        assert_eq!(
            spans[1].get("workload").and_then(|w| w.as_str()),
            Some("fig4_grid")
        );
    }
}
