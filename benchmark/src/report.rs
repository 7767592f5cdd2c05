//! What a run prints and writes: every metric by name with its unit,
//! the result file `compare` reads, and the one-line form the
//! acceptance driver reads.

use std::fmt::Write as _;
use std::process::Command;

use crate::jsonw::{array, num, object, string};
use crate::metrics::{Metric, END_TO_END};
use crate::parent::Collected;
use crate::spans;
use crate::stats::{median, percentile, quartiles, spread, tail_percentile};
use crate::workload::host_cpus;

/// Where and how the numbers were taken.
#[derive(Debug, Clone)]
pub struct Header {
    pub commit: String,
    pub rustc: String,
    pub profile: &'static str,
    pub host_cpus: usize,
    pub seed: u64,
    pub smoke: bool,
    /// `(workload, untraced repetitions, traced children)`.
    pub repetitions: Vec<(&'static str, usize, usize)>,
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Header {
    pub fn collect(seed: u64, smoke: bool, collected: &[Collected]) -> Self {
        Header {
            commit: tool_line("git", &["rev-parse", "HEAD"]),
            rustc: tool_line("rustc", &["-V"]),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            host_cpus: host_cpus(),
            seed,
            smoke,
            repetitions: collected
                .iter()
                .map(|c| (c.inputs.workload.name(), c.reps.len(), c.traced.len()))
                .collect(),
        }
    }

    fn to_json(&self) -> String {
        object([
            ("commit", string(&self.commit)),
            ("rustc", string(&self.rustc)),
            ("profile", string(self.profile)),
            ("host.cpus", self.host_cpus.to_string()),
            ("seed", self.seed.to_string()),
            ("smoke", self.smoke.to_string()),
            (
                "repetitions",
                object(self.repetitions.iter().map(|(w, untraced, traced)| {
                    let counts = [
                        ("untraced", untraced.to_string()),
                        ("traced", traced.to_string()),
                    ];
                    (*w, object(counts))
                })),
            ),
        ])
    }
}

fn e2e_json(c: &Collected, metric: Metric, bound: f64) -> String {
    let samples = &c.samples(metric.name);
    let (q1, q3) = quartiles(samples);
    object([
        ("name", string(metric.name)),
        ("unit", string(metric.unit)),
        ("better", string(metric.better.as_str())),
        ("bound", num(bound)),
        ("value", num(c.value(&metric))),
        ("n", samples.len().to_string()),
        ("median", num(median(samples))),
        ("q1", num(q1)),
        ("q3", num(q3)),
        ("samples", array(samples.iter().map(|&v| num(v)))),
    ])
}

/// The result file: header, then per workload every end-to-end metric
/// with its samples and every per-layer value.
pub fn result_json(header: &Header, collected: &[Collected]) -> String {
    let workloads = collected.iter().map(|c| {
        object([
            ("name", string(c.inputs.workload.name())),
            ("scale", num(c.inputs.scale)),
            (
                "digest",
                string(c.reps.first().map_or("", |r| r.digest.as_str())),
            ),
            ("attempted", c.attempted.to_string()),
            ("failed", c.failed.to_string()),
            ("failed_share", num(c.failed_share())),
            (
                "end_to_end",
                array(END_TO_END.iter().map(|(m, bound)| e2e_json(c, *m, *bound))),
            ),
            (
                "per_layer",
                array(c.per_layer().into_iter().map(|(m, v)| {
                    object([
                        ("name", string(m.name)),
                        ("unit", string(m.unit)),
                        ("better", string(m.better.as_str())),
                        ("value", num(v)),
                    ])
                })),
            ),
            ("failures", array(c.failures.iter().map(|f| string(f)))),
        ])
    });
    format!(
        "{{\"header\": {},\n \"workloads\": [\n  {}\n ]}}\n",
        header.to_json(),
        workloads.collect::<Vec<_>>().join(",\n  ")
    )
}

/// Every metric by name, for people.
pub fn print_table(header: &Header, collected: &[Collected]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "commit {}  {}  profile {}  host.cpus {}  seed {}{}",
        header.commit,
        header.rustc,
        header.profile,
        header.host_cpus,
        header.seed,
        if header.smoke {
            "  (smoke: scales / 10)"
        } else {
            ""
        }
    );
    let _ = writeln!(
        out,
        "accuracy reference: this simulator's own measured speedup (the paper's method); \
         the model is NOT validated against hardware or gem5"
    );
    for c in collected {
        let _ = writeln!(
            out,
            "\n== {}  scale {}  digest {}  operations {} attempted / {} failed  failed_share {}",
            c.inputs.workload.name(),
            c.inputs.scale,
            c.reps.first().map_or("-", |r| r.digest.as_str()),
            c.attempted,
            c.failed,
            num(c.failed_share()),
        );
        let _ = writeln!(
            out,
            "  {:<34} {:>6} {:>4} {:>14} {:>14} {:>14} {:>14} {:>8} {:>6}",
            "end-to-end", "unit", "n", "value", "median", "q1", "q3", "spread", "bound"
        );
        for (m, bound) in END_TO_END {
            let s = c.samples(m.name);
            let (q1, q3) = quartiles(&s);
            let _ =
                writeln!(
                out,
                "  {:<34} {:>6} {:>4} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>7.2}% {:>5.0}%  {} is better",
                m.name,
                m.unit,
                s.len(),
                c.value(&m),
                median(&s),
                q1,
                q3,
                spread(&s) * 100.0,
                bound * 100.0,
                m.better.as_str(),
            );
        }
        let pooled = c.pooled_requests_ms();
        if let Some(p) = tail_percentile(pooled.len()) {
            let _ = writeln!(
                out,
                "  request latency, pooled: n {}  p50 {:.4} ms  p{} {:.4} ms (the highest percentile with ten samples beyond it)",
                pooled.len(),
                median(&pooled),
                p * 100.0,
                percentile(&pooled, p),
            );
        }
        let _ = writeln!(
            out,
            "  {:<34} {:>6} {:>20}",
            "per-layer (median of traced children)", "unit", "value"
        );
        for (m, v) in c.per_layer() {
            let _ = writeln!(out, "  {:<34} {:>6} {:>20}", m.name, m.unit, num(v));
        }
        for f in &c.failures {
            let _ = writeln!(out, "  CHECK FAILED: {f}");
        }
    }
    out
}

/// The self-time table of a trace file's spans.
pub fn trace_table(trace_json: &str) -> Result<String, String> {
    let doc = speedup_stacks::report::json::parse(trace_json).map_err(|e| e.to_string())?;
    let spans_json = doc
        .get("spans")
        .and_then(|s| s.as_array())
        .ok_or("no spans array")?;
    let mut list = Vec::with_capacity(spans_json.len());
    for s in spans_json {
        let name = s
            .get("name")
            .and_then(|n| n.as_str())
            .ok_or("span without a name")?;
        let at = |key: &str| s.get(key).and_then(|v| v.as_f64()).map(|v| v as u64);
        list.push(spans::Span {
            name: name.to_string().into(),
            start_ns: at("start_ns").ok_or("span without start_ns")?,
            end_ns: at("end_ns").ok_or("span without end_ns")?,
            parent: at("parent").map(|p| p as usize),
        });
    }
    let mut out = format!(
        "  {:<28} {:>8} {:>12} {:>12}\n",
        "span", "count", "total s", "self s"
    );
    for (name, count, total, own) in spans::by_name(&list) {
        let _ = writeln!(out, "  {name:<28} {count:>8} {total:>12.6} {own:>12.6}");
    }
    Ok(out)
}

/// The acceptance driver's line: `correct`, `attempted`, `failed`, and
/// the metrics of the kind `--trace` selected.
pub fn contract_line(c: &Collected, traced: bool) -> String {
    let metrics: Vec<(&str, String)> = if traced {
        c.per_layer()
            .into_iter()
            .map(|(m, v)| (m.name, value_json(v, m.unit)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(m, _)| (m.name, value_json(c.value(m), m.unit)))
            .collect()
    };
    object([
        (
            "correct",
            (c.failed == 0 && c.failures.is_empty()).to_string(),
        ),
        ("attempted", c.attempted.max(1).to_string()),
        ("failed", c.failed.to_string()),
        ("metrics", object(metrics)),
    ])
}

fn value_json(value: f64, unit: &str) -> String {
    object([("value", num(value)), ("unit", string(unit))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;
    use crate::parent::RepSample;
    use crate::workload::{Inputs, Workload};
    use speedup_stacks::report::json::{parse, JsonValue};

    fn collected() -> Collected {
        let mut c = Collected::new(Inputs::new(Workload::Fig4Grid, 0, false));
        c.instructions = Some(3_000_000);
        c.attempted = 2;
        c.reps = (0..2)
            .map(|i| RepSample {
                wall_s: 1.5 + f64::from(i) * 0.1,
                host_ns_per_round: crate::hostspeed::REFERENCE_NS_PER_ROUND,
                resume_wall_s: f64::NAN,
                setup_s: 0.002,
                peak_rss_mib: 40.5,
                cpu_s: 1.5,
                proc_wall_s: 1.6,
                digest: "00ff".to_string(),
                est_err_avg_pct: 2.5,
                est_err_max_pct: 9.0,
                requests_ms: vec![1500.0],
            })
            .collect();
        c
    }

    #[test]
    fn contract_line_has_exactly_the_declared_metrics() {
        let c = collected();
        let line = parse(&contract_line(&c, false)).expect("JSON");
        assert_eq!(line.get("correct"), Some(&JsonValue::Bool(true)));
        assert_eq!(line.get("attempted").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(line.get("failed").and_then(|v| v.as_f64()), Some(0.0));
        let Some(JsonValue::Object(metrics)) = line.get("metrics") else {
            panic!("metrics object");
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            END_TO_END.iter().map(|m| m.0.name).collect::<Vec<_>>()
        );
        let wall = line
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        // Two samples, 1.5 and 1.6: the first quartile overhangs them.
        assert_eq!(wall.get("value").and_then(|v| v.as_f64()), Some(1.475));
        assert_eq!(wall.get("unit").and_then(|v| v.as_str()), Some("s"));

        let traced = parse(&contract_line(&c, true)).expect("JSON");
        let Some(JsonValue::Object(layers)) = traced.get("metrics") else {
            panic!("metrics object");
        };
        assert_eq!(layers.len(), PER_LAYER.len());
    }

    #[test]
    fn a_failed_check_makes_the_line_incorrect() {
        let mut c = collected();
        c.failures.push("digest".to_string());
        c.failed = 1;
        let line = parse(&contract_line(&c, false)).expect("JSON");
        assert_eq!(line.get("correct"), Some(&JsonValue::Bool(false)));
    }

    #[test]
    fn result_file_parses_and_carries_samples() {
        let c = collected();
        let header = Header::collect(0, false, std::slice::from_ref(&c));
        let doc = parse(&result_json(&header, std::slice::from_ref(&c))).expect("JSON");
        assert_eq!(
            doc.get("header")
                .and_then(|h| h.get("host.cpus"))
                .and_then(|v| v.as_f64()),
            Some(host_cpus() as f64)
        );
        let w = &doc
            .get("workloads")
            .and_then(|w| w.as_array())
            .expect("workloads")[0];
        assert_eq!(w.get("name").and_then(|v| v.as_str()), Some("fig4_grid"));
        let e2e = w.get("end_to_end").and_then(|v| v.as_array()).expect("e2e");
        assert_eq!(e2e.len(), END_TO_END.len());
        assert_eq!(
            e2e[0]
                .get("samples")
                .and_then(|v| v.as_array())
                .map(<[_]>::len),
            Some(2)
        );
        assert!(print_table(&header, std::slice::from_ref(&c)).contains("wall_s"));
    }

    #[test]
    fn trace_table_ranks_span_names_by_self_time() {
        let mut t = crate::spans::Tracer::new();
        t.span("outer", |t| t.span("inner", |_| std::hint::black_box(0)));
        let table = trace_table(&t.to_json("fig4_grid")).expect("table");
        assert!(table.contains("outer") && table.contains("inner"));
        assert!(trace_table("{}").is_err());
    }
}
