//! The six workloads as data: which studies each runs, at which scale,
//! and — for the layer passes — every simulation run behind them that
//! can be enumerated through the frozen public surface.

use cmpsim::OpStream;
use experiments::decompose::decompose;
use experiments::scaling::manycore_mem;
use experiments::{scaled_profile, Parallelism, StudyParams};
use memsim::MemConfig;
use speedup_stacks::report::json::JsonValue;
use workloads::{
    default_rate_mix, find, paper_suite, rate_mix_streams, streams_for, Suite, TraceReader,
    WorkloadProfile,
};

use crate::metrics::WORKLOADS;
use crate::seed::scale_factor;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig4Grid,
    ManycoreSweep,
    FigureSuiteSmall,
    TraceReplay,
    ServedPaper,
    ServedWarm,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Fig4Grid,
        Workload::ManycoreSweep,
        Workload::FigureSuiteSmall,
        Workload::TraceReplay,
        Workload::ServedPaper,
        Workload::ServedWarm,
    ];

    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].0
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Repetitions of a full `run` (sized so each workload measures
    /// 15–25 s in total on the 2-CPU host).
    pub fn repetitions(self) -> usize {
        match self {
            Workload::Fig4Grid => 11,
            Workload::ManycoreSweep => 7,
            Workload::FigureSuiteSmall => 25,
            Workload::TraceReplay => 21,
            Workload::ServedPaper | Workload::ServedWarm => 9,
        }
    }

    fn base_scale(self) -> f64 {
        match self {
            Workload::Fig4Grid | Workload::TraceReplay | Workload::ServedPaper => 1.0,
            Workload::ManycoreSweep => 0.25,
            Workload::FigureSuiteSmall | Workload::ServedWarm => 0.05,
        }
    }

    /// Whether the timed body simulates (the served-warm body only
    /// moves cached results).
    pub fn simulates(self) -> bool {
        self != Workload::ServedWarm
    }
}

/// Everything a child derives from its arguments. The program under
/// test sees only what is built from these.
#[derive(Debug, Clone, Copy)]
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub smoke: bool,
    pub scale: f64,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64, smoke: bool) -> Self {
        let smoke_factor = if smoke { 0.1 } else { 1.0 };
        Inputs {
            workload,
            seed,
            smoke,
            scale: workload.base_scale() * scale_factor(seed) * smoke_factor,
        }
    }

    /// The one parameter set every study of the workload runs with.
    pub fn params(&self) -> StudyParams {
        StudyParams {
            parallelism: Parallelism::Serial,
            ..StudyParams::with_scale(self.scale)
        }
    }

    /// Whether the paper-exact checks apply (goldens, `5 of 28`).
    pub fn paper_exact(&self) -> bool {
        self.seed == 0 && !self.smoke
    }

    /// `(discarded, timed)` warm submits per repetition.
    pub fn warm_submits(&self) -> (usize, usize) {
        if self.smoke {
            (20, 120)
        } else {
            (200, 1_200)
        }
    }

    /// Grid studies the served workloads submit, in order.
    pub fn served_studies(&self) -> &'static [&'static str] {
        match self.workload {
            Workload::ServedPaper => &["fig4", "fig6", "fig5", "fig1"],
            Workload::ServedWarm => &["fig4"],
            _ => &[],
        }
    }
}

/// Simulator workers of the served workloads: never more busy threads
/// than the host has CPUs.
pub fn service_workers() -> usize {
    host_cpus().min(2)
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where a run's op streams come from.
#[derive(Debug, Clone)]
pub enum Source {
    /// `streams_for(profile, threads)`.
    Profile(WorkloadProfile),
    /// `rate_mix_streams(programs, threads)`: independent programs that
    /// meet only in the memory system.
    RateMix(Vec<WorkloadProfile>),
    /// Member `i` of the rate mix alone (its single-thread reference).
    RateMixSolo(Vec<WorkloadProfile>, usize),
    /// The captured trace's run of the same name and thread count.
    Trace,
}

/// One simulation run: `threads` op streams on as many cores of a
/// machine.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub name: String,
    pub threads: usize,
    pub mem: MemConfig,
    pub source: Source,
}

impl RunSpec {
    /// Fresh op streams for the run.
    pub fn streams(&self, trace: Option<&TraceReader>) -> Vec<Box<dyn OpStream>> {
        match &self.source {
            Source::Profile(profile) => streams_for(profile, self.threads),
            Source::RateMix(programs) => rate_mix_streams(programs, self.threads),
            // The mix's member `i` is the last stream of an `i + 1`-wide
            // mix: same program, same address and lock bands.
            Source::RateMixSolo(programs, i) => rate_mix_streams(programs, i + 1)
                .into_iter()
                .last()
                .into_iter()
                .collect(),
            Source::Trace => {
                trace
                    .expect("a traced run needs its trace")
                    .run_streams(&self.name, self.threads)
                    .expect("the capture holds every run of its study")
                    .streams
            }
        }
    }
}

/// The runs a captured trace holds, in file order, on the default
/// machine (the only one the traced studies use).
pub fn trace_runs(reader: &TraceReader) -> Vec<RunSpec> {
    reader
        .run_keys()
        .into_iter()
        .map(|(name, threads)| RunSpec {
            name,
            threads,
            mem: MemConfig::default(),
            source: Source::Trace,
        })
        .collect()
}

/// The scaled profile list behind a grid study, rebuilt from the
/// catalog the way `decompose` builds it (a self-test pins the two
/// together through `compute_reference`'s instruction counts).
fn grid_profiles(study: &str, scale: f64) -> Vec<WorkloadProfile> {
    let base = match study {
        "fig4" | "fig6" => paper_suite(),
        "fig1" | "fig5" => [
            ("blackscholes", Suite::ParsecMedium),
            ("facesim", Suite::ParsecMedium),
            ("cholesky", Suite::Splash2),
        ]
        .into_iter()
        .map(|(name, suite)| find(name, suite).expect("catalog entry"))
        .collect(),
        other => panic!("{other} is not a grid study"),
    };
    base.iter().map(|p| scaled_profile(p, scale)).collect()
}

/// Every run of a grid study: one single-thread reference per profile,
/// then the grid points in sweep order.
pub fn grid_runs(study: &str, params: &StudyParams) -> Vec<RunSpec> {
    let grid = decompose(study, params).expect("grid study");
    let profiles = grid_profiles(study, params.scale);
    let spec = |pi: usize, threads: usize| RunSpec {
        name: profiles[pi].name.to_string(),
        threads,
        mem: MemConfig::default(),
        source: Source::Profile(profiles[pi].clone()),
    };
    let points: Vec<(usize, usize)> = (0..grid.n_points()).map(|i| grid.point(i)).collect();
    let n_profiles = points.iter().map(|&(pi, _)| pi + 1).max().unwrap_or(0);
    assert_eq!(n_profiles, profiles.len(), "{study}: profile list drifted");
    (0..n_profiles)
        .map(|pi| spec(pi, 1))
        .chain(points.into_iter().map(|(pi, n)| spec(pi, n)))
        .collect()
}

/// Every run of the many-core study: per weak-scaling workload one
/// reference and the eight core counts, then the rate mix's four solo
/// references and its eight mixes.
pub fn scaling_runs(params: &StudyParams) -> Vec<RunSpec> {
    const CORE_COUNTS: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
    let run = |name: String, threads: usize, source: Source| RunSpec {
        name,
        threads,
        mem: manycore_mem(),
        source,
    };
    let mut runs = Vec::new();
    for (name, suite) in [
        ("blackscholes", Suite::ParsecMedium),
        ("cholesky", Suite::Splash2),
        ("lud", Suite::Rodinia),
    ] {
        let weak = find(name, suite).expect("catalog entry").weak_variant();
        let profile = scaled_profile(&weak, params.scale);
        for threads in std::iter::once(1).chain(CORE_COUNTS) {
            runs.push(run(
                format!("{name}_weak"),
                threads,
                Source::Profile(profile.clone()),
            ));
        }
    }
    let mix: Vec<WorkloadProfile> = default_rate_mix()
        .iter()
        .map(|p| scaled_profile(p, params.scale))
        .collect();
    for i in 0..mix.len() {
        runs.push(run(
            format!("rate_mix[{i}]"),
            1,
            Source::RateMixSolo(mix.clone(), i),
        ));
    }
    for threads in CORE_COUNTS {
        runs.push(run(
            "rate_mix".to_string(),
            threads,
            Source::RateMix(mix.clone()),
        ));
    }
    runs
}

/// The enumerable runs behind one repetition of a workload's reports
/// (for `trace_replay`: the generated twins of the replayed runs).
pub fn runs(inputs: &Inputs) -> Vec<RunSpec> {
    let params = inputs.params();
    match inputs.workload {
        Workload::Fig4Grid => grid_runs("fig4", &params),
        Workload::ManycoreSweep => scaling_runs(&params),
        Workload::FigureSuiteSmall => ["fig1", "fig4", "fig5", "fig6"]
            .into_iter()
            .flat_map(|s| grid_runs(s, &params))
            .chain(scaling_runs(&params))
            .collect(),
        Workload::TraceReplay => grid_runs("fig6", &params),
        Workload::ServedPaper | Workload::ServedWarm => inputs
            .served_studies()
            .iter()
            .flat_map(|s| grid_runs(s, &params))
            .collect(),
    }
}

/// FNV-1a, 64 bit: the digest printed for every workload so that two
/// commits compare their emitted bytes exactly.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn of(bytes: &[u8]) -> Self {
        let mut d = Digest::new();
        d.update(bytes);
        d
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The paper's Eq. 6 validation error `|Ŝ − S| / N`, in percent, of
/// every validation point a parsed report carries: fig4's
/// `validation_points` table, or the many-core study's `points` table
/// (rows above one core; `S` is the scaled speedup there).
pub fn validation_errors_pct(report: &JsonValue) -> Vec<f64> {
    let mut out = Vec::new();
    let blocks = report.get("blocks").and_then(JsonValue::as_array);
    for block in blocks.unwrap_or(&[]) {
        let (Some(name), Some(columns), Some(rows)) = (
            block.get("name").and_then(JsonValue::as_str),
            block.get("columns").and_then(JsonValue::as_array),
            block.get("rows").and_then(JsonValue::as_array),
        ) else {
            continue;
        };
        let col = |wanted: &str| {
            columns
                .iter()
                .position(|c| c.get("name").and_then(JsonValue::as_str) == Some(wanted))
        };
        let cell = |row: &JsonValue, i: usize| row.as_array()?.get(i)?.as_f64();
        match name {
            "validation_points" => {
                if let Some(e) = col("error_percent") {
                    out.extend(rows.iter().filter_map(|r| cell(r, e)).map(f64::abs));
                }
            }
            "points" => {
                if let (Some(n), Some(s), Some(est)) = (
                    col("cores"),
                    col("scaled_speedup"),
                    col("estimated_speedup"),
                ) {
                    for r in rows {
                        if let (Some(n), Some(s), Some(est)) =
                            (cell(r, n), cell(r, s), cell(r, est))
                        {
                            if n > 1.0 {
                                out.push((est - s).abs() / n * 100.0);
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{drain, op_instructions};
    use speedup_stacks::report::json::parse;

    #[test]
    fn names_round_trip_in_round_robin_order() {
        for (i, w) in Workload::ALL.into_iter().enumerate() {
            assert_eq!(w as usize, i);
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("fig4"), None);
    }

    #[test]
    fn seed_zero_runs_the_paper_scales() {
        assert_eq!(Inputs::new(Workload::Fig4Grid, 0, false).scale, 1.0);
        assert_eq!(Inputs::new(Workload::ManycoreSweep, 0, false).scale, 0.25);
        assert_eq!(Inputs::new(Workload::ServedWarm, 0, false).scale, 0.05);
        let smoke = Inputs::new(Workload::Fig4Grid, 0, true);
        assert!((smoke.scale - 0.1).abs() < 1e-12);
        assert!(!smoke.paper_exact());
        assert!(!Inputs::new(Workload::Fig4Grid, 3, false).paper_exact());
    }

    #[test]
    fn run_lists_have_the_sized_shapes() {
        let p = StudyParams::with_scale(0.01);
        assert_eq!(grid_runs("fig4", &p).len(), 28 + 112);
        assert_eq!(grid_runs("fig6", &p).len(), 28 + 28);
        assert_eq!(grid_runs("fig5", &p).len(), 3 + 12);
        assert_eq!(grid_runs("fig1", &p).len(), 3 + 12);
        let scaling = scaling_runs(&p);
        assert_eq!(scaling.len(), 3 * 9 + 4 + 8);
        assert!(scaling.iter().all(|r| r.mem.llc.ways() == 32));
        assert_eq!(scaling.last().map(|r| r.threads), Some(128));
        for r in &scaling {
            assert_eq!(r.streams(None).len(), r.threads, "{}", r.name);
        }
        // 226 units behind the served paper, as sized in the issue.
        let served = Inputs::new(Workload::ServedPaper, 0, true);
        assert_eq!(runs(&served).len(), 226);
    }

    /// The rebuilt profile lists are the ones `decompose` sweeps: the
    /// op streams of each rebuilt 1-thread run carry exactly the
    /// instructions the study's own reference run executes.
    #[test]
    fn rebuilt_profiles_match_the_studies_references() {
        let params = StudyParams::with_scale(0.01);
        for study in ["fig1", "fig6"] {
            let grid = decompose(study, &params).expect("grid");
            let runs = grid_runs(study, &params);
            for (pi, run) in runs.iter().filter(|r| r.threads == 1).enumerate() {
                let (_, instructions) = grid.compute_reference(&params, pi).expect("reference");
                let census: u64 = run
                    .streams(None)
                    .iter_mut()
                    .map(|s| drain(s.as_mut(), op_instructions))
                    .sum();
                assert_eq!(census, instructions, "{study} profile {pi} ({})", run.name);
            }
        }
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(Digest::new().hex(), "cbf29ce484222325");
        assert_eq!(Digest::of(b"a").hex(), "af63dc4c8601ec8c");
        let mut d = Digest::new();
        d.update(b"foo");
        d.update(b"bar");
        assert_eq!(d.hex(), Digest::of(b"foobar").hex());
        assert_eq!(Digest::of(b"foobar").hex(), "85944171f73967e8");
    }

    #[test]
    fn validation_errors_from_both_table_kinds() {
        let fig4 = parse(
            r#"{"blocks": [{"kind": "text", "text": "x"},
                {"kind": "table", "name": "validation_points",
                 "columns": [{"name": "benchmark"}, {"name": "N"}, {"name": "error_percent"}],
                 "rows": [["a", 2, 1.5], ["a", 4, -2.5]]}]}"#,
        )
        .unwrap();
        assert_eq!(validation_errors_pct(&fig4), vec![1.5, 2.5]);
        let scaling = parse(
            r#"{"blocks": [{"kind": "table", "name": "points",
                 "columns": [{"name": "series"}, {"name": "cores"}, {"name": "scaled_speedup"},
                             {"name": "estimated_speedup"}],
                 "rows": [["w", 1, 1, 1], ["w", 4, 3.0, 3.5]]}]}"#,
        )
        .unwrap();
        assert_eq!(validation_errors_pct(&scaling), vec![12.5]);
        assert!(validation_errors_pct(&parse("{}").unwrap()).is_empty());
    }
}
