//! The repo benchmark. See README.md for the workloads, the metrics
//! and how to read the output.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1     one workload, one JSON line
//! benchmark run [--seed S] [--smoke] [--traced-only] [--out PATH]  all six, interleaved
//! benchmark compare A.json B.json                             two result files, row by row
//! ```

mod body;
mod child;
mod compare;
mod hostspeed;
mod jsonw;
mod layers;
mod metrics;
mod parent;
mod procfs;
mod report;
mod seed;
mod spans;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime};

use body::Variant;
use child::{out_dir, trace_file, ChildArgs, Job};
use parent::{interleave, run_round_robin, variants_of, Collected};
use workload::{Inputs, Workload};

const USAGE: &str = "usage: benchmark --workload NAME --seed N --seconds S --trace 0|1
       benchmark run [--seed S] [--smoke] [--traced-only] [--out PATH]
       benchmark compare A.json B.json
workloads: fig4_grid manycore_sweep figure_suite_small trace_replay served_paper served_warm";

/// Untraced repetitions a single-workload run makes at the least,
/// however short `--seconds` is: a median needs them.
const MIN_REPETITIONS: usize = 3;

fn main() -> ExitCode {
    let main_start = SystemTime::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") => ChildArgs::parse(&args[1..]).map(|a| {
            println!("{}", child::run(&a, main_start));
            true
        }),
        Some("run") => run_all(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a, b).map(|(table, ok)| {
                print!("{table}");
                ok
            }),
            _ => Err(USAGE.to_string()),
        },
        Some(flag) if flag.starts_with("--") => run_one(&args),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// The acceptance driver's form: one workload for `--seconds`, the last
/// line of stdout is the result object.
fn run_one(args: &[String]) -> Result<bool, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10u64;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{key} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value for {key}: {value}\n{USAGE}");
        match key.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option {key}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    let mut c = Collected::new(Inputs::new(workload, seed, false));

    if traced {
        // Two untraced repetitions give the traced child its baseline
        // (tracing overhead, pooled latencies); each variant runs once.
        let mut plan = vec![
            Job::Rep(Variant::Plain),
            Job::Rep(Variant::Plain),
            Job::Traced,
        ];
        plan.extend(variants_of(workload).iter().map(|v| Job::Rep(*v)));
        for job in plan {
            c.run_job(job);
        }
    } else {
        c.run_job(Job::Census);
        let deadline = Instant::now() + Duration::from_secs(seconds);
        while c.reps.len() < MIN_REPETITIONS || Instant::now() < deadline {
            let before = c.reps.len();
            c.run_job(Job::Rep(Variant::Plain));
            if c.reps.len() == before {
                break; // the child failed; more of them will not help
            }
        }
    }
    c.cross_check();
    for f in &c.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    println!("{}", report::contract_line(&c, traced));
    Ok(true)
}

/// All six workloads, repetitions interleaved round-robin.
fn run_all(args: &[String]) -> Result<bool, String> {
    let mut seed = 0u64;
    let mut smoke = false;
    let mut traced_only = false;
    let mut out = out_dir().join("result.json");
    let mut it = args.iter();
    while let Some(key) = it.next() {
        match key.as_str() {
            "--smoke" => smoke = true,
            "--traced-only" => traced_only = true,
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("--seed needs a number\n{USAGE}"))?;
            }
            "--out" => {
                out = it
                    .next()
                    .ok_or_else(|| format!("--out needs a path\n{USAGE}"))?
                    .into()
            }
            _ => return Err(format!("unknown option {key}\n{USAGE}")),
        }
    }
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;

    let mut collected: Vec<Collected> = Workload::ALL
        .into_iter()
        .map(|w| Collected::new(Inputs::new(w, seed, smoke)))
        .collect();
    let plans: Vec<Vec<Job>> = Workload::ALL
        .into_iter()
        .map(|w| {
            let short = smoke || traced_only;
            // Three of everything that is compared with the plain
            // repetitions, spread among them; one when in a hurry.
            let (reps, per_extra) = if short { (1, 1) } else { (w.repetitions(), 3) };
            let extras: Vec<Job> = variants_of(w)
                .iter()
                .map(|v| Job::Rep(*v))
                .chain([Job::Traced])
                .flat_map(|job| std::iter::repeat_n(job, per_extra))
                .collect();
            let mut plan = vec![Job::Census];
            plan.extend(interleave(reps, &extras));
            plan
        })
        .collect();
    let t0 = Instant::now();
    run_round_robin(&mut collected, &plans, |what| {
        eprintln!("[{:7.1}s] {what}", t0.elapsed().as_secs_f64());
    });
    for c in &mut collected {
        c.cross_check();
    }

    let header = report::Header::collect(seed, smoke, &collected);
    print!("{}", report::print_table(&header, &collected));
    for w in Workload::ALL {
        let path = trace_file(w);
        let table = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|raw| report::trace_table(&raw));
        match table {
            Ok(table) => print!("\n-- {} (self time by span)\n{table}", path.display()),
            Err(e) => println!("\n-- {}: {e}", path.display()),
        }
    }
    std::fs::write(&out, report::result_json(&header, &collected))
        .map_err(|e| format!("{}: {e}", out.display()))?;
    let failed: usize = collected.iter().map(|c| c.failures.len()).sum();
    println!(
        "\n{} checks failed; {:.0} s; result written to {}",
        failed,
        t0.elapsed().as_secs_f64(),
        out.display()
    );
    Ok(failed == 0)
}
