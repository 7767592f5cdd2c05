//! The child side of the harness: one fresh process per repetition.
//!
//! Users pay process-cold state on every `repro` run, and a fresh
//! process keeps any in-process memo a later change adds from turning
//! repetitions 2..N into no-ops. The child does its work, reads its own
//! peak memory and CPU time, and prints one JSON line.

use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::body::{self, Variant};
use crate::jsonw::{array, num, object, string};
use crate::layers;
use crate::procfs;
use crate::workload::{Inputs, Workload};

/// Where the harness may write: trace files, results, scratch.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What one child process does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// What depends on the inputs alone: the instruction census behind
    /// `sim_mips`, and the served studies' local reports.
    Census,
    /// An untraced repetition of the body, plain or a variant of it:
    /// the end-to-end numbers.
    Rep(Variant),
    /// The traced run: the per-layer numbers.
    Traced,
}

impl Job {
    pub fn name(self) -> &'static str {
        match self {
            Job::Census => "census",
            Job::Rep(variant) => variant.name(),
            Job::Traced => "traced",
        }
    }

    fn from_name(name: &str) -> Option<Job> {
        match name {
            "census" => Some(Job::Census),
            "traced" => Some(Job::Traced),
            _ => Variant::from_name(name).map(Job::Rep),
        }
    }
}

/// Everything the parent tells a child.
#[derive(Debug, Clone)]
pub struct ChildArgs {
    pub inputs: Inputs,
    pub job: Job,
    /// Wall-clock nanoseconds since the epoch at which the parent
    /// spawned this process.
    pub spawned_unix_ns: u128,
}

impl ChildArgs {
    pub fn to_argv(&self) -> Vec<String> {
        let flag = |b: bool| if b { "1" } else { "0" }.to_string();
        vec![
            "child".to_string(),
            "--workload".to_string(),
            self.inputs.workload.name().to_string(),
            "--seed".to_string(),
            self.inputs.seed.to_string(),
            "--smoke".to_string(),
            flag(self.inputs.smoke),
            "--job".to_string(),
            self.job.name().to_string(),
            "--spawned-unix-ns".to_string(),
            self.spawned_unix_ns.to_string(),
        ]
    }

    /// Parses what [`ChildArgs::to_argv`] wrote (after the `child` word).
    pub fn parse(args: &[String]) -> Result<ChildArgs, String> {
        let mut workload = None;
        let mut seed = 0u64;
        let mut smoke = false;
        let mut job = None;
        let mut spawned_unix_ns = 0u128;
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
            let bad = || format!("bad value for {key}: {value}");
            match key.as_str() {
                "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--smoke" => smoke = value == "1",
                "--job" => job = Some(Job::from_name(value).ok_or_else(bad)?),
                "--spawned-unix-ns" => spawned_unix_ns = value.parse().map_err(|_| bad())?,
                _ => return Err(format!("unknown child option {key}")),
            }
        }
        Ok(ChildArgs {
            inputs: Inputs::new(workload.ok_or("child needs --workload")?, seed, smoke),
            job: job.ok_or("child needs --job")?,
            spawned_unix_ns,
        })
    }
}

pub fn trace_file(workload: Workload) -> PathBuf {
    out_dir().join(format!("trace-{}.json", workload.name()))
}

/// Seconds from the parent's spawn call to `body_start`: exec, runtime
/// start and the workload's own set-up. Falls back to the time since
/// this process's `main` when the wall clock stepped in between.
fn setup_seconds(args: &ChildArgs, main_start: SystemTime, body_start: SystemTime) -> f64 {
    let spawned =
        UNIX_EPOCH + Duration::from_nanos(u64::try_from(args.spawned_unix_ns).unwrap_or(0));
    let own = body_start.duration_since(main_start).unwrap_or_default();
    match body_start.duration_since(spawned) {
        Ok(d) if d >= own && d < own + Duration::from_secs(60) => d.as_secs_f64(),
        _ => own.as_secs_f64(),
    }
}

fn error_summary(errors_pct: &[f64]) -> (f64, f64) {
    if errors_pct.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    (
        errors_pct.iter().sum::<f64>() / errors_pct.len() as f64,
        errors_pct.iter().copied().fold(0.0, f64::max),
    )
}

/// Runs the child and returns its one output line.
pub fn run(args: &ChildArgs, main_start: SystemTime) -> String {
    let tmp = out_dir().join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        return object([
            ("job", string(args.job.name())),
            ("attempted", "1".to_string()),
            ("failed", "1".to_string()),
            (
                "failures",
                array([string(&format!("{}: {e}", tmp.display()))]),
            ),
        ]);
    }
    let line = match args.job {
        Job::Census => {
            let local = body::local_digest(&args.inputs);
            object([
                ("job", string("census")),
                ("instructions", layers::census(&args.inputs).to_string()),
                (
                    "local_digest",
                    string(&local.as_ref().map_or(String::new(), |d| d.hex())),
                ),
                ("failures", array(local.err().iter().map(|e| string(e)))),
            ])
        }
        Job::Rep(variant) => {
            let out = body::run(&args.inputs, variant, &tmp);
            let (avg, max) = error_summary(&out.errors_pct);
            object([
                ("job", string(variant.name())),
                ("wall_s", num(out.timed.wall_s)),
                ("resume_wall_s", num(out.resume_wall_s.unwrap_or(f64::NAN))),
                (
                    "setup_s",
                    num(setup_seconds(args, main_start, out.timed.body_start)
                        - out.timed.yardstick_s),
                ),
                ("host_ns_per_round", num(out.timed.host_ns_per_round)),
                ("digest", string(&out.digest.hex())),
                ("est_err_avg_pct", num(avg)),
                ("est_err_max_pct", num(max)),
                (
                    "requests_ms",
                    array(out.requests_ms.iter().map(|&v| num(v))),
                ),
                ("attempted", out.attempted.to_string()),
                ("failed", out.failed.to_string()),
                ("failures", array(out.failures.iter().map(|f| string(f)))),
                (
                    "vm_hwm_kib",
                    num(procfs::vm_hwm_kib().map_or(f64::NAN, |k| k as f64)),
                ),
                ("cpu_s", num(procfs::cpu_seconds().unwrap_or(f64::NAN))),
            ])
        }
        Job::Traced => {
            let out = layers::run(&args.inputs, &tmp, &trace_file(args.inputs.workload));
            let (avg, max) = error_summary(&out.errors_pct);
            object([
                ("job", string("traced")),
                ("wall_s", num(out.body_wall_s)),
                ("host_ns_per_round", num(out.host_ns_per_round)),
                (
                    "setup_s",
                    num(setup_seconds(args, main_start, out.body_start)),
                ),
                ("digest", string(&out.digest.hex())),
                ("est_err_avg_pct", num(avg)),
                ("est_err_max_pct", num(max)),
                (
                    "values",
                    object(out.values.iter().map(|(k, v)| (*k, num(*v)))),
                ),
                ("attempted", "1".to_string()),
                ("failed", usize::from(!out.failures.is_empty()).to_string()),
                ("failures", array(out.failures.iter().map(|f| string(f)))),
            ])
        }
    };
    std::fs::remove_dir_all(&tmp).ok();
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_arguments_round_trip() {
        let args = ChildArgs {
            inputs: Inputs::new(Workload::TraceReplay, 7, true),
            job: Job::Rep(Variant::Journal),
            spawned_unix_ns: 1_790_000_000_123_456_789,
        };
        let argv = args.to_argv();
        assert_eq!(argv[0], "child");
        let back = ChildArgs::parse(&argv[1..]).expect("parses");
        assert_eq!(back.inputs.workload, Workload::TraceReplay);
        assert_eq!((back.inputs.seed, back.inputs.smoke), (7, true));
        assert_eq!(back.inputs.scale, args.inputs.scale);
        assert_eq!(back.job, Job::Rep(Variant::Journal));
        for job in [Job::Census, Job::Traced, Job::Rep(Variant::Plain)] {
            assert_eq!(Job::from_name(job.name()), Some(job));
        }
        assert_eq!(back.spawned_unix_ns, args.spawned_unix_ns);
        assert!(ChildArgs::parse(&["--seed".to_string()]).is_err());
        assert!(ChildArgs::parse(&["--mode".to_string(), "x".to_string()]).is_err());
    }

    #[test]
    fn setup_is_measured_from_the_spawn_unless_the_clock_stepped() {
        let spawned = UNIX_EPOCH + Duration::from_secs(1_000);
        let args = |ns: u128| ChildArgs {
            inputs: Inputs::new(Workload::Fig4Grid, 0, true),
            job: Job::Rep(Variant::Plain),
            spawned_unix_ns: ns,
        };
        let main_start = spawned + Duration::from_millis(2);
        let body_start = spawned + Duration::from_millis(5);
        let ns = spawned.duration_since(UNIX_EPOCH).unwrap().as_nanos();
        assert_eq!(setup_seconds(&args(ns), main_start, body_start), 0.005);
        // A spawn stamp in the future, or absurdly far back: the child's
        // own three milliseconds are what is left to trust.
        let future = ns + 1_000_000_000;
        assert_eq!(setup_seconds(&args(future), main_start, body_start), 0.003);
        assert_eq!(setup_seconds(&args(0), main_start, body_start), 0.003);
    }
}
