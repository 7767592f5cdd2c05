//! A seeded fuzz loop over the study gate: no parameter set it accepts
//! may reach a panic.
//!
//! Each case (`param_cases::case`) draws a registry study and parameters
//! from the values a front door can pass — thread lists over 1..=1025
//! with repeats and the empty list, LLC capacities over 0..=4097 MiB,
//! zero, negative, NaN and infinite scales, zero deadlines, worker
//! counts and budgets, and the grid-only journal, budget and trace on
//! every study. The case then ends one of two ways:
//!
//! - `Study::check` refuses it with a typed `ConfigError`;
//! - or it is accepted, and — for the cases that are cheap to run —
//!   `Study::run` at `Parallelism::Serial` gives a report in which no
//!   unit's reason reads `panicked:`, or a typed error of another kind
//!   (a missing journal or trace, an exhausted budget). It never panics,
//!   and never returns the configuration error the gate exists to give.
//!
//! Most cases stop at the gate. Accepted cases run at their own tiny
//! scale; of those with more than 128 threads or more than 16 MiB of LLC
//! only one in [`BIG_EVERY`] runs, and none with both (such a machine
//! allocates gigabytes). A failing case prints its seed; replay it with
//! `run_case(seed)`.

mod param_cases;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use experiments::Parallelism;
use speedup_stacks::SimError;

/// Cases per run of the loop.
const CASES: u64 = 6_000;

/// One in this many accepted cases with a large machine is run.
const BIG_EVERY: u64 = 16;

/// How a case ended.
#[derive(Debug)]
enum Verdict {
    Refused,
    Accepted,
    Ran,
}

/// Whether an accepted case is cheap enough to run (see the module
/// documentation).
fn runs(seed: u64, params: &experiments::StudyParams) -> bool {
    let big_threads = params.threads.iter().flatten().any(|&n| n > 128);
    let big_llc = params.llc_mib.is_some_and(|mib| mib > 16);
    params.scale <= 2e-3
        && match (big_threads, big_llc) {
            (false, false) => true,
            (true, true) => false,
            _ => seed.is_multiple_of(BIG_EVERY),
        }
}

/// Replays one case by seed.
fn run_case(seed: u64) -> Result<Verdict, String> {
    let dir = Scratch::new(seed);
    let (study, mut params) = param_cases::case(seed, &dir.0);
    let name = study.name();
    let gate = catch_unwind(|| study.check(&params))
        .map_err(|_| format!("{name}: the gate panicked on {params:?}"))?;
    if gate.is_err() {
        return Ok(Verdict::Refused);
    }
    if !runs(seed, &params) {
        return Ok(Verdict::Accepted);
    }
    params.parallelism = Parallelism::Serial;
    let ran = catch_unwind(AssertUnwindSafe(|| study.run(&params)))
        .map_err(|_| format!("{name}: accepted {params:?}, then panicked"))?;
    match ran {
        Ok(report) => {
            let text = report.to_json();
            match text.find("panicked:") {
                Some(at) => Err(format!(
                    "{name}: accepted {params:?}, then a unit {}",
                    &text[at..text.len().min(at + 120)]
                )),
                None => Ok(Verdict::Ran),
            }
        }
        Err(SimError::Config(e)) => Err(format!(
            "{name}: the gate accepted {params:?}, the run refused it: {e}"
        )),
        Err(e) if e.to_string().contains("panicked") => {
            Err(format!("{name}: accepted {params:?}, then {e}"))
        }
        Err(_) => Ok(Verdict::Ran),
    }
}

/// A scratch directory for the files a case names, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(seed: u64) -> Scratch {
        let dir = std::env::temp_dir().join(format!("param_fuzz_{}_{seed}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn no_accepted_parameter_set_reaches_a_panic() {
    let mut failures = Vec::new();
    let mut tally = [0usize; 3];
    for seed in 0..CASES {
        match run_case(seed) {
            Ok(v) => tally[v as usize] += 1,
            Err(why) => failures.push(format!("run_case({seed}): {why}")),
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {CASES} cases failed; the first:\n{}",
        failures.len(),
        failures[..failures.len().min(5)].join("\n")
    );
    // The loop exercises both ends: refusals, and runs of accepted sets.
    let [refused, accepted, ran] = tally;
    assert!(refused > CASES as usize / 4, "{tally:?}");
    assert!(ran > 100 && accepted > 0, "{tally:?}");
}

/// The two inputs that reached a panic before the gate had their rules:
/// a capacity that is not a power of two, and a rate mix wider than its
/// member limit.
#[test]
fn the_known_panics_are_refused_at_the_gate() {
    use experiments::study::{find_study, StudyParams};
    let tiny = StudyParams::with_scale(1e-4);
    for name in ["fig4", "fig7", "regions", "scaling"] {
        let llc3 = StudyParams {
            llc_mib: Some(3),
            ..tiny.clone()
        };
        let e = find_study(name).unwrap().check(&llc3).unwrap_err();
        assert!(e.to_string().contains("power of two"), "{name}: {e}");
    }
    let wide = StudyParams {
        threads: Some(vec![513]),
        ..tiny.clone()
    };
    let scaling = find_study("scaling").unwrap();
    let e = scaling.check(&wide).unwrap_err();
    assert!(e.to_string().contains("512"), "{e}");
    assert!(matches!(scaling.run(&wide), Err(SimError::Config(_))));
    // The same count is a machine every other study can build.
    assert!(find_study("fig2").unwrap().check(&wide).is_ok());
}
