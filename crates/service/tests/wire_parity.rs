//! The wire refuses exactly what the library refuses. A submit's
//! `params` pass the codec (`proto::params_from_wire`, shapes only) and
//! then the study gate (`Study::check`), as the session runs them; for
//! the parameter fuzzer's seeded cases, rendered as a submit's `params`
//! object, that verdict equals the library's on the same values. The
//! wire carries `scale`, `threads` and `llc_mib`; the other fields stay
//! at their defaults on both sides.

#[path = "../../experiments/tests/param_cases/mod.rs"]
mod param_cases;

use experiments::study::StudyParams;
use experiments::{MachineConfig, MemConfig};
use service::proto::{params_from_wire, params_to_wire};
use speedup_stacks::report::json;

/// Cases per run of the loop.
const CASES: u64 = 6_000;

/// What a submit of `params` for `study` gets: the parameters the server
/// would run, or the `bad-params` message.
fn wire_verdict(study: &experiments::Study, params: &StudyParams) -> Result<StudyParams, String> {
    let frame = json::parse(&params_to_wire(params)).expect("the encoder writes JSON");
    let decoded = params_from_wire(Some(&frame))?;
    study.check(&decoded).map_err(|e| e.to_string())?;
    Ok(decoded)
}

#[test]
fn the_wire_refuses_exactly_what_the_library_refuses() {
    let dir = std::env::temp_dir();
    let (mut accepted, mut refused) = (0, 0);
    for seed in 0..CASES {
        let (study, full) = param_cases::case(seed, &dir);
        let params = StudyParams {
            scale: full.scale,
            threads: full.threads,
            llc_mib: full.llc_mib,
            ..StudyParams::default()
        };
        let library = study.check(&params);
        let wire = wire_verdict(study, &params);
        match (&library, &wire) {
            (Ok(()), Ok(back)) => {
                assert_eq!(back.scale.to_bits(), params.scale.to_bits(), "seed {seed}");
                assert_eq!(
                    (&back.threads, back.llc_mib),
                    (&params.threads, params.llc_mib),
                    "seed {seed}"
                );
                accepted += 1;
            }
            (Err(_), Err(_)) => refused += 1,
            _ => panic!(
                "seed {seed}: {} {params:?}: library {library:?}, wire {wire:?}",
                study.name()
            ),
        }
    }
    assert!(accepted > 500 && refused > 500, "{accepted} / {refused}");
}

/// Each bound admits its limit and refuses one past it, on the wire as
/// in the library, and the refusal names the field.
#[test]
fn the_wire_bounds_are_the_gates() {
    let fig1 = experiments::find_study("fig1").unwrap();
    let scaling = experiments::find_study("scaling").unwrap();
    let with = |threads: usize, llc_mib: usize| StudyParams {
        threads: Some(vec![2, threads]),
        llc_mib: Some(llc_mib),
        ..StudyParams::default()
    };
    let max = MachineConfig::MAX_CORES;
    let llc = MemConfig::MAX_LLC_MIB;
    assert!(wire_verdict(fig1, &with(max, llc)).is_ok());
    assert!(wire_verdict(fig1, &with(max + 1, 1))
        .unwrap_err()
        .contains("threads"));
    for mib in [0, 3, llc + 1, 2 * llc] {
        let e = wire_verdict(fig1, &with(2, mib)).unwrap_err();
        assert!(e.contains("llc_mib") && e.contains("power of two"), "{e}");
    }
    assert!(wire_verdict(scaling, &with(512, 1)).is_ok());
    assert!(wire_verdict(scaling, &with(513, 1))
        .unwrap_err()
        .contains("512"));
}
