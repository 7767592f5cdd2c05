//! Calibration helper: sweeps the Figure 6 grid (every catalog benchmark
//! at 16 threads, each against its single-threaded reference) and prints
//! measured vs paper speedups plus the dominant stack components, so
//! catalog parameters can be tuned.
//!
//! `calibrate [scale] [name-filter]`: the filter selects the printed
//! rows; the whole grid is swept either way.

use experiments::decompose::decompose;
use experiments::{find_study, StudyParams};
use speedup_stacks::SimError;
use workloads::display_name;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let only: Option<String> = std::env::args().nth(2);
    let params = StudyParams::with_scale(scale);
    let grid = decompose("fig6", &params).expect("fig6 is a grid study");
    let gate = find_study("fig6").expect("a registry study").check(&params);
    let swept = gate
        .map_err(SimError::Config)
        .and_then(|()| grid.sweep(&params));
    let (points, degraded, _) = match swept {
        Ok(swept) => swept,
        Err(e) => {
            eprintln!("calibrate: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{:<22} {:>7} {:>7} {:>7} {:>6}  components (top, in speedup units)",
        "benchmark", "paper", "actual", "est", "err%"
    );
    // One point per benchmark, in catalog order.
    for (i, (p, out)) in grid.profiles().iter().zip(&points).enumerate() {
        let name = display_name(p);
        if only.as_ref().is_some_and(|f| !name.contains(f.as_str())) {
            continue;
        }
        let Some(out) = out else {
            let failure = degraded.failed.iter().find(|f| f.label == grid.label(i));
            println!(
                "{name:<22} ERROR: {}",
                failure.map_or("failed", |f| &f.reason)
            );
            continue;
        };
        let comps: Vec<String> = out
            .stack
            .overheads()
            .ranked()
            .iter()
            .take(4)
            .filter(|(_, v)| *v > 0.16)
            .map(|(c, v)| format!("{}={:.2}", c.label(), v))
            .collect();
        println!(
            "{:<22} {:>7.2} {:>7.2} {:>7.2} {:>6.1}  pos={:.2} {}",
            name,
            p.paper_speedup16,
            out.actual,
            out.estimated,
            out.error() * 100.0,
            out.stack.positive_interference(),
            comps.join(" "),
        );
    }
}
