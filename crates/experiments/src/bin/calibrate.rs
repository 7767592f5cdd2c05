//! Calibration helper: runs every catalog benchmark at 16 threads (and a
//! single-threaded reference) and prints measured vs paper speedups plus
//! the dominant stack components, so catalog parameters can be tuned.

use experiments::{map_mode, run_profile, scaled_profile, Parallelism, RunOptions};
use speedup_stacks::Component;
use workloads::display_name;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0);
    let only: Option<String> = std::env::args().nth(2);
    println!(
        "{:<22} {:>7} {:>7} {:>7} {:>6}  components (top, in speedup units)",
        "benchmark", "paper", "actual", "est", "err%"
    );
    let selected: Vec<workloads::WorkloadProfile> = workloads::paper_suite()
        .into_iter()
        .filter(|p| {
            only.as_ref()
                .is_none_or(|f| display_name(p).contains(f.as_str()))
        })
        .collect();
    // All benchmarks as one parallel sweep; rows print in catalog order.
    let rows = map_mode(Parallelism::Auto, selected, |p| {
        let name = display_name(&p);
        let scaled = scaled_profile(&p, scale);
        let t0 = std::time::Instant::now();
        let line = match run_profile(&scaled, &RunOptions::symmetric(16), None) {
            Ok(out) => {
                let ranked = out.stack.overheads().ranked();
                let comps: Vec<String> = ranked
                    .iter()
                    .take(4)
                    .filter(|(_, v)| *v > 0.16)
                    .map(|(c, v)| format!("{}={:.2}", c.label(), v))
                    .collect();
                let _ = Component::ALL; // keep import used
                format!(
                    "{:<22} {:>7.2} {:>7.2} {:>7.2} {:>6.1}  pos={:.2} {}  [{:.1}s]",
                    name,
                    p.paper_speedup16,
                    out.actual,
                    out.estimated,
                    out.error() * 100.0,
                    out.stack.positive_interference(),
                    comps.join(" "),
                    t0.elapsed().as_secs_f64(),
                )
            }
            Err(e) => format!("{name:<22} ERROR: {e}"),
        };
        line
    });
    for row in rows {
        println!("{row}");
    }
}
