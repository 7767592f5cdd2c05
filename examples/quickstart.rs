//! Quickstart: compute a speedup stack for one workload on a simulated
//! 16-core CMP, exactly the paper's single-run recipe.
//!
//! Run with: `cargo run --release --example quickstart`

use cmpsim::{simulate, MachineConfig};
use speedup_stacks::render::render_stack;
use speedup_stacks::AccountingConfig;
use workloads::{find, streams_for, Suite};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Pick a benchmark model from the paper's suite.
    let profile = find("facesim", Suite::ParsecMedium).expect("catalog entry exists");

    // 1. One multi-threaded run drives the per-thread cycle accounting.
    let machine = MachineConfig::with_cores(16);
    let mt = simulate(machine, streams_for(&profile, 16))?;

    // 2. The accounting turns raw counters into a speedup stack.
    let stack = mt.stack(&AccountingConfig::default())?;

    // 3. (Validation only) a single-threaded run provides the actual
    //    speedup S = Ts / Tp; the stack's estimate needs no such run.
    let st = simulate(MachineConfig::with_cores(1), streams_for(&profile, 1))?;
    let actual = st.tp_cycles as f64 / mt.tp_cycles as f64;
    let stack = stack.with_actual_speedup(actual);

    println!("{}", render_stack("facesim_medium, 16 threads", &stack));
    println!(
        "estimated speedup {:.2} vs actual {:.2} (error {:+.1}% of N)",
        stack.estimated_speedup(),
        actual,
        stack.validation_error().unwrap_or(0.0) * 100.0
    );
    println!(
        "largest scaling bottleneck: {}",
        stack
            .overheads()
            .largest()
            .map_or("none".to_string(), |(c, v)| format!(
                "{c} ({v:.2} speedup units)"
            ))
    );

    // 4. The stack is also serializable: wrap it in a structured report
    //    and emit machine-readable JSON (same model as `repro --format
    //    json`).
    let mut report = speedup_stacks::Report::new("quickstart", "facesim on 16 cores");
    report.push(speedup_stacks::report::Block::Stack {
        label: "facesim_medium".to_string(),
        stack,
    });
    println!("\nthe same stack as JSON:\n{}", report.to_json());
    Ok(())
}
