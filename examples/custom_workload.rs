//! Custom workload: build your own op streams (no catalog profile) and
//! get a speedup stack for them — the path a library user takes to
//! analyze their own parallel kernel.
//!
//! The kernel here: four threads, each processing chunks guarded by one
//! global lock, with a barrier between two phases and deliberately
//! unbalanced work.
//!
//! Run with: `cargo run --release --example custom_workload`

use cmpsim::{simulate, MachineConfig, Op, OpStream, VecStream};
use speedup_stacks::render::render_stack;
use speedup_stacks::{AccountingConfig, Component};

fn worker(thread: usize) -> Box<dyn OpStream> {
    let mut ops = Vec::new();
    // Phase 1: data-parallel over this thread's rows, with a shared
    // counter update per chunk.
    for chunk in 0..40u64 {
        ops.push(Op::Compute(2_000));
        for i in 0..8u64 {
            ops.push(Op::Load(0x1000 * thread as u64 + chunk * 8 + i));
        }
        ops.push(Op::LockAcquire(0));
        ops.push(Op::Compute(300));
        ops.push(Op::Store(0xFFFF)); // shared reduction variable
        ops.push(Op::LockRelease(0));
    }
    ops.push(Op::Barrier(0));
    // Phase 2: thread 0 has 4x the work (bad static partitioning).
    // No trailing barrier: the unbalance shows up as the imbalance
    // component (with a final barrier it would count as barrier waiting,
    // per the paper's §4.6 convention).
    let chunks = if thread == 0 { 160 } else { 40 };
    for _ in 0..chunks {
        ops.push(Op::Compute(1_000));
    }
    Box::new(VecStream::new(ops))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 4;
    let result = simulate(MachineConfig::with_cores(n), (0..n).map(worker).collect())?;
    let stack = result.stack(&AccountingConfig::default())?;

    println!("{}", render_stack("custom kernel, 4 threads", &stack));

    // Actionable diagnosis, straight from the stack.
    let spin = stack.component(Component::Spinning) + stack.component(Component::Yielding);
    let imb = stack.component(Component::Imbalance);
    if spin > 0.3 {
        println!("-> the shared-counter lock serializes phase 1: consider per-thread");
        println!("   partial sums and a final reduction.");
    }
    if imb > 0.3 {
        println!("-> phase 2 is unbalanced (thread 0 does 4x the chunks): consider");
        println!("   dynamic chunk scheduling.");
    }

    // For dashboards/CI, the same stack ships as a structured report:
    // `report.to_json()` / `report.to_csv()` carry every component value.
    let mut report = speedup_stacks::Report::new("custom_workload", "custom kernel, 4 threads");
    report.push(speedup_stacks::report::Block::Stack {
        label: "custom kernel".to_string(),
        stack,
    });
    println!("\nCSV form of the stack:\n{}", report.to_csv());
    Ok(())
}
