//! End-to-end many-core coverage: a 128-core machine with a 32-way LLC
//! runs a weak-scaling workload through the whole pipeline — engine,
//! two-word sharer masks, wide-LRU LLC, accounting — and produces a
//! rendered speedup stack.

use cmpsim::{simulate, MachineConfig};
use experiments::scaling::manycore_mem;
use speedup_stacks::render::{render_stack, RenderOptions};
use speedup_stacks::AccountingConfig;
use workloads::{streams_for, Suite, WorkloadProfile};

/// A small weak-scaling workload: every thread does the same fixed work,
/// with a mildly skewed heavy thread and a shared read region.
fn weak_profile() -> WorkloadProfile {
    let mut p = WorkloadProfile::compute_bound("manycore_demo", Suite::Rodinia, 2_000);
    p.phases = 2;
    p.phase_skew = 0.3;
    p.shared_read_frac = 0.1;
    p.shared_write_frac = 0.05;
    p.weak_scaling = true;
    p
}

#[test]
fn full_pipeline_at_128_cores_with_32_way_llc() {
    let cfg = MachineConfig {
        n_cores: 128,
        mem: manycore_mem(),
        ..MachineConfig::default()
    };
    assert_eq!(cfg.mem.llc.ways(), 32, "study LLC must be 32-way");

    let p = weak_profile();
    let result = simulate(cfg, streams_for(&p, 128)).expect("128-core run completes");
    assert_eq!(result.counters.len(), 128);
    assert!(result.tp_cycles > 0);

    // Coherent sharing actually happened at high core indices: stores to
    // the shared region invalidate remote copies.
    let invalidations: u64 = result.truth.iter().map(|t| t.invalidations_sent).sum();
    assert!(invalidations > 0, "no coherence traffic at 128 cores");

    let stack = result
        .stack(&AccountingConfig::default())
        .expect("valid counters");
    assert_eq!(stack.num_threads(), 128);
    // The stack invariant holds at N=128: components sum to N.
    assert!(
        (stack.base_speedup() + stack.total_overhead() - 128.0).abs() < 1e-6,
        "stack does not sum to N"
    );

    let art = render_stack("manycore_demo@128", &stack, &RenderOptions::default());
    assert!(art.contains("N=128"));
    assert!(art.contains("base speedup"));
    assert!(art.lines().count() >= 3, "bar and legend rendered");
}

#[test]
fn manycore_run_is_deterministic() {
    let cfg = MachineConfig {
        n_cores: 128,
        mem: manycore_mem(),
        ..MachineConfig::default()
    };
    let p = weak_profile();
    let a = simulate(cfg, streams_for(&p, 128)).unwrap();
    let b = simulate(cfg, streams_for(&p, 128)).unwrap();
    assert_eq!(a.tp_cycles, b.tp_cycles);
    assert_eq!(a.events, b.events);
    assert_eq!(a.counters, b.counters);
}

#[test]
fn rate_mix_at_65_cores_crosses_the_spill_boundary() {
    // 65 members: the first mix size that needs a second sharer-mask word.
    let mut quick: Vec<WorkloadProfile> = workloads::default_rate_mix();
    for p in &mut quick {
        p.total_items = (p.total_items / 100).max(u64::from(p.phases) * 4);
    }
    let cfg = MachineConfig {
        n_cores: 65,
        mem: manycore_mem(),
        ..MachineConfig::default()
    };
    let result = simulate(cfg, workloads::rate_mix_streams(&quick, 65))
        .expect("65-member rate mix completes");
    assert_eq!(result.counters.len(), 65);
    // Members never wait on each other: no sync episodes at all.
    assert!(result.truth.iter().all(|t| t.wait_episodes == 0));
}
