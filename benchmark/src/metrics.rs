//! The fixed vocabulary: workload names, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repo
//! root declares the same lists; a self-test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// `(name, why)` of the six workloads, in round-robin order.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "fig4_grid",
        "The paper's validation grid at scale 1: memsim access path, cmpsim loop and generators do the work, per-point set-up is ~3 %; yields the Fig. 4 accuracy numbers.",
    ),
    (
        "manycore_sweep",
        "1->128 cores on a 4 MiB 32-way LLC: spilled sharer sets, wide LRU, 128 L1s and barrier-heavy queues, so a gain for the <=16-core path that costs the spilled path shows here.",
    ),
    (
        "figure_suite_small",
        "All 12 studies at scale 0.05 as text+JSON+CSV, the developer/CI loop: per-point fixed costs dominate and per-access cost matters little, the mirror image of fig4_grid.",
    ),
    (
        "trace_replay",
        "fig6 replayed from a captured .sstrace: bypasses the generators and puts the trace decoder under the identical engine, so generator gains must not move it.",
    ),
    (
        "served_paper",
        "fig4+fig6+fig5+fig1 cold through one in-process studyd with 2 workers: scheduler, worker pool, stream and spill append under real compute; 86 of 226 units repeat.",
    ),
    (
        "served_warm",
        "1,200 warm submits of a cached fig4 after a spill reload: compute is bypassed, so JSON, cache lookups and the socket are all the work; simulator changes must not move it.",
    ),
];

/// End-to-end metrics and the share of the parent's median by which
/// each may get worse. Every workload reports every one of them; see
/// README.md for what each means on each workload.
pub const END_TO_END: [(Metric, f64); 8] = [
    (lo("wall_s", "s"), 0.25),
    (hi("sim_mips", "MIPS"), 0.25),
    (lo("peak_rss_mib", "MiB"), 0.10),
    (lo("setup_s", "s"), 0.25),
    (lo("est_err_avg_pct", "%"), 0.10),
    (lo("est_err_max_pct", "%"), 0.10),
    (lo("submit_p50_ms", "ms"), 0.25),
    (hi("submits_per_s", "1/s"), 0.25),
];

/// Whether an end-to-end metric is a host time (or a rate over one).
/// Those are noisy, and on a shared host the noise only ever slows a
/// body down; the others are simulated or counted and repeat.
pub fn is_host_time(name: &str) -> bool {
    !matches!(name, "peak_rss_mib" | "est_err_avg_pct" | "est_err_max_pct")
}

/// Per-layer metrics, layer = crate. Counts are exact and repeat;
/// times come from spans in the traced child. A workload that does not
/// exercise a layer reports 0 for its metrics.
pub const PER_LAYER: [Metric; 75] = [
    // workloads
    lo("workloads.gen_s", "s"),
    lo("workloads.gen_ops", "count"),
    lo("workloads.gen_mem_ops", "count"),
    hi("workloads.gen_mops_per_s", "M/s"),
    lo("workloads.trace_open_s", "s"),
    lo("workloads.trace_decode_s", "s"),
    lo("workloads.trace_ops", "count"),
    lo("workloads.trace_bytes", "bytes"),
    lo("workloads.trace_capture_s", "s"),
    // memsim
    lo("memsim.new_ms_1c", "ms"),
    lo("memsim.new_ms_16c", "ms"),
    lo("memsim.new_ms_128c", "ms"),
    lo("memsim.access_s", "s"),
    lo("memsim.accesses", "count"),
    lo("memsim.access_ns", "ns"),
    hi("memsim.served_l1", "count"),
    lo("memsim.served_llc", "count"),
    lo("memsim.served_dram", "count"),
    lo("memsim.invalidations", "count"),
    lo("memsim.coherency_misses", "count"),
    hi("memsim.cache_maccess_per_s", "M/s"),
    hi("memsim.atd_maccess_per_s", "M/s"),
    hi("memsim.dram_maccess_per_s", "M/s"),
    // cmpsim
    lo("cmpsim.new_ms", "ms"),
    lo("cmpsim.simulate_s", "s"),
    lo("cmpsim.self_s", "s"),
    lo("cmpsim.events", "count"),
    hi("cmpsim.events_per_s", "M/s"),
    lo("cmpsim.instructions", "count"),
    lo("cmpsim.sim_cycles", "count"),
    lo("cmpsim.llc_accesses", "count"),
    lo("cmpsim.llc_misses", "count"),
    lo("cmpsim.wait_episodes", "count"),
    // core
    lo("core.stack_s", "s"),
    lo("core.emit_text_s", "s"),
    lo("core.emit_json_s", "s"),
    lo("core.emit_csv_s", "s"),
    lo("core.report_json_bytes", "bytes"),
    lo("core.json_parse_s", "s"),
    // experiments
    lo("experiments.study_s", "s"),
    lo("experiments.trace_overhead_pct", "%"),
    lo("experiments.units", "count"),
    lo("experiments.unit_ref_s", "s"),
    lo("experiments.unit_point_s", "s"),
    lo("experiments.unit_p50_ms", "ms"),
    lo("experiments.unit_max_ms", "ms"),
    lo("experiments.assemble_s", "s"),
    lo("experiments.driver_overhead_s", "s"),
    hi("experiments.par_speedup_2w", "ratio"),
    lo("experiments.journal_write_s", "s"),
    lo("experiments.journal_resume_s", "s"),
    // service
    lo("service.handshake_ms", "ms"),
    lo("service.accept_ms", "ms"),
    lo("service.first_frame_ms", "ms"),
    lo("service.stream_ms", "ms"),
    lo("service.frames", "count"),
    lo("service.record_bytes", "bytes"),
    lo("service.sched_submit_ms", "ms"),
    lo("service.wire_overhead_ms", "ms"),
    lo("service.cache_get_ns", "ns"),
    lo("service.cache_put_ns", "ns"),
    lo("service.record_encode_us", "us"),
    lo("service.record_decode_us", "us"),
    lo("service.spill_reload_s", "s"),
    lo("service.spill_bytes", "bytes"),
    lo("service.submit_p99_ms", "ms"),
    lo("service.points_computed", "count"),
    hi("service.points_cached", "count"),
    hi("service.cache_hits", "count"),
    lo("service.cache_misses", "count"),
    lo("service.repeat_unit_share", "share"),
    hi("service.workers_speedup_2w", "ratio"),
    // host
    lo("host.cpu_s", "s"),
    lo("host.proc_wall_s", "s"),
    lo("host.yardstick_ns", "ns"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use speedup_stacks::report::json::{parse, JsonValue};

    fn field<'a>(v: &'a JsonValue, key: &str) -> &'a JsonValue {
        v.get(key).unwrap_or_else(|| panic!("missing {key}"))
    }

    fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
        field(v, key)
            .as_str()
            .unwrap_or_else(|| panic!("{key} is not a string"))
    }

    /// `BENCHMARK.json` is what the acceptance driver reads; the harness
    /// prints from the tables above. They must say the same thing.
    #[test]
    fn benchmark_json_declares_exactly_these_lists() {
        let path = format!("{}/../BENCHMARK.json", env!("CARGO_MANIFEST_DIR"));
        let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let doc = parse(&raw).expect("BENCHMARK.json parses");

        let workloads = field(&doc, "workloads").as_array().expect("array");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(text(w, "name"), name);
            assert_eq!(text(w, "why"), why);
            assert!(why.len() <= 200, "{name}: why has {} characters", why.len());
        }

        let e2e = field(&doc, "end_to_end").as_array().expect("array");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, (def, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(text(m, "name"), def.name);
            assert_eq!(text(m, "unit"), def.unit);
            assert_eq!(text(m, "better"), def.better.as_str());
            assert_eq!(field(m, "bound").as_f64(), Some(bound));
            assert!(bound <= 0.25);
        }

        let layers = field(&doc, "per_layer").as_array().expect("array");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, def) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text(m, "name"), def.name);
            assert_eq!(text(m, "unit"), def.unit);
            assert_eq!(text(m, "better"), def.better.as_str());
        }
        assert_eq!(field(&doc, "paths").as_array().map(<[_]>::len), Some(1));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.0.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
