//! §4.7: the hardware cost table of the accounting architecture.
//!
//! `report` builds the table from the paper's cost model.

use speedup_stacks::report::{Block, Degraded, Report, Scalar, Unit};
use speedup_stacks::{HardwareCostModel, SimError};

use crate::decompose::finish;
use crate::study::StudyParams;

/// The hardware cost table as the registry runs it (no simulation):
/// one scalar metric in bytes per storage structure, honoring the
/// thread-count override (the CMP size the total is computed for;
/// workload scale is meaningless here and ignored).
pub(crate) fn report(params: &StudyParams) -> Result<Report, SimError> {
    let m = HardwareCostModel::paper_default();
    let cores = u32::try_from(params.single_count(16)).unwrap_or(16);
    let title = "Hardware cost of the cycle accounting architecture (§4.7)";
    let mut report = Report::new("hwcost", title);
    report.push(Block::line(title));
    let scalars: [(&str, u64, String); 7] = [
        (
            "atd_bytes",
            m.atd_bytes(),
            format!(
                "  ATD ({} sets × {} ways × {} bits)      {:>6} B",
                m.atd_sampled_sets,
                m.atd_ways,
                m.atd_entry_bits,
                m.atd_bytes()
            ),
        ),
        (
            "ora_bytes",
            m.ora_bytes(),
            format!(
                "  ORA ({} banks × {} bits)                {:>6} B",
                m.ora_banks,
                m.ora_entry_bits,
                m.ora_bytes()
            ),
        ),
        (
            "counter_bytes",
            m.counter_bytes(),
            format!(
                "  raw event counters ({} × 64 bits)        {:>6} B",
                m.interference_counters,
                m.counter_bytes()
            ),
        ),
        (
            "interference_bytes",
            m.interference_bytes(),
            format!(
                "  interference accounting total            {:>6} B   (paper: 952 B)",
                m.interference_bytes()
            ),
        ),
        (
            "spin_table_bytes",
            m.spin_table_bytes(),
            format!(
                "  spin load table ({} × {} bits)          {:>6} B   (paper: 217 B)",
                m.spin_table_entries,
                m.spin_entry_bits,
                m.spin_table_bytes()
            ),
        ),
        (
            "total_bytes_per_core",
            m.total_bytes_per_core(),
            format!(
                "  total per core                           {:>6} B   (paper: ~1.1 KB)",
                m.total_bytes_per_core()
            ),
        ),
        (
            "total_bytes",
            m.total_bytes(cores),
            format!(
                "  total for {}-core CMP                    {:>6} B   (paper: ~18 KB)",
                cores,
                m.total_bytes(cores)
            ),
        ),
    ];
    for (name, value, text) in scalars {
        report.push(Block::Scalar(Scalar::new(name, value, Unit::Bytes, text)));
    }
    Ok(finish(report, Degraded::default(), None, params))
}
