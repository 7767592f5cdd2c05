//! §4.7: the hardware cost table of the accounting architecture.

use speedup_stacks::report::{Block, Report, Scalar, Unit};
use speedup_stacks::{HardwareCostModel, SimError};

use crate::study::StudyParams;

/// The §4.7 cost breakdown.
#[derive(Debug, Clone)]
struct HwCost {
    /// The model used (paper defaults).
    model: HardwareCostModel,
    /// Cores of the CMP sized in the paper's summary (16).
    cores: u32,
}

impl HwCost {
    /// Converts the cost table into its structured [`Report`]: one
    /// scalar metric in bytes per storage structure.
    fn to_report(&self) -> Report {
        let m = &self.model;
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
                m.total_bytes(self.cores),
                format!(
                    "  total for {}-core CMP                    {:>6} B   (paper: ~18 KB)",
                    self.cores,
                    m.total_bytes(self.cores)
                ),
            ),
        ];
        for (name, value, text) in scalars {
            report.push(Block::Scalar(Scalar::new(name, value, Unit::Bytes, text)));
        }
        report
    }
}

/// The hardware cost table as the registry runs it (no simulation),
/// honoring the thread-count override (the CMP size the total is
/// computed for; workload scale is meaningless here and ignored).
pub(crate) fn report(params: &StudyParams) -> Result<Report, SimError> {
    let cost = HwCost {
        model: HardwareCostModel::paper_default(),
        cores: u32::try_from(params.single_count(16)).unwrap_or(16),
    };
    let mut report = cost.to_report();
    params.record(&mut report);
    Ok(report)
}
