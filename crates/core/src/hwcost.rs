//! Hardware cost model for the cycle accounting architecture (§4.7).
//!
//! The paper reports 952 bytes per core for the interference accounting
//! (ATD + ORA + raw counters, from reference \[7\]) plus 217 bytes for the Tian et al.
//! spin-detection load table, totalling ~1.1 KB per core and 18 KB for a
//! 16-core CMP. This module recomputes those budgets from the structure
//! geometries so design-space changes (more sampled sets, wider tags,
//! bigger load tables) can be costed.

/// Parametric storage cost model for one core's accounting hardware.
///
/// # Examples
///
/// ```
/// use speedup_stacks::HardwareCostModel;
/// let m = HardwareCostModel::paper_default();
/// assert_eq!(m.interference_bytes(), 952);
/// assert_eq!(m.spin_table_bytes(), 217);
/// assert_eq!(m.total_bytes_per_core(), 1169); // ≈ 1.1 KB
/// assert_eq!(m.total_bytes(16), 18704);       // ≈ 18 KB
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HardwareCostModel {
    /// Number of LLC sets monitored by each core's ATD.
    pub atd_sampled_sets: u32,
    /// LLC/ATD associativity (ways per set).
    pub atd_ways: u32,
    /// Bits per ATD entry (partial tag + status bits).
    pub atd_entry_bits: u32,
    /// Number of DRAM banks tracked by the per-core open row array.
    pub ora_banks: u32,
    /// Bits per ORA entry (row id + valid bit).
    pub ora_entry_bits: u32,
    /// Number of 64-bit raw event counters per core (interference cycles,
    /// LLC miss stalls, LLC miss count, ...).
    pub interference_counters: u32,
    /// Entries in the Tian et al. spin-detection load table (a spin loop is
    /// assumed to contain at most this many loads).
    pub spin_table_entries: u32,
    /// Bits per load-table entry: load PC + address + loaded data + mark
    /// bit + timestamp.
    pub spin_entry_bits: u32,
}

impl HardwareCostModel {
    /// The configuration used in the paper: 952 B interference accounting
    /// per reference \[7\] and an 8-entry load table at 217 bits per entry
    /// (64 b PC + 64 b address + 64 b data + 1 b mark + 24 b timestamp).
    #[must_use]
    pub const fn paper_default() -> Self {
        HardwareCostModel {
            atd_sampled_sets: 32,
            atd_ways: 16,
            atd_entry_bits: 14,
            ora_banks: 8,
            ora_entry_bits: 32,
            interference_counters: 3,
            spin_table_entries: 8,
            spin_entry_bits: 64 + 64 + 64 + 1 + 24,
        }
    }

    /// Bytes for the ATD of one core.
    #[must_use]
    pub const fn atd_bytes(&self) -> u64 {
        bits_to_bytes(
            self.atd_sampled_sets as u64 * self.atd_ways as u64 * self.atd_entry_bits as u64,
        )
    }

    /// Bytes for the open row array of one core.
    #[must_use]
    pub const fn ora_bytes(&self) -> u64 {
        bits_to_bytes(self.ora_banks as u64 * self.ora_entry_bits as u64)
    }

    /// Bytes for the raw event counters of one core.
    #[must_use]
    pub const fn counter_bytes(&self) -> u64 {
        self.interference_counters as u64 * 8
    }

    /// Bytes for the negative/positive interference accounting of one core
    /// (ATD + ORA + counters; the paper's 952 B).
    #[must_use]
    pub const fn interference_bytes(&self) -> u64 {
        self.atd_bytes() + self.ora_bytes() + self.counter_bytes()
    }

    /// Bytes for the Tian et al. spin-detection load table of one core
    /// (the paper's 217 B).
    #[must_use]
    pub const fn spin_table_bytes(&self) -> u64 {
        bits_to_bytes(self.spin_table_entries as u64 * self.spin_entry_bits as u64)
    }

    /// Total accounting bytes per core (the paper's ~1.1 KB).
    #[must_use]
    pub const fn total_bytes_per_core(&self) -> u64 {
        self.interference_bytes() + self.spin_table_bytes()
    }

    /// Total accounting bytes for an `n`-core CMP (the paper's ~18 KB for
    /// 16 cores).
    #[must_use]
    pub const fn total_bytes(&self, n_cores: u32) -> u64 {
        self.total_bytes_per_core() * n_cores as u64
    }
}

impl Default for HardwareCostModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

const fn bits_to_bytes(bits: u64) -> u64 {
    bits.div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers() {
        let m = HardwareCostModel::paper_default();
        assert_eq!(m.atd_bytes(), 896);
        assert_eq!(m.ora_bytes(), 32);
        assert_eq!(m.counter_bytes(), 24);
        assert_eq!(m.interference_bytes(), 952);
        assert_eq!(m.spin_table_bytes(), 217);
        // ~1.1 KB per core, ~18 KB for 16 cores
        assert_eq!(m.total_bytes_per_core(), 1169);
        assert!((m.total_bytes_per_core() as f64 / 1024.0 - 1.1).abs() < 0.05);
        assert!((m.total_bytes(16) as f64 / 1024.0 - 18.0).abs() < 0.3);
    }

    #[test]
    fn spin_entry_is_217_bits() {
        let m = HardwareCostModel::paper_default();
        assert_eq!(m.spin_entry_bits, 217);
    }

    #[test]
    fn scaling_with_geometry() {
        let mut m = HardwareCostModel::paper_default();
        m.atd_sampled_sets *= 2;
        assert_eq!(m.atd_bytes(), 1792);
    }

    #[test]
    fn bits_round_up() {
        assert_eq!(bits_to_bytes(1), 1);
        assert_eq!(bits_to_bytes(8), 1);
        assert_eq!(bits_to_bytes(9), 2);
    }
}
